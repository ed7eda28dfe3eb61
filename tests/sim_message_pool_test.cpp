// Message-pool recycling across threads: blocks freed on a thread that
// then exits must be reused by the next thread, not stranded on the dead
// thread's freelists.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/message_pool.hpp"

namespace peertrack::sim {
namespace {

constexpr std::size_t kSize = 200;  // one pooled size class
constexpr std::size_t kCount = 1000;

TEST(MessagePool, ExitedThreadsFreelistIsAdoptedByTheNextThread) {
  if (!MessagePool::Enabled()) GTEST_SKIP() << "pool compiled out";
  std::thread first([] {
    std::vector<void*> blocks;
    for (std::size_t i = 0; i < kCount; ++i) {
      blocks.push_back(MessagePool::Allocate(kSize));
    }
    for (void* p : blocks) MessagePool::Deallocate(p);
  });
  first.join();

  MessagePoolStats stats;
  std::thread second([&] {
    std::vector<void*> blocks;
    for (std::size_t i = 0; i < kCount; ++i) {
      blocks.push_back(MessagePool::Allocate(kSize));
    }
    stats = MessagePoolStats::Read();
    for (void* p : blocks) MessagePool::Deallocate(p);
  });
  second.join();

  EXPECT_EQ(stats.served, kCount);
  EXPECT_EQ(stats.reused, kCount);
  EXPECT_EQ(stats.slab_bytes, 0u);
}

}  // namespace
}  // namespace peertrack::sim
