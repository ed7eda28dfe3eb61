#include "sim/message_pool.hpp"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "obs/profiler.hpp"

// Detect AddressSanitizer on both GCC (__SANITIZE_ADDRESS__) and Clang
// (__has_feature). The pool is disabled under ASan so use-after-free and
// leak detection keep working on message payloads.
#if defined(__SANITIZE_ADDRESS__)
#define PEERTRACK_MESSAGE_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PEERTRACK_MESSAGE_POOL_DISABLED 1
#endif
#endif

namespace peertrack::sim {

namespace {

/// Size classes are multiples of kClassGranularity; anything above
/// kMaxPooledSize goes straight to ::operator new. Typical messages
/// (arrival reports, probes, rpc envelopes) are 64-320 bytes, batched
/// updates with inline vectors sit at the small end too (their element
/// storage is the vector's own heap allocation).
constexpr std::size_t kClassGranularity = 64;
constexpr std::size_t kClassCount = 8;  // 64, 128, ..., 512 bytes.
constexpr std::size_t kMaxPooledSize = kClassGranularity * kClassCount;
/// Objects carved per slab; big enough to amortize the global-registry
/// mutex to noise (one lock per kSlabObjects allocations, worst case).
constexpr std::size_t kSlabObjects = 256;
/// Header prefixed to every allocation: size class, or kUnpooledClass for
/// fall-through allocations. 16 bytes keeps max_align_t alignment for the
/// payload that follows.
constexpr std::size_t kHeaderSize = alignof(std::max_align_t);
constexpr std::uint64_t kUnpooledClass = ~0ULL;

static_assert(kHeaderSize >= sizeof(std::uint64_t));

thread_local MessagePoolStats tls_stats;

#if !defined(PEERTRACK_MESSAGE_POOL_DISABLED)

struct FreeNode {
  FreeNode* next;
};

/// Process-global pool state (see header), all guarded by `mutex` and
/// touched only on a freelist miss or at thread exit, never per
/// allocation. `slabs` owns every slab until process exit; `orphans` holds
/// the freelists of exited threads, one chain per size class.
struct GlobalPool {
  std::mutex mutex;
  std::vector<std::unique_ptr<std::byte[]>> slabs;
  FreeNode* orphans[kClassCount] = {};
};

GlobalPool& Global() {
  static GlobalPool pool;
  return pool;
}

struct ThreadCache {
  FreeNode* freelists[kClassCount] = {};

  /// Hand this thread's free blocks to the orphan lists so the next thread
  /// that misses adopts them instead of carving fresh slabs.
  ~ThreadCache() {
    GlobalPool& pool = Global();
    const std::lock_guard<std::mutex> lock(pool.mutex);
    for (std::size_t c = 0; c < kClassCount; ++c) {
      FreeNode* head = freelists[c];
      if (head == nullptr) continue;
      FreeNode* tail = head;
      while (tail->next != nullptr) tail = tail->next;
      tail->next = pool.orphans[c];
      pool.orphans[c] = head;
      freelists[c] = nullptr;
    }
  }
};

thread_local ThreadCache tls_cache;

std::size_t ClassIndexFor(std::size_t payload_size) noexcept {
  return (payload_size + kClassGranularity - 1) / kClassGranularity - 1;
}

std::size_t ClassBlockSize(std::size_t class_index) noexcept {
  return kHeaderSize + (class_index + 1) * kClassGranularity;
}

/// Move the orphan chain of `class_index`, if an exited thread left one,
/// onto the calling thread's (empty) freelist.
bool AdoptOrphans(std::size_t class_index) {
  GlobalPool& pool = Global();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  FreeNode*& orphans = pool.orphans[class_index];
  if (orphans == nullptr) return false;
  tls_cache.freelists[class_index] = orphans;
  orphans = nullptr;
  return true;
}

/// Carve one slab for `class_index` and thread its blocks onto the calling
/// thread's freelist.
void CarveSlab(std::size_t class_index) {
  const std::size_t block = ClassBlockSize(class_index);
  const std::size_t bytes = block * kSlabObjects;
  auto slab = std::make_unique<std::byte[]>(bytes);
  std::byte* base = slab.get();
  {
    GlobalPool& pool = Global();
    const std::lock_guard<std::mutex> lock(pool.mutex);
    pool.slabs.push_back(std::move(slab));
  }
  FreeNode*& head = tls_cache.freelists[class_index];
  for (std::size_t i = 0; i < kSlabObjects; ++i) {
    auto* node = reinterpret_cast<FreeNode*>(base + i * block);
    node->next = head;
    head = node;
  }
  tls_stats.slab_bytes += bytes;
}

#endif  // !PEERTRACK_MESSAGE_POOL_DISABLED

void* UnpooledAllocate(std::size_t size) {
  auto* raw = static_cast<std::byte*>(::operator new(kHeaderSize + size));
  *reinterpret_cast<std::uint64_t*>(raw) = kUnpooledClass;
  ++tls_stats.fallback;
  return raw + kHeaderSize;
}

}  // namespace

MessagePoolStats MessagePoolStats::Read() noexcept { return tls_stats; }

void MessagePoolStats::ResetThread() noexcept { tls_stats = MessagePoolStats{}; }

bool MessagePool::Enabled() noexcept {
#if defined(PEERTRACK_MESSAGE_POOL_DISABLED)
  return false;
#else
  return true;
#endif
}

void* MessagePool::Allocate(std::size_t size) {
  // Attribute message-allocation volume to the profiler's open scopes
  // (both pooled and fall-through paths; reuse counts the same as a fresh
  // carve — the metric is allocator churn, not slab growth).
  obs::prof::OnAlloc(size);
#if defined(PEERTRACK_MESSAGE_POOL_DISABLED)
  return UnpooledAllocate(size);
#else
  if (size == 0) size = 1;
  if (size > kMaxPooledSize) return UnpooledAllocate(size);
  const std::size_t class_index = ClassIndexFor(size);
  FreeNode*& head = tls_cache.freelists[class_index];
  if (head != nullptr || AdoptOrphans(class_index)) {
    ++tls_stats.reused;
  } else {
    CarveSlab(class_index);
  }
  FreeNode* node = head;
  head = node->next;
  ++tls_stats.served;
  auto* raw = reinterpret_cast<std::byte*>(node);
  *reinterpret_cast<std::uint64_t*>(raw) = class_index;
  return raw + kHeaderSize;
#endif
}

void MessagePool::Deallocate(void* ptr) noexcept {
  if (ptr == nullptr) return;
  auto* raw = static_cast<std::byte*>(ptr) - kHeaderSize;
  const std::uint64_t class_index = *reinterpret_cast<std::uint64_t*>(raw);
  if (class_index == kUnpooledClass) {
    ::operator delete(raw);
    return;
  }
#if defined(PEERTRACK_MESSAGE_POOL_DISABLED)
  // Pooled headers cannot appear when the pool is compiled out.
  std::abort();
#else
  auto* node = reinterpret_cast<FreeNode*>(raw);
  node->next = tls_cache.freelists[class_index];
  tls_cache.freelists[class_index] = node;
#endif
}

}  // namespace peertrack::sim
