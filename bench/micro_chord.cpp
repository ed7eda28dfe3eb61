// Micro-benchmark (A3): Chord routing — validates the O(log N) hop bound
// the paper's cost analysis rests on (Section IV-C) and measures the
// simulator's lookup throughput.

#include <benchmark/benchmark.h>

#include <memory>

#include "chord/chord_ring.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace {

using namespace peertrack;

struct RingHarness {
  explicit RingHarness(std::size_t n)
      : latency(5.0), rng(7), network(sim, latency, rng), ring(network) {
    for (std::size_t i = 0; i < n; ++i) ring.AddNode(util::Format("bench-{}", i));
    ring.OracleBootstrap();
  }
  sim::Simulator sim;
  sim::ConstantLatency latency;
  util::Rng rng;
  sim::Network network;
  chord::ChordRing ring;
};

chord::Key RandomKey(util::Rng& rng) {
  hash::UInt160::Words words;
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.Next());
  return chord::Key{words};
}

void BM_ChordLookup(benchmark::State& state) {
  RingHarness harness(static_cast<std::size_t>(state.range(0)));
  util::Rng keys(11);
  util::RunningStats hops;
  for (auto _ : state) {
    const chord::Key key = RandomKey(keys);
    auto& origin =
        harness.ring.Node(static_cast<std::size_t>(keys.NextBelow(harness.ring.NodeCount())));
    std::size_t observed = 0;
    origin.Lookup(key, [&](const chord::NodeRef&, std::size_t h) { observed = h; });
    harness.sim.Run();
    hops.Add(static_cast<double>(observed));
    benchmark::DoNotOptimize(observed);
  }
  state.counters["mean_hops"] = hops.Mean();
  state.counters["max_hops"] = hops.Max();
}
BENCHMARK(BM_ChordLookup)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_OracleBootstrap(benchmark::State& state) {
  for (auto _ : state) {
    RingHarness harness(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(harness.ring.NodeCount());
  }
}
BENCHMARK(BM_OracleBootstrap)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_RouteStepDecision(benchmark::State& state) {
  RingHarness harness(256);
  util::Rng keys(13);
  auto& node = harness.ring.Node(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.NextRouteStep(RandomKey(keys)));
  }
}
BENCHMARK(BM_RouteStepDecision);

}  // namespace

BENCHMARK_MAIN();
