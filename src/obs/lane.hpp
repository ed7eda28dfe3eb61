#pragma once
// Observability lane of the calling thread.
//
// The sharded simulation kernel (sim::ShardEngine) runs S event loops on
// worker threads. Observability sinks those threads write (counters,
// histograms, metrics, the mutation log) are lane-striped: each writer
// thread appends to its own lane, and a deterministic merge
// folds lanes together at the window barrier or at read time. The
// mutation log (obs::FlightRecorder) is the strict case: worker lanes
// only append, and the barrier drains them in lane order on the
// coordinator, so its consumer and rings see one canonical stream.
//
// The lane id lives here, below the rest of obs/, so every sink can route
// on it without depending on the simulator layer. Lane 0 is the
// coordinator's lane: the coordinator thread runs shard 0's windows
// itself and all control-plane work between windows, so un-sharded runs
// never see a lane other than 0 and keep their exact pre-sharding
// behavior.

#include <cstdint>

namespace peertrack::obs {

namespace detail {
inline thread_local std::uint32_t tls_lane = 0;
}  // namespace detail

/// Lane of the calling thread: the shard id inside a parallel window,
/// 0 on the coordinator thread and in un-sharded runs.
inline std::uint32_t CurrentLane() noexcept { return detail::tls_lane; }

/// Set by sim::ShardEngine around each shard window. Not for general use.
inline void SetCurrentLane(std::uint32_t lane) noexcept {
  detail::tls_lane = lane;
}

/// RAII lane switch; restores the previous lane on scope exit.
class LaneScope {
 public:
  explicit LaneScope(std::uint32_t lane) noexcept : prev_(CurrentLane()) {
    SetCurrentLane(lane);
  }
  ~LaneScope() { SetCurrentLane(prev_); }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  std::uint32_t prev_;
};

}  // namespace peertrack::obs
