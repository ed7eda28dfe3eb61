#pragma once
// Chord successor list.
//
// The r nearest successors, kept sorted by clockwise distance from the
// owner. Redundancy here is what lets the ring survive node failures: when
// the immediate successor dies, the next entry takes over.

#include <cstddef>
#include <vector>

#include "chord/types.hpp"
#include "obs/flight_recorder.hpp"

namespace peertrack::chord {

class SuccessorList {
 public:
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit SuccessorList(const Key& owner,
                         std::size_t capacity = kDefaultCapacity) noexcept
      : owner_(owner), capacity_(capacity) {}

  bool Empty() const noexcept { return entries_.empty(); }
  std::size_t Size() const noexcept { return entries_.size(); }
  std::size_t Capacity() const noexcept { return capacity_; }

  /// Nearest live successor. Precondition: !Empty().
  const NodeRef& First() const noexcept { return entries_.front(); }

  const std::vector<NodeRef>& Entries() const noexcept { return entries_; }

  /// Insert a candidate, keeping clockwise order from the owner and the
  /// capacity bound. Owner itself and duplicates are ignored.
  /// Returns true if the list changed.
  bool Offer(const NodeRef& node);

  /// Merge a peer's successor list (used after stabilize).
  void Merge(const std::vector<NodeRef>& peers);

  /// Drop a dead node. Returns true if it was present.
  bool Remove(const NodeRef& node);

  /// Replace all entries (oracle bootstrap).
  void Assign(std::vector<NodeRef> entries);

  /// Publish kRingNeighbors deltas for `actor` on every mutation.
  /// The list mutates from several protocol paths (stabilize merge,
  /// failover, leave notices), so the store is the reliable choke point.
  void Bind(obs::FlightRecorder* log, std::uint32_t actor) noexcept {
    log_ = log;
    actor_ = actor;
  }

 private:
  void PublishChanged() const {
    if (log_ != nullptr && log_->Active()) {
      log_->Publish(obs::StateDelta::Ring(obs::RecEvent::kRingNeighbors, actor_));
    }
  }

  Key owner_;
  std::size_t capacity_;
  std::vector<NodeRef> entries_;
  obs::FlightRecorder* log_ = nullptr;
  std::uint32_t actor_ = 0xFFFFFFFFu;
};

}  // namespace peertrack::chord
