#pragma once
// IOP — Information of Object Path (paper Sections II-C and III).
//
// Each node stores, for every object it has observed, the segment of the
// object's path it witnessed: when the object arrived, which node it came
// from (filled in by the gateway's M3 message) and which node it departed
// to (filled in later by M2). Across nodes these records form a
// distributed doubly-linked list sorted by time — the structure trace
// queries walk.
//
// The paper implicitly assumes an object visits a node at most once; real
// supply chains revisit (returns, re-distribution), so IopStore keeps a
// time-ordered visit list per object and every link carries the arrival
// time that identifies the visit.

#include <cstdint>
#include <optional>
#include <vector>

#include "chord/types.hpp"
#include "moods/object.hpp"
#include "obs/flight_recorder.hpp"
#include "util/flat_hash.hpp"

namespace peertrack::moods {

/// One witnessed visit of an object at this node.
struct Visit {
  Time arrived = 0.0;
  /// Node the object came from, and its arrival time there (identifies the
  /// predecessor visit). Unset while the gateway's M3 is outstanding;
  /// NodeRef{} (invalid) once confirmed "first appearance".
  std::optional<chord::NodeRef> from;
  std::optional<Time> from_arrived;
  /// Node the object departed to, and its arrival time there. Unset while
  /// the object is still here (or M2 has not arrived).
  std::optional<chord::NodeRef> to;
  std::optional<Time> to_arrived;
};

/// Per-node IOP repository.
class IopStore {
 public:
  /// Record an arrival (capture). Returns the visit index.
  std::size_t RecordArrival(const hash::UInt160& object, Time arrived);

  /// Apply an M3 update: the visit at `arrived` came from `from` (invalid
  /// NodeRef = first appearance), where it had arrived at `from_arrived`.
  /// Creates the visit if the capture has not been recorded locally yet
  /// (messages can arrive out of order).
  void SetFrom(const hash::UInt160& object, Time arrived, const chord::NodeRef& from,
               std::optional<Time> from_arrived);

  /// Apply an M2 update: the visit that was current at `to_arrived` left to
  /// node `to`, arriving there at `to_arrived`.
  void SetTo(const hash::UInt160& object, const chord::NodeRef& to, Time to_arrived);

  bool Knows(const hash::UInt160& object) const;

  /// All visits of `object` at this node, sorted by arrival time. Empty
  /// when unknown.
  const std::vector<Visit>* VisitsOf(const hash::UInt160& object) const;

  /// The latest visit with arrival time <= `at`; nullptr if none.
  const Visit* VisitAtOrBefore(const hash::UInt160& object, Time at) const;

  /// The visit with exactly this arrival time (the id used in IOP links).
  const Visit* VisitAt(const hash::UInt160& object, Time arrived) const;

  /// Warm the table lines a VisitAt/VisitsOf probe for `object` would
  /// touch; issued by the invariant monitor ahead of its judge loop.
  void PrefetchVisits(const hash::UInt160& object) const noexcept {
    visits_.Prefetch(object);
  }

  /// The visit an M2 `to_arrived` refers to: the latest visit that began
  /// STRICTLY before the object arrived at its next stop (same selection
  /// rule as SetTo, exposed so the M2 handler can inspect the existing
  /// link before overwriting it).
  const Visit* DepartingVisit(const hash::UInt160& object, Time to_arrived) const;

  std::size_t ObjectCount() const noexcept { return visits_.Size(); }
  std::uint64_t VisitCount() const noexcept { return total_visits_; }

  /// Objects whose latest visit here has no outgoing link as of `at` —
  /// i.e. the goods currently on this node's premises at that time (the
  /// local inverse of L: "what is here?").
  std::vector<hash::UInt160> InventoryAt(Time at) const;

  /// Dwell-time statistics over completed visits (departure - arrival);
  /// open visits are excluded. (mean/min/max in ms, plus count).
  struct DwellStats {
    std::uint64_t completed_visits = 0;
    double mean_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
  };
  DwellStats DwellStatistics() const;

  // --- Graceful-leave handoff (see DESIGN.md §8) -----------------------

  /// Rewrite one link of the visit identified by (`object`, `arrived`):
  /// the to-link when `fix_to`, else the from-link. Only the node ref is
  /// replaced — the linked arrival time still identifies the same visit,
  /// which now lives at `new_node`. Returns false if the visit or the link
  /// does not exist (repoint raced a record that was never created).
  bool RepointLink(const hash::UInt160& object, Time arrived, bool fix_to,
                   const chord::NodeRef& new_node);

  /// Rewrite every from/to link that references `old_actor` to point at
  /// `new_node` instead (self-link rewrite before a handoff extraction).
  void RepointNode(sim::ActorId old_actor, const chord::NodeRef& new_node);

  /// Remove and return every visit list (graceful-leave handoff).
  std::vector<std::pair<hash::UInt160, std::vector<Visit>>> ExtractAll();

  /// Merge visits handed over by a departing node into this store,
  /// preserving time order. Visits at already-known timestamps keep the
  /// link-richer record (handed-over links win over unset ones).
  void AdoptVisits(const hash::UInt160& object, const std::vector<Visit>& visits);

  /// Visit-list iteration (snapshotting, audits). Order is unspecified.
  template <typename Fn>
  void ForEachObject(Fn&& fn) const {
    for (const auto& [object, visits] : visits_) fn(object, visits);
  }

  /// Approximate serialized size of one visit record on the wire.
  static constexpr std::size_t kVisitWireBytes = 20 + 8 + 2 * (24 + 8);

  /// Publish a kIopVisit/kIopDropped delta for `actor` whenever a visit
  /// record mutates. Publishing at the store level (not the message
  /// handlers) means every writer — M2/M3 application, handoff adoption,
  /// repointing, and test corruption through mutable_iop() — is covered.
  void Bind(obs::FlightRecorder* log, std::uint32_t actor) noexcept {
    log_ = log;
    actor_ = actor;
  }

 private:
  void PublishTouched(obs::RecEvent kind, const hash::UInt160& object) const {
    if (log_ != nullptr && log_->Active()) {
      log_->Publish(obs::StateDelta::Object(kind, actor_, object));
    }
  }

  /// Visit-granular kIopVisit delta: (actor, object, arrived) names ONE
  /// visit record. Every link write publishes the local visit AND the
  /// counterpart visit the link names on the other node — an IOP link is
  /// audited from both endpoints (the forward check on this node inspects
  /// the far node's from-link and vice versa), so a single-sided mark
  /// would leave the far side's finding stale until the next full sweep.
  /// `gate` is the earliest sim time the write becomes judgeable when that
  /// is later than the record's own arrival (a departure write is gated on
  /// the next hop's arrival); defaults to the arrival itself.
  void PublishVisitKey(const hash::UInt160& object, std::uint32_t actor,
                       Time arrived, Time gate = -1.0) const {
    if (log_ != nullptr && log_->Active()) {
      obs::StateDelta delta =
          obs::StateDelta::Object(obs::RecEvent::kIopVisit, actor, object);
      delta.when = arrived;
      delta.gate = gate;
      log_->Publish(delta);
    }
  }

  Visit* FindVisit(const hash::UInt160& object, Time arrived);

  // Flat open-addressing table: VisitAt/VisitsOf are on the invariant
  // monitor's per-scan hot path (millions of probes per run).
  util::FlatHashMap<hash::UInt160, std::vector<Visit>, hash::UInt160Hasher> visits_;
  std::uint64_t total_visits_ = 0;
  obs::FlightRecorder* log_ = nullptr;
  std::uint32_t actor_ = 0xFFFFFFFFu;
};

}  // namespace peertrack::moods
