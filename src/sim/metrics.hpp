#pragma once
// Message and cost accounting for simulations.
//
// The paper's headline metric is "indexing cost, measured by the total
// volume of messages transferred over the network" (Section V-A); queries
// are measured in simulated milliseconds. Metrics centralizes both: the
// network layer records every remote message (count + bytes, per type and
// per actor), and protocol layers record hop counts, named counters, and
// latency samples through the same object, so every bench reads cost
// identically.
//
// Hot-path layout: per-type message accounting (counts, bytes, drops, rpc
// retries/timeouts) is keyed by the dense sim::MsgTypeId and lives in a
// flat array of slots — recording a message is an index plus a few adds,
// with no string hashing or map walk per event. The type *name* is
// interned into the slot on first sight and only touched again when
// rendering. String-keyed overloads remain for synthetic charge types
// (e.g. DataTriangle's modeled rpc exchanges) that have no Message class.
//
// Named counters and latency distributions live in an obs::Registry of
// typed instruments (Counter / Gauge / log-bucketed Histogram with
// p50/p95/p99). Instruments never move once created, so protocol hot loops
// cache `obs::Counter&` references instead of re-resolving names; Reset()
// zeroes values in place precisely so those cached references survive the
// warm-up/measure boundary. Summary() and CsvRows() render the same
// surface as before on top of both stores.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace peertrack::sim {

class Message;

using ActorId = std::uint32_t;
constexpr ActorId kInvalidActor = 0xFFFFFFFFu;

class Metrics {
 public:
  struct TypeCounter {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };

  /// Why a message never reached its destination's OnMessage.
  enum class DropReason {
    kLoss,       ///< Lost on the wire (Network::SetLossRate injection).
    kDownActor,  ///< Destination was down at delivery time.
  };

  /// Record a remote message and its total wire size. The fast path: type
  /// accounting is a dense-id array index.
  void RecordMessage(const Message& message, std::size_t bytes, ActorId from,
                     ActorId to);

  /// Record a remote message by type name — for synthetic charge types
  /// without a Message class (cost modeling). Map-keyed; keep off per-event
  /// hot paths.
  void RecordMessage(std::string_view type, std::size_t bytes, ActorId from,
                     ActorId to);

  /// Record a dropped message, attributed to its cause.
  void RecordDrop(const Message& message, DropReason reason);

  /// Record one RPC attempt re-sent after an unanswered deadline.
  void RecordRpcRetry(const Message& request);

  /// Record one RPC that exhausted its attempts and failed to its caller.
  void RecordRpcTimeout(const Message& request);

  /// Record the hop count of one completed DHT lookup into the
  /// `chord.lookup_hops` registry histogram.
  void RecordLookupHops(std::size_t hops);

  /// Record a latency sample (simulated ms) into the histogram named
  /// `latency:<name>` — e.g. RecordLatency("query.trace_ms", 37.0).
  void RecordLatency(std::string_view name, double ms);

  /// Bump a named counter (protocol-level events that are not messages,
  /// e.g. "window_flush", "triangle_split"). Per-event hot paths should
  /// instead cache `registry().GetCounter(name)` once — see class comment.
  void Bump(std::string_view counter, std::uint64_t by = 1);

  /// Prepare for `lanes` concurrent writer threads (the sharded kernel):
  /// plain tallies and per-type slots become per-lane and fold together on
  /// read; registry instruments are lane-striped. Reads must happen on the
  /// coordinator thread while workers are parked (the engine's barrier
  /// guarantees that). Call before workers start; idempotent.
  void EnableLanes(std::size_t lanes);

  std::uint64_t TotalMessages() const noexcept {
    FoldLanes();
    return total_messages_;
  }
  std::uint64_t TotalBytes() const noexcept {
    FoldLanes();
    return total_bytes_;
  }
  /// All drops regardless of cause.
  std::uint64_t DroppedMessages() const noexcept {
    FoldLanes();
    return dropped_loss_ + dropped_down_;
  }
  std::uint64_t DroppedByLoss() const noexcept {
    FoldLanes();
    return dropped_loss_;
  }
  std::uint64_t DroppedToDownActor() const noexcept {
    FoldLanes();
    return dropped_down_;
  }
  std::uint64_t RpcRetries() const noexcept {
    FoldLanes();
    return rpc_retries_;
  }
  std::uint64_t RpcTimeouts() const noexcept {
    FoldLanes();
    return rpc_timeouts_;
  }

  /// Count/bytes for one message type (zeroes when never seen).
  TypeCounter ForType(std::string_view type) const;

  /// All message types seen (dense-id slots merged with synthetic string
  /// types), sorted by name.
  std::map<std::string, TypeCounter, std::less<>> ByType() const;

  /// Named counter value. Understands the per-type accounting names
  /// ("rpc.retry:<type>", "rpc.timeout:<type>", "drop.loss:<type>",
  /// "drop.down:<type>") in addition to registry counters, so callers keep
  /// one query surface even though per-type counts live in dense slots.
  std::uint64_t Counter(std::string_view name) const;

  /// The instrument registry backing named counters and latency
  /// histograms. Protocol layers and benches may register their own
  /// instruments here; the time-series sampler snapshots all of them.
  obs::Registry& registry() noexcept { return registry_; }
  const obs::Registry& registry() const noexcept { return registry_; }

  /// Latency histogram named `latency:<name>` (created on first use; same
  /// instrument RecordLatency feeds).
  obs::Histogram& LatencyHistogram(std::string_view name);

  /// Messages received per actor (index = ActorId); shorter than the actor
  /// count if high ids never received traffic.
  const std::vector<std::uint64_t>& ReceivedPerActor() const noexcept {
    FoldLanes();
    return received_per_actor_;
  }
  const std::vector<std::uint64_t>& SentPerActor() const noexcept {
    FoldLanes();
    return sent_per_actor_;
  }
  /// Wire bytes received / sent per actor (same indexing). Byte-level load
  /// is what the paper's Fig. 8 balance argument is really about: one
  /// GroupArrival message can carry 1 or 1000 objects.
  const std::vector<std::uint64_t>& ReceivedBytesPerActor() const noexcept {
    FoldLanes();
    return received_bytes_per_actor_;
  }
  const std::vector<std::uint64_t>& SentBytesPerActor() const noexcept {
    FoldLanes();
    return sent_bytes_per_actor_;
  }

  /// Zero everything (used between warm-up and measured phases). In-place:
  /// instrument identities — and therefore references cached from
  /// registry() — remain valid; only values reset.
  void Reset();

  /// Multi-line human-readable dump.
  std::string Summary() const;

  /// The same data as rows for util::CsvWriter: a header row followed by
  /// one ("metric", "value") row per total, per-type counter, named
  /// counter, gauge, and histogram statistic. Benches append these to
  /// their sweep CSVs.
  std::vector<std::vector<std::string>> CsvRows() const;

 private:
  /// Per-message-type accounting, indexed by MsgTypeId. `name` is interned
  /// on the slot's first use; a default-constructed slot (empty name) is a
  /// type id this metrics instance never saw.
  struct TypeSlot {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drop_loss = 0;
    std::uint64_t drop_down = 0;
    std::uint64_t rpc_retry = 0;
    std::uint64_t rpc_timeout = 0;
    std::string name;
  };

  static void BumpPerActor(std::vector<std::uint64_t>& v, ActorId id,
                           std::uint64_t by);

  /// The Metrics instance the calling thread's plain tallies go to: `this`
  /// on lane 0 / un-sharded, the lane's private instance otherwise. Lane
  /// instances never route registry traffic — striped instruments on the
  /// shared registry handle that.
  Metrics& Active() noexcept;
  void FoldLanes() const noexcept {
    if (lanes_ != nullptr) const_cast<Metrics*>(this)->FoldLanesImpl();
  }
  void FoldLanesImpl() noexcept;

  TypeSlot& SlotFor(const Message& message);
  const TypeSlot* FindSlot(std::string_view name) const noexcept;
  /// Registry counters merged with the per-type drop/rpc slot counts,
  /// rendered under the legacy "drop.loss:<type>"-style names.
  std::map<std::string, std::uint64_t, std::less<>> MergedCounters() const;

  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t dropped_loss_ = 0;
  std::uint64_t dropped_down_ = 0;
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_timeouts_ = 0;
  std::vector<TypeSlot> slots_;
  std::map<std::string, TypeCounter, std::less<>> extra_types_;
  obs::Registry registry_;
  obs::Histogram* lookup_hops_hist_ = nullptr;
  std::vector<std::uint64_t> received_per_actor_;
  std::vector<std::uint64_t> sent_per_actor_;
  std::vector<std::uint64_t> received_bytes_per_actor_;
  std::vector<std::uint64_t> sent_bytes_per_actor_;
  /// Lane instances for writer threads 1..L-1 (null when un-sharded).
  std::unique_ptr<std::vector<std::unique_ptr<Metrics>>> lanes_;
};

}  // namespace peertrack::sim
