#pragma once
// FlightRecorder — the one mutation log: staged 64-byte POD records of
// protocol events and audited state mutations.
//
// Every structure the InvariantMonitor audits (ring neighbour pointers,
// finger slots, IOP visit lists, gateway index buckets, replica stores) is
// mutated at a small number of choke points. Those choke points publish a
// StateDelta here ("Correctness of the Chord Protocol", arXiv 1709.07938:
// the invariants are maintained by individual protocol events, so they can
// be audited at individual protocol events too). Message send / recv /
// drop, rpc retries/timeouts, handoff and promotion events land in the same
// log through their Record* calls. A delta says "this subject was
// touched", never what the new value is — consumers re-read live state —
// so duplicate or spurious deltas are harmless, and test fixtures that
// corrupt state through mutable_* accessors publish exactly like protocol
// paths, because the stores themselves publish.
//
// Hot path: one predictable branch at the call site (`Active()` for state
// deltas, a non-null `recorder()` for the rest) plus one sequential POD
// append into a bounded staging buffer. A drain — when the stage fills, at
// the shard engine's window barrier, when the invariant monitor scans, and
// before any read — hands the batch first to the one claimed consumer (the
// monitor, which reads it by cursor and marks its dirty sets), then
// distributes it into bounded per-actor rings for forensics. Ring slots are
// scattered across ~N*capacity records of memory, so the batched drain
// overlaps those cache misses instead of paying one per append. Capacity 0
// keeps no rings: with a consumer the log still stages and feeds state
// records, without one it is inert. The recorder's cost is reported as its
// own increment on perfbench's layer ledger (the `recorder` layer).
//
// Forensics: on a trigger (violation opened, query failed its oracle
// check, harness assert) the log dumps a *forensic bundle*: the last N
// events of the implicated actors plus every actor whose ring mentions the
// subject object, merged in (sim time, seq) order, exported as
// `peertrack.forensics.v1` JSON and as a Perfetto instant-event track. The
// causal explainer (obs/explain.hpp) walks a bundle backward and names the
// cause as a structured tree.
//
// Recording is purely observational: it never schedules events, never
// touches the RNG, and never feeds back into protocol state — a run with
// recording on is bit-identical to one with it off (enforced by tests and
// by the perf_smoke cross-leg determinism check). This header sits below
// sim/ — it depends only on the hash layer and the profiler.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "hash/keyspace.hpp"
#include "obs/lane.hpp"
#include "obs/profiler.hpp"

namespace peertrack::obs {

/// Logged event kinds.
enum class RecEvent : std::uint8_t {
  kMsgSend = 0,   ///< `actor` sent a message of `type` to `peer`.
  kMsgRecv = 1,   ///< `actor` had a message of `type` delivered from `peer`.
  kMsgDrop = 2,   ///< delivery to `actor` from `peer` was dropped (loss/down).
  // --- State mutations (published as StateDelta) --------------------------
  kRingNeighbors = 3,    ///< successor / predecessor / successor-list of `actor`.
  kRingFinger = 4,       ///< finger slot `slot` of `actor`.
  kMembership = 5,       ///< `actor` joined / left / crashed: ring truth moved.
  kIopVisit = 6,         ///< a visit record of `object` on `actor` was written.
  kIopDropped = 7,       ///< `actor` dropped its visit list for `object`.
  kIndexUpsert = 8,      ///< index entry for `object` written on `actor`.
  kIndexErase = 9,       ///< index entry for `object` removed from `actor`.
  kReplicaUpsert = 10,   ///< replica of `object` stored on `actor`.
  kReplicaErase = 11,    ///< replica of `object` removed from `actor`.
  kObjectTruth = 12,     ///< ground-truth movement of `object` (oracle).
  kPrefixShape = 13,     ///< bucket `prefix` on `actor` created / drained.
  kLpChange = 14,        ///< global prefix length changed.
  kHandoffFinished = 15, ///< `actor` completed its graceful-leave handoff.
  // --- Direct protocol events (recorded at their call sites) -------------
  kHandoffBegin = 16,    ///< `actor` began its graceful leave toward `peer`.
  kReplicaPromote = 17,  ///< `actor` promoted its replica of `object`.
  kRpcRetry = 18,        ///< rpc from `actor` to `peer` (`type`) retried.
  kRpcTimeout = 19,      ///< rpc from `actor` to `peer` (`type`) gave up.
  kSuccessorFailover = 20,  ///< `actor` evicted dead successor `peer`.
};

/// True for the kinds published as StateDelta (they carry no peer/type).
constexpr bool IsStateEvent(RecEvent event) noexcept {
  return event >= RecEvent::kRingNeighbors &&
         event <= RecEvent::kHandoffFinished;
}

/// Stable dotted name ("msg.send", "index.upsert", ...) used in bundle
/// JSON, Perfetto tracks and explainer evidence lines.
const char* RecEventName(RecEvent event) noexcept;

/// One state mutation. Fields beyond `kind` are meaningful per kind (see
/// RecEvent); unused ones stay default-initialised.
struct StateDelta {
  RecEvent kind = RecEvent::kMembership;
  bool individual = false;         ///< Index deltas: flat map vs prefix bucket.
  std::uint32_t actor = 0xFFFFFFFFu;  ///< sim::ActorId of the touched node.
  std::uint32_t slot = 0;          ///< kRingFinger: finger index.
  hash::UInt160 object{};          ///< Object key, where applicable.
  hash::Prefix prefix{};           ///< Bucket prefix, where applicable.
  /// kIopVisit: arrival time identifying the touched visit record, so the
  /// monitor can dirty one (actor, object, arrived) visit instead of the
  /// object's whole chain. kObjectTruth / kIndexUpsert / kReplicaUpsert:
  /// the arrival time the new state carries, which starts its staleness
  /// clock — the monitor defers the first audit to `when + staleness`
  /// instead of probing an unjudgeable subject every tick. Negative =
  /// unknown (consumer falls back to an immediate coarser mark).
  double when = -1.0;
  /// kIopVisit only: earliest sim time at which the new state becomes
  /// judgeable, when that differs from the record's own arrival (a
  /// departure write on an old visit is gated on the NEXT hop's arrival).
  /// Negative = same as `when`.
  double gate = -1.0;

  static StateDelta Ring(RecEvent kind, std::uint32_t actor) {
    StateDelta d;
    d.kind = kind;
    d.actor = actor;
    return d;
  }
  static StateDelta Finger(std::uint32_t actor, std::uint32_t slot) {
    StateDelta d;
    d.kind = RecEvent::kRingFinger;
    d.actor = actor;
    d.slot = slot;
    return d;
  }
  static StateDelta Object(RecEvent kind, std::uint32_t actor,
                           const hash::UInt160& object, double when = -1.0) {
    StateDelta d;
    d.kind = kind;
    d.actor = actor;
    d.object = object;
    d.when = when;
    return d;
  }
  static StateDelta Index(RecEvent kind, std::uint32_t actor,
                          const hash::UInt160& object, bool individual,
                          const hash::Prefix& prefix, double when = -1.0) {
    StateDelta d;
    d.kind = kind;
    d.actor = actor;
    d.object = object;
    d.individual = individual;
    d.prefix = prefix;
    d.when = when;
    return d;
  }
  static StateDelta Shape(std::uint32_t actor, const hash::Prefix& prefix,
                          bool individual) {
    StateDelta d;
    d.kind = RecEvent::kPrefixShape;
    d.actor = actor;
    d.prefix = prefix;
    d.individual = individual;
    return d;
  }
  static StateDelta Global(RecEvent kind) {
    StateDelta d;
    d.kind = kind;
    return d;
  }
};

/// One logged event. POD, exactly 64 bytes (one cache line, asserted in
/// flight_recorder.cpp so the drain's non-temporal copy stays valid);
/// unused fields keep their defaults per event kind.
struct alignas(64) RecordedEvent {
  /// Counterpart of a message or protocol event.
  struct Counterpart {
    std::uint32_t peer = 0xFFFFFFFFu;  ///< Counterpart actor, if any.
    std::uint32_t type = 0xFFFFFFFFu;  ///< MsgTypeId for msg/rpc events.
  };

  double when = 0.0;  ///< Sim time of the append.
  /// Kind-specific argument. For state records this is the delta's `when`
  /// — the arrival time the written state carries (kIndexUpsert /
  /// kReplicaUpsert / kObjectTruth / kIopVisit), which lets the explainer
  /// compare a written arrival against ground truth without re-reading
  /// live stores. Negative = not applicable.
  double arg = -1.0;
  std::uint64_t seq = 0;  ///< Global append order (deterministic tiebreak).
  hash::UInt160 object{};
  std::uint32_t actor = 0xFFFFFFFFu;
  /// State records never name a counterpart, so those bytes carry the
  /// delta field their kind needs.
  union {
    Counterpart msg{};          ///< Message and protocol events.
    double gate;                ///< kIopVisit: the delta's `gate`.
    std::uint32_t slot;         ///< kRingFinger: the finger index.
    std::uint64_t prefix_bits;  ///< Index and shape kinds: prefix value.
  };
  RecEvent event = RecEvent::kMsgSend;
  bool has_object = false;
  std::uint8_t prefix_length = 0;  ///< Index and shape kinds.
  bool individual = false;         ///< Index and shape kinds.

  hash::Prefix prefix() const noexcept {
    return hash::Prefix{prefix_bits, prefix_length};
  }
};

/// What fired a forensic dump. `event_seq` is the recorder's LastSeq() at
/// trigger time — every event with seq <= event_seq happened before (or
/// at) the trigger, which is how tests pin evidence to the injected cause.
struct ForensicTrigger {
  std::string check;    ///< Check id / "query.trace" / harness name.
  std::string subject;  ///< Ledger subject key (human-stable fault id).
  std::string detail;
  std::uint32_t actor = 0xFFFFFFFFu;  ///< Implicated actor, if known.
  double when_ms = 0.0;
  std::uint64_t event_seq = 0;
  hash::UInt160 object{};
  bool has_object = false;
};

/// A captured slice of history: the trigger, the actors whose rings
/// contributed, and their events merged ascending by (when, seq).
struct ForensicBundle {
  ForensicTrigger trigger;
  std::vector<std::uint32_t> actors;
  std::vector<RecordedEvent> events;
};

class FlightRecorder {
 public:
  /// Sentinel "actor" for events not tied to any node (ground-truth object
  /// movement published by the oracle). They land in one dedicated world
  /// ring instead of indexing the per-actor table — rings_ is indexed by
  /// actor id, and the sentinel would otherwise force a 2^32-entry resize.
  static constexpr std::uint32_t kWorldActor = 0xFFFFFFFFu;

  /// Batch consumer: sees every drained record in append order, state
  /// records and (when rings are kept) message/protocol events alike.
  using Consumer = std::function<void(std::span<const RecordedEvent>)>;

  /// `events_per_actor` bounds each ring; 0 keeps no rings (Record* return
  /// on their first branch, and Publish stages only for a consumer).
  explicit FlightRecorder(std::size_t events_per_actor = 0)
      : capacity_(events_per_actor) {}

  bool Enabled() const noexcept { return capacity_ > 0; }
  std::size_t Capacity() const noexcept { return capacity_; }
  /// Start keeping per-actor rings of `events_per_actor` events. Takes
  /// effect only while no rings are kept yet; 0 is a no-op.
  void SetCapacity(std::size_t events_per_actor) noexcept {
    if (capacity_ == 0) capacity_ = events_per_actor;
  }

  /// True while rings are kept or a consumer holds the claim — the
  /// publisher-side fast-path guard:
  ///   if (log != nullptr && log->Active()) log->Publish(...);
  bool Active() const noexcept {
    return capacity_ > 0 || static_cast<bool>(consumer_);
  }

  /// Take the one consumer claim: every later drain hands its batch to
  /// `consumer` (on the coordinator thread) before filling the rings.
  /// Records staged before the claim are flushed past it. Returns false
  /// while another consumer holds the claim.
  bool Claim(Consumer consumer);
  /// Drop the claim. A released consumer is never called again: the
  /// undrained backlog goes to the rings, or is discarded without them.
  void Release();

  /// Timestamps come from `*now` at append time (the owning network binds
  /// this to its simulator's clock). Unbound records stamp 0.
  void BindClock(const double* now) noexcept { lanes_[0].now = now; }

  /// Sharded runs: give each of `lanes` writer threads (obs/lane.hpp) a
  /// private staging buffer, local sequence counter and clock binding.
  /// Global seq becomes (local_seq << 8) | lane — monotone per lane,
  /// deterministic per record, comparable across lanes. Worker lanes only
  /// append; FlushAtBarrier() drains them on the coordinator, so consumer
  /// order and ring contents are deterministic per seed and shard count.
  /// Coordinator-phase only; idempotent.
  void EnableLanes(std::size_t lanes);

  /// Clock for a lane's appends (lane 0 aliases BindClock).
  void BindLaneClock(std::uint32_t lane, const double* now) noexcept {
    if (lane < lanes_.size()) lanes_[lane].now = now;
  }

  /// Remember a MsgTypeId's name for bundle export. Idempotent; the fast
  /// path (already registered) is a bounds check plus an emptiness check —
  /// or, once lanes are enabled, one acquire load of a per-type flag (the
  /// string map is mutex-guarded then, since workers intern mid-window).
  void RegisterTypeName(std::uint32_t type, std::string_view name) {
    if (type_flags_ != nullptr) {
      if (type < kMaxTypeIds &&
          type_flags_[type].load(std::memory_order_acquire) != 0) {
        return;
      }
      RegisterTypeNameLocked(type, name);
      return;
    }
    if (type < type_names_.size() && !type_names_[type].empty()) return;
    RegisterTypeNameSlow(type, name);
  }
  /// Registered name, or "" when the type never registered.
  std::string_view TypeName(std::uint32_t type) const noexcept {
    return type < type_names_.size() ? std::string_view(type_names_[type])
                                     : std::string_view();
  }

  // --- Hot-path appends ----------------------------------------------------
  // Leaf profiler scope: these fire once per protocol event (millions per
  // run) and open no scopes of their own. The drain-when-full check runs
  // BEFORE the scope opens: a drain landing inside a sampled append window
  // would bill its whole batch to one append and get scaled by the
  // sampling weight — the drain carries its own PROF_SCOPE instead.

  /// State mutation: one append while Active(). Publishers guard with
  /// Active(), so inert runs never reach this.
  void Publish(const StateDelta& delta) {
    const std::uint32_t lane = WriterLane();
    ++lanes_[lane].published;
    if (!Active()) return;
    MaybeDrain(lane);
    PROF_LEAF_SCOPE("obs.recorder", "append");
    RecordedEvent& e = Append(lane, delta.actor);
    lanes_[lane].holds_state = true;
    e.event = delta.kind;
    e.object = delta.object;
    e.has_object = delta.kind >= RecEvent::kIopVisit &&
                   delta.kind <= RecEvent::kObjectTruth;
    e.arg = delta.when;
    switch (delta.kind) {
      case RecEvent::kIopVisit:
        e.gate = delta.gate;
        break;
      case RecEvent::kRingFinger:
        e.slot = delta.slot;
        break;
      case RecEvent::kIndexUpsert:
      case RecEvent::kIndexErase:
      case RecEvent::kPrefixShape:
        e.prefix_bits = delta.prefix.bits;
        e.prefix_length = static_cast<std::uint8_t>(delta.prefix.length);
        e.individual = delta.individual;
        break;
      default:
        break;
    }
  }

  // Message and protocol events: callers guard with a non-null
  // Network::recorder(); a ring-less log also bails on its first branch.

  void RecordMessage(RecEvent event, std::uint32_t actor, std::uint32_t peer,
                     std::uint32_t type) {
    if (capacity_ == 0) return;
    const std::uint32_t lane = WriterLane();
    MaybeDrain(lane);
    PROF_LEAF_SCOPE("obs.recorder", "append");
    RecordedEvent& e = Append(lane, actor);
    e.event = event;
    e.msg = {peer, type};
  }

  /// Direct protocol events (handoff begin, replica promotion, rpc
  /// retry/timeout) recorded at their call sites.
  void RecordProtocol(RecEvent event, std::uint32_t actor, std::uint32_t peer,
                      const hash::UInt160& object, bool has_object,
                      std::uint32_t type = 0xFFFFFFFFu) {
    if (capacity_ == 0) return;
    const std::uint32_t lane = WriterLane();
    MaybeDrain(lane);
    PROF_LEAF_SCOPE("obs.recorder", "append");
    RecordedEvent& e = Append(lane, actor);
    e.event = event;
    e.msg = {peer, type};
    e.object = object;
    e.has_object = has_object;
  }

  /// Drain every lane in lane order: consumer first, then rings.
  /// Coordinator-phase only (workers parked).
  void Flush();
  /// The shard engine's barrier hook (workers parked). Drains, in lane
  /// order, every lane holding state records while a consumer is claimed —
  /// so the consumer sees each actor's mutations in publish order whether
  /// they ran on its shard or on the coordinator — and any lane whose
  /// stage is full. Other lanes keep staging: a window of queries then
  /// costs no drain, and ring contents stay deterministic because whether
  /// a lane drains depends only on what it staged.
  void FlushAtBarrier();

  // --- Introspection --------------------------------------------------------

  /// Seq of the newest event (coordinator-phase read when sharded).
  std::uint64_t LastSeq() const noexcept;
  /// Total events ever appended (all lanes).
  std::uint64_t EventsRecorded() const noexcept;
  /// Total Publish calls (all lanes), whether or not anything was staged.
  std::uint64_t Published() const noexcept;
  /// Actors with at least one ring slot allocated.
  std::size_t ActorRings() const noexcept { return rings_.size(); }
  /// Events currently retained for `actor` (<= capacity). Non-const: the
  /// read side flushes the staging buffers first.
  std::size_t WindowSize(std::uint32_t actor);
  /// `actor`'s retained events, oldest first.
  std::vector<RecordedEvent> Window(std::uint32_t actor);

  // --- Forensics ------------------------------------------------------------

  /// Capture a bundle: full windows of every `implicated` actor plus every
  /// actor whose ring mentions `trigger.object` (when the trigger carries
  /// one — "every actor holding state for the subject key", including past
  /// holders whose state already moved on). Events merge ascending by
  /// (when, seq). Non-const: flushes the staging buffers first.
  ForensicBundle Collect(const ForensicTrigger& trigger,
                         const std::vector<std::uint32_t>& implicated);

  /// `peertrack.forensics.v1` JSON document.
  std::string ToJson(const ForensicBundle& bundle) const;
  /// Perfetto trace: one instant event per record (tid = actor) plus a
  /// trigger marker, loadable next to the exporter's span traces.
  std::string ToPerfettoJson(const ForensicBundle& bundle) const;

  /// Write `<dir>/<stem>.json` + `<dir>/<stem>.perfetto.json` with a
  /// deterministic stem derived from (event_seq, check, subject); creates
  /// `dir` if needed. Returns the JSON path, or "" on I/O failure.
  std::string WriteBundle(const ForensicBundle& bundle,
                          const std::string& dir) const;

 private:
  /// Staged appends between drains. 4096 * sizeof(RecordedEvent) ≈ 256 KiB —
  /// small enough to stay cache-resident, large enough that the drain's
  /// scattered ring writes amortize and overlap under prefetch.
  static constexpr std::size_t kStageCapacity = 4096;
  /// Max dense MsgTypeId covered by the sharded type-name fast path.
  static constexpr std::uint32_t kMaxTypeIds = 4096;
  /// Lane tag bits in a sharded seq: seq = (local << 8) | lane.
  static constexpr unsigned kLaneSeqBits = 8;

  struct Ring {
    std::vector<RecordedEvent> slots;  ///< Sized to capacity on first use.
    std::uint64_t appended = 0;
    std::size_t head = 0;  ///< == appended % capacity; avoids a div per drain.
  };

  /// One writer lane's append state. Lane 0 is the coordinator (and the
  /// only lane un-sharded); lanes 1..L-1 are shard workers.
  struct Lane {
    std::vector<RecordedEvent> staged;
    std::uint64_t seq = 0;
    std::uint64_t published = 0;
    const double* now = nullptr;
    bool holds_state = false;  ///< A state record is staged.
  };

  Ring& RingFor(std::uint32_t actor) {
    if (actor == kWorldActor) {
      if (world_.slots.empty()) world_.slots.resize(capacity_);
      return world_;
    }
    if (actor >= rings_.size() || rings_[actor].slots.empty()) Grow(actor);
    return rings_[actor];
  }

  /// Ring holding `actor`'s events, or nullptr if it never recorded.
  const Ring* FindRing(std::uint32_t actor) const noexcept {
    if (actor == kWorldActor) {
      return world_.slots.empty() ? nullptr : &world_;
    }
    if (actor >= rings_.size() || rings_[actor].slots.empty()) return nullptr;
    return &rings_[actor];
  }

  /// Lane the calling thread appends to (always 0 un-sharded).
  std::uint32_t WriterLane() const noexcept {
    return lanes_.size() == 1 ? 0 : CurrentLane();
  }

  /// Drain lane 0's stage when full. Worker lanes never drain: their
  /// buffers grow within a window and the barrier flush empties them, so
  /// the consumer never runs on a worker thread.
  void MaybeDrain(std::uint32_t lane) {
    if (lane == 0 && lanes_[0].staged.size() >= kStageCapacity) {
      DrainStage(lanes_[0]);
    }
  }

  /// Hot path: one sequential POD append into the lane's staging buffer
  /// (it grows to the stage size once, then keeps its capacity).
  /// The returned reference stays valid until the next Append — callers
  /// fill the kind-specific fields immediately.
  RecordedEvent& Append(std::uint32_t lane, std::uint32_t actor) {
    Lane& lb = lanes_[lane];
    RecordedEvent& e = lb.staged.emplace_back();
    e.when = lb.now != nullptr ? *lb.now : 0.0;
    ++lb.seq;
    e.seq = lanes_.size() == 1 ? lb.seq : (lb.seq << kLaneSeqBits) | lane;
    e.actor = actor;
    return e;
  }

  /// Hand `lane`'s stage to the consumer, then distribute it into the
  /// rings.
  void DrainStage(Lane& lane);
  void Grow(std::uint32_t actor);
  void RegisterTypeNameSlow(std::uint32_t type, std::string_view name);
  void RegisterTypeNameLocked(std::uint32_t type, std::string_view name);

  std::size_t capacity_ = 0;
  Consumer consumer_;
  std::vector<Lane> lanes_ = std::vector<Lane>(1);
  std::vector<Ring> rings_;
  Ring world_;  ///< kWorldActor's ring (oracle ground-truth events).
  std::vector<std::string> type_names_;
  /// Per-type "name registered" flags backing the sharded fast path.
  std::unique_ptr<std::atomic<std::uint32_t>[]> type_flags_;
  std::mutex names_mutex_;  ///< Guards type_names_ once lanes exist.
};

}  // namespace peertrack::obs
