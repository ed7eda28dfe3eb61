#pragma once
// Message-passing network between simulated actors.
//
// Actors register and receive opaque Message payloads after a sampled
// latency. Local (self) sends are delivered asynchronously at the current
// time but are *not* counted as network traffic, matching the paper's
// "messages transferred over the network" metric. Down actors drop inbound
// messages (churn experiments flip liveness).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/latency_model.hpp"
#include "sim/message_pool.hpp"
#include "sim/metrics.hpp"
#include "sim/shard_engine.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace peertrack::sim {

/// Accounted size of transport/framing per message, added to every
/// payload's ApproxBytes(). 40 ≈ IP+TCP headers; precise value is
/// irrelevant, only relative volumes matter.
constexpr std::size_t kMessageHeaderBytes = 40;

/// Dense per-process identifier of a concrete Message subclass. Ids are
/// handed out on first use (MsgTypeIdOf), so they stay small and index
/// directly into the rpc::Dispatcher handler table — O(1) dispatch with no
/// dynamic_cast chains.
using MsgTypeId = std::uint32_t;

namespace detail {
/// Next unused type id (atomic: sim::ShardEngine workers may race
/// first-use registration).
MsgTypeId AllocateMsgTypeId() noexcept;
}  // namespace detail

/// The type id of message class T (stable for the process lifetime).
template <typename T>
MsgTypeId MsgTypeIdOf() noexcept {
  static const MsgTypeId id = detail::AllocateMsgTypeId();
  return id;
}

/// Base class of all wire messages. Subclasses live in the protocol
/// modules; they carry plain data members and report an approximate
/// serialized size so the byte metric is meaningful. Concrete types derive
/// from MessageBase (or rpc::RequestBase / rpc::ResponseBase), which
/// implements TypeId().
class Message {
 public:
  virtual ~Message() = default;
  virtual MsgTypeId TypeId() const noexcept = 0;
  virtual std::string_view TypeName() const noexcept = 0;
  virtual std::size_t ApproxBytes() const noexcept = 0;

  /// Messages are allocated and freed millions of times per sweep, almost
  /// always via make_unique at a send site; route them through the
  /// size-class freelist pool. The pool's header records the size class,
  /// so deleting through this base pointer needs no size. Compiled out
  /// (plain new/delete) under sanitizers — see message_pool.hpp.
  static void* operator new(std::size_t size) { return MessagePool::Allocate(size); }
  static void operator delete(void* ptr) noexcept { MessagePool::Deallocate(ptr); }

  /// Causal trace context this message belongs to (invalid when tracing is
  /// off or the message is outside any traced operation). Copied along by
  /// rpc retries and envelope forwarding; not counted in ApproxBytes —
  /// real deployments ship ~16 bytes of trace header, but charging it
  /// would skew the paper-comparison byte metric with an artifact of our
  /// instrumentation.
  obs::TraceContext trace;
};

/// CRTP helper wiring a concrete message class to its type id:
///   struct Hello final : sim::MessageBase<Hello> { ... };
template <typename Derived>
class MessageBase : public Message {
 public:
  MsgTypeId TypeId() const noexcept final { return MsgTypeIdOf<Derived>(); }
};

class Actor {
 public:
  virtual ~Actor() = default;
  virtual void OnMessage(ActorId from, std::unique_ptr<Message> message) = 0;
};

class Network {
 public:
  /// The network borrows the simulator, latency model, and RNG; all must
  /// outlive it.
  Network(Simulator& simulator, LatencyModel& latency, util::Rng& rng);

  /// Register an actor (must outlive the network's last delivery to it).
  ActorId Register(Actor& actor);

  std::size_t ActorCount() const noexcept { return actors_.size(); }

  /// Queue a message for delivery. Self-sends are free (no latency, no
  /// metric); remote sends sample latency and are recorded. Messages to
  /// down actors are dropped at delivery time (the sender still pays the
  /// send).
  void Send(ActorId from, ActorId to, std::unique_ptr<Message> message);

  /// Deliver synchronously with zero latency but full cost accounting.
  /// Used by protocol steps the paper models as message exchanges but whose
  /// timing is irrelevant to the experiment (e.g. background index
  /// persistence); keeps event volume low in big sweeps.
  void SendInstant(ActorId from, ActorId to, std::unique_ptr<Message> message);

  void SetUp(ActorId id, bool up);
  bool IsUp(ActorId id) const;

  /// Independent per-message drop probability (failure injection). Lost
  /// messages are counted like messages to down actors. Clamped to [0, 1].
  void SetLossRate(double probability);
  double LossRate() const noexcept { return loss_rate_; }

  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }
  /// Span recorder for causal query tracing (disabled by default; enable
  /// with tracer().SetEnabled(true)). Remote sends are logged as per-actor
  /// message events while enabled.
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }
  /// The mutation log, whether or not it keeps rings. Protocol stores
  /// publish state deltas here (guarded by Active()); the InvariantMonitor
  /// takes its consumer claim when running in incremental mode. Inert
  /// while it has neither a consumer nor rings.
  obs::FlightRecorder& delta_bus() noexcept { return recorder_; }
  const obs::FlightRecorder& delta_bus() const noexcept { return recorder_; }

  /// The simulator the calling thread should schedule on. Un-sharded this
  /// is *the* simulator; sharded it routes through the engine's TLS — a
  /// worker inside a window gets its shard's simulator, the coordinator
  /// gets the control simulator. Delivery-relative timers (rpc deadlines)
  /// stay deterministic because the calling context is deterministic.
  Simulator& simulator() noexcept {
    return engine_ == nullptr ? simulator_ : engine_->CurrentSim();
  }
  /// The simulator that owns `id`'s events (its shard's, or the one
  /// simulator un-sharded). Self-timers (window flushes, anti-entropy,
  /// chord maintenance) must go here so they run inside the owner's shard.
  Simulator& SimulatorFor(ActorId id) noexcept {
    return engine_ == nullptr ? simulator_
                              : engine_->SimOf(engine_->ShardOf(id));
  }
  /// The control-plane simulator: timers whose handlers make cross-actor
  /// direct calls (graceful-leave settlement) must run there, where every
  /// shard is parked.
  Simulator& ControlSimulator() noexcept {
    return engine_ == nullptr ? simulator_ : engine_->control();
  }

  /// Run `action` against `actor`'s private state. Every legal context —
  /// un-sharded, coordinator phase (workers parked), or mid-window on the
  /// actor's own shard — runs it synchronously, exactly the legacy direct
  /// call. Mid-window on a *different* shard the action is staged onto the
  /// actor's shard at the conservative window boundary instead, so no
  /// actor's state is ever touched from a foreign thread. Direct-call RPC
  /// sites (index migration, split/merge re-delivery) keep their wire
  /// accounting on the caller and push only the destination-side state
  /// writes through here.
  void RunOnActor(ActorId actor, util::UniqueFunction<void()> action) {
    if (engine_ != nullptr && engine_->InParallelSection()) {
      const std::uint32_t dst = engine_->ShardOf(actor);
      if (dst != engine_->CurrentShard()) {
        engine_->StageCrossShard(dst, engine_->CurrentSim().Now(),
                                 std::move(action));
        return;
      }
    }
    action();
  }

  util::Rng& rng() noexcept { return rng_; }
  /// RNG for `id`'s send-side draws (latency jitter, loss). Un-sharded this
  /// is the shared stream — bit-identical to the legacy kernel. Sharded,
  /// each actor owns a seed-derived stream, so draw *order* across actors
  /// (which depends on shard interleaving) cannot change draw *values*.
  util::Rng& ActorRng(ActorId id) noexcept {
    return engine_ == nullptr ? rng_ : actor_rngs_[id];
  }

  /// Attach the sharded engine: per-actor RNG streams are seeded for every
  /// registered actor (and every future Register), and the metrics and
  /// mutation log grow per-lane state for ShardCount() writer threads.
  /// Call after actors and observers are set up but before the first run;
  /// idempotent.
  void EnableSharding(ShardEngine& engine, std::uint64_t seed);
  ShardEngine* engine() noexcept { return engine_; }
  const ShardEngine* engine() const noexcept { return engine_; }

  /// Scale applied to every rpc retry-policy jitter fraction (default 1).
  /// Differential tests set 0 so oracle and sharded legs draw nothing.
  void SetRpcJitterScale(double scale) noexcept { rpc_jitter_scale_ = scale; }
  double rpc_jitter_scale() const noexcept { return rpc_jitter_scale_; }

  /// Turn on black-box flight recording: the mutation log keeps per-actor
  /// rings of `events_per_actor` protocol events (message send/recv/drop
  /// here, state mutations as published, direct protocol events at their
  /// call sites). Idempotent; 0 leaves recording off.
  void EnableRecorder(std::size_t events_per_actor) {
    recorder_.SetCapacity(events_per_actor);
  }
  /// The mutation log while it keeps rings, else nullptr. Record call sites
  /// guard on the pointer — one predictable branch when disabled.
  obs::FlightRecorder* recorder() noexcept {
    return recorder_.Enabled() ? &recorder_ : nullptr;
  }
  const obs::FlightRecorder* recorder() const noexcept {
    return recorder_.Enabled() ? &recorder_ : nullptr;
  }

 private:
  struct Slot {
    Actor* actor = nullptr;
    bool up = true;
  };

  /// Dense MsgTypeIds covered by the delivery-scope cache (far above any
  /// real type count; ids past it just skip profiler attribution).
  static constexpr std::size_t kMaxDeliveryScopes = 4096;

  /// Profiler scope for delivering a message of `message`'s concrete type
  /// ("deliver.<TypeName>"). Cached per MsgTypeId in a fixed array of
  /// atomics — workers on different shards may hit a type's first delivery
  /// concurrently; Intern is idempotent, so racing stores agree.
  obs::ProfScopeId DeliveryScope(const Message& message);

  /// Seed of `id`'s private RNG stream (splitmix-style spread of the run
  /// seed, so neighbouring ids don't correlate).
  std::uint64_t ActorSeed(ActorId id) const noexcept {
    return shard_seed_ ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(id) + 1));
  }

  /// Run `message`'s delivery on `to`'s owning thread: liveness check,
  /// recv/drop accounting, OnMessage. Exactly the legacy delivery closure.
  void Deliver(ActorId from, ActorId to, std::unique_ptr<Message> message);
  /// Queue an already-accounted message: legacy ScheduleAfter, or — when
  /// sharded — direct injection into the owner shard's queue, via the
  /// engine's cross-shard mailbox if a parallel window is running.
  void ScheduleDelivery(ActorId from, ActorId to, double delay,
                        std::unique_ptr<Message> message);

  Simulator& simulator_;
  LatencyModel& latency_;
  util::Rng& rng_;
  Metrics metrics_;
  obs::Tracer tracer_;
  obs::FlightRecorder recorder_;
  double loss_rate_ = 0.0;
  std::vector<Slot> actors_;
  /// delivery_scopes_[MsgTypeId] = interned "deliver.<TypeName>" scope
  /// (kInvalidProfScope until that type's first delivery).
  std::unique_ptr<std::atomic<obs::ProfScopeId>[]> delivery_scopes_;
  ShardEngine* engine_ = nullptr;
  std::uint64_t shard_seed_ = 0;
  /// Per-actor RNG streams (sharded runs only). Deque: grows under
  /// GrowNetwork joins without moving existing streams.
  std::deque<util::Rng> actor_rngs_;
  double rpc_jitter_scale_ = 1.0;
};

}  // namespace peertrack::sim
