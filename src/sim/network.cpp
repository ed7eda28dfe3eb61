#include "sim/network.hpp"

#include <algorithm>
#include <atomic>

#include "util/logging.hpp"

namespace peertrack::sim {

namespace detail {

MsgTypeId AllocateMsgTypeId() noexcept {
  static std::atomic<MsgTypeId> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

Network::Network(Simulator& simulator, LatencyModel& latency, util::Rng& rng)
    : simulator_(simulator), latency_(latency), rng_(rng) {
  recorder_.BindClock(simulator_.NowPtr());
  delivery_scopes_ =
      std::make_unique<std::atomic<obs::ProfScopeId>[]>(kMaxDeliveryScopes);
  for (std::size_t i = 0; i < kMaxDeliveryScopes; ++i) {
    delivery_scopes_[i].store(obs::kInvalidProfScope,
                              std::memory_order_relaxed);
  }
}

ActorId Network::Register(Actor& actor) {
  actors_.push_back(Slot{&actor, true});
  const auto id = static_cast<ActorId>(actors_.size() - 1);
  if (engine_ != nullptr) actor_rngs_.emplace_back(ActorSeed(id));
  return id;
}

void Network::EnableSharding(ShardEngine& engine, std::uint64_t seed) {
  if (engine_ != nullptr) return;
  engine_ = &engine;
  shard_seed_ = seed;
  for (ActorId id = 0; id < actors_.size(); ++id) {
    actor_rngs_.emplace_back(ActorSeed(id));
  }
  const std::size_t lanes = engine.ShardCount();
  metrics_.EnableLanes(lanes);
  recorder_.EnableLanes(lanes);
  for (std::uint32_t s = 1; s < lanes; ++s) {
    recorder_.BindLaneClock(s, engine.SimOf(s).NowPtr());
  }
  // Worker lanes only append; the barrier drains them on the coordinator.
  engine.SetBarrierHook([this] { recorder_.FlushAtBarrier(); });
}

obs::ProfScopeId Network::DeliveryScope(const Message& message) {
  const MsgTypeId type = message.TypeId();
  if (type >= kMaxDeliveryScopes) return obs::kInvalidProfScope;
  obs::ProfScopeId scope =
      delivery_scopes_[type].load(std::memory_order_relaxed);
  if (scope == obs::kInvalidProfScope) {
    scope = obs::Profiler::Intern("deliver", message.TypeName());
    delivery_scopes_[type].store(scope, std::memory_order_relaxed);
  }
  return scope;
}

void Network::Deliver(ActorId from, ActorId to,
                      std::unique_ptr<Message> msg) {
  Slot& slot = actors_[to];
  if (!slot.up || slot.actor == nullptr) {
    metrics_.RecordDrop(*msg, Metrics::DropReason::kDownActor);
    if (recorder_.Enabled() && from != to) {
      recorder_.RecordMessage(obs::RecEvent::kMsgDrop, to, from,
                               msg->TypeId());
    }
    return;
  }
  if (recorder_.Enabled() && from != to) {
    recorder_.RecordMessage(obs::RecEvent::kMsgRecv, to, from,
                             msg->TypeId());
  }
  PROF_SCOPE_ID(DeliveryScope(*msg));
  slot.actor->OnMessage(from, std::move(msg));
}

void Network::ScheduleDelivery(ActorId from, ActorId to, double delay,
                               std::unique_ptr<Message> message) {
  if (engine_ == nullptr) {
    simulator_.ScheduleAfter(
        delay, [this, from, to, msg = std::move(message)]() mutable {
          Deliver(from, to, std::move(msg));
        });
    return;
  }
  const std::uint32_t dst = engine_->ShardOf(to);
  const Time deliver_at = engine_->CurrentSim().Now() + delay;
  auto action = [this, from, to, msg = std::move(message)]() mutable {
    Deliver(from, to, std::move(msg));
  };
  if (engine_->InParallelSection() && dst != engine_->CurrentShard()) {
    engine_->StageCrossShard(dst, deliver_at, std::move(action));
  } else {
    // Same shard mid-window, or the coordinator phase (workers parked):
    // inject directly into the owner shard's queue.
    engine_->SimOf(dst).ScheduleAt(deliver_at, std::move(action));
  }
}

void Network::Send(ActorId from, ActorId to, std::unique_ptr<Message> message) {
  if (to >= actors_.size()) {
    util::LogWarn("Send to unknown actor {}", to);
    return;
  }
  double delay = 0.0;
  if (from != to) {
    util::Rng& rng = ActorRng(from);
    delay = latency_.Sample(rng);
    const std::size_t bytes = kMessageHeaderBytes + message->ApproxBytes();
    metrics_.RecordMessage(*message, bytes, from, to);
    if (tracer_.Enabled()) {
      // The tracer is single-threaded; sharded runs keep it disabled.
      tracer_.RecordMessage(simulator().Now(), from, to, message->TypeName(),
                            bytes, message->trace);
    }
    if (recorder_.Enabled()) {
      recorder_.RegisterTypeName(message->TypeId(), message->TypeName());
      recorder_.RecordMessage(obs::RecEvent::kMsgSend, from, to,
                               message->TypeId());
    }
    if (loss_rate_ > 0.0 && rng.NextBool(loss_rate_)) {
      metrics_.RecordDrop(*message, Metrics::DropReason::kLoss);
      if (recorder_.Enabled()) {
        recorder_.RecordMessage(obs::RecEvent::kMsgDrop, to, from,
                                 message->TypeId());
      }
      return;  // Lost on the wire; the sender still paid for it.
    }
  }
  ScheduleDelivery(from, to, delay, std::move(message));
}

void Network::SendInstant(ActorId from, ActorId to, std::unique_ptr<Message> message) {
  if (to >= actors_.size()) {
    util::LogWarn("SendInstant to unknown actor {}", to);
    return;
  }
  if (from != to) {
    util::Rng& rng = ActorRng(from);
    const std::size_t bytes = kMessageHeaderBytes + message->ApproxBytes();
    metrics_.RecordMessage(*message, bytes, from, to);
    if (tracer_.Enabled()) {
      tracer_.RecordMessage(simulator().Now(), from, to, message->TypeName(),
                            bytes, message->trace);
    }
    if (recorder_.Enabled()) {
      recorder_.RegisterTypeName(message->TypeId(), message->TypeName());
      recorder_.RecordMessage(obs::RecEvent::kMsgSend, from, to,
                               message->TypeId());
    }
    // Instant sends still cross the wire: roll the same loss model as
    // Send(). (This used to be skipped, silently making every SendInstant
    // reliable under failure injection.)
    if (loss_rate_ > 0.0 && rng.NextBool(loss_rate_)) {
      metrics_.RecordDrop(*message, Metrics::DropReason::kLoss);
      if (recorder_.Enabled()) {
        recorder_.RecordMessage(obs::RecEvent::kMsgDrop, to, from,
                                 message->TypeId());
      }
      return;
    }
  }
  if (engine_ != nullptr && engine_->InParallelSection()) {
    const std::uint32_t dst = engine_->ShardOf(to);
    if (dst != engine_->CurrentShard()) {
      // A synchronous cross-shard delivery mid-window would touch another
      // thread's actor state; defer it to the window boundary instead
      // (StageCrossShard clamps time-0 deliveries to the window end and
      // counts the deferral).
      engine_->StageCrossShard(
          dst, 0.0, [this, from, to, msg = std::move(message)]() mutable {
            Deliver(from, to, std::move(msg));
          });
      return;
    }
  }
  Deliver(from, to, std::move(message));
}

void Network::SetUp(ActorId id, bool up) {
  if (id < actors_.size()) actors_[id].up = up;
}

bool Network::IsUp(ActorId id) const {
  return id < actors_.size() && actors_[id].up;
}

void Network::SetLossRate(double probability) {
  loss_rate_ = std::clamp(probability, 0.0, 1.0);
}

}  // namespace peertrack::sim
