#include "tracking/tracking_system.hpp"

#include <cassert>

#include "util/format.hpp"

namespace peertrack::tracking {

TrackingSystem::TrackingSystem(std::size_t nodes, SystemConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      latency_(sim::MakeLatencyModel(config_.latency)),
      network_(std::make_unique<sim::Network>(simulator_, *latency_, rng_)) {
  if (config_.shards > 1) {
    // The latency floor is the conservative lookahead: a cross-shard send
    // issued inside a window can never deliver into that same window.
    engine_ = std::make_unique<sim::ShardEngine>(simulator_, config_.shards,
                                                 latency_->Floor());
    network_->EnableSharding(*engine_, config_.seed);
  }
  network_->SetRpcJitterScale(config_.rpc_jitter_scale);
  chord::ChordRing::Options ring_options;
  ring_options.stabilize_every_ms = config_.stabilize_every_ms;
  ring_options.fix_fingers_every_ms = config_.fix_fingers_every_ms;
  ring_ = std::make_unique<chord::ChordRing>(*network_, ring_options);

  for (std::size_t i = 0; i < nodes; ++i) {
    ring_->AddNode(util::Format("org-{}", i));
  }
  ring_->OracleBootstrap();

  global_lp_.lp = PrefixLengthFor(config_.scheme, nodes, config_.tracker.lmin);

  trackers_.reserve(nodes);
  actor_of_index_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    auto& chord_node = ring_->Node(i);
    trackers_.push_back(std::make_unique<TrackerNode>(chord_node, *this, global_lp_,
                                                      config_.tracker));
    actor_of_index_.push_back(chord_node.Self().actor);
    MapActor(chord_node.Self().actor, static_cast<moods::NodeIndex>(i));
    if (config_.stabilize_every_ms > 0.0 || config_.fix_fingers_every_ms > 0.0) {
      chord_node.StartMaintenance(config_.stabilize_every_ms,
                                  config_.fix_fingers_every_ms);
    }
  }
}

TrackingSystem::~TrackingSystem() = default;

void TrackingSystem::CaptureAt(std::size_t node_index, const hash::UInt160& object,
                               moods::Time at) {
  oracle_.RecordMovement(object, static_cast<moods::NodeIndex>(node_index), at);
  PublishObjectTruth(object, at);
  // The capture event belongs to the receptor node, so it runs inside that
  // node's shard (SimulatorFor is the one simulator un-sharded).
  sim::Simulator& sim = network_->SimulatorFor(actor_of_index_[node_index]);
  sim.ScheduleAt(at, [this, node_index, object, &sim] {
    trackers_[node_index]->OnCapture(object, sim.Now());
  });
}

void TrackingSystem::PublishObjectTruth(const hash::UInt160& object,
                                        moods::Time at) {
  obs::FlightRecorder& log = network_->delta_bus();
  if (log.Active()) {
    log.Publish(obs::StateDelta::Object(obs::RecEvent::kObjectTruth,
                                        0xFFFFFFFFu, object, at));
  }
}

void TrackingSystem::FlushAllWindows() {
  // Coordinator phase: workers are parked, so direct cross-actor calls
  // are safe here even when sharded.
  for (auto& tracker : trackers_) tracker->FlushWindow();
  Run();
}

void TrackingSystem::TraceQuery(std::size_t origin_index, const hash::UInt160& object,
                                TrackerNode::TraceCallback callback) {
  network_->SimulatorFor(actor_of_index_[origin_index])
      .ScheduleAfter(0.0, [this, origin_index, object,
                           cb = std::move(callback)]() mutable {
        trackers_[origin_index]->TraceQuery(object, std::move(cb));
      });
}

void TrackingSystem::FloodTraceQuery(std::size_t origin_index,
                                     const hash::UInt160& object,
                                     FloodingQueryEngine::Callback callback) {
  // Refresh membership lazily from the alive set.
  std::vector<chord::NodeRef> peers;
  peers.reserve(trackers_.size());
  for (const auto& tracker : trackers_) {
    if (tracker->chord().Alive()) peers.push_back(tracker->Self());
  }
  auto& engine = trackers_[origin_index]->flooding();
  engine.SetMembership(std::move(peers));
  network_->SimulatorFor(actor_of_index_[origin_index])
      .ScheduleAfter(0.0, [&engine, object, cb = std::move(callback)]() mutable {
        engine.Query(object, std::move(cb));
      });
}

void TrackingSystem::LocateQuery(std::size_t origin_index, const hash::UInt160& object,
                                 TrackerNode::LocateCallback callback) {
  network_->SimulatorFor(actor_of_index_[origin_index])
      .ScheduleAfter(0.0, [this, origin_index, object,
                           cb = std::move(callback)]() mutable {
        trackers_[origin_index]->LocateQuery(object, std::move(cb));
      });
}

void TrackingSystem::GrowNetwork(std::size_t extra) {
  for (std::size_t j = 0; j < extra; ++j) {
    const std::size_t index = trackers_.size();
    auto& chord_node = ring_->AddNode(util::Format("org-{}", index));
    chord_node.MarkAlive();  // Join the alive set before the ring rewires.
    // The node that owned the newcomer's arc before it joined must hand
    // that state over (what Notify/OnRangeTransfer does in the protocol).
    TrackerNode* old_owner = OwnerOf(chord_node.Self().id);

    trackers_.push_back(std::make_unique<TrackerNode>(chord_node, *this, global_lp_,
                                                      config_.tracker));
    actor_of_index_.push_back(chord_node.Self().actor);
    MapActor(chord_node.Self().actor, static_cast<moods::NodeIndex>(index));
    ring_->OracleBootstrap();
    if (config_.stabilize_every_ms > 0.0 || config_.fix_fingers_every_ms > 0.0) {
      chord_node.StartMaintenance(config_.stabilize_every_ms,
                                  config_.fix_fingers_every_ms);
    }
    if (old_owner != nullptr && old_owner != trackers_.back().get()) {
      const chord::Key lo =
          chord_node.Predecessor() ? chord_node.Predecessor()->id : chord_node.Self().id;
      old_owner->OnRangeTransfer(lo, chord_node.Self().id, chord_node.Self());
    }
    if (config_.tracker.replicate_index) {
      // Oracle wiring bypasses the protocol's neighborhood notifications;
      // nodes whose successor set now contains the newcomer re-protect
      // their index against it explicitly.
      for (auto& tracker : trackers_) {
        if (!tracker->chord().Alive()) continue;
        for (const auto& node : tracker->chord().successors().Entries()) {
          if (node.actor == chord_node.Self().actor) {
            tracker->OnNeighborhoodChanged();
            break;
          }
        }
      }
    }
  }
}

std::size_t TrackingSystem::ProtocolJoinNode() {
  const std::size_t index = trackers_.size();
  auto& chord_node = ring_->ProtocolJoin(util::Format("org-{}", index));
  trackers_.push_back(std::make_unique<TrackerNode>(chord_node, *this, global_lp_,
                                                    config_.tracker));
  actor_of_index_.push_back(chord_node.Self().actor);
  MapActor(chord_node.Self().actor, static_cast<moods::NodeIndex>(index));
  if (config_.stabilize_every_ms > 0.0 || config_.fix_fingers_every_ms > 0.0) {
    chord_node.StartMaintenance(config_.stabilize_every_ms,
                                config_.fix_fingers_every_ms);
  }
  return index;
}

TrackerNode::LeaveSummary TrackingSystem::LeaveNode(std::size_t index) {
  TrackerNode& tracker = *trackers_[index];
  const double now = simulator_.Now();
  const auto inventory = tracker.iop().InventoryAt(now);
  const auto summary = tracker.BeginLeave();
  if (summary.left && summary.rehomed > 0) {
    const moods::NodeIndex heir = NodeIndexOfActor(summary.successor.actor);
    if (heir != moods::kNowhere) {
      // The rehoming recapture is a real movement; ground truth follows.
      for (const auto& object : inventory) {
        oracle_.RecordMovement(object, heir, now);
        PublishObjectTruth(object, now);
      }
    }
  }
  return summary;
}

void TrackingSystem::CrashNode(std::size_t index) {
  trackers_[index]->chord().Crash();
}

unsigned TrackingSystem::RecomputePrefixLength() {
  const unsigned fresh = PrefixLengthFor(config_.scheme, ring_->AliveCount(),
                                         config_.tracker.lmin);
  if (fresh != global_lp_.lp) {
    global_lp_.lp = fresh;
    obs::FlightRecorder& log = network_->delta_bus();
    if (log.Active()) {
      log.Publish(obs::StateDelta::Global(obs::RecEvent::kLpChange));
    }
    for (auto& tracker : trackers_) {
      if (tracker->chord().Alive()) tracker->OnPrefixLengthChanged(fresh);
    }
  }
  return global_lp_.lp;
}

moods::NodeIndex TrackingSystem::NodeIndexOfActor(sim::ActorId actor) const {
  return actor < index_of_actor_.size() ? index_of_actor_[actor] : moods::kNowhere;
}

std::vector<std::uint64_t> TrackingSystem::IndexLoadPerNode() const {
  std::vector<std::uint64_t> loads;
  loads.reserve(trackers_.size());
  for (const auto& tracker : trackers_) loads.push_back(tracker->ObjectsIndexed());
  return loads;
}

std::vector<std::uint64_t> TrackingSystem::StoredEntriesPerNode() const {
  std::vector<std::uint64_t> loads;
  loads.reserve(trackers_.size());
  for (const auto& tracker : trackers_) {
    loads.push_back(tracker->StoredIndexEntries());
  }
  return loads;
}

TrackerNode* TrackingSystem::TrackerByActor(sim::ActorId actor) {
  const moods::NodeIndex index = NodeIndexOfActor(actor);
  if (index == moods::kNowhere) return nullptr;
  if (engine_ != nullptr && engine_->InParallelSection()) {
    // A worker resolving an actor on another shard is about to make a
    // synchronous cross-actor call — a colocation-contract breach (the
    // delegated-ascent fast path must stay disabled in sharded scenarios).
    // Count it so tests and the bench can assert zero; fail loudly in
    // Debug.
    const std::uint32_t shard = engine_->ShardOf(actor);
    if (shard != engine_->CurrentShard()) {
      engine_->CountCrossShardDirectCall();
      assert(false && "cross-shard direct call inside a parallel window");
    }
  }
  return trackers_[index].get();
}

TrackerNode* TrackingSystem::OwnerOf(const chord::Key& key) {
  chord::ChordNode* owner = ring_->ExpectedOwner(key);
  if (owner == nullptr) return nullptr;
  return TrackerByActor(owner->Self().actor);
}

bool TrackingSystem::KnowsActor(sim::ActorId actor) {
  return NodeIndexOfActor(actor) != moods::kNowhere;
}

sim::ActorId TrackingSystem::OwnerActorOf(const chord::Key& key) {
  // Ring membership only mutates with every shard parked (coordinator or
  // control phase), so this read is safe from any shard mid-window.
  chord::ChordNode* owner = ring_->ExpectedOwner(key);
  return owner == nullptr ? sim::kInvalidActor : owner->Self().actor;
}

}  // namespace peertrack::tracking
