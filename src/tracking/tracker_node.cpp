#include "tracking/tracker_node.hpp"

#include "obs/profiler.hpp"
#include "util/logging.hpp"

namespace peertrack::tracking {

TrackerNode::TrackerNode(chord::ChordNode& chord, PeerDirectory& peers,
                         GlobalPrefixState& global_lp, TrackerConfig config)
    : chord_(chord),
      peers_(peers),
      global_lp_(global_lp),
      config_(config),
      rpc_(chord.network()),
      server_(chord.network()),
      window_(config.window),
      flood_(chord.network(), chord.Self(), iop_),
      ctr_window_flush_(
          chord.network().metrics().registry().GetCounter("track.window_flush")),
      ctr_group_handled_(
          chord.network().metrics().registry().GetCounter("track.group_handled")),
      ctr_stale_arrival_(
          chord.network().metrics().registry().GetCounter("track.stale_arrival")),
      ctr_query_timeout_(
          chord.network().metrics().registry().GetCounter("track.query_timeout")),
      ctr_replica_hit_(
          chord.network().metrics().registry().GetCounter("track.replica_hit")),
      ctr_probe_timeout_(
          chord.network().metrics().registry().GetCounter("track.probe_timeout")),
      ctr_walk_timeout_(
          chord.network().metrics().registry().GetCounter("track.walk_timeout")),
      ctr_replica_promoted_(
          chord.network().metrics().registry().GetCounter("track.replica_promoted")),
      ctr_anti_entropy_(
          chord.network().metrics().registry().GetCounter("track.anti_entropy")),
      ctr_chain_forward_(
          chord.network().metrics().registry().GetCounter("track.iop_chain_forward")) {
  chord_.SetAppHandler(this);
  rpc_.Bind(Self().actor);
  server_.Bind(Self().actor);
  flood_.SetRetryPolicy(config_.rpc);
  // Route every store mutation — protocol paths and test corruption alike —
  // onto the mutation log for incremental invariant auditing.
  obs::FlightRecorder* log = &chord_.network().delta_bus();
  iop_.Bind(log, Self().actor);
  individual_.Bind(log, Self().actor, /*individual=*/true, hash::Prefix{});
  replica_.Bind(log, Self().actor);
  store_.Bind(log, Self().actor);
  RegisterHandlers();
}

void TrackerNode::RegisterHandlers() {
  dispatcher_.On<RoutedEnvelope>(
      [this](sim::ActorId, std::unique_ptr<RoutedEnvelope> envelope) {
        HandleEnvelope(std::move(envelope));
      });
  dispatcher_.On<ObjectArrival>(
      [this](sim::ActorId, std::unique_ptr<ObjectArrival> arrival) {
        HandleObjectArrival(*arrival);
      });
  dispatcher_.On<GroupArrival>(
      [this](sim::ActorId, std::unique_ptr<GroupArrival> arrival) {
        HandleGroupArrival(*arrival);
      });
  dispatcher_.On<IopToUpdate>(
      [this](sim::ActorId, std::unique_ptr<IopToUpdate> update) {
        HandleIopTo(*update);
      });
  dispatcher_.On<IopFromUpdate>(
      [this](sim::ActorId, std::unique_ptr<IopFromUpdate> update) {
        HandleIopFrom(*update);
      });
  dispatcher_.On<ReplicaErase>(
      [this](sim::ActorId, std::unique_ptr<ReplicaErase> erase) {
        HandleReplicaErase(*erase);
      });
  dispatcher_.On<IopRepoint>(
      [this](sim::ActorId, std::unique_ptr<IopRepoint> update) {
        HandleIopRepoint(*update);
      });
  server_.Handle<ReplicaUpdate>(
      dispatcher_, [this](sim::ActorId, std::unique_ptr<ReplicaUpdate> update) {
        return HandleReplica(*update);
      });
  server_.Handle<TraceProbe>(
      dispatcher_, [this](sim::ActorId, std::unique_ptr<TraceProbe> probe) {
        return HandleProbe(*probe);
      });
  server_.Handle<IopWalkRequest>(
      dispatcher_, [this](sim::ActorId, std::unique_ptr<IopWalkRequest> request) {
        return HandleWalkRequest(*request);
      });
  rpc_.RouteResponses<TraceProbeReply>(dispatcher_);
  rpc_.RouteResponses<IopWalkResponse>(dispatcher_);
  rpc_.RouteResponses<ReplicaAck>(dispatcher_);
  flood_.RegisterHandlers(dispatcher_);
}

moods::Receptor& TrackerNode::AddReceptor(std::string name) {
  receptors_.push_back(std::make_unique<moods::Receptor>(
      std::move(name),
      [this](const moods::Object& object, moods::Time at) { OnCapture(object, at); }));
  return *receptors_.back();
}

// --- Capture path ---------------------------------------------------------

void TrackerNode::OnCapture(const moods::Object& object, moods::Time at) {
  OnCapture(object.Key(), at);
}

void TrackerNode::OnCapture(const hash::UInt160& object_key, moods::Time at) {
  iop_.RecordArrival(object_key, at);
  if (config_.mode == IndexingMode::kIndividual) {
    IndexIndividually(object_key, at);
  } else {
    BufferForGroupIndexing(object_key, at);
  }
}

void TrackerNode::IndexIndividually(const hash::UInt160& object, moods::Time at) {
  auto report = std::make_unique<ObjectArrival>();
  report->object = object;
  report->at = Self();
  report->arrived = at;
  obs::Tracer& tracer = chord_.network().tracer();
  if (tracer.Enabled()) {
    // Zero-length root marker: the id rides the M1 → M2/M3/replica chain,
    // so the one-way indexing fan-out reconstructs as one causal trace.
    const double now = chord_.network().simulator().Now();
    report->trace = tracer.StartTrace("index.m1", Self().actor, now);
    tracer.EndSpan(report->trace, now);
  }
  RoutedSend(object, std::move(report));
}

void TrackerNode::BufferForGroupIndexing(const hash::UInt160& object, moods::Time at) {
  const bool was_empty = window_.Empty();
  const bool full = window_.Add(object, at);
  if (full) {
    FlushWindow();
  } else if (was_empty) {
    ArmWindowTimer();
  }
}

void TrackerNode::ArmWindowTimer() {
  const std::uint64_t generation = window_generation_;
  // Self-timer: pin to this node's owning shard, so the flush always runs
  // where the node's state lives (SimulatorFor is the one simulator when
  // un-sharded).
  window_timer_ = chord_.network().SimulatorFor(Self().actor).ScheduleAt(
      window_.Deadline(), [this, generation] {
        if (generation == window_generation_ && !window_.Empty()) FlushWindow();
      });
}

void TrackerNode::FlushWindow() {
  if (window_.Empty()) return;
  PROF_SCOPE("tracking", "flush_window");
  ++window_generation_;
  window_timer_.Cancel();
  auto groups = window_.CloseAndGroup(CurrentLp());
  ctr_window_flush_.Add();
  obs::Tracer& tracer = chord_.network().tracer();
  for (auto& [prefix, members] : groups) {
    auto report = std::make_unique<GroupArrival>();
    report->prefix = prefix;
    report->at = Self();
    report->objects = std::move(members);
    if (tracer.Enabled()) {
      const double now = chord_.network().simulator().Now();
      report->trace = tracer.StartTrace("index.m1", Self().actor, now);
      tracer.EndSpan(report->trace, now);
    }
    RoutedSend(hash::GroupKey(prefix), std::move(report));
  }
}

// --- DHT-routed delivery ----------------------------------------------------

void TrackerNode::RoutedSend(const chord::Key& target,
                             std::unique_ptr<sim::Message> inner) {
  if (chord_.Owns(target)) {
    DispatchInner(std::move(inner));
    return;
  }
  auto envelope = std::make_unique<RoutedEnvelope>();
  envelope->target = target;
  envelope->trace = inner->trace;
  envelope->inner = std::move(inner);
  const auto step = chord_.NextRouteStep(target);
  chord_.network().Send(Self().actor, step.node.actor, std::move(envelope));
}

void TrackerNode::HandleEnvelope(std::unique_ptr<RoutedEnvelope> envelope) {
  if (chord_.Owns(envelope->target)) {
    DispatchInner(std::move(envelope->inner));
    return;
  }
  const auto step = chord_.NextRouteStep(envelope->target);
  if (step.node.actor == Self().actor) {
    // Routing dead-end (immature tables): deliver here rather than loop.
    DispatchInner(std::move(envelope->inner));
    return;
  }
  chord_.network().Send(Self().actor, step.node.actor, std::move(envelope));
}

void TrackerNode::DispatchInner(std::unique_ptr<sim::Message> inner) {
  // Unwrapped envelope payloads (ObjectArrival / GroupArrival) reuse the
  // same typed dispatch table as direct deliveries.
  if (dispatcher_.Dispatch(Self().actor, inner)) return;
  util::LogWarn("tracker {}: unexpected routed payload {}", Self().Describe(),
                inner->TypeName());
}

// --- Gateway handlers -------------------------------------------------------

void TrackerNode::HandleObjectArrival(const ObjectArrival& arrival) {
  PROF_SCOPE("tracking", "index_write_individual");
  ++objects_indexed_;
  const obs::ScopedLogTrace log_scope(arrival.trace);
  const IndexEntry* previous = individual_.Find(arrival.object);

  auto m3 = std::make_unique<IopFromUpdate>();
  m3->trace = arrival.trace;
  IopFromUpdate::Item item;
  item.object = arrival.object;
  item.arrived = arrival.arrived;
  if (previous != nullptr && previous->latest_arrived <= arrival.arrived) {
    item.from = previous->latest_node;
    item.from_arrived = previous->latest_arrived;
    auto m2 = std::make_unique<IopToUpdate>();
    m2->trace = arrival.trace;
    m2->items.push_back({arrival.object, arrival.at, arrival.arrived});
    chord_.network().Send(Self().actor, previous->latest_node.actor, std::move(m2));
  } else if (previous != nullptr) {
    // Report older than the index: cross-node reordering. Linking it into
    // the middle of the list is ambiguous from latest-only state; record
    // the anomaly and treat it as a first appearance for IOP purposes.
    ctr_stale_arrival_.Add();
  }
  m3->items.push_back(item);
  chord_.network().Send(Self().actor, arrival.at.actor, std::move(m3));

  if (previous == nullptr || previous->latest_arrived <= arrival.arrived) {
    individual_.Upsert(arrival.object, IndexEntry{arrival.at, arrival.arrived});
    if (config_.replicate_index) {
      ReplicateEntries(
          {{arrival.object, arrival.at, arrival.arrived, hash::Prefix{}}},
          arrival.trace);
    }
  }
}

void TrackerNode::HandleGroupArrival(const GroupArrival& arrival) {
  PROF_SCOPE("tracking", "index_write_group");
  objects_indexed_ += arrival.objects.size();
  const obs::ScopedLogTrace log_scope(arrival.trace);
  ctr_group_handled_.Add();
  PrefixBucket& bucket = store_.BucketFor(arrival.prefix);

  // Figure 5, `index`: objects with no local record are refreshed from
  // ascents and descents before the index is updated.
  if (config_.enable_triangle) {
    std::vector<hash::UInt160> unknown;
    for (const auto& [object, _] : arrival.objects) {
      if (bucket.Find(object) == nullptr) unknown.push_back(object);
    }
    if (!unknown.empty()) {
      if (config_.always_refresh_ascent) {
        RefreshFromAscent(unknown, arrival.prefix, bucket);
      }
      if (!unknown.empty() && delegated_children_.contains(arrival.prefix)) {
        RefreshFromDescent(unknown, arrival.prefix, bucket, 0);
      }
    }
  }

  // Figure 5, `update_index` + the batched M2/M3 exchange: one IopToUpdate
  // per distinct previous node, one IopFromUpdate back to the capturer.
  auto m3 = std::make_unique<IopFromUpdate>();
  m3->trace = arrival.trace;
  std::map<sim::ActorId, std::unique_ptr<IopToUpdate>> m2_batches;
  for (const auto& [object, arrived] : arrival.objects) {
    const IndexEntry* previous = bucket.Find(object);
    IopFromUpdate::Item item;
    item.object = object;
    item.arrived = arrived;
    if (previous != nullptr && previous->latest_arrived <= arrived) {
      item.from = previous->latest_node;
      item.from_arrived = previous->latest_arrived;
      auto& batch = m2_batches[previous->latest_node.actor];
      if (!batch) {
        batch = std::make_unique<IopToUpdate>();
        batch->trace = arrival.trace;
      }
      batch->items.push_back({object, arrival.at, arrived});
    } else if (previous != nullptr) {
      ctr_stale_arrival_.Add();
    }
    m3->items.push_back(item);
    if (previous == nullptr || previous->latest_arrived <= arrived) {
      bucket.Upsert(object, IndexEntry{arrival.at, arrived});
    }
  }
  for (auto& [actor, batch] : m2_batches) {
    chord_.network().Send(Self().actor, actor, std::move(batch));
  }
  chord_.network().Send(Self().actor, arrival.at.actor, std::move(m3));

  if (config_.replicate_index) {
    std::vector<ReplicaUpdate::Item> items;
    items.reserve(arrival.objects.size());
    for (const auto& [object, arrived] : arrival.objects) {
      if (const IndexEntry* entry = bucket.Find(object)) {
        items.push_back(
            {object, entry->latest_node, entry->latest_arrived, arrival.prefix});
      }
    }
    ReplicateEntries(items, arrival.trace);
  }

  if (config_.enable_triangle) MaybeDelegate(arrival.prefix, bucket);
}

std::vector<chord::NodeRef> TrackerNode::ReplicaTargets() const {
  std::vector<chord::NodeRef> targets;
  for (const chord::NodeRef& node : chord_.successors().Entries()) {
    if (node.actor == Self().actor) continue;
    bool seen = false;
    for (const auto& existing : targets) {
      if (existing.actor == node.actor) { seen = true; break; }
    }
    if (seen) continue;
    targets.push_back(node);
    if (targets.size() >= config_.replication_factor) break;
  }
  return targets;
}

void TrackerNode::ReplicateEntries(const std::vector<ReplicaUpdate::Item>& items,
                                   const obs::TraceContext& ctx) {
  if (items.empty() || !config_.replicate_index) return;
  PROF_SCOPE("tracking", "replicate");
  for (const chord::NodeRef& target : ReplicaTargets()) {
    auto update = std::make_unique<ReplicaUpdate>();
    update->items = items;
    update->trace = ctx;
    // Losing a push would silently orphan the replica until the next
    // anti-entropy round, so it retries; a target that stays dead is
    // handled by chord maintenance, not here.
    rpc_.Call<ReplicaAck>(target.actor, std::move(update), config_.rpc,
                          [](rpc::Status, std::unique_ptr<ReplicaAck>) {});
  }
}

std::unique_ptr<ReplicaAck> TrackerNode::HandleReplica(const ReplicaUpdate& update) {
  for (const auto& item : update.items) {
    replica_.Offer(item.object,
                   ReplicaRecord{IndexEntry{item.latest_node, item.latest_arrived},
                                 item.prefix});
  }
  return std::make_unique<ReplicaAck>();
}

void TrackerNode::HandleReplicaErase(const ReplicaErase& erase) {
  for (const auto& object : erase.objects) replica_.Remove(object);
}

void TrackerNode::SendReplicaErase(std::vector<hash::UInt160> objects) {
  if (objects.empty() || !config_.replicate_index) return;
  for (const chord::NodeRef& target : ReplicaTargets()) {
    auto erase = std::make_unique<ReplicaErase>();
    erase->objects = objects;
    chord_.network().Send(Self().actor, target.actor, std::move(erase));
  }
}

void TrackerNode::HandleIopRepoint(const IopRepoint& update) {
  for (const auto& item : update.items) {
    iop_.RepointLink(item.object, item.arrived, item.fix_to, item.new_node);
  }
}

void TrackerNode::HandleIopTo(const IopToUpdate& update) {
  for (const auto& item : update.items) {
    const moods::Visit* visit =
        iop_.DepartingVisit(item.object, item.to_arrived);
    if (visit != nullptr && visit->to.has_value() &&
        visit->to_arrived.has_value() &&
        *visit->to_arrived != item.to_arrived) {
      // The gateway named this node as the object's previous stop, but the
      // local chain already continues elsewhere — its index entry was
      // stale (e.g. resurrected from an old replica after a crash).
      // Overwriting would orphan the rest of the chain; instead the link
      // walks forward until the true tail accepts it and re-announces
      // itself to the capturer.
      if (*visit->to_arrived < item.to_arrived) {
        auto forward = std::make_unique<IopToUpdate>();
        forward->reannounce = true;
        forward->items.push_back(item);
        ctr_chain_forward_.Add();
        chord_.network().Send(Self().actor, visit->to->actor,
                              std::move(forward));
        // Repoint the capturer at this hop's successor right away: if the
        // chain dead-ends at a crashed node further on, the from-link still
        // converges to the deepest reachable hop (the monotonic guard in
        // HandleIopFrom keeps later, deeper corrections from being undone).
        auto correction = std::make_unique<IopFromUpdate>();
        correction->reannounce = true;
        correction->items.push_back(
            {item.object, item.to_arrived, *visit->to, *visit->to_arrived});
        chord_.network().Send(Self().actor, item.to.actor,
                              std::move(correction));
        continue;
      }
      // The new link precedes the known successor: splice it in here and
      // push the old successor one hop down the chain (its from-link gets
      // re-announced by whoever accepts the forwarded M2).
      auto forward = std::make_unique<IopToUpdate>();
      forward->reannounce = true;
      forward->items.push_back({item.object, *visit->to, *visit->to_arrived});
      ctr_chain_forward_.Add();
      chord_.network().Send(Self().actor, item.to.actor, std::move(forward));
    }
    iop_.SetTo(item.object, item.to, item.to_arrived);
    if (update.reannounce && visit != nullptr) {
      // This node turned out to be the true predecessor of the forwarded
      // link; the capturer's from-link (set from the stale index) must be
      // rewritten to point here.
      auto m3 = std::make_unique<IopFromUpdate>();
      m3->reannounce = true;
      m3->items.push_back(
          {item.object, item.to_arrived, Self(), visit->arrived});
      chord_.network().Send(Self().actor, item.to.actor, std::move(m3));
    }
  }
}

void TrackerNode::HandleIopFrom(const IopFromUpdate& update) {
  for (const auto& item : update.items) {
    if (update.reannounce) {
      // Chain-repair corrections only ever move a from-link deeper along
      // the chain; a straggler naming an earlier predecessor must not undo
      // a better correction that already landed.
      const moods::Visit* visit = iop_.VisitAt(item.object, item.arrived);
      if (visit != nullptr && visit->from_arrived.has_value() &&
          *visit->from_arrived >= item.from_arrived) {
        continue;
      }
    }
    iop_.SetFrom(item.object, item.arrived,
                 item.from.Valid() ? item.from : chord::NodeRef{},
                 item.from.Valid() ? std::optional<moods::Time>(item.from_arrived)
                                   : std::nullopt);
  }
}

// --- Replica promotion & anti-entropy ----------------------------------------

void TrackerNode::PromoteOwnedReplicas() {
  PROF_SCOPE("tracking", "promote_replicas");
  // Without a predecessor Owns() claims the whole ring, which would promote
  // every replica this node holds; wait for stabilization to set one.
  if (!chord_.Predecessor().has_value()) return;
  std::vector<std::pair<hash::UInt160, ReplicaRecord>> promote;
  for (const auto& [object, record] : replica_.Records()) {
    const chord::Key key =
        record.prefix.length == 0 ? object : hash::GroupKey(record.prefix);
    if (chord_.Owns(key)) promote.emplace_back(object, record);
  }
  if (promote.empty()) return;
  std::vector<std::pair<hash::UInt160, IndexEntry>> individual;
  std::map<hash::Prefix, std::vector<std::pair<hash::UInt160, IndexEntry>>> grouped;
  for (auto& [object, record] : promote) {
    replica_.Remove(object);
    ctr_replica_promoted_.Add();
    if (obs::FlightRecorder* recorder = chord_.network().recorder()) {
      recorder->RecordProtocol(obs::RecEvent::kReplicaPromote, Self().actor,
                               record.entry.latest_node.actor, object, true);
    }
    if (record.prefix.length == 0) {
      individual.emplace_back(object, record.entry);
    } else {
      grouped[record.prefix].emplace_back(object, record.entry);
    }
  }
  // Promotion goes through the standard accept paths so entries normalize
  // to the current triangle shape (and re-replicate at this node's own
  // successors).
  if (!individual.empty()) AcceptIndividualEntries(std::move(individual));
  for (auto& [prefix, entries] : grouped) {
    AcceptEntries(prefix, std::move(entries));
  }
}

void TrackerNode::ScheduleAntiEntropy() {
  if (anti_entropy_scheduled_) return;
  anti_entropy_scheduled_ = true;
  // Self-timer: owning shard (see ArmWindowTimer).
  auto& simulator = chord_.network().SimulatorFor(Self().actor);
  anti_entropy_timer_ = simulator.ScheduleAt(
      simulator.Now() + config_.anti_entropy_delay_ms, [this] {
        anti_entropy_scheduled_ = false;
        if (chord_.Alive() && !leaving_) RunAntiEntropy();
      });
}

void TrackerNode::RunAntiEntropy() {
  PROF_SCOPE("tracking", "anti_entropy");
  std::vector<ReplicaUpdate::Item> items;
  items.reserve(individual_.Size() + store_.TotalEntries());
  for (const auto& [object, entry] : individual_.Entries()) {
    items.push_back({object, entry.latest_node, entry.latest_arrived, hash::Prefix{}});
  }
  for (const auto& prefix : store_.Prefixes()) {
    const PrefixBucket* bucket = store_.TryBucket(prefix);
    for (const auto& [object, entry] : bucket->Entries()) {
      items.push_back({object, entry.latest_node, entry.latest_arrived, prefix});
    }
  }
  if (items.empty()) return;
  ctr_anti_entropy_.Add();
  ReplicateEntries(items, obs::TraceContext{});
}

// --- Graceful departure -------------------------------------------------------

TrackerNode::LeaveSummary TrackerNode::BeginLeave() {
  LeaveSummary summary;
  if (leaving_ || !chord_.Alive()) return summary;
  leaving_ = true;
  summary.left = true;
  FlushWindow();
  const chord::NodeRef successor = chord_.Successor();
  summary.successor = successor;
  if (obs::FlightRecorder* recorder = chord_.network().recorder()) {
    recorder->RecordProtocol(obs::RecEvent::kHandoffBegin, Self().actor,
                             successor.actor, {}, false);
  }
  if (successor.actor == Self().actor) {
    // Last node standing: nobody to hand state to.
    chord_.Leave();
    left_gracefully_ = true;
    PublishHandoffFinished();
    return summary;
  }
  TrackerNode* heir = peers_.TrackerByActor(successor.actor);
  const double now = chord_.network().simulator().Now();
  if (heir != nullptr) {
    // Recapture every on-premise object at the heir: the gateway index
    // moves to a live node through the ordinary M1 path, and the resulting
    // M2 extends this node's IOP chain toward the heir while this node can
    // still receive it (hence the settle delay before FinishLeave).
    const auto inventory = iop_.InventoryAt(now);
    summary.rehomed = inventory.size();
    if (!inventory.empty()) {
      ChargeRpc("track.rehome", inventory.size() * 20, "track.rehome_ack", 8,
                successor.actor);
      for (const auto& object : inventory) heir->OnCapture(object, now);
    }
  }
  // FinishLeave makes cross-actor direct calls (heir adoption), so the
  // settle timer must run on the control plane, where every shard is
  // parked at its instant.
  leave_timer_ = chord_.network().ControlSimulator().ScheduleAt(
      now + config_.leave_settle_ms, [this] { FinishLeave(); });
  return summary;
}

void TrackerNode::FinishLeave() {
  if (!chord_.Alive()) return;  // Crashed mid-leave; nothing left to hand off.
  PROF_SCOPE("tracking", "leave_handoff");
  FlushWindow();
  const chord::NodeRef successor = chord_.Successor();
  TrackerNode* heir =
      successor.actor == Self().actor ? nullptr : peers_.TrackerByActor(successor.actor);
  if (heir == nullptr || heir == this) {
    chord_.Leave();
    left_gracefully_ = true;
    PublishHandoffFinished();
    return;
  }

  // Re-announce IOP links: every neighbour holding a link at this node is
  // told to point it at the heir, where the records are about to live.
  std::map<sim::ActorId, std::unique_ptr<IopRepoint>> batches;
  iop_.ForEachObject([&](const hash::UInt160& object,
                         const std::vector<moods::Visit>& visits) {
    for (const moods::Visit& visit : visits) {
      if (visit.from.has_value() && visit.from->Valid() &&
          visit.from->actor != Self().actor && visit.from_arrived.has_value()) {
        auto& batch = batches[visit.from->actor];
        if (!batch) batch = std::make_unique<IopRepoint>();
        batch->items.push_back(
            {object, *visit.from_arrived, /*fix_to=*/true, successor});
      }
      if (visit.to.has_value() && visit.to->Valid() &&
          visit.to->actor != Self().actor && visit.to_arrived.has_value()) {
        auto& batch = batches[visit.to->actor];
        if (!batch) batch = std::make_unique<IopRepoint>();
        batch->items.push_back(
            {object, *visit.to_arrived, /*fix_to=*/false, successor});
      }
    }
  });
  for (auto& [actor, batch] : batches) {
    chord_.network().Send(Self().actor, actor, std::move(batch));
  }

  // Self-links (revisits) follow the records to the heir.
  iop_.RepointNode(Self().actor, successor);
  auto records = iop_.ExtractAll();
  if (!records.empty()) {
    std::size_t visit_count = 0;
    for (const auto& [object, visits] : records) visit_count += visits.size();
    ChargeRpc("track.iop_handoff",
              visit_count * moods::IopStore::kVisitWireBytes,
              "track.iop_handoff_ack", 8, successor.actor);
    heir->AdoptIopRecords(std::move(records));
  }
  if (!delegated_children_.empty()) {
    heir->AdoptDelegationMarkers(delegated_children_);
  }
  if (!replica_.Empty()) {
    auto replicas = replica_.ExtractAll();
    ChargeRpc("track.replica_handoff", replicas.size() * (20 + 32 + 9),
              "track.replica_handoff_ack", 8, successor.actor);
    heir->AdoptReplicaRecords(std::move(replicas));
  }

  // Chord leave migrates the gateway index (OnRangeTransfer) and notifies
  // ring neighbours before going down.
  chord_.Leave();
  left_gracefully_ = true;
  PublishHandoffFinished();
}

void TrackerNode::AdoptIopRecords(
    std::vector<std::pair<hash::UInt160, std::vector<moods::Visit>>> records) {
  for (auto& [object, visits] : records) iop_.AdoptVisits(object, visits);
}

void TrackerNode::AdoptDelegationMarkers(const std::set<hash::Prefix>& prefixes) {
  delegated_children_.insert(prefixes.begin(), prefixes.end());
}

void TrackerNode::AdoptReplicaRecords(
    std::vector<std::pair<hash::UInt160, ReplicaRecord>> records) {
  for (auto& [object, record] : records) replica_.Offer(object, record);
  if (config_.replicate_index) PromoteOwnedReplicas();
}

// --- AppHandler --------------------------------------------------------------

void TrackerNode::OnAppMessage(sim::ActorId from, std::unique_ptr<sim::Message> message) {
  if (dispatcher_.Dispatch(from, message)) return;
  util::LogWarn("tracker {}: unhandled app message {}", Self().Describe(),
                message->TypeName());
}

void TrackerNode::OnRangeTransfer(const chord::Key& lo, const chord::Key& hi,
                                  const chord::NodeRef& new_owner) {
  if (new_owner.actor == Self().actor || !peers_.KnowsActor(new_owner.actor)) {
    return;
  }

  // Individual-mode entries keyed in (lo, hi] move to the new owner.
  std::vector<std::pair<hash::UInt160, IndexEntry>> moving;
  for (const auto& [object, entry] : individual_.Entries()) {
    if (object.InHalfOpenLoHi(lo, hi)) moving.emplace_back(object, entry);
  }
  for (const auto& [object, _] : moving) individual_.Extract(object);
  if (!moving.empty()) {
    ChargeRpc("track.migrate", moving.size() * 52, "track.migrate_ack", 8,
              new_owner.actor);
  }

  // Prefix buckets whose gateway key falls in (lo, hi] move wholesale.
  std::vector<std::pair<hash::Prefix,
                        std::vector<std::pair<hash::UInt160, IndexEntry>>>>
      buckets;
  for (const auto& prefix : store_.Prefixes()) {
    if (hash::GroupKey(prefix).InHalfOpenLoHi(lo, hi)) {
      auto* bucket = store_.TryBucket(prefix);
      auto entries = bucket->ExtractAll();
      store_.DropIfEmpty(prefix);
      if (!entries.empty()) {
        ChargeRpc("track.migrate", entries.size() * 52, "track.migrate_ack", 8,
                  new_owner.actor);
        buckets.emplace_back(prefix, std::move(entries));
      }
    }
  }
  if (moving.empty() && buckets.empty()) return;

  // Extraction and wire accounting happened on the source, above, exactly
  // in the legacy order. The destination-side writes run through
  // RunOnActor: synchronous in every legal context, staged onto the new
  // owner's shard at the window boundary when it lives elsewhere — chord
  // stabilization fires this from event context, and the migration must
  // not touch a foreign shard's tracker from this thread.
  chord_.network().RunOnActor(
      new_owner.actor,
      [&peers = peers_, actor = new_owner.actor, moving = std::move(moving),
       buckets = std::move(buckets)]() mutable {
        TrackerNode* peer = peers.TrackerByActor(actor);
        if (peer == nullptr) return;
        if (!moving.empty()) peer->AcceptIndividualEntries(std::move(moving));
        for (auto& [prefix, entries] : buckets) {
          peer->AcceptEntries(prefix, std::move(entries));
        }
      });
}

void TrackerNode::OnNeighborhoodChanged() {
  if (!config_.replicate_index || leaving_ || !chord_.Alive()) return;
  // A predecessor change may have made this node the owner of keys whose
  // replicas it holds (the previous owner crashed or was scrubbed);
  // a successor-set change means the index may be mirrored at nodes that
  // no longer inherit it. Promote synchronously, re-push debounced.
  PromoteOwnedReplicas();
  ScheduleAntiEntropy();
}

void TrackerNode::AcceptIndividualEntries(
    std::vector<std::pair<hash::UInt160, IndexEntry>> entries) {
  std::vector<ReplicaUpdate::Item> accepted;
  for (auto& [object, entry] : entries) {
    const IndexEntry* existing = individual_.Find(object);
    if (existing == nullptr || existing->latest_arrived < entry.latest_arrived) {
      individual_.Upsert(object, entry);
      if (config_.replicate_index) {
        accepted.push_back(
            {object, entry.latest_node, entry.latest_arrived, hash::Prefix{}});
      }
    }
  }
  ReplicateEntries(accepted, obs::TraceContext{});
}

}  // namespace peertrack::tracking
