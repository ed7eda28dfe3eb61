// Sharded kernel vs the single-threaded determinism oracle.
//
// The sharded simulation kernel (sim::ShardEngine) promises OUTCOME
// equivalence, not schedule equivalence: for any shard count S on the same
// seed, the world a run leaves behind — gateway index contents, IOP visit
// chains, query answers, the invariant monitor's violation ledger, and the
// wire-volume totals — must be identical to the S=1 run, which executes on
// the untouched legacy single-threaded path. Every scenario here runs once
// per shard count in {1, 2, 4, 8} and diffs a full final-state digest
// against the S=1 oracle.
//
// The scenario is the churn-soak schedule (protocol joins, crashes,
// graceful leaves, captures, live trace/locate queries) with an
// incremental invariant monitor riding along on the control plane — so a
// pass also certifies the observability lanes: per-shard mutation-log
// lanes drained at window barriers feed the monitor the same backlog the
// single-threaded publish path does (zero cross-check misses), and the
// run self-heals (zero open violations at quiesce) at every shard count.
// A second suite checks that the log's per-actor rings come out identical
// across repeated sharded runs of one seed.
//
// Determinism preconditions baked into the config (see DESIGN.md §13):
//   * constant latency + zero loss + rpc_jitter_scale = 0: no rng draws in
//     event context, so per-actor streams vs the shared legacy stream
//     cannot diverge (neither draws at all);
//   * fractional control-plane times (leave settle 2500.13 ms, monitor
//     period 500.13 ms) so no control event shares an instant with
//     protocol events — the engine's control-before-shard tie rule and
//     the legacy heap's FIFO tie rule then cannot disagree;
//   * delegation disabled: the delegated-ascent fast path makes
//     synchronous cross-actor calls, which the colocation contract forbids
//     across shards (TrackerByActor asserts on it in Debug).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "tracking/tracking_system.hpp"
#include "util/format.hpp"

namespace peertrack::sim {
namespace {

hash::UInt160 Obj(std::uint64_t seed, int i) {
  return hash::ObjectKey(util::Format("epc:shard-{}-{}", seed, i));
}

/// Everything externally observable about a finished world, one sorted
/// string per fact. String form keeps gtest failure diffs readable; the
/// digest is order-independent except where order is meaningful (a trace
/// path's step sequence stays inside one line).
struct Digest {
  std::vector<std::string> lines;

  void Add(std::string line) { lines.push_back(std::move(line)); }
  void Sort() { std::sort(lines.begin(), lines.end()); }
};

void DigestLedger(const obs::InvariantMonitor& monitor, Digest& out) {
  for (const auto& violation : monitor.ledger().violations()) {
    out.Add(util::Format("ledger {} [{}] first_seen={:.3f} cleared={:.3f}",
                         violation.check, violation.subject,
                         violation.first_seen_ms,
                         violation.cleared_ms.value_or(-1.0)));
  }
}

void DigestIndexes(tracking::TrackingSystem& system, Digest& out) {
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = system.Tracker(i);
    const std::uint32_t actor = tracker.Self().actor;
    for (const hash::Prefix& prefix : tracker.prefix_store().Prefixes()) {
      const auto* bucket = tracker.prefix_store().TryBucket(prefix);
      if (bucket == nullptr) continue;
      for (const auto& [object, entry] : bucket->Entries()) {
        out.Add(util::Format("index actor={} prefix={} obj={} at={} t={:.3f}",
                             actor, prefix.ToString(), object.ToShortHex(),
                             entry.latest_node.actor, entry.latest_arrived));
      }
    }
  }
}

void DigestIop(tracking::TrackingSystem& system,
               const std::vector<hash::UInt160>& objects, Digest& out) {
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = system.Tracker(i);
    const std::uint32_t actor = tracker.Self().actor;
    for (const hash::UInt160& object : objects) {
      const auto* visits = tracker.iop().VisitsOf(object);
      if (visits == nullptr) continue;
      for (const moods::Visit& visit : *visits) {
        out.Add(util::Format(
            "iop actor={} obj={} arrived={:.3f} from={} from_t={:.3f} to={} "
            "to_t={:.3f}",
            actor, object.ToShortHex(), visit.arrived,
            visit.from.has_value() ? static_cast<int>(visit.from->actor) : -1,
            visit.from_arrived.value_or(-1.0),
            visit.to.has_value() ? static_cast<int>(visit.to->actor) : -1,
            visit.to_arrived.value_or(-1.0)));
      }
    }
  }
}

/// One trace + one locate per object from a fixed origin; answers (path
/// actor/arrival sequences included) go into the digest verbatim.
void DigestQueries(tracking::TrackingSystem& system,
                   const std::vector<hash::UInt160>& objects, Digest& out) {
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    if (system.Tracker(i).chord().Alive() && !system.Tracker(i).Leaving()) {
      alive.push_back(i);
    }
  }
  ASSERT_FALSE(alive.empty());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const hash::UInt160& object = objects[i];
    const std::size_t origin = alive[i % alive.size()];
    tracking::TrackerNode::TraceResult trace;
    system.TraceQuery(origin, object,
                      [&trace](tracking::TrackerNode::TraceResult result) {
                        trace = std::move(result);
                      });
    // Maintenance timers re-arm forever, so the queue never drains — run
    // long enough for the query (timeout 5000 ms) to resolve either way.
    system.RunUntil(system.simulator().Now() + 6000.0);
    std::string path;
    for (const auto& step : trace.path) {
      path += util::Format("({},{:.3f})", step.node.actor, step.arrived);
    }
    out.Add(util::Format("trace obj={} ok={} broken={} path={}",
                         object.ToShortHex(), trace.ok, trace.chain_broken,
                         path));
    tracking::TrackerNode::LocateResult locate;
    system.LocateQuery(origin, object,
                       [&locate](tracking::TrackerNode::LocateResult result) {
                         locate = result;
                       });
    system.RunUntil(system.simulator().Now() + 6000.0);
    out.Add(util::Format("locate obj={} ok={} node={} arrived={:.3f}",
                         object.ToShortHex(), locate.ok,
                         locate.ok ? static_cast<int>(locate.node.actor) : -1,
                         locate.arrived));
  }
}

/// Run the churn scenario at `shards` and return the final-state digest.
std::vector<std::string> RunWorld(std::uint64_t seed, std::size_t shards) {
  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 100.0;
  config.tracker.replicate_index = true;
  config.tracker.query_timeout_ms = 5000.0;
  // Fractional so FinishLeave never shares an instant with protocol events.
  config.tracker.leave_settle_ms = 2500.13;
  config.tracker.delegation_threshold = std::numeric_limits<std::size_t>::max();
  config.stabilize_every_ms = 100.0;
  config.fix_fingers_every_ms = 10.0;
  config.seed = seed;
  config.shards = shards;
  config.rpc_jitter_scale = 0.0;
  tracking::TrackingSystem system(16, std::move(config));
  util::Rng rng(seed * 7919 + 3);

  std::vector<hash::UInt160> objects;
  for (int i = 0; i < 12; ++i) objects.push_back(Obj(seed, i));
  for (std::size_t i = 0; i < objects.size(); ++i) {
    system.CaptureAt(i % 16, objects[i], 10.0 + static_cast<double>(i));
  }
  system.RunUntil(system.simulator().Now() + 3000.0);

  obs::InvariantMonitor monitor(system.MonitorSimulator(),
                                system.metrics().registry());
  monitor.EnableIncremental(system.network().delta_bus());
  obs::InstallRingChecks(monitor, system.ring());
  obs::InstallTrackingChecks(monitor, system);
  monitor.Start(/*period_ms=*/500.13,
                /*until_ms=*/system.simulator().Now() + 400000.0);

  const auto usable = [&system] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < system.NodeCount(); ++i) {
      auto& tracker = system.Tracker(i);
      if (tracker.chord().Alive() && !tracker.Leaving()) out.push_back(i);
    }
    return out;
  };

  int joins_left = 3, crashes_left = 3, leaves_left = 3;
  for (int round = 0; round < 30; ++round) {
    const auto nodes = usable();
    EXPECT_GE(nodes.size(), 2u);
    const std::uint64_t op = rng.Next() % 10;
    bool destructive = false;
    if (op == 6 && joins_left > 0) {
      system.ProtocolJoinNode();
      --joins_left;
      destructive = true;
    } else if (op == 7 && crashes_left > 0 && nodes.size() > 10) {
      system.CrashNode(nodes[rng.Next() % nodes.size()]);
      --crashes_left;
      destructive = true;
    } else if (op == 8 && leaves_left > 0 && nodes.size() > 10) {
      system.LeaveNode(nodes[rng.Next() % nodes.size()]);
      --leaves_left;
      destructive = true;
    } else if (op == 4 || op == 5) {
      const auto& object = objects[rng.Next() % objects.size()];
      const std::size_t origin = nodes[rng.Next() % nodes.size()];
      if (op == 4) {
        system.LocateQuery(origin, object,
                           [](tracking::TrackerNode::LocateResult) {});
      } else {
        system.TraceQuery(origin, object,
                          [](tracking::TrackerNode::TraceResult) {});
      }
    } else {
      const auto& object = objects[rng.Next() % objects.size()];
      const std::size_t node = nodes[rng.Next() % nodes.size()];
      system.CaptureAt(node, object, system.simulator().Now() + 10.0);
    }
    system.RunUntil(system.simulator().Now() + (destructive ? 6000.0 : 800.0));
  }
  system.RunUntil(system.simulator().Now() + 60000.0);
  monitor.RunOnce(/*force_full_sweep=*/true);

  // The lane-merge path must be byte-equivalent to inline staging: the
  // forced full sweep re-audits the universe and must find nothing the
  // delta-driven path missed, at every shard count.
  EXPECT_EQ(monitor.CrossCheckMisses(), 0u)
      << "cross-check miss (seed " << seed << ", shards " << shards << ")";
  EXPECT_GT(monitor.DeltasRouted(), 0u);
  EXPECT_EQ(monitor.OpenViolations(), 0u)
      << "violations open at quiesce (seed " << seed << ", shards " << shards
      << ")";

  if (shards > 1) {
    EXPECT_NE(system.engine(), nullptr);
    if (system.engine() != nullptr) {
      // The parallel path must actually have run, and the colocation
      // contract must have held throughout.
      EXPECT_GT(system.engine()->WindowsExecuted(), 0u);
      EXPECT_GT(system.engine()->CrossShardMessages(), 0u);
      EXPECT_EQ(system.engine()->CrossShardDirectCalls(), 0u);
    }
  } else {
    EXPECT_EQ(system.engine(), nullptr)
        << "shards=1 must run the untouched legacy kernel";
  }

  Digest digest;
  DigestLedger(monitor, digest);
  DigestIndexes(system, digest);
  DigestIop(system, objects, digest);
  DigestQueries(system, objects, digest);
  digest.Add(util::Format("metrics messages={} bytes={}",
                          system.metrics().TotalMessages(),
                          system.metrics().TotalBytes()));
  digest.Sort();
  return digest.lines;
}

class ShardDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDifferential, AllShardCountsMatchTheSingleThreadedOracle) {
  const std::uint64_t seed = GetParam();
  const auto oracle = RunWorld(seed, 1);
  EXPECT_FALSE(oracle.empty());
  for (const std::size_t shards : {2ul, 4ul, 8ul}) {
    const auto sharded = RunWorld(seed, shards);
    EXPECT_EQ(oracle, sharded)
        << "sharded kernel diverged from the single-threaded oracle (seed "
        << seed << ", shards " << shards << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferential,
                         ::testing::Values(11ull, 23ull, 47ull));

/// Every retained record of every ring (each actor's, then the world
/// ring's) after a lossy sharded run, one line per record.
std::vector<std::string> RecordedWindows(std::uint64_t seed,
                                         std::size_t shards) {
  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 100.0;
  config.tracker.replicate_index = true;
  config.tracker.query_timeout_ms = 5000.0;
  config.tracker.delegation_threshold = std::numeric_limits<std::size_t>::max();
  config.stabilize_every_ms = 100.0;
  config.fix_fingers_every_ms = 10.0;
  config.seed = seed;
  config.shards = shards;
  config.rpc_jitter_scale = 0.0;
  tracking::TrackingSystem system(16, std::move(config));
  // Small rings wrap many times, so retention depends on the order lanes
  // reach each ring — including cross-lane drop records under loss.
  system.network().EnableRecorder(/*events_per_actor=*/32);
  system.network().SetLossRate(0.05);

  util::Rng rng(seed * 31 + 7);
  std::vector<hash::UInt160> objects;
  for (int i = 0; i < 24; ++i) objects.push_back(Obj(seed, i));
  for (int round = 0; round < 6; ++round) {
    for (const hash::UInt160& object : objects) {
      system.CaptureAt(rng.Next() % 16, object,
                       system.simulator().Now() + 10.0 + round);
    }
    system.TraceQuery(rng.Next() % 16, objects[rng.Next() % objects.size()],
                      [](tracking::TrackerNode::TraceResult) {});
    system.RunUntil(system.simulator().Now() + 1500.0);
  }
  system.RunUntil(system.simulator().Now() + 8000.0);

  obs::FlightRecorder& recorder = *system.network().recorder();
  std::vector<std::string> out;
  const auto dump = [&](std::uint32_t actor) {
    for (const obs::RecordedEvent& e : recorder.Window(actor)) {
      const obs::RecordedEvent::Counterpart to =
          obs::IsStateEvent(e.event) ? obs::RecordedEvent::Counterpart{}
                                     : e.msg;
      out.push_back(util::Format(
          "ring={} seq={} when={:.3f} event={} actor={} obj={} arg={:.3f} "
          "peer={} type={}",
          actor, e.seq, e.when, obs::RecEventName(e.event), e.actor,
          e.has_object ? e.object.ToShortHex() : std::string("-"), e.arg,
          to.peer, to.type));
    }
  };
  for (std::uint32_t actor = 0; actor < system.network().ActorCount();
       ++actor) {
    dump(actor);
  }
  dump(obs::FlightRecorder::kWorldActor);
  EXPECT_GT(system.metrics().DroppedByLoss(), 0u);
  return out;
}

TEST(ShardRecorder, RingsAreIdenticalAcrossRunsOfOneSeed) {
  const auto first = RecordedWindows(/*seed=*/19, /*shards=*/4);
  EXPECT_FALSE(first.empty());
  const auto second = RecordedWindows(/*seed=*/19, /*shards=*/4);
  EXPECT_EQ(first, second)
      << "recorder rings differ between two 4-shard runs of one seed";
}

}  // namespace
}  // namespace peertrack::sim
