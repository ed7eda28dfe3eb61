// Layer-cost benchmark for PeerTrack.
//
//   layer_bench --workload <ingest|query|lossy_churn|ingest_sharded>
//               --seed <n> --seconds <s> --trace <0|1> [--git-rev <rev>]
//
// Drives the library from outside, through its public calls only, and
// checks every answer against the ground-truth oracle. One run repeats a
// fixed amount of work ("a rep") for the same seed until --seconds have
// passed, so every rep must reproduce the same messages, bytes, events and
// captures (the determinism check), and each timing is a median over reps.
//
// --trace 0 prints the end-to-end metrics, measured with the profiler off.
// --trace 1 prints the per-layer metrics: the workload's reps alternate
// profiler off / on (the difference is the tracing overhead), then the
// layer ladder (bare -> +replication -> +recorder -> +invariants) and the
// 1/2/4-shard series run on the ingest geometry.
//
// Lines starting with '#' carry host facts and diagnostics; the last line
// is the JSON result: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/profiler.hpp"
#include "sim/message_pool.hpp"
#include "tracking/tracking_system.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/epc.hpp"
#include "workload/movement.hpp"

namespace pt = peertrack;
using pt::tracking::TrackerNode;
using pt::tracking::TrackingSystem;
using Clock = std::chrono::steady_clock;

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload geometry. Sizes are set so one rep takes a few host seconds on a
// 4-core x86 host, which lets a 10-second run take the median of several
// reps.

/// ingest / ingest_sharded: the Section V group movement (10% movers,
/// 10-hop traces) on 256 nodes, 256 objects per node.
constexpr std::size_t kIngestNodes = 256;
constexpr std::size_t kIngestObjectsPerNode = 256;
/// Verification batch after ingest: half TR, half L. Large enough that
/// msgs_per_query barely moves between seeds.
constexpr std::size_t kIngestVerifyQueries = 10000;
constexpr double kInvariantPeriodMs = 5000.0;
constexpr std::uint32_t kFullSweepEveryN = 10;

/// query: a 256-node index loaded in set-up, then closed-loop queries.
constexpr std::size_t kQueryNodes = 256;
constexpr std::size_t kQueryObjectsPerNode = 256;
constexpr std::size_t kQueriesPerRep = 50000;

/// lossy_churn: 128 nodes with Chord maintenance, 5% loss, open-loop queries
/// and a fixed churn timetable; a rep runs kChurnEpisodes of them.
constexpr std::uint64_t kChurnEpisodes = 4;
constexpr std::size_t kChurnNodes = 128;
constexpr std::size_t kChurnObjectsPerNode = 64;
constexpr double kChurnStepMs = 1500.0;
constexpr double kChurnLoss = 0.05;
constexpr double kChurnQueryStartMs = 3000.0;
constexpr double kChurnQueryEndMs = 16000.0;
constexpr double kChurnQueryGapMs = 5.0;
constexpr double kChurnQueryTimeoutMs = 5000.0;
/// After the last scheduled action: covers the query timeout plus rpc
/// retries, so every query ends before the run does.
constexpr double kChurnSettleMs = 8000.0;

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinTracedPairs = 2;
/// Stop starting reps after this much host time, whatever --seconds says,
/// leaving room for the traced run's ladder and shard series inside three
/// minutes.
constexpr double kHardStopS = 120.0;

// ---------------------------------------------------------------------------
// Clocks.

double SecondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
double ProcessCpuS() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuS() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Counter snapshots. Every per-phase number is a difference of two of these.

bool IsQueryType(std::string_view type) {
  return type.starts_with("track.probe") || type.starts_with("track.walk");
}
bool IsChordType(std::string_view type) { return type.starts_with("chord."); }
/// The query's routing toward the gateway over the Chord finger tables.
bool IsRoutingType(std::string_view type) { return type.starts_with("track.probe"); }

struct Snapshot {
  double sim_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pool_allocs = 0;
  std::map<std::string, pt::sim::Metrics::TypeCounter, std::less<>> types;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t drop_loss = 0;
  std::uint64_t drop_down = 0;
  std::uint64_t anti_entropy = 0;
  std::uint64_t replica_promoted = 0;
  std::uint64_t groups_handled = 0;
  std::uint64_t recorder_events = 0;
  std::uint64_t deltas = 0;
  std::uint64_t query_retries = 0;
};

Snapshot Take(TrackingSystem& system) {
  Snapshot s;
  pt::sim::Metrics& m = system.metrics();
  s.sim_ms = system.MonitorSimulator().Now();
  s.events = system.ProcessedEvents();
  s.pool_allocs = pt::sim::MessagePoolStats::Read().served;
  s.types = m.ByType();
  s.rpc_timeouts = m.RpcTimeouts();
  s.drop_loss = m.DroppedByLoss();
  s.drop_down = m.DroppedToDownActor();
  s.anti_entropy = m.Counter("track.anti_entropy");
  s.replica_promoted = m.Counter("track.replica_promoted");
  s.groups_handled = m.Counter("track.group_handled");
  if (const pt::obs::FlightRecorder* rec = system.network().recorder()) {
    s.recorder_events = rec->EventsRecorded();
  }
  s.deltas = system.network().delta_bus().Published();
  s.query_retries =
      m.Counter("rpc.retry:track.probe") + m.Counter("rpc.retry:track.walk_req");
  return s;
}

/// Messages (or bytes) between two snapshots over the types `keep` accepts.
template <typename Pred>
std::uint64_t TypeSum(const Snapshot& a, const Snapshot& b, Pred keep,
                      bool bytes = false) {
  std::uint64_t total = 0;
  for (const auto& [name, after] : b.types) {
    if (!keep(std::string_view(name))) continue;
    std::uint64_t before = 0;
    if (auto it = a.types.find(name); it != a.types.end()) {
      before = bytes ? it->second.bytes : it->second.count;
    }
    total += (bytes ? after.bytes : after.count) - before;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Per-rep results.

/// The profiler categories whose exclusive time the traced run reports.
const std::vector<std::string> kProfCategories = {
    "deliver", "rpc", "tracking", "bus", "obs.recorder", "invariant"};

/// Everything one rep measured. Counts and times add up over the episodes
/// of a rep (lossy_churn runs several); the others run one.
struct Rep {
  bool ok = true;
  std::string why;  ///< First correctness failure.
  void Fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }

  // Determinism digest: identical across reps of one seed.
  std::uint64_t digest_msgs = 0, digest_bytes = 0, digest_events = 0;
  std::uint64_t captures = 0, answers_correct = 0;

  double setup_s = 0.0, plan_s = 0.0, key_s = 0.0;

  // Capture (index write) phase.
  double ingest_wall_s = 0.0, ingest_cpu_s = 0.0, ingest_thread_cpu_s = 0.0;
  std::uint64_t index_msgs = 0, index_bytes = 0;       ///< Index-cost types.
  std::uint64_t index_path_msgs = 0;  ///< track.routed + iop_to + iop_from.
  std::uint64_t replica_msgs = 0;     ///< track.replica + replica_ack.
  std::uint64_t ingest_events = 0, ingest_pool_allocs = 0;
  std::uint64_t groups_handled = 0, deltas = 0, recorder_events = 0;

  // Measured phase (per workload) and query phase.
  double drain_s = 0.0;  ///< Host time inside Run/RunUntil.
  double query_wall_s = 0.0, query_issue_s = 0.0;
  QueryTally tally;
  std::vector<double> host_us, sim_ms, probe_hops, walk_len;
  std::uint64_t query_msgs = 0, routing_msgs = 0, query_retries = 0;

  // Layer counters over the measured phase.
  std::uint64_t chord_msgs = 0;
  double phase_sim_s = 0.0;
  std::uint64_t rpc_timeouts = 0, drop_loss = 0, drop_down = 0;
  std::uint64_t anti_entropy = 0, replica_promoted = 0;
  double invariant_scan_s = 0.0, invariant_steady_s = 0.0;
  std::size_t open_violations = 0;
  unsigned lp = 0;
  double load_gini = 0.0;
  std::uint64_t shard_windows = 0, cross_shard_msgs = 0, lookahead_deferrals = 0;
  std::map<std::string, double> prof_self_s;
  double measured_wall_s = 0.0;  ///< The phase the tracing overhead uses.
  double measured_items = 0.0;   ///< Captures or queries in that phase.
};

void RecordCapturePhase(Rep& rep, const Snapshot& a, const Snapshot& b,
                        std::uint64_t captures) {
  const auto index_cost = [](std::string_view t) {
    return !IsQueryType(t) && !IsChordType(t);
  };
  rep.index_msgs += TypeSum(a, b, index_cost);
  rep.index_bytes += TypeSum(a, b, index_cost, /*bytes=*/true);
  rep.index_path_msgs += TypeSum(a, b, [](std::string_view t) {
    return t == "track.routed" || t == "track.iop_to" || t == "track.iop_from";
  });
  rep.replica_msgs += TypeSum(a, b, [](std::string_view t) {
    return t == "track.replica" || t == "track.replica_ack";
  });
  rep.ingest_events += b.events - a.events;
  rep.ingest_pool_allocs += b.pool_allocs - a.pool_allocs;
  rep.groups_handled += b.groups_handled - a.groups_handled;
  rep.deltas += b.deltas - a.deltas;
  rep.recorder_events += b.recorder_events - a.recorder_events;
  rep.captures += captures;
}

void RecordLayerCounters(Rep& rep, const Snapshot& a, const Snapshot& b) {
  rep.chord_msgs += TypeSum(a, b, IsChordType);
  rep.phase_sim_s += (b.sim_ms - a.sim_ms) / 1000.0;
  rep.rpc_timeouts += b.rpc_timeouts - a.rpc_timeouts;
  rep.drop_loss += b.drop_loss - a.drop_loss;
  rep.drop_down += b.drop_down - a.drop_down;
  rep.anti_entropy += b.anti_entropy - a.anti_entropy;
  rep.replica_promoted += b.replica_promoted - a.replica_promoted;
}

void RecordQueryTraffic(Rep& rep, const Snapshot& a, const Snapshot& b) {
  rep.query_msgs += TypeSum(a, b, IsQueryType);
  rep.routing_msgs += TypeSum(a, b, IsRoutingType);
  rep.query_retries += b.query_retries - a.query_retries;
}

void RecordEnd(Rep& rep, TrackingSystem& system) {
  rep.digest_msgs += system.metrics().TotalMessages();
  rep.digest_bytes += system.metrics().TotalBytes();
  rep.digest_events += system.ProcessedEvents();
  rep.answers_correct = rep.tally.correct;
  rep.lp = system.CurrentLp();
  const std::vector<std::uint64_t> load = system.IndexLoadPerNode();
  rep.load_gini = pt::util::GiniCoefficient(load);
  if (const pt::sim::ShardEngine* engine = system.engine()) {
    rep.shard_windows = engine->WindowsExecuted();
    rep.cross_shard_msgs = engine->CrossShardMessages();
    rep.lookahead_deferrals = engine->LookaheadDeferrals();
    if (engine->CrossShardDirectCalls() != 0) {
      rep.Fail("sharded kernel made cross-shard direct calls");
    }
  }
}

// ---------------------------------------------------------------------------
// Profiler windows: on only inside a traced rep's measured phase.

class ProfWindow {
 public:
  explicit ProfWindow(bool traced) : traced_(traced) {
    if (traced_) {
      pt::obs::Profiler::Reset();
      pt::obs::Profiler::SetEnabled(true);
    }
  }
  void Close(Rep& rep) {
    if (!traced_) return;
    pt::obs::Profiler::SetEnabled(false);
    traced_ = false;
    const pt::obs::Profiler::Report report = pt::obs::Profiler::Snapshot();
    for (const auto& total : report.totals) {
      const std::string& category = report.InfoOf(total.scope).category;
      if (std::find(kProfCategories.begin(), kProfCategories.end(), category) !=
          kProfCategories.end()) {
        rep.prof_self_s[category] += total.excl_ms / 1000.0;
      }
    }
  }
  ~ProfWindow() {
    if (traced_) pt::obs::Profiler::SetEnabled(false);
  }
  ProfWindow(const ProfWindow&) = delete;
  ProfWindow& operator=(const ProfWindow&) = delete;

 private:
  bool traced_;
};

// ---------------------------------------------------------------------------
// Inputs from the seed.

struct Inputs {
  pt::workload::MovementParams movement;
  pt::workload::MovementPlan plan;
  std::vector<pt::hash::UInt160> keys;  ///< By EPC sequence number.
};

Inputs MakeInputs(std::uint64_t seed, std::size_t nodes, std::size_t per_node,
                  double step_ms, Rep& rep) {
  Inputs in;
  in.movement.nodes = nodes;
  in.movement.objects_per_node = per_node;
  in.movement.move_fraction = 0.10;
  in.movement.trace_length = 10;
  in.movement.move_in_groups = true;
  in.movement.step_ms = step_ms;
  auto mark = Clock::now();
  pt::util::Rng plan_rng(seed ^ 0x706C616E5EEDULL);
  in.plan = pt::workload::PlanMovements(in.movement, plan_rng);
  rep.plan_s += SecondsSince(mark);
  mark = Clock::now();
  const pt::workload::EpcGenerator epc(seed ^ 0xE9C5EEDULL);
  in.keys.reserve(in.plan.object_count);
  for (std::uint64_t seq = 0; seq < in.plan.object_count; ++seq) {
    in.keys.push_back(epc.Key(seq));
  }
  rep.key_s += SecondsSince(mark);
  return in;
}

double MovementHorizonMs(const pt::workload::MovementParams& m) {
  return m.start_time + m.step_ms * static_cast<double>(m.trace_length + 1);
}

/// Which layers ride along with the ingest stack.
struct Layers {
  bool replicate = true;
  std::size_t recorder_events = 256;
  bool invariants = true;  ///< Incremental monitor + final full sweep.
  std::size_t shards = 1;
  bool disable_delegation = false;
};

pt::tracking::SystemConfig BaseConfig(std::uint64_t seed, const Layers& layers) {
  pt::tracking::SystemConfig config;
  config.tracker.mode = pt::tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 1000.0;
  config.tracker.window.nmax = 8192;
  config.tracker.replicate_index = layers.replicate;
  // The paper's 5 ms per message, spread over [4, 6] ms so simulated
  // latencies are not all multiples of one constant.
  config.latency = "uniform:4:6";
  config.seed = seed * 0x9E3779B97F4A7C15ULL + 0x5EEDULL;
  config.shards = std::max<std::size_t>(layers.shards, 1);
  if (config.shards > 1 || layers.disable_delegation) {
    // Delegated ascent makes synchronous cross-actor calls, which the
    // sharded kernel forbids; the library has no other switch for it.
    config.tracker.delegation_threshold = std::numeric_limits<std::size_t>::max();
  }
  return config;
}

// ---------------------------------------------------------------------------
// Answer checking against the oracle.

/// Prefix lengths k of `visits` whose last visit was the object's location
/// at some instant in [lo, hi]. Quiesced queries pass lo = hi = now.
std::pair<std::size_t, std::size_t> AllowedPrefix(
    const std::vector<pt::moods::OracleVisit>& visits, double lo, double hi) {
  const auto count_upto = [&](double t) {
    return static_cast<std::size_t>(
        std::upper_bound(visits.begin(), visits.end(), t,
                         [](double v, const pt::moods::OracleVisit& visit) {
                           return v < visit.arrived;
                         }) -
        visits.begin());
  };
  return {std::max<std::size_t>(count_upto(lo), 1), count_upto(hi)};
}

bool TraceMatches(TrackingSystem& system, const pt::hash::UInt160& object,
                  const TrackerNode::TraceResult& result, double lo, double hi) {
  const auto* visits = system.oracle().FullTrace(object);
  if (visits == nullptr) return false;
  const auto [kmin, kmax] = AllowedPrefix(*visits, lo, hi);
  const std::size_t k = result.path.size();
  if (k < kmin || k > kmax) return false;
  for (std::size_t i = 0; i < k; ++i) {
    if (system.NodeIndexOfActor(result.path[i].node.actor) != (*visits)[i].node ||
        result.path[i].arrived != (*visits)[i].arrived) {
      return false;
    }
  }
  return true;
}

bool LocateMatches(TrackingSystem& system, const pt::hash::UInt160& object,
                   const TrackerNode::LocateResult& result, double lo, double hi) {
  const auto* visits = system.oracle().FullTrace(object);
  if (visits == nullptr) return false;
  const auto [kmin, kmax] = AllowedPrefix(*visits, lo, hi);
  const pt::moods::NodeIndex node = system.NodeIndexOfActor(result.node.actor);
  for (std::size_t k = kmin; k <= kmax; ++k) {
    if ((*visits)[k - 1].node == node && (*visits)[k - 1].arrived == result.arrived) {
      return true;
    }
  }
  return false;
}

/// One issued query and, once its callback ran, its answer.
struct Pending {
  bool trace = false;
  pt::hash::UInt160 object;
  double due_ms = 0.0;
  Clock::time_point issued;
  bool done = false;
  Clock::time_point answered;
  std::optional<TrackerNode::TraceResult> tr;
  std::optional<TrackerNode::LocateResult> loc;
};

/// Issue `q` from `origin`; the callback fills it in. `q` must stay put
/// until the callback has run or the system is gone.
void Issue(TrackingSystem& system, std::size_t origin, Pending& q) {
  q.issued = Clock::now();
  if (q.trace) {
    system.TraceQuery(origin, q.object, [&q](TrackerNode::TraceResult r) {
      q.answered = Clock::now();
      q.done = true;
      q.tr = std::move(r);
    });
  } else {
    system.LocateQuery(origin, q.object, [&q](TrackerNode::LocateResult r) {
      q.answered = Clock::now();
      q.done = true;
      q.loc = std::move(r);
    });
  }
}

/// Classify a finished (or never-finished) query. An answer is correct when
/// it matches the oracle's truth at some instant in [truth_from_ms, the
/// query's completion]: quiesced queries pass the current time, mid-run
/// queries allow for captures still in flight.
void Judge(TrackingSystem& system, const Pending& q, double truth_from_ms, Rep& rep) {
  ++rep.tally.attempted;
  if (!q.done) {
    ++rep.tally.timed_out;
    return;
  }
  const double completed = q.trace ? q.tr->completed_at : q.loc->completed_at;
  if (q.trace) rep.probe_hops.push_back(static_cast<double>(q.tr->probe_hops));
  const bool ok = q.trace ? q.tr->ok : q.loc->ok;
  if (!ok) {
    ++rep.tally.refused;
    return;
  }
  const bool match =
      q.trace ? TraceMatches(system, q.object, *q.tr, truth_from_ms, completed)
              : LocateMatches(system, q.object, *q.loc, truth_from_ms, completed);
  if (!match) {
    ++rep.tally.wrong;
    return;
  }
  // Latency is reported for correct answers; failures count against
  // query_ok_frac instead (a failed query's time is often the timeout).
  ++rep.tally.correct;
  rep.host_us.push_back(
      std::chrono::duration<double, std::micro>(q.answered - q.issued).count());
  rep.sim_ms.push_back(completed - q.due_ms);
  if (q.trace) rep.walk_len.push_back(static_cast<double>(q.tr->path.size()));
}

/// Query target: half movers (long IOP walks), half drawn from everything.
const pt::hash::UInt160& PickTarget(const Inputs& in, pt::util::Rng& rng) {
  if (!in.plan.movers.empty() && rng.NextBool(0.5)) {
    return in.keys[in.plan.movers[rng.NextBelow(in.plan.movers.size())]];
  }
  return in.keys[rng.NextBelow(in.keys.size())];
}

/// Closed loop, one client: issue, run to completion, judge, repeat.
/// Alternates TR and L.
void ClosedLoopQueries(TrackingSystem& system, const Inputs& in, std::size_t n,
                       std::uint64_t seed, Rep& rep) {
  pt::util::Rng rng(seed ^ 0x71756572795EEDULL);
  const Snapshot before = Take(system);
  for (std::size_t i = 0; i < n; ++i) {
    Pending q;
    q.trace = i % 2 == 0;
    q.object = PickTarget(in, rng);
    const auto origin = static_cast<std::size_t>(rng.NextBelow(system.NodeCount()));
    q.due_ms = system.simulator().Now();
    Issue(system, origin, q);
    const auto issued = Clock::now();
    system.Run();
    const auto drained = Clock::now();
    rep.query_issue_s += std::chrono::duration<double>(issued - q.issued).count();
    rep.drain_s += std::chrono::duration<double>(drained - issued).count();
    rep.query_wall_s += std::chrono::duration<double>(drained - q.issued).count();
    // Quiesced: the one correct answer is the full trajectory.
    Judge(system, q, system.simulator().Now(), rep);
  }
  RecordQueryTraffic(rep, before, Take(system));
}

/// Incremental invariant monitor over the ingest phase.
std::unique_ptr<pt::obs::InvariantMonitor> StartMonitor(TrackingSystem& system,
                                                       double horizon_ms) {
  auto monitor = std::make_unique<pt::obs::InvariantMonitor>(
      system.MonitorSimulator(), system.metrics().registry());
  monitor->EnableIncremental(system.network().delta_bus(), kFullSweepEveryN);
  pt::obs::InstallRingChecks(*monitor, system.ring());
  pt::obs::InstallTrackingChecks(*monitor, system);
  monitor->Start(kInvariantPeriodMs, horizon_ms);
  return monitor;
}

/// Forced full sweep on the settled system. Returns the open violations;
/// `scan_s` gets the monitor's total scan time, `steady_s` the part before
/// this sweep.
std::size_t FinalSweep(pt::obs::InvariantMonitor& monitor, Rep& rep) {
  rep.invariant_steady_s += monitor.ScanWallMs() / 1000.0;
  monitor.RunOnce(/*force_full_sweep=*/true);
  rep.invariant_scan_s += monitor.ScanWallMs() / 1000.0;
  rep.open_violations += monitor.OpenViolations();
  if (monitor.CrossCheckMisses() != 0) {
    rep.Fail("invariant cross-check misses: " +
             std::to_string(monitor.CrossCheckMisses()));
  }
  return monitor.OpenViolations();
}

// ---------------------------------------------------------------------------
// Workloads. Each rep builds its own system from the seed.

/// ingest: index every capture of the movement plan, drain, then verify.
Rep RunIngestRep(std::uint64_t seed, const Layers& layers, bool traced,
                 std::size_t verify_queries) {
  Rep rep;
  const auto start = Clock::now();
  auto system = std::make_unique<TrackingSystem>(kIngestNodes, BaseConfig(seed, layers));
  if (layers.recorder_events > 0) system->network().EnableRecorder(layers.recorder_events);
  const Inputs in = MakeInputs(seed, kIngestNodes, kIngestObjectsPerNode, 4000.0, rep);
  std::unique_ptr<pt::obs::InvariantMonitor> monitor;
  if (layers.invariants) monitor = StartMonitor(*system, MovementHorizonMs(in.movement));
  rep.setup_s = SecondsSince(start);

  const Snapshot before = Take(*system);
  ProfWindow prof(traced);
  const double cpu0 = ProcessCpuS(), thread0 = ThreadCpuS();
  const auto mark = Clock::now();
  for (const auto& capture : in.plan.captures) {
    system->CaptureAt(capture.node, in.keys[capture.object_seq], capture.at);
  }
  const auto drain = Clock::now();
  system->Run();
  rep.drain_s = SecondsSince(drain);
  rep.ingest_wall_s = SecondsSince(mark);
  rep.ingest_cpu_s = ProcessCpuS() - cpu0;
  rep.ingest_thread_cpu_s = ThreadCpuS() - thread0;
  prof.Close(rep);
  const Snapshot after = Take(*system);
  RecordCapturePhase(rep, before, after, in.plan.captures.size());
  RecordLayerCounters(rep, before, after);
  rep.measured_wall_s = rep.ingest_wall_s;
  rep.measured_items = static_cast<double>(rep.captures);

  if (verify_queries > 0) {
    const double drain_before = rep.drain_s;
    ClosedLoopQueries(*system, in, verify_queries, seed, rep);
    rep.drain_s = drain_before;  // sim.drain_s is the ingest drain.
    if (rep.tally.Failed() != 0) {
      rep.Fail("ingest verification: " + std::to_string(rep.tally.Failed()) +
               " of " + std::to_string(rep.tally.attempted) + " answers failed");
    }
  }
  RecordEnd(rep, *system);
  if (monitor != nullptr) {
    if (FinalSweep(*monitor, rep) != 0) {
      rep.Fail("open invariant violations after ingest: " +
               std::to_string(rep.open_violations));
    }
  }
  return rep;
}

/// query: load a small index in set-up, then closed-loop queries.
Rep RunQueryRep(std::uint64_t seed, bool traced) {
  Rep rep;
  const auto start = Clock::now();
  Layers layers;
  layers.invariants = false;
  auto system = std::make_unique<TrackingSystem>(kQueryNodes, BaseConfig(seed, layers));
  system->network().EnableRecorder(layers.recorder_events);
  const Inputs in = MakeInputs(seed, kQueryNodes, kQueryObjectsPerNode, 4000.0, rep);
  // Loading the index is set-up; it is measured like ingest all the same.
  const Snapshot before = Take(*system);
  const double cpu0 = ProcessCpuS(), thread0 = ThreadCpuS();
  const auto mark = Clock::now();
  for (const auto& capture : in.plan.captures) {
    system->CaptureAt(capture.node, in.keys[capture.object_seq], capture.at);
  }
  system->Run();
  rep.ingest_wall_s = SecondsSince(mark);
  rep.ingest_cpu_s = ProcessCpuS() - cpu0;
  rep.ingest_thread_cpu_s = ThreadCpuS() - thread0;
  const Snapshot loaded = Take(*system);
  RecordCapturePhase(rep, before, loaded, in.plan.captures.size());
  rep.setup_s = SecondsSince(start);

  ProfWindow prof(traced);
  ClosedLoopQueries(*system, in, kQueriesPerRep, seed, rep);
  prof.Close(rep);
  RecordLayerCounters(rep, loaded, Take(*system));
  rep.measured_wall_s = rep.query_wall_s;
  rep.measured_items = static_cast<double>(rep.tally.attempted);
  if (rep.tally.Failed() != 0) {
    rep.Fail("query: " + std::to_string(rep.tally.Failed()) + " of " +
             std::to_string(rep.tally.attempted) + " answers failed");
  }
  RecordEnd(rep, *system);
  // The index every query read must be healthy.
  pt::obs::InvariantMonitor monitor(system->MonitorSimulator(),
                                    system->metrics().registry());
  pt::obs::InstallRingChecks(monitor, system->ring());
  pt::obs::InstallTrackingChecks(monitor, *system);
  if (FinalSweep(monitor, rep) != 0) {
    rep.Fail("open invariant violations on the query index: " +
             std::to_string(rep.open_violations));
  }
  return rep;
}

/// One lossy_churn episode: group movement, open-loop queries and a churn
/// timetable on a ring with Chord maintenance and 5% loss. Adds its counts
/// and times to `rep`; returns the captures skipped because their reader
/// was down. Windows close on their Tmax timers under RunUntil:
/// FlushAllWindows() drains with Run(), which never returns while
/// maintenance timers are armed.
std::uint64_t RunChurnEpisode(std::uint64_t seed, bool traced, Rep& rep) {
  // Declared before the system: callbacks the system holds point into it.
  std::deque<Pending> queries;
  const auto start = Clock::now();
  Layers layers;
  layers.invariants = false;
  pt::tracking::SystemConfig config = BaseConfig(seed, layers);
  config.stabilize_every_ms = 100.0;
  config.fix_fingers_every_ms = 10.0;
  config.tracker.query_timeout_ms = kChurnQueryTimeoutMs;
  auto system = std::make_unique<TrackingSystem>(kChurnNodes, config);
  system->network().EnableRecorder(layers.recorder_events);
  system->network().SetLossRate(kChurnLoss);
  const Inputs in = MakeInputs(seed, kChurnNodes, kChurnObjectsPerNode, kChurnStepMs, rep);
  rep.setup_s += SecondsSince(start);

  // The timetable: captures as planned, a query every kChurnQueryGapMs, and
  // membership changes at fixed instants (victims drawn from the seed).
  enum class Kind { kCrash, kLeave, kJoin, kQuery, kCapture };
  struct Action {
    double at;
    Kind kind;
    std::size_t capture = 0;
  };
  std::vector<Action> actions;
  for (double t : {4000.0, 8500.0, 13000.0}) actions.push_back({t, Kind::kCrash});
  for (double t : {6000.0, 11000.0}) actions.push_back({t, Kind::kLeave});
  for (double t : {5000.0, 9500.0, 14000.0}) actions.push_back({t, Kind::kJoin});
  for (double t = kChurnQueryStartMs; t < kChurnQueryEndMs; t += kChurnQueryGapMs) {
    actions.push_back({t, Kind::kQuery});
  }
  for (std::size_t i = 0; i < in.plan.captures.size(); ++i) {
    actions.push_back({in.plan.captures[i].at, Kind::kCapture, i});
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });

  pt::util::Rng rng(seed ^ 0xC4A05EEDULL);
  const auto usable = [&system] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < system->NodeCount(); ++i) {
      TrackerNode& tracker = system->Tracker(i);
      if (tracker.chord().Alive() && !tracker.Leaving()) out.push_back(i);
    }
    return out;
  };
  std::uint64_t captures = 0, skipped = 0;

  const Snapshot before = Take(*system);
  ProfWindow prof(traced);
  const double cpu0 = ProcessCpuS(), thread0 = ThreadCpuS();
  const auto mark = Clock::now();
  const auto run_until = [&](double t) {
    if (t <= system->simulator().Now()) return;
    const auto drain = Clock::now();
    system->RunUntil(t);
    rep.drain_s += SecondsSince(drain);
  };
  for (const Action& action : actions) {
    run_until(action.at);
    switch (action.kind) {
      case Kind::kCapture: {
        const auto& capture = in.plan.captures[action.capture];
        TrackerNode& tracker = system->Tracker(capture.node);
        // A crashed or departing organization reads nothing.
        if (!tracker.chord().Alive() || tracker.Leaving()) {
          ++skipped;
          break;
        }
        system->CaptureAt(capture.node, in.keys[capture.object_seq], action.at);
        ++captures;
        break;
      }
      case Kind::kQuery: {
        const auto nodes = usable();
        Pending& q = queries.emplace_back();
        q.trace = queries.size() % 2 == 1;
        q.object = PickTarget(in, rng);
        q.due_ms = action.at;
        const std::size_t origin = nodes[rng.NextBelow(nodes.size())];
        const auto issue = Clock::now();
        Issue(*system, origin, q);
        rep.query_issue_s += SecondsSince(issue);
        break;
      }
      case Kind::kCrash: {
        const auto nodes = usable();
        system->CrashNode(nodes[rng.NextBelow(nodes.size())]);
        break;
      }
      case Kind::kLeave: {
        const auto nodes = usable();
        system->LeaveNode(nodes[rng.NextBelow(nodes.size())]);
        break;
      }
      case Kind::kJoin:
        system->ProtocolJoinNode();
        break;
    }
  }
  run_until(actions.back().at + kChurnSettleMs);
  const double wall_s = SecondsSince(mark);
  rep.ingest_wall_s += wall_s;
  rep.ingest_cpu_s += ProcessCpuS() - cpu0;
  rep.ingest_thread_cpu_s += ThreadCpuS() - thread0;
  rep.query_wall_s += wall_s;
  prof.Close(rep);
  const Snapshot after = Take(*system);
  RecordCapturePhase(rep, before, after, captures);
  RecordLayerCounters(rep, before, after);
  RecordQueryTraffic(rep, before, after);
  rep.measured_wall_s += wall_s;
  rep.measured_items += static_cast<double>(captures);

  // Mid-run answers may lag the truth by a capture window plus delivery.
  const double staleness_ms = config.tracker.window.tmax_ms + 2000.0;
  for (const Pending& q : queries) Judge(*system, q, q.due_ms - staleness_ms, rep);
  RecordEnd(rep, *system);
  // Health after settling, for the record: loss leaves index gaps that
  // this sweep reports, so it does not gate the run.
  pt::obs::InvariantMonitor monitor(system->MonitorSimulator(),
                                    system->metrics().registry());
  pt::obs::InstallRingChecks(monitor, system->ring());
  pt::obs::InstallTrackingChecks(monitor, *system);
  FinalSweep(monitor, rep);
  return skipped;
}

/// lossy_churn rep: kChurnEpisodes independent episodes (sub-seeds of
/// `seed`). Which nodes churn moves every count by several percent, so a
/// rep averages over a few draws to keep seed-to-seed spread small.
Rep RunChurnRep(std::uint64_t seed, bool traced) {
  Rep rep;
  std::uint64_t skipped = 0;
  for (std::uint64_t e = 0; e < kChurnEpisodes; ++e) {
    skipped += RunChurnEpisode(seed * kChurnEpisodes + e, traced, rep);
  }
  std::printf("# lossy_churn rep: captures=%llu skipped=%llu queries=%llu\n",
              static_cast<unsigned long long>(rep.captures),
              static_cast<unsigned long long>(skipped),
              static_cast<unsigned long long>(rep.tally.attempted));
  return rep;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Result {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Problem(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

template <typename Fn>
double MedianOf(const std::vector<Rep>& reps, Fn fn) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const Rep& rep : reps) values.push_back(fn(rep));
  return Median(std::move(values));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double Ratio(std::uint64_t num, std::uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Percentile `p` of one rep's samples, refusing a percentile the sample
/// count cannot support.
double RepPercentile(std::vector<double> samples, double p, const char* what,
                     Result& result) {
  if (!PercentileSupported(samples.size(), p)) {
    result.Problem(std::string(what) + ": " + std::to_string(samples.size()) +
                   " samples cannot support p" + JsonNumber(p));
    return 0.0;
  }
  return Percentile(samples, p);
}

template <typename Field>
double MedianPercentile(const std::vector<Rep>& reps, Field field, double p,
                        const char* what, Result& result) {
  return MedianOf(reps, [&](const Rep& rep) {
    return RepPercentile(rep.*field, p, what, result);
  });
}

/// Correctness shared by every run: each rep passed its checks, and every
/// rep reproduced the first one's deterministic counts.
void CheckReps(const std::vector<Rep>& reps, Result& result) {
  const Rep& first = reps.front();
  for (const Rep& rep : reps) {
    if (!rep.ok) result.Problem(rep.why);
    if (!rep.tally.Balanced()) result.Problem("query tally does not balance");
    if (rep.digest_msgs != first.digest_msgs || rep.digest_bytes != first.digest_bytes ||
        rep.digest_events != first.digest_events || rep.captures != first.captures ||
        rep.answers_correct != first.answers_correct) {
      result.Problem("same-seed repeats differ in messages, bytes, events, "
                     "captures or answers");
    }
  }
}

QueryTally TotalTally(const std::vector<Rep>& reps) {
  QueryTally total;
  for (const Rep& rep : reps) total.Add(rep.tally);
  return total;
}

void AddTally(const std::vector<Rep>& reps, Result& result) {
  const QueryTally total = TotalTally(reps);
  result.attempted = total.attempted;
  result.failed = total.Failed();
  std::printf("# queries: attempted=%llu correct=%llu refused=%llu "
              "timed_out=%llu wrong=%llu fail_frac=%.6f reps=%zu\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.correct),
              static_cast<unsigned long long>(total.refused),
              static_cast<unsigned long long>(total.timed_out),
              static_cast<unsigned long long>(total.wrong), total.FailFrac(),
              reps.size());
  std::printf("# open invariant violations after the final sweep: %zu\n",
              reps.front().open_violations);
}

void EndToEnd(const std::vector<Rep>& reps, Result& result) {
  const Rep& first = reps.front();
  result.Add("setup_s", "s", MedianOf(reps, [](const Rep& r) { return r.setup_s; }));
  result.Add("captures_per_s", "1/s", MedianOf(reps, [](const Rep& r) {
               return Ratio(static_cast<double>(r.captures), r.ingest_wall_s);
             }));
  result.Add("cpu_us_per_capture", "us", MedianOf(reps, [](const Rep& r) {
               return 1e6 * Ratio(r.ingest_cpu_s, static_cast<double>(r.captures));
             }));
  result.Add("queries_per_s", "1/s", MedianOf(reps, [](const Rep& r) {
               return Ratio(static_cast<double>(r.tally.attempted), r.query_wall_s);
             }));
  result.Add("query_host_us_p50", "us",
             MedianPercentile(reps, &Rep::host_us, 50.0, "query_host_us", result));
  result.Add("query_host_us_p99", "us",
             MedianPercentile(reps, &Rep::host_us, 99.0, "query_host_us", result));
  result.Add("query_sim_ms_p50", "ms",
             MedianPercentile(reps, &Rep::sim_ms, 50.0, "query_sim_ms", result));
  result.Add("query_sim_ms_p99", "ms",
             MedianPercentile(reps, &Rep::sim_ms, 99.0, "query_sim_ms", result));
  result.Add("query_ok_frac", "ratio", TotalTally(reps).OkFrac());
  result.Add("msgs_per_capture", "count", Ratio(first.index_msgs, first.captures));
  result.Add("bytes_per_capture", "count", Ratio(first.index_bytes, first.captures));
  result.Add("msgs_per_query", "count", Ratio(first.query_msgs, first.tally.attempted));
  result.Add("peak_rss_mb", "MiB", PeakRssMiB());
  std::printf("# samples per rep: host/sim latency=%zu probe_hops=%zu; reps=%zu\n",
              first.host_us.size(), first.probe_hops.size(), reps.size());
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics, the ladder and the shard series.

/// Per-layer metrics of the workload's own reps. Counts come from the first
/// traced rep (every rep repeats them exactly), times are medians over the
/// traced reps. Per-capture counts cover the capture phase (for query, the
/// index load; for lossy_churn, the whole live phase); per-query counts
/// cover the query phase. chord.lookup_msgs_per_query counts track.probe
/// and probe_reply: a query's hops toward its gateway over the finger
/// tables.
void WorkloadLayers(const std::vector<Rep>& traced, const std::vector<Rep>& plain,
                    Result& result) {
  const Rep& first = traced.front();
  const auto per_capture = [&](std::uint64_t v) { return Ratio(v, first.captures); };
  const std::uint64_t queries = first.tally.attempted;

  result.Add("sim.events_per_capture", "count", per_capture(first.ingest_events));
  result.Add("sim.pool_allocs_per_capture", "count", per_capture(first.ingest_pool_allocs));
  result.Add("sim.drain_s", "s", MedianOf(traced, [](const Rep& r) { return r.drain_s; }));

  result.Add("chord.maintenance_msgs_per_sim_s", "1/s",
             Ratio(static_cast<double>(first.chord_msgs), first.phase_sim_s));
  result.Add("chord.lookup_msgs_per_query", "count", Ratio(first.routing_msgs, queries));
  result.Add("chord.probe_hops_p50", "count",
             MedianPercentile(traced, &Rep::probe_hops, 50.0, "probe_hops", result));
  result.Add("chord.probe_hops_p99", "count",
             MedianPercentile(traced, &Rep::probe_hops, 99.0, "probe_hops", result));

  result.Add("rpc.retries_per_query", "count", Ratio(first.query_retries, queries));
  result.Add("rpc.timeouts", "count", static_cast<double>(first.rpc_timeouts));
  result.Add("rpc.drop_loss", "count", static_cast<double>(first.drop_loss));
  result.Add("rpc.drop_down", "count", static_cast<double>(first.drop_down));

  result.Add("tracking.index_msgs_per_capture", "count", per_capture(first.index_path_msgs));
  result.Add("tracking.replica_msgs_per_capture", "count", per_capture(first.replica_msgs));
  result.Add("tracking.captures_per_group_msg", "count",
             Ratio(first.captures, first.groups_handled));
  result.Add("tracking.lp", "count", static_cast<double>(first.lp));
  result.Add("tracking.load_gini", "ratio", first.load_gini);
  result.Add("tracking.iop_walk_len_p50", "count",
             MedianPercentile(traced, &Rep::walk_len, 50.0, "iop_walk_len", result));
  result.Add("tracking.query_issue_s", "s",
             MedianOf(traced, [](const Rep& r) { return r.query_issue_s; }));
  result.Add("tracking.anti_entropy", "count", static_cast<double>(first.anti_entropy));
  result.Add("tracking.replica_promoted", "count",
             static_cast<double>(first.replica_promoted));

  result.Add("obs.invariant_scan_s", "s",
             MedianOf(traced, [](const Rep& r) { return r.invariant_scan_s; }));
  result.Add("obs.invariant_overhead_frac", "ratio", MedianOf(plain, [](const Rep& r) {
               return Ratio(r.invariant_steady_s, r.measured_wall_s);
             }));
  result.Add("obs.deltas_per_capture", "count", per_capture(first.deltas));
  result.Add("obs.recorder_events_per_capture", "count", per_capture(first.recorder_events));

  result.Add("hash.key_s", "s", MedianOf(traced, [](const Rep& r) { return r.key_s; }));
  result.Add("workload.plan_s", "s", MedianOf(traced, [](const Rep& r) { return r.plan_s; }));

  for (const std::string& category : kProfCategories) {
    result.Add("prof." + category + ".self_s", "s", MedianOf(traced, [&](const Rep& r) {
                 const auto it = r.prof_self_s.find(category);
                 return it == r.prof_self_s.end() ? 0.0 : it->second;
               }));
  }
  const auto rate = [](const Rep& r) { return Ratio(r.measured_items, r.measured_wall_s); };
  result.Add("prof.tracing_overhead_frac", "ratio",
             1.0 - Ratio(MedianOf(traced, rate), MedianOf(plain, rate)));
}

/// bare -> +replication -> +recorder -> +invariants on the ingest geometry,
/// two interleaved rounds (forward, then backward). Each ledger entry is the
/// increment over the previous rung; `bare` is absolute.
void Ladder(std::uint64_t seed, Result& result) {
  struct Rung {
    std::string name;
    Layers layers;
    std::vector<double> cpu_s = {};
    std::optional<Rep> first = {};
  };
  std::vector<Rung> rungs = {
      {"bare", {.replicate = false, .recorder_events = 0, .invariants = false}},
      {"replication", {.replicate = true, .recorder_events = 0, .invariants = false}},
      {"recorder", {.replicate = true, .recorder_events = 256, .invariants = false}},
      {"invariants", {.replicate = true, .recorder_events = 256, .invariants = true}},
  };
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      Rung& rung = rungs[round == 0 ? i : rungs.size() - 1 - i];
      Rep rep = RunIngestRep(seed, rung.layers, /*traced=*/false, /*verify_queries=*/0);
      if (!rep.ok) result.Problem("ladder " + rung.name + ": " + rep.why);
      rung.cpu_s.push_back(rep.ingest_thread_cpu_s);
      if (!rung.first) {
        rung.first = std::move(rep);
      } else if (rep.digest_msgs != rung.first->digest_msgs ||
                 rep.digest_events != rung.first->digest_events) {
        result.Problem("ladder " + rung.name + ": same-seed repeats differ");
      }
    }
  }
  double prev_cpu = 0.0;
  std::uint64_t prev_msgs = 0, prev_events = 0, prev_allocs = 0;
  for (const Rung& rung : rungs) {
    const double cpu = Median(rung.cpu_s);
    const std::string prefix = "ledger." + rung.name + ".";
    const auto delta = [](std::uint64_t now, std::uint64_t prev) {
      return static_cast<double>(now) - static_cast<double>(prev);
    };
    result.Add(prefix + "cpu_s", "s", cpu - prev_cpu);
    result.Add(prefix + "msgs", "count", delta(rung.first->index_msgs, prev_msgs));
    result.Add(prefix + "events", "count", delta(rung.first->ingest_events, prev_events));
    result.Add(prefix + "pool_allocs", "count",
               delta(rung.first->ingest_pool_allocs, prev_allocs));
    prev_cpu = cpu;
    prev_msgs = rung.first->index_msgs;
    prev_events = rung.first->ingest_events;
    prev_allocs = rung.first->ingest_pool_allocs;
  }
}

/// ingest with delegation off on 1, 2 and 4 shards, run once each. Sharded
/// runs must reproduce the 1-shard messages, bytes and captures. The
/// sim.* shard counters are those of the 2-shard leg.
void ShardSeries(std::uint64_t seed, Result& result) {
  std::map<std::size_t, Rep> legs;
  for (const std::size_t shards : {1, 2, 4}) {
    Layers layers;
    layers.shards = shards;
    layers.disable_delegation = true;
    legs[shards] = RunIngestRep(seed, layers, /*traced=*/false, /*verify_queries=*/0);
    const Rep& leg = legs[shards];
    if (!leg.ok) result.Problem("shards=" + std::to_string(shards) + ": " + leg.why);
    if (leg.digest_msgs != legs[1].digest_msgs || leg.digest_bytes != legs[1].digest_bytes ||
        leg.captures != legs[1].captures) {
      result.Problem("shards=" + std::to_string(shards) +
                     " differs from the 1-shard run in messages, bytes or captures");
    }
  }
  const auto rate = [&](std::size_t s) {
    return Ratio(static_cast<double>(legs[s].captures), legs[s].ingest_wall_s);
  };
  const Rep& two = legs[2];
  result.Add("sim.cross_shard_msgs_per_capture", "count",
             Ratio(two.cross_shard_msgs, two.captures));
  result.Add("sim.shard_windows", "count", static_cast<double>(two.shard_windows));
  result.Add("sim.lookahead_deferrals", "count", static_cast<double>(two.lookahead_deferrals));
  for (const std::size_t s : {2, 4}) {
    const double speedup = Ratio(rate(s), rate(1));
    result.Add("sim.speedup_" + std::to_string(s), "ratio", speedup);
    result.Add("sim.scale_efficiency_" + std::to_string(s), "ratio",
               speedup / static_cast<double>(s));
  }
}

// ---------------------------------------------------------------------------
// Entry point.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_rev = "unknown";
};

Options Parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + arg);
    }
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--git-rev") {
      options.git_rev = value;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

int Main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("# host {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"asserts\": %s, \"sanitized\": %s, \"git_rev\": \"%s\", "
              "\"seed\": %llu, \"workload\": \"%s\", \"trace\": %d}\n",
              std::thread::hardware_concurrency(), build_type.c_str(),
              PERFBENCH_CXX_COMPILER, kAssertsOn ? "true" : "false",
              kSanitized ? "true" : "false", options.git_rev.c_str(),
              static_cast<unsigned long long>(options.seed), options.workload.c_str(),
              options.trace ? 1 : 0);
  if (build_type == "Debug" || kAssertsOn || kSanitized) {
    std::fprintf(stderr, "layer_bench: refusing to time a Debug, assert-enabled or "
                         "sanitizer build\n");
    return 3;
  }

  std::function<Rep(bool)> rep_fn;
  if (options.workload == "ingest" || options.workload == "ingest_sharded") {
    Layers layers;
    if (options.workload == "ingest_sharded") layers.shards = 2;
    rep_fn = [seed = options.seed, layers](bool traced) {
      return RunIngestRep(seed, layers, traced, kIngestVerifyQueries);
    };
  } else if (options.workload == "query") {
    rep_fn = [seed = options.seed](bool traced) { return RunQueryRep(seed, traced); };
  } else if (options.workload == "lossy_churn") {
    rep_fn = [seed = options.seed](bool traced) { return RunChurnRep(seed, traced); };
  } else {
    std::fprintf(stderr, "layer_bench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  // End-to-end numbers are always taken with the profiler off; the traced
  // run switches it on only inside the traced reps' measured phases.
  pt::obs::Profiler::SetEnabled(false);
  const auto start = Clock::now();
  const auto keep_going = [&](std::size_t done, std::size_t min) {
    const double elapsed = SecondsSince(start);
    return elapsed < kHardStopS && (done < min || elapsed < options.seconds);
  };

  Result result;
  std::vector<Rep> plain, traced;
  if (!options.trace) {
    while (keep_going(plain.size(), kMinReps)) plain.push_back(rep_fn(false));
    CheckReps(plain, result);
    AddTally(plain, result);
    EndToEnd(plain, result);
  } else {
    while (keep_going(traced.size(), kMinTracedPairs)) {
      plain.push_back(rep_fn(false));
      traced.push_back(rep_fn(true));
    }
    std::vector<Rep> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    CheckReps(all, result);
    AddTally(all, result);
    WorkloadLayers(traced, plain, result);
    Ladder(options.seed, result);
    ShardSeries(options.seed, result);
  }
  std::printf("# measured %.3f s\n", SecondsSince(start));

  for (const std::string& problem : result.problems) {
    std::printf("# check failed: %s\n", problem.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (!ValidMetricName(m.name) || !ValidUnit(m.unit) || !std::isfinite(m.value)) {
      std::fprintf(stderr, "layer_bench: malformed metric %s\n", m.name.c_str());
      return 1;
    }
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_bench: %s\n", e.what());
    return 1;
  }
}
