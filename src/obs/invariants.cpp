#include "obs/invariants.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "chord/chord_ring.hpp"
#include "obs/explain.hpp"
#include "obs/export.hpp"  // BoundedPeriodicSchedule.
#include "obs/mark_set.hpp"
#include "tracking/tracking_system.hpp"
#include "util/flat_hash.hpp"
#include "util/format.hpp"

namespace peertrack::obs {

// --- InvariantMonitor -------------------------------------------------------

InvariantMonitor::InvariantMonitor(sim::Simulator& simulator, Registry& registry)
    : simulator_(simulator),
      registry_(registry),
      ctr_scans_(registry.GetCounter("invariant.scans")),
      ctr_opened_(registry.GetCounter("invariant.violations_opened")),
      ctr_cleared_(registry.GetCounter("invariant.violations_healed")),
      open_gauge_(registry.GetGauge("invariant.open")),
      delta_depth_gauge_(registry.GetGauge("invariants.delta_bus.depth")),
      repair_all_(registry.GetHistogram("invariant.repair_ms")) {}

InvariantMonitor::~InvariantMonitor() {
  if (log_ != nullptr) log_->Release();
}

void InvariantMonitor::EnableIncremental(FlightRecorder& log,
                                         std::uint32_t full_sweep_every_n_ticks) {
  if (log_ != nullptr) return;  // Already incremental; keep the first log.
  // Take the log's consumer claim, so the mutation hot path only appends
  // PODs and each drained batch routes into the installers' mark sets. A
  // log already claimed by another consumer leaves this monitor on full
  // scans. Draining is monitor overhead wherever it happens, so its wall
  // counts against overhead_fraction.
  const bool claimed = log.Claim([this](std::span<const RecordedEvent> batch) {
    PROF_SCOPE("invariant", "stage_drain");
    const auto start = std::chrono::steady_clock::now();
    for (const DrainHandler& handler : drain_handlers_) handler(batch);
    scan_wall_ms_ += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  });
  if (!claimed) return;
  log_ = &log;
  published_at_claim_ = log.Published();
  full_sweep_every_n_ = std::max<std::uint32_t>(full_sweep_every_n_ticks, 1);
}

void InvariantMonitor::AddDrainHandler(DrainHandler handler) {
  drain_handlers_.push_back(std::move(handler));
}

void InvariantMonitor::AddScanEpilogue(std::function<void(double)> epilogue) {
  epilogues_.push_back(std::move(epilogue));
}

void InvariantMonitor::AddCheck(std::string id, Severity severity, CheckFn fn) {
  auto check = std::make_unique<Check>(Check{
      .id = id,
      .severity = severity,
      .fn = std::move(fn),
      .pass = registry_.GetCounter(util::Format("invariant.pass:{}", id)),
      .fail = registry_.GetCounter(util::Format("invariant.fail:{}", id)),
      .open_gauge = registry_.GetGauge(util::Format("invariant.open:{}", id)),
      .wall_gauge =
          registry_.GetGauge(util::Format("invariants.check.{}.wall_ms", id)),
      .repair = registry_.GetHistogram(util::Format("invariant.repair_ms:{}", id)),
      .prof_scope = Profiler::Intern("invariant", id),
  });
  checks_.push_back(std::move(check));
}

void InvariantMonitor::Start(double period_ms, double until_ms) {
  BoundedPeriodicSchedule(simulator_, period_ms, until_ms,
                          [this] { RunOnce(); });
}

void InvariantMonitor::RunOnce(bool force_full_sweep) {
  PROF_SCOPE("invariant", "scan");
  if (log_ != nullptr) {
    // Hand the staged backlog to the drain handlers before judging (the
    // consumer bills its own wall to scan_wall_ms_).
    log_->Flush();
    deltas_routed_ = log_->Published() - published_at_claim_;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const double now = simulator_.Now();
  const bool incremental = log_ != nullptr;
  const bool full_pass = !incremental || force_full_sweep ||
                         scans_ % full_sweep_every_n_ == 0;
  if (full_pass) ++full_sweeps_;
  for (auto& check_ptr : checks_) {
    Check& check = *check_ptr;
    CheckContext context(now, full_pass, incremental);
    const auto check_start = std::chrono::steady_clock::now();
    {
      PROF_SCOPE_ID(check.prof_scope);
      check.fn(context);
    }
    check.wall_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - check_start)
                         .count();
    check.wall_gauge.Set(check.wall_ms);
    check.cross_check_misses += context.CrossCheckMisses();
    cross_check_misses_ += context.CrossCheckMisses();
    ++check.scans;
    if (context.findings().empty()) {
      check.pass.Add();
    } else {
      check.fail.Add();
      ++check.failed_scans;
      check.findings += context.findings().size();
    }
    const HealthLedger::Delta delta =
        ledger_.Reconcile(check.id, check.severity, context.findings(), now);
    check.opened += delta.opened;
    opened_total_ += delta.opened;
    if (delta.opened > 0) ctr_opened_.Add(delta.opened);
    if (!delta.repaired_ms.empty()) {
      check.healed += delta.repaired_ms.size();
      ctr_cleared_.Add(delta.repaired_ms.size());
      for (const double repaired : delta.repaired_ms) {
        check.repair.Add(repaired);
        repair_all_.Add(repaired);
      }
    }
    check.open_gauge.Set(static_cast<double>(ledger_.OpenCount(check.id)));
    if (forensic_recorder_ != nullptr && !delta.opened_indices.empty()) {
      DumpForensics(check, delta, now);
    }
  }
  // Retire the shared dirty marks only after every check consumed them.
  for (const auto& epilogue : epilogues_) epilogue(now);
  open_gauge_.Set(static_cast<double>(ledger_.OpenCount()));
  delta_depth_gauge_.Set(
      static_cast<double>(deltas_routed_ - deltas_routed_at_last_scan_));
  deltas_routed_at_last_scan_ = deltas_routed_;
  ++scans_;
  ctr_scans_.Add();
  scan_wall_ms_ += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
}

void InvariantMonitor::EnableForensics(FlightRecorder& recorder,
                                       ForensicOptions options) {
  forensic_recorder_ = &recorder;
  forensic_options_ = std::move(options);
}

void InvariantMonitor::DumpForensics(const Check& check,
                                     const HealthLedger::Delta& delta,
                                     double now) {
  for (const std::size_t index : delta.opened_indices) {
    if (forensic_bundles_ >= forensic_options_.max_bundles) return;
    Violation& violation = ledger_.MutableViolation(index);
    ForensicTrigger trigger;
    trigger.check = check.id;
    trigger.subject = violation.subject;
    trigger.detail = violation.detail;
    trigger.actor = violation.actor;
    trigger.when_ms = now;
    trigger.event_seq = forensic_recorder_->LastSeq();
    trigger.object = violation.object;
    trigger.has_object = violation.has_object;
    const ForensicBundle bundle =
        forensic_recorder_->Collect(trigger, {violation.actor});
    const CauseNode cause = Explain(bundle);
    const std::string path =
        forensic_recorder_->WriteBundle(bundle, forensic_options_.dir);
    if (path.empty()) continue;  // Unwritable dir: keep the run alive.
    violation.bundle_path = path;
    violation.trigger_event = trigger.event_seq;
    violation.cause = cause.id;
    violation.explain = RenderCauseTree(cause);
    ++forensic_bundles_;
  }
}

HealthReport InvariantMonitor::Report() const {
  // Bound the per-violation log so a pathological churn run cannot emit a
  // gigabyte of JSON; the aggregate counts always cover everything.
  constexpr std::size_t kMaxReportViolations = 2000;

  HealthReport report;
  report.generated_at_ms = simulator_.Now();
  report.scans = scans_;
  report.incremental = log_ != nullptr;
  report.full_sweeps = full_sweeps_;
  report.deltas_routed = deltas_routed_;
  report.scan_wall_ms = scan_wall_ms_;
  report.cross_check_misses = cross_check_misses_;
  report.open_violations = ledger_.OpenCount();
  report.open_fatal = ledger_.OpenFatalCount();
  for (const auto& check_ptr : checks_) {
    const Check& check = *check_ptr;
    HealthReport::CheckSummary summary;
    summary.id = check.id;
    summary.severity = check.severity;
    summary.scans = check.scans;
    summary.failed_scans = check.failed_scans;
    summary.findings = check.findings;
    summary.opened = check.opened;
    summary.healed = check.healed;
    summary.open = ledger_.OpenCount(check.id);
    summary.wall_ms = check.wall_ms;
    summary.cross_check_misses = check.cross_check_misses;
    summary.repair.count = check.repair.Count();
    summary.repair.p50_ms = check.repair.P50();
    summary.repair.p95_ms = check.repair.P95();
    summary.repair.p99_ms = check.repair.P99();
    summary.repair.max_ms = check.repair.Max();
    report.checks.push_back(std::move(summary));
  }
  report.violations = ledger_.violations();
  report.violations_total = report.violations.size();
  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.first_seen_ms != b.first_seen_ms) {
                return a.first_seen_ms < b.first_seen_ms;
              }
              if (a.check != b.check) return a.check < b.check;
              return a.subject < b.subject;
            });
  if (report.violations.size() > kMaxReportViolations) {
    report.violations.resize(kMaxReportViolations);
  }
  return report;
}

// --- Incremental plumbing ---------------------------------------------------

namespace {

/// One IOP visit record: the subject grain of the iop.* checks. Marking a
/// whole object would re-audit its entire multi-node chain on every link
/// write; one (object, holder, arrival) key re-audits exactly one record.
struct VisitKey {
  hash::UInt160 object{};
  std::uint32_t actor = 0;
  double arrived = 0.0;

  friend bool operator==(const VisitKey&, const VisitKey&) = default;
};

struct VisitKeyHasher {
  std::size_t operator()(const VisitKey& key) const noexcept {
    std::uint64_t h = key.object.Fold64() ^
                      (static_cast<std::uint64_t>(key.actor) *
                       0x9E3779B97F4A7C15ULL);
    h ^= std::bit_cast<std::uint64_t>(key.arrived) + 0x9E3779B97F4A7C15ULL +
         (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

// MarkSet (the shared dirty/deferred marks one installer's checks consume)
// lives in obs/mark_set.hpp so its dedup memos have their own unit tests.

/// Audit verdicts: what happens to the key after this audit.
/// Warm one cache line for a read that is a few loop iterations away.
inline void PrefetchLine(const void* line) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(line, 0, 1);
#else
  (void)line;
#endif
}

constexpr double kHealthy = -1.0;  ///< Settled and clean: drop from watch.
constexpr double kWatch = 0.0;     ///< Failing: re-audit every tick so the
                                   ///< ledger refreshes/closes on the same
                                   ///< scan a full sweep would.
// Any value > 0 is a pending deadline: the key is inside its staleness
// window and nothing can change its verdict before sim time reaches the
// deadline except a new delta (which re-dirties it) — so ticks skip it
// until then instead of re-auditing a known-unjudgeable subject.

/// Per-check bookkeeping on top of a shared MarkSet. Both modes run the
/// same per-key audit function; only the keys fed to it differ:
///
///   full pass        audit(every key the enumerator yields)
///   incremental tick audit(dirty ∪ {watched with deadline reached})
///
/// `watch` maps keys to their re-audit deadline (kWatch = every tick).
/// Because every failing key stays watched at kWatch, an open violation's
/// subject is always re-audited and HealthLedger::Reconcile sees identical
/// open/refresh/close timing to full mode.
///
/// On a full pass in incremental mode, a finding on a key that was neither
/// dirty nor watched — and whose subject is not already open — is a
/// cross-check miss: the incremental path would never have produced it,
/// which means a mutation site failed to publish a delta.
template <typename Key, typename Hash = std::hash<Key>>
class DirtyScope {
 public:
  /// `grace` is the check's staleness window: a deferred key's first audit
  /// lands at its delta gate plus this, i.e. exactly when the audit's own
  /// pending logic would stop returning a deadline.
  explicit DirtyScope(std::shared_ptr<MarkSet<Key, Hash>> marks,
                      double grace = 0.0)
      : marks_(std::move(marks)), grace_(grace) {}

  /// `audit(ctx, key)` reports findings for one key and returns a verdict:
  /// kHealthy, kWatch, or a pending deadline (sim ms).
  template <typename Enumerate, typename Audit>
  void Run(CheckContext& ctx, std::string_view check_id,
           const HealthLedger& ledger, const Enumerate& enumerate,
           const Audit& audit) {
    next_watch_.Clear();
    if (ctx.FullPass() || marks_->all) {
      const bool detect = ctx.Incremental() && ctx.FullPass() && !marks_->all;
      enumerate([&](const Key& key) {
        const std::size_t before = ctx.findings().size();
        const double verdict = audit(ctx, key);
        if (verdict >= 0.0) next_watch_.TryEmplace(key, verdict);
        if (detect && ctx.findings().size() != before &&
            !marks_->dirty.Contains(key) && !watch_.Contains(key) &&
            !marks_->deferred.Contains(key)) {
          for (std::size_t i = before; i < ctx.findings().size(); ++i) {
            if (!ledger.IsOpen(check_id, ctx.findings()[i].subject)) {
              ctx.CrossCheckMiss();
            }
          }
        }
      });
    } else {
      for (const Key& key : marks_->dirty) {
        const double verdict = audit(ctx, key);
        if (verdict >= 0.0) next_watch_.TryEmplace(key, verdict);
      }
      // Deferred keys park in the shared map until their gate plus the
      // settle window passes; skipping an in-flight key costs a comparison,
      // not a map insertion, and each key is audited exactly once when due
      // (the epilogue's Retire erases judged gates). An audit that still
      // returns a deadline — a later gate surfaced meanwhile — parks in
      // this scope's own watch.
      // `gate <= now - grace` (not `gate + grace <= now`): bit-identical to
      // the epilogue's Retire cut-off, so an entry is never erased un-audited.
      const double judged_before = ctx.Now() - grace_;
      for (const auto& [key, gate] : marks_->deferred) {
        if (gate > judged_before) continue;         // In flight.
        if (marks_->dirty.Contains(key)) continue;  // Audited above.
        const double verdict = audit(ctx, key);
        if (verdict >= 0.0) next_watch_.TryEmplace(key, verdict);
      }
      for (const auto& [key, deadline] : watch_) {
        if (marks_->dirty.Contains(key)) continue;
        if (deadline > ctx.Now()) {
          next_watch_.TryEmplace(key, deadline);  // Still unjudgeable.
          continue;
        }
        const double verdict = audit(ctx, key);
        if (verdict >= 0.0) next_watch_.TryEmplace(key, verdict);
      }
    }
    watch_.Swap(next_watch_);
    // marks_ is retired by the installer's epilogue once every sibling ran.
  }

 private:
  std::shared_ptr<MarkSet<Key, Hash>> marks_;
  double grace_ = 0.0;
  util::FlatHashMap<Key, double, Hash> watch_;
  util::FlatHashMap<Key, double, Hash> next_watch_;
};

/// No-sub sentinel for FusedScope sub indices (disabled sibling checks).
constexpr unsigned kNoSub = ~0u;

/// Fused sibling checks over one shared key space. The object-grain trio
/// (gateway.staleness / triangle.coverage / gateway.replication) audits
/// nearly identical key sets, and each audit starts from the same two
/// expensive lookups — the oracle trace and the resolved site list. A
/// FusedScope walks the key set ONCE per scan and hands every due key to a
/// single judge function that runs all enabled sub-audits against the
/// shared lookups, so the trace fetch and site resolution happen once, not
/// once per check.
///
/// Reporting parity with per-check DirtyScopes is preserved exactly:
/// findings and cross-check misses buffer per sub during the pass, and
/// each registered check's body calls Run(ctx, ..., its_sub) — the first
/// sibling of a scan triggers the pass, every sibling then drains its own
/// buffer into its own CheckContext, so ledger reconciliation, pass/fail
/// counters, and per-check summaries are indistinguishable from unfused
/// execution. (Per-check wall_ms attributes the whole fused pass to the
/// first enabled sibling; the profiler scope passed to the constructor
/// carries the honest shared cost.)
///
/// Key-set parity per sub on a tick: dirty and deferred-due keys judge
/// every sub (identical to each DirtyScope consuming the same shared
/// MarkSet); watch-due keys judge ONLY their own sub — judging siblings on
/// a key they never watched could park spurious deadlines. On a full pass
/// every enumerated key judges every sub; the enumerator must yield each
/// key at most once (overlapping enumerations dedup on their own side — a
/// shared judged-set here would pay a hashed insert per key on the sweep's
/// critical path). A sub whose old enumeration never yielded some key
/// returns kHealthy there by construction (no trace -> healthy, no sites
/// -> healthy), so verdicts match the unfused behaviour.
template <typename Key, typename Hash = std::hash<Key>>
class FusedScope {
 public:
  FusedScope(std::shared_ptr<MarkSet<Key, Hash>> marks, double grace,
             ProfScopeId prof_scope)
      : marks_(std::move(marks)), grace_(grace), prof_scope_(prof_scope) {}

  /// Optional locality pass over the due-key batch before judging. Audits
  /// are per-key independent and the ledger reconciles per subject, so any
  /// deterministic permutation preserves detection — the installer supplies
  /// an order that clusters the judge's store probes (objects by key range
  /// so ring ownership groups per gateway, visits by holder actor). Called
  /// once per incremental tick, not per key.
  void SetDueSorter(std::function<void(std::vector<Key>&)> sorter) {
    due_sorter_ = std::move(sorter);
  }

  /// Optional cache warmer for the due loop: called with the key a fixed
  /// lookahead ahead of the one being judged, so the judge's first store
  /// probes (oracle trace, site mirror, visit record) overlap the current
  /// key's work instead of stalling on a cold line each.
  void SetDuePrefetcher(std::function<void(const Key&)> prefetcher) {
    due_prefetcher_ = std::move(prefetcher);
  }

  /// Register a sub-check before first Run. Returns its index (its bit in
  /// judge masks). `id` must outlive the scope (check ids are literals).
  unsigned AddSub(std::string_view id) {
    subs_.emplace_back();
    subs_.back().id = id;
    return static_cast<unsigned>(subs_.size() - 1);
  }

  /// Judge-side API: buffer one finding for sub `sub`.
  void Report(unsigned sub, std::uint32_t actor, std::string subject,
              std::string detail) {
    subs_[sub].findings.push_back(
        Finding{actor, std::move(subject), std::move(detail)});
  }

  /// Object-grain variant: carries the key so the forensic dump can match
  /// recorded history by object instead of parsing the subject string.
  void Report(unsigned sub, std::uint32_t actor, const hash::UInt160& object,
              std::string subject, std::string detail) {
    Finding finding{actor, std::move(subject), std::move(detail)};
    finding.object = object;
    finding.has_object = true;
    subs_[sub].findings.push_back(std::move(finding));
  }

  /// Judge-side API: sub's verdict for the key being judged (kHealthy /
  /// kWatch / pending deadline, like a DirtyScope audit's return value).
  void SetVerdict(unsigned sub, const Key& key, double verdict) {
    if (verdict >= 0.0) subs_[sub].next_watch.TryEmplace(key, verdict);
  }

  /// One registered check's scan body. The pass over the key set runs once
  /// per scan (keyed on `scan_key`), whichever enabled sibling gets here
  /// first; every sibling then emits sub `emit_sub`'s buffered findings
  /// and misses into its own context.
  ///
  /// judge(fused, ctx, key, mask) must, for every sub bit set in `mask`,
  /// report findings via Report(sub, ...) and finish with
  /// SetVerdict(sub, key, verdict).
  template <typename Enumerate, typename Judge>
  void Run(CheckContext& ctx, const HealthLedger& ledger,
           std::uint64_t scan_key, const Enumerate& enumerate,
           const Judge& judge, unsigned emit_sub) {
    if (pass_key_ != scan_key) {
      pass_key_ = scan_key;
      PROF_SCOPE_ID(prof_scope_);
      RunPass(ctx, ledger, enumerate, judge);
    }
    Emit(ctx, emit_sub);
  }

 private:
  struct Sub {
    std::string_view id;
    util::FlatHashMap<Key, double, Hash> watch;
    util::FlatHashMap<Key, double, Hash> next_watch;
    std::vector<Finding> findings;
    std::size_t misses = 0;
  };
  static constexpr unsigned kMaxSubs = 8;

  template <typename Enumerate, typename Judge>
  void RunPass(CheckContext& ctx, const HealthLedger& ledger,
               const Enumerate& enumerate, const Judge& judge) {
    const double now = ctx.Now();
    const auto all_mask = static_cast<unsigned>((1u << subs_.size()) - 1u);
    if (ctx.FullPass() || marks_->all) {
      detect_ = ctx.Incremental() && ctx.FullPass() && !marks_->all;
      enumerate([&](const Key& key) {
        JudgeKey(ctx, ledger, judge, key, all_mask);
      });
    } else {
      detect_ = false;
      // Materialize the due batch (dirty ∪ deferred-due) instead of judging
      // straight off the map walks: the batch then takes one locality sort,
      // and the judges' random store probes cluster instead of missing
      // cache on every key. Same deferred-gate discipline as
      // DirtyScope::Run — the cut-off must stay bit-identical to the
      // epilogue's Retire.
      const double judged_before = now - grace_;
      due_.clear();
      for (const Key& key : marks_->dirty) due_.push_back(key);
      for (const auto& [key, gate] : marks_->deferred) {
        if (gate > judged_before) continue;         // In flight.
        if (marks_->dirty.Contains(key)) continue;  // Queued above.
        due_.push_back(key);
      }
      if (due_sorter_) due_sorter_(due_);
      static const bool diag = std::getenv("PEERTRACK_SCAN_DIAG") != nullptr;
      const auto t_due0 = std::chrono::steady_clock::now();
      constexpr std::size_t kAhead = 8;
      for (std::size_t i = 0; i < due_.size(); ++i) {
        if (due_prefetcher_ && i + kAhead < due_.size()) {
          due_prefetcher_(due_[i + kAhead]);
        }
        JudgeKey(ctx, ledger, judge, due_[i], all_mask);
      }
      const auto t_due1 = std::chrono::steady_clock::now();
      std::size_t watch_in = 0;
      std::size_t watch_judged = 0;
      std::size_t watch_reinserted = 0;
      for (unsigned i = 0; i < subs_.size(); ++i) {
        Sub& sub = subs_[i];
        watch_in += sub.watch.Size();
        // Materialize this sub's expired-deadline keys and run them through
        // the same sort + lookahead warmer as the due batch: watch-map
        // iteration order is hash-random, so judging inline would miss
        // cache on every key's store probes.
        due_.clear();
        for (const auto& [key, deadline] : sub.watch) {
          if (marks_->dirty.Contains(key)) continue;
          if (const double* gate = marks_->deferred.Find(key);
              gate != nullptr && *gate <= judged_before) {
            continue;  // Judged above (every sub, this one included).
          }
          if (deadline > now) {
            sub.next_watch.TryEmplace(key, deadline);  // Still unjudgeable.
            ++watch_reinserted;
            continue;
          }
          due_.push_back(key);
        }
        watch_judged += due_.size();
        if (due_sorter_) due_sorter_(due_);
        for (std::size_t j = 0; j < due_.size(); ++j) {
          if (due_prefetcher_ && j + kAhead < due_.size()) {
            due_prefetcher_(due_[j + kAhead]);
          }
          JudgeKey(ctx, ledger, judge, due_[j], 1u << i);
        }
      }
      if (diag) {
        const auto t_watch1 = std::chrono::steady_clock::now();
        std::fprintf(
            stderr,
            "[scan-diag] scope=%.*s due=%zu due_ms=%.1f watch_in=%zu "
            "judged=%zu reins=%zu watch_ms=%.1f deferred=%zu\n",
            static_cast<int>(subs_[0].id.size()), subs_[0].id.data(),
            due_.size(),
            std::chrono::duration<double, std::milli>(t_due1 - t_due0).count(),
            watch_in, watch_judged, watch_reinserted,
            std::chrono::duration<double, std::milli>(t_watch1 - t_due1)
                .count(),
            marks_->deferred.Size());
      }
    }
    for (Sub& sub : subs_) {
      sub.watch.Swap(sub.next_watch);
      sub.next_watch.Clear();
    }
    // marks_ is retired by the installer's epilogue once every sibling ran.
  }

  template <typename Judge>
  void JudgeKey(CheckContext& ctx, const HealthLedger& ledger,
                const Judge& judge, const Key& key, unsigned mask) {
    if (!detect_) {
      judge(*this, ctx, key, mask);
      return;
    }
    std::size_t before[kMaxSubs] = {};
    for (unsigned i = 0; i < subs_.size(); ++i) {
      before[i] = subs_[i].findings.size();
    }
    judge(*this, ctx, key, mask);
    // Full cross-check pass: a finding on a key the incremental path had
    // no reason to audit — not dirty, not deferred, not watched by the
    // finding sub, subject not already open — is a miss (same predicate as
    // DirtyScope::Run, per sub).
    for (unsigned i = 0; i < subs_.size(); ++i) {
      Sub& sub = subs_[i];
      if (sub.findings.size() == before[i]) continue;
      if (marks_->dirty.Contains(key) || sub.watch.Contains(key) ||
          marks_->deferred.Contains(key)) {
        continue;
      }
      for (std::size_t j = before[i]; j < sub.findings.size(); ++j) {
        if (!ledger.IsOpen(sub.id, sub.findings[j].subject)) ++sub.misses;
      }
    }
  }

  void Emit(CheckContext& ctx, unsigned sub_index) {
    Sub& sub = subs_[sub_index];
    for (Finding& finding : sub.findings) {
      ctx.Report(std::move(finding));
    }
    sub.findings.clear();
    for (std::size_t i = 0; i < sub.misses; ++i) ctx.CrossCheckMiss();
    sub.misses = 0;
  }

  std::shared_ptr<MarkSet<Key, Hash>> marks_;
  double grace_ = 0.0;
  ProfScopeId prof_scope_ = kInvalidProfScope;
  std::vector<Sub> subs_;
  std::uint64_t pass_key_ = ~0ull;
  bool detect_ = false;
  std::function<void(std::vector<Key>&)> due_sorter_;
  std::function<void(const Key&)> due_prefetcher_;
  std::vector<Key> due_;  ///< Per-tick scratch, capacity reused.
};

using ActorMarks = MarkSet<std::uint32_t>;
using ObjectMarks = MarkSet<hash::UInt160, hash::UInt160Hasher>;
using VisitMarks = MarkSet<VisitKey, VisitKeyHasher>;
using ActorScope = DirtyScope<std::uint32_t>;
using ObjectFused = FusedScope<hash::UInt160, hash::UInt160Hasher>;
using VisitFused = FusedScope<VisitKey, VisitKeyHasher>;

}  // namespace

// --- Ring checks ------------------------------------------------------------

namespace {

/// Alive nodes sorted by ring id — the ground-truth ring, built once per
/// scan (ChordRing::ExpectedSuccessor re-sorts per call, too slow to use
/// per finger).
std::vector<const chord::ChordNode*> SortedAliveNodes(const chord::ChordRing& ring) {
  std::vector<const chord::ChordNode*> alive;
  alive.reserve(ring.NodeCount());
  for (const auto& node : ring.Nodes()) {
    if (node->Alive()) alive.push_back(node.get());
  }
  std::sort(alive.begin(), alive.end(),
            [](const chord::ChordNode* a, const chord::ChordNode* b) {
              return a->Self().id < b->Self().id;
            });
  return alive;
}

/// True successor of `key` within the sorted alive ring: first node with
/// id >= key, wrapping to the front (same rule as ChordRing::ExpectedSuccessor).
const chord::ChordNode* TrueOwner(const std::vector<const chord::ChordNode*>& sorted,
                                  const chord::Key& key) {
  if (sorted.empty()) return nullptr;
  auto it = std::lower_bound(sorted.begin(), sorted.end(), key,
                             [](const chord::ChordNode* node, const chord::Key& k) {
                               return node->Self().id < k;
                             });
  if (it == sorted.end()) it = sorted.begin();
  return *it;
}

/// The sorted alive ring plus actor -> position, cached per scan pass
/// (keyed on the monitor's scan count, which advances only after a full
/// pass over every check).
struct RingView {
  std::uint64_t key = ~0ull;
  std::vector<const chord::ChordNode*> sorted;
  util::FlatHashMap<std::uint32_t, std::size_t> pos;

  void Refresh(const chord::ChordRing& ring, std::uint64_t scan_key) {
    if (key == scan_key) return;
    key = scan_key;
    sorted = SortedAliveNodes(ring);
    pos.Clear();
    pos.Reserve(sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      pos.TryEmplace(sorted[i]->Self().actor, i);
    }
  }
};

}  // namespace

void InstallRingChecks(InvariantMonitor& monitor, const chord::ChordRing& ring,
                       RingInvariantOptions options) {
  const chord::ChordRing* ringp = &ring;
  const InvariantMonitor* mon = &monitor;
  auto view = std::make_shared<RingView>();
  auto neighbor_marks = std::make_shared<ActorMarks>();
  auto finger_marks = std::make_shared<ActorMarks>();
  auto sc_succ = std::make_shared<ActorScope>(neighbor_marks);
  auto sc_pred = std::make_shared<ActorScope>(neighbor_marks);
  auto sc_list = options.check_successor_list
                     ? std::make_shared<ActorScope>(neighbor_marks)
                     : nullptr;
  auto sc_finger = options.check_fingers
                       ? std::make_shared<ActorScope>(finger_marks)
                       : nullptr;

  // One drain handler for the whole installer. Membership changes move
  // the ground-truth ring every check compares against, so they dirty every
  // node; pointer/finger writes dirty only the writer (Mark() is a no-op
  // once MarkAll has run, so record order within a batch does not matter).
  monitor.AddDrainHandler([neighbor_marks, finger_marks](
                              std::span<const RecordedEvent> batch) {
    for (const RecordedEvent& e : batch) {
      switch (e.event) {
        case RecEvent::kMembership:
        case RecEvent::kHandoffFinished:
          neighbor_marks->MarkAll();
          finger_marks->MarkAll();
          break;
        case RecEvent::kRingNeighbors:
          neighbor_marks->Mark(e.actor);
          break;
        case RecEvent::kRingFinger:
          finger_marks->Mark(e.actor);
          break;
        default:
          break;
      }
    }
  });
  monitor.AddScanEpilogue([neighbor_marks, finger_marks](double now) {
    neighbor_marks->Retire(now);
    finger_marks->Retire(now);
  });

  const auto enumerate = [ringp, view, mon](const auto& fn) {
    view->Refresh(*ringp, mon->ScansRun());
    for (const chord::ChordNode* node : view->sorted) fn(node->Self().actor);
  };

  monitor.AddCheck(
      "ring.successor", Severity::kError,
      [ringp, view, mon, sc_succ, enumerate](CheckContext& ctx) {
        sc_succ->Run(
            ctx, "ring.successor", mon->ledger(), enumerate,
            [&](CheckContext& c, std::uint32_t actor) -> double {
              view->Refresh(*ringp, mon->ScansRun());
              const std::size_t n = view->sorted.size();
              if (n < 2) return kHealthy;
              const std::size_t* pos = view->pos.Find(actor);
              if (pos == nullptr) return kHealthy;  // No longer alive.
              const chord::ChordNode& node = *view->sorted[*pos];
              const chord::NodeRef& expected =
                  view->sorted[(*pos + 1) % n]->Self();
              const chord::NodeRef actual = node.Successor();
              if (actual.id != expected.id) {
                c.Report(node.Self().actor, node.Address(),
                         util::Format("successor is {}, true ring says {}",
                                      actual.Describe(), expected.Describe()));
                return kWatch;
              }
              return kHealthy;
            });
      });

  monitor.AddCheck(
      "ring.predecessor", Severity::kWarn,
      [ringp, view, mon, sc_pred, enumerate](CheckContext& ctx) {
        sc_pred->Run(
            ctx, "ring.predecessor", mon->ledger(), enumerate,
            [&](CheckContext& c, std::uint32_t actor) -> double {
              view->Refresh(*ringp, mon->ScansRun());
              const std::size_t n = view->sorted.size();
              if (n < 2) return kHealthy;
              const std::size_t* pos = view->pos.Find(actor);
              if (pos == nullptr) return kHealthy;
              const chord::ChordNode& node = *view->sorted[*pos];
              const chord::NodeRef& expected =
                  view->sorted[(*pos + n - 1) % n]->Self();
              if (!node.Predecessor().has_value()) {
                c.Report(node.Self().actor, node.Address(),
                         util::Format("predecessor unset, true ring says {}",
                                      expected.Describe()));
                return kWatch;
              }
              if (node.Predecessor()->id != expected.id) {
                c.Report(node.Self().actor, node.Address(),
                         util::Format("predecessor is {}, true ring says {}",
                                      node.Predecessor()->Describe(),
                                      expected.Describe()));
                return kWatch;
              }
              return kHealthy;
            });
      });

  if (options.check_successor_list) {
    monitor.AddCheck(
        "ring.successor_list", Severity::kWarn,
        [ringp, view, mon, sc_list, enumerate](CheckContext& ctx) {
          sc_list->Run(
              ctx, "ring.successor_list", mon->ledger(), enumerate,
              [&](CheckContext& c, std::uint32_t actor) -> double {
                view->Refresh(*ringp, mon->ScansRun());
                const std::size_t n = view->sorted.size();
                if (n < 2) return kHealthy;
                const std::size_t* pos = view->pos.Find(actor);
                if (pos == nullptr) return kHealthy;
                const chord::ChordNode& node = *view->sorted[*pos];
                const auto& entries = node.successors().Entries();
                for (std::size_t j = 0; j < entries.size(); ++j) {
                  const chord::NodeRef& expected =
                      view->sorted[(*pos + 1 + j) % n]->Self();
                  if (entries[j].id != expected.id) {
                    c.Report(node.Self().actor, node.Address(),
                             util::Format(
                                 "successor_list[{}] is {}, true sequence says {}",
                                 j, entries[j].Describe(), expected.Describe()));
                    // One finding per node; deeper entries depend on this one.
                    return kWatch;
                  }
                }
                return kHealthy;
              });
        });
  }

  if (options.check_fingers) {
    monitor.AddCheck(
        "ring.finger", Severity::kWarn,
        [ringp, view, mon, sc_finger, enumerate](CheckContext& ctx) {
          sc_finger->Run(
              ctx, "ring.finger", mon->ledger(), enumerate,
              [&](CheckContext& c, std::uint32_t actor) -> double {
                view->Refresh(*ringp, mon->ScansRun());
                if (view->sorted.size() < 2) return kHealthy;
                const std::size_t* pos = view->pos.Find(actor);
                if (pos == nullptr) return kHealthy;
                const chord::ChordNode* node = view->sorted[*pos];
                const chord::FingerTable& fingers = node->fingers();
                bool failed = false;
                for (unsigned i = 0; i < chord::FingerTable::kBits; ++i) {
                  const auto& finger = fingers.Get(i);
                  if (!finger.has_value()) continue;  // Lazily populated.
                  const chord::ChordNode* expected =
                      TrueOwner(view->sorted, fingers.Start(i));
                  if (finger->id != expected->Self().id) {
                    c.Report(node->Self().actor,
                             util::Format("{}#f{}", node->Address(), i),
                             util::Format(
                                 "finger[{}] is {}, successor({}..) is {}", i,
                                 finger->Describe(), fingers.Start(i).ToShortHex(),
                                 expected->Self().Describe()));
                    failed = true;
                  }
                }
                return failed ? kWatch : kHealthy;
              });
        });
  }
}

// --- Tracking checks --------------------------------------------------------

namespace {

/// Where one index entry for an object lives, as remembered from deltas.
/// `node`/`entry` are a resolution cache, not identity: the entry maps are
/// node-based (pointers survive rehash and unrelated erases), every erase
/// publishes a delta that removes this loc from the mirror, and tracker
/// objects outlive the run — so a cached pair stays valid while the loc
/// exists and its node is alive, and audits skip the by-key re-find.
struct SiteLoc {
  std::uint32_t actor = 0xFFFFFFFFu;
  bool individual = false;  ///< Flat individual-mode map vs prefix bucket.
  hash::Prefix prefix{};    ///< Valid when !individual.
  tracking::TrackerNode* node = nullptr;
  /// Same-pass hint only (set by EnsureMirrors while the entry is in hand,
  /// consumed by its pre-resolve loop). Dangles once any store mutates:
  /// the index maps are open-addressing and move values on rehash, so
  /// cross-pass readers must re-find instead of dereferencing this.
  const tracking::IndexEntry* entry = nullptr;

  friend bool operator==(const SiteLoc& a, const SiteLoc& b) {
    return a.actor == b.actor && a.individual == b.individual &&
           a.prefix == b.prefix;
  }
};

/// One index entry for an object resolved against live store state.
struct ResolvedSite {
  const tracking::TrackerNode* node = nullptr;
  bool individual = false;
  hash::Prefix prefix{};
  const tracking::IndexEntry* entry = nullptr;
};

/// Resolved sites of one object, as a span into TrackState's arena. Only
/// valid until the next ResolveSites call (the arena may reallocate).
class SiteList {
 public:
  SiteList(const ResolvedSite* data, std::size_t size)
      : data_(data), size_(size) {}
  const ResolvedSite* begin() const noexcept { return data_; }
  const ResolvedSite* end() const noexcept { return data_ + size_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const ResolvedSite& front() const noexcept { return data_[0]; }

 private:
  const ResolvedSite* data_;
  std::size_t size_;
};

/// Shared mutable state for one InstallTrackingChecks call: the site
/// mirror the drain handler maintains, the per-scan resolve cache, and the
/// replication successor precompute. The mirror is a *hint*, not
/// authority — audits resolve every location against live store state and
/// lazily prune stale ones, so a spurious or duplicate delta at worst
/// costs one clean re-audit. Full passes rebuild it from scratch, which is
/// what makes the cross-check sweep honest: a mutation the drain never
/// heard about is still found.
struct TrackState {
  std::uint64_t mirror_key = ~0ull;
  util::FlatHashMap<hash::UInt160, std::vector<SiteLoc>, hash::UInt160Hasher>
      sites;
  bool departed_any = false;  ///< Sticky: any graceful leave completed.

  // Per-scan cache of resolved sites, shared by the staleness / triangle /
  // replication audits of one pass (they audit overlapping object sets).
  // Spans into one arena instead of a heap vector per object.
  struct SiteSpan {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  std::uint64_t resolve_key = ~0ull;
  util::FlatHashMap<hash::UInt160, SiteSpan, hash::UInt160Hasher> resolved;
  std::vector<ResolvedSite> arena;
  std::vector<hash::UInt160> key_scratch;

  // Full-pass audit hints: the enumerator already holds the record it is
  // naming, so it parks a pointer here immediately before invoking the
  // audit, which then skips the by-key re-find. Never set on incremental
  // ticks (audits fall back to the live lookup).
  tracking::TrackerNode* hint_tracker = nullptr;
  const moods::Visit* hint_visit = nullptr;
  const std::vector<moods::OracleVisit>* hint_trace = nullptr;

  // Replication precompute: ring position and first-r true successors of
  // every alive tracker, rebuilt once per scan pass that needs it.
  std::uint64_t repl_key = ~0ull;
  std::size_t repl_r = 0;
  util::FlatHashMap<const tracking::TrackerNode*, std::size_t> position;
  std::vector<std::vector<tracking::TrackerNode*>> successors;
};

/// Deterministic site order (see ResolveSites): actor-ascending. Spans are
/// a handful of entries, so an inline insertion sort beats the std::sort
/// call that used to sit on the per-object audit path.
void SortSitesByActor(ResolvedSite* first, std::uint32_t count) noexcept {
  for (std::uint32_t i = 1; i < count; ++i) {
    ResolvedSite tmp = first[i];
    std::uint32_t j = i;
    for (; j > 0 && tmp.node->Self().actor < first[j - 1].node->Self().actor;
         --j) {
      first[j] = first[j - 1];
    }
    first[j] = tmp;
  }
}

/// Rebuild the site mirror from a full sweep over live state (full passes
/// only; incremental ticks rely on the drain handler keeping it fresh).
void EnsureMirrors(TrackState& st, std::uint64_t key,
                   tracking::TrackingSystem& sys) {
  if (st.mirror_key == key) return;
  PROF_SCOPE("invariant", "mirror_rebuild");
  st.mirror_key = key;
  st.sites.Clear();
  for (std::size_t i = 0; i < sys.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = sys.Tracker(i);
    if (!tracker.chord().Alive()) continue;
    const std::uint32_t actor = tracker.Self().actor;
    for (const auto& [object, entry] : tracker.individual_index().Entries()) {
      st.sites[object].push_back(SiteLoc{actor, true, {}, &tracker, &entry});
    }
    for (const auto& prefix : tracker.prefix_store().Prefixes()) {
      const tracking::PrefixBucket* bucket =
          tracker.prefix_store().TryBucket(prefix);
      if (bucket == nullptr) continue;
      for (const auto& [object, entry] : bucket->Entries()) {
        st.sites[object].push_back(
            SiteLoc{actor, false, prefix, &tracker, &entry});
      }
    }
  }
  // Pre-resolve the rebuilt mirror while the entries are in hand: a full
  // pass audits nearly every object three times, and lazy per-object
  // resolution would redo a hash find (plus an entry re-find) per check
  // per object on the sweep's critical path.
  st.resolve_key = key;
  st.resolved.Clear();
  st.arena.clear();
  st.resolved.Reserve(st.sites.Size());
  for (const auto& [object, locs] : st.sites) {
    const auto begin = static_cast<std::uint32_t>(st.arena.size());
    for (const SiteLoc& loc : locs) {
      st.arena.push_back(
          ResolvedSite{loc.node, loc.individual, loc.prefix, loc.entry});
    }
    const auto count = static_cast<std::uint32_t>(st.arena.size() - begin);
    SortSitesByActor(st.arena.data() + begin, count);
    st.resolved.TryEmplace(object, TrackState::SiteSpan{begin, count});
  }
}

void AddUniqueLoc(std::vector<SiteLoc>& locs, const SiteLoc& loc) {
  if (std::find(locs.begin(), locs.end(), loc) == locs.end()) {
    locs.push_back(loc);
  }
}

/// Resolve every remembered location of `object` against live state,
/// pruning locations that no longer hold an entry (moved, extracted, or
/// the holder is gone). Cached per scan pass: three checks audit
/// overlapping object sets and must see the same snapshot.
SiteList ResolveSites(TrackState& st, tracking::TrackingSystem& sys,
                      const hash::UInt160& object, std::uint64_t scan_key,
                      bool full_pass) {
  if (st.resolve_key != scan_key) {
    st.resolve_key = scan_key;
    st.resolved.Clear();
    st.arena.clear();
  }
  // The span cache pays off only on full passes, where EnsureMirrors
  // pre-resolved everything and this find is a hit. On incremental ticks
  // each due object is judged exactly once per scan (the fused judge
  // shares the span across its sub-checks locally), so a cache insert
  // could never be re-read — skip both big-map probes.
  if (full_pass) {
    if (const TrackState::SiteSpan* cached = st.resolved.Find(object)) {
      return SiteList{st.arena.data() + cached->begin, cached->count};
    }
  }
  // Leaf scope on the slow path only: the cached hit above is a single
  // probe, cheaper than the scope that would time it.
  PROF_LEAF_SCOPE("invariant", "site_resolve");
  const auto begin = static_cast<std::uint32_t>(st.arena.size());
  std::vector<SiteLoc>* site_locs = st.sites.Find(object);
  if (site_locs != nullptr) {
    std::vector<SiteLoc>& locs = *site_locs;
    // Phase 1: resolve holder pointers and warm every site's entry-table
    // lines. The sites live on different nodes, so without this each
    // phase-2 probe is a serial cold miss; warming them together lets the
    // memory system overlap the fetches. The located tables are kept as
    // hints so phase 2 skips the re-lookup (same-pass only: no store
    // mutates between the two loops).
    constexpr std::size_t kInlineSites = 8;
    const tracking::PrefixBucket* hints[kInlineSites] = {};
    const bool hinted = locs.size() <= kInlineSites;
    for (std::size_t i = 0; i < locs.size(); ++i) {
      SiteLoc& loc = locs[i];
      if (loc.node == nullptr) loc.node = sys.TrackerByActor(loc.actor);
      tracking::TrackerNode* tracker = loc.node;
      if (tracker == nullptr || !tracker->chord().Alive()) continue;
      if (loc.individual) {
        tracker->individual_index().Prefetch(object);
        if (hinted) hints[i] = &tracker->individual_index();
      } else if (const tracking::PrefixBucket* bucket =
                     tracker->prefix_store().TryBucket(loc.prefix)) {
        bucket->Prefetch(object);
        if (hinted) hints[i] = bucket;
      }
    }
    for (std::size_t i = 0; i < locs.size();) {
      SiteLoc& loc = locs[i];
      tracking::TrackerNode* tracker = loc.node;
      const tracking::IndexEntry* entry = nullptr;
      if (tracker != nullptr && tracker->chord().Alive()) {
        // Always re-find: the index stores are open-addressing maps whose
        // values move on rehash, so an entry pointer cached by an earlier
        // pass dangles the moment any upsert lands between passes. Only
        // same-pass pointers (phase 1's table hints, EnsureMirrors' entry
        // pointers consumed by its own pre-resolve loop) are safe to keep.
        if (hinted) {
          if (hints[i] != nullptr) entry = hints[i]->Find(object);
        } else if (loc.individual) {
          entry = tracker->individual_index().Find(object);
        } else if (const tracking::PrefixBucket* bucket =
                       tracker->prefix_store().TryBucket(loc.prefix)) {
          entry = bucket->Find(object);
        }
      }
      if (entry == nullptr) {
        locs[i] = locs.back();
        if (hinted) hints[i] = hints[locs.size() - 1];
        locs.pop_back();
        continue;
      }
      st.arena.push_back(ResolvedSite{tracker, loc.individual, loc.prefix, entry});
      ++i;
    }
    if (locs.empty()) st.sites.Erase(object);
  }
  const auto count = static_cast<std::uint32_t>(st.arena.size() - begin);
  // Deterministic order: the mirror's insertion order depends on delta
  // arrival, and the "freshest entry" tie-breaks below must not.
  SortSitesByActor(st.arena.data() + begin, count);
  if (full_pass) {
    st.resolved.TryEmplace(object, TrackState::SiteSpan{begin, count});
  }
  return SiteList{st.arena.data() + begin, count};
}

/// Ring position and first min(R, n-1) true successors of every alive
/// tracker, shared by all gateway.replication audits of one pass.
void EnsureReplication(TrackState& st, std::uint64_t key,
                       tracking::TrackingSystem& sys) {
  if (st.repl_key == key) return;
  PROF_SCOPE("invariant", "replication_precompute");
  st.repl_key = key;
  st.repl_r = 0;
  st.position.Clear();
  st.successors.clear();
  const auto sorted = SortedAliveNodes(sys.ring());
  const std::size_t n = sorted.size();
  if (n < 2) return;
  const std::size_t r =
      std::min<std::size_t>(sys.config().tracker.replication_factor, n - 1);
  if (r == 0) return;
  st.repl_r = r;
  st.position.Reserve(n);
  st.successors.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (tracking::TrackerNode* tracker =
            sys.TrackerByActor(sorted[i]->Self().actor)) {
      st.position.TryEmplace(tracker, i);
    }
    st.successors[i].reserve(r);
    for (std::size_t j = 1; j <= r; ++j) {
      st.successors[i].push_back(
          sys.TrackerByActor(sorted[(i + j) % n]->Self().actor));
    }
  }
}

/// The handoff.complete scan body, shared verbatim by both modes (it is
/// node-sweep shaped, cheap while nobody has departed, and runs in full
/// whenever any graceful leave has completed).
void AuditHandoff(tracking::TrackingSystem& sys, CheckContext& ctx) {
  // Nodes that finished the two-phase leave protocol. A node crashed
  // mid-leave never sets the flag and is judged like any crash.
  util::FlatHashSet<sim::ActorId> departed;
  for (std::size_t i = 0; i < sys.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = sys.Tracker(i);
    if (!tracker.chord().Alive() && tracker.LeftGracefully()) {
      departed.Insert(tracker.Self().actor);
    }
  }
  if (departed.Empty()) return;
  for (std::size_t i = 0; i < sys.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = sys.Tracker(i);
    if (!tracker.chord().Alive()) continue;
    const sim::ActorId self = tracker.Self().actor;
    const std::string& address = tracker.chord().Address();
    tracker.iop().ForEachObject([&](const hash::UInt160& object,
                                    const std::vector<moods::Visit>& visits) {
      for (const moods::Visit& visit : visits) {
        if (visit.from.has_value() && departed.Contains(visit.from->actor)) {
          ctx.Report(self,
                     util::Format("{}@{:.3f}:from", object.ToShortHex(),
                                  visit.arrived),
                     util::Format("from-link references departed node {}",
                                  visit.from->Describe()));
        }
        if (visit.to.has_value() && departed.Contains(visit.to->actor)) {
          ctx.Report(self,
                     util::Format("{}@{:.3f}:to", object.ToShortHex(),
                                  visit.arrived),
                     util::Format("to-link references departed node {}",
                                  visit.to->Describe()));
        }
      }
    });
    const auto report_entry = [&](const hash::UInt160& object,
                                  const tracking::IndexEntry& entry,
                                  const char* where) {
      if (!departed.Contains(entry.latest_node.actor)) return;
      ctx.Report(self,
                 util::Format("{}:{}:{}", address, object.ToShortHex(), where),
                 util::Format("{} entry says latest location is departed "
                              "node {}",
                              where, entry.latest_node.Describe()));
    };
    for (const auto& [object, entry] : tracker.individual_index().Entries()) {
      report_entry(object, entry, "index");
    }
    for (const auto& prefix : tracker.prefix_store().Prefixes()) {
      const tracking::PrefixBucket* bucket =
          tracker.prefix_store().TryBucket(prefix);
      if (bucket == nullptr) continue;
      for (const auto& [object, entry] : bucket->Entries()) {
        report_entry(object, entry, "index");
      }
    }
    for (const auto& [object, record] : tracker.replica_store().Records()) {
      report_entry(object, record.entry, "replica");
    }
  }
}

}  // namespace

void InstallTrackingChecks(InvariantMonitor& monitor,
                           tracking::TrackingSystem& system,
                           TrackingInvariantOptions options) {
  tracking::TrackingSystem* sys = &system;
  const InvariantMonitor* mon = &monitor;
  // Faults younger than the grace window are in flight, not violations: a
  // capture sits in its window for up to Tmax, then M1 routes over O(log n)
  // hops and M2/M3 add one more before both chain ends agree.
  const double staleness = options.staleness_ms > 0.0
                               ? options.staleness_ms
                               : system.config().tracker.window.tmax_ms + 2000.0;
  auto state = std::make_shared<TrackState>();
  auto view = std::make_shared<RingView>();
  auto visit_marks = std::make_shared<VisitMarks>();
  auto object_marks = std::make_shared<ObjectMarks>();
  auto shape_marks = std::make_shared<ActorMarks>();
  // Every tracking check shares the same settle window, so a deferred
  // delta's first audit lands exactly where the check's own pending logic
  // would park it: gate + staleness.
  //
  // The visit-grain pair and the object-grain trio each run fused: one
  // pass per scan over the shared key set, one fetch of the expensive
  // shared lookups (the visit record; the oracle trace + resolved sites),
  // all enabled sub-audits judged in place. See FusedScope.
  auto fused_visits =
      options.check_iop
          ? std::make_shared<VisitFused>(
                visit_marks, staleness,
                Profiler::Intern("invariant", "visit_fused"))
          : nullptr;
  unsigned sub_link = kNoSub;
  unsigned sub_acyclic = kNoSub;
  if (options.check_iop) {
    sub_link = fused_visits->AddSub("iop.link");
    sub_acyclic = fused_visits->AddSub("iop.acyclic");
  }
  auto fused_objects =
      options.check_gateway || options.check_triangle ||
              options.check_replication
          ? std::make_shared<ObjectFused>(
                object_marks, staleness,
                Profiler::Intern("invariant", "object_fused"))
          : nullptr;
  unsigned sub_stale = kNoSub;
  unsigned sub_triangle = kNoSub;
  unsigned sub_repl = kNoSub;
  if (options.check_gateway) {
    sub_stale = fused_objects->AddSub("gateway.staleness");
  }
  if (options.check_triangle) {
    sub_triangle = fused_objects->AddSub("triangle.coverage");
  }
  if (options.check_replication) {
    sub_repl = fused_objects->AddSub("gateway.replication");
  }
  // Locality orders for the incremental due batches (stable counting
  // sorts, so the order stays deterministic). Objects sort by key range:
  // ring ownership is contiguous in id space, so consecutive keys hit the
  // same gateway's index/replica stores — small per-node maps that then
  // stay cache-warm across the batch instead of one random miss per key.
  // Visits sort by holder actor for the same reason (the record fetch is
  // a probe into the holder's visit store).
  if (fused_objects != nullptr) {
    auto scratch = std::make_shared<std::vector<hash::UInt160>>();
    auto counts = std::make_shared<std::vector<std::uint32_t>>();
    fused_objects->SetDueSorter(
        [scratch, counts](std::vector<hash::UInt160>& keys) {
          if (keys.size() < 2) return;
          auto& c = *counts;
          c.assign(std::size_t{1} << 16, 0);
          for (const hash::UInt160& k : keys) ++c[k.words()[0] >> 16];
          std::uint32_t offset = 0;
          for (std::uint32_t& slot : c) {
            const std::uint32_t n = slot;
            slot = offset;
            offset += n;
          }
          auto& out = *scratch;
          out.resize(keys.size());
          for (const hash::UInt160& k : keys) out[c[k.words()[0] >> 16]++] = k;
          keys.swap(out);
        });
    // Three-stage cache warmer for the judge loop. Far stage (the key the
    // scope hands us, kAhead ahead of the judge): the top-level table
    // slots. Mid stage (the key from four calls back, so still four keys
    // ahead of the judge): follow the now-warm slots one level down to the
    // heap buffers the judge actually walks — the trace tail and the site
    // list. Near stage (six calls back, ~two keys ahead): read the
    // now-warm first site and warm its successors' replica tables, the
    // replication sub's last serial misses. Without the later stages the
    // dependent lines miss serially no matter how early the slot prefetch
    // landed.
    fused_objects->SetDuePrefetcher(
        [sys, state, mon, mid_ring = std::array<hash::UInt160, 4>{},
         near_ring = std::array<hash::UInt160, 2>{}, mid_pos = std::size_t{0},
         near_pos = std::size_t{0}](const hash::UInt160& key) mutable {
          // The near stage reads the successor precompute; refresh it here
          // (idempotent per scan) so the first judged batch of a scan does
          // not prefetch against the previous scan's ring — on scan 1 that
          // stale table is empty and would disable the stage outright.
          if (sys->config().tracker.replicate_index) {
            EnsureReplication(*state, mon->ScansRun(), *sys);
          }
          sys->oracle().PrefetchTrace(key);
          state->sites.Prefetch(key);
          const hash::UInt160 mid = mid_ring[mid_pos];
          if (const std::vector<moods::OracleVisit>* trips =
                  sys->oracle().FullTrace(mid);
              trips != nullptr && !trips->empty()) {
            PrefetchLine(&trips->back());
          }
          if (const std::vector<SiteLoc>* locs = state->sites.Find(mid);
              locs != nullptr && !locs->empty()) {
            PrefetchLine(locs->data());
          }
          const hash::UInt160 near = near_ring[near_pos];
          if (const std::vector<SiteLoc>* locs = state->sites.Find(near);
              locs != nullptr && !locs->empty()) {
            const SiteLoc& first = locs->front();
            const tracking::TrackerNode* node =
                first.node != nullptr ? first.node
                                      : sys->TrackerByActor(first.actor);
            if (node != nullptr) {
              if (const std::size_t* position = state->position.Find(node)) {
                for (const tracking::TrackerNode* succ :
                     state->successors[*position]) {
                  if (succ != nullptr) succ->replica_store().Prefetch(near);
                }
              }
            }
          }
          near_ring[near_pos] = mid;
          near_pos = (near_pos + 1) & 1;
          mid_ring[mid_pos] = key;
          mid_pos = (mid_pos + 1) & 3;
        });
  }
  if (fused_visits != nullptr) {
    auto scratch = std::make_shared<std::vector<VisitKey>>();
    auto counts = std::make_shared<std::vector<std::uint32_t>>();
    fused_visits->SetDueSorter([scratch, counts](std::vector<VisitKey>& keys) {
      if (keys.size() < 2) return;
      std::uint32_t max_actor = 0;
      for (const VisitKey& k : keys) max_actor = std::max(max_actor, k.actor);
      if (max_actor > (1u << 20)) return;  // Corrupt actor id: skip the sort.
      auto& c = *counts;
      c.assign(static_cast<std::size_t>(max_actor) + 1, 0);
      for (const VisitKey& k : keys) ++c[k.actor];
      std::uint32_t offset = 0;
      for (std::uint32_t& slot : c) {
        const std::uint32_t n = slot;
        slot = offset;
        offset += n;
      }
      auto& out = *scratch;
      out.resize(keys.size());
      for (const VisitKey& k : keys) out[c[k.actor]++] = k;
      keys.swap(out);
    });
    // Three-stage cache warmer, mirroring the object scope's: the far
    // stage warms the holder's visit-table slot, the mid stage (four calls
    // back) follows it into the visit vector the judge binary-searches,
    // and the near stage (six calls back, ~two keys ahead of the judge)
    // reads the now-warm record and warms the far-end tables its to/from
    // links make the judge probe — the dominant serial misses of the link
    // audit. Holder resolution itself is a dense-array read, effectively
    // free.
    fused_visits->SetDuePrefetcher(
        [sys, mid_ring = std::array<VisitKey, 4>{},
         near_ring = std::array<VisitKey, 2>{}, mid_pos = std::size_t{0},
         near_pos = std::size_t{0}](const VisitKey& key) mutable {
          if (const tracking::TrackerNode* tracker =
                  sys->TrackerByActor(key.actor);
              tracker != nullptr) {
            tracker->iop().PrefetchVisits(key.object);
          }
          const VisitKey mid = mid_ring[mid_pos];
          if (tracking::TrackerNode* tracker = sys->TrackerByActor(mid.actor);
              tracker != nullptr && tracker->chord().Alive()) {
            if (const std::vector<moods::Visit>* visits =
                    tracker->iop().VisitsOf(mid.object);
                visits != nullptr && !visits->empty()) {
              PrefetchLine(visits->data());
              PrefetchLine(visits->data() + (visits->size() - 1));
            }
          }
          const VisitKey near = near_ring[near_pos];
          if (tracking::TrackerNode* tracker = sys->TrackerByActor(near.actor);
              tracker != nullptr && tracker->chord().Alive()) {
            if (const moods::Visit* visit =
                    tracker->iop().VisitAt(near.object, near.arrived)) {
              if (visit->to.has_value()) {
                if (const tracking::TrackerNode* dest =
                        sys->TrackerByActor(visit->to->actor)) {
                  dest->iop().PrefetchVisits(near.object);
                }
              }
              if (visit->from.has_value()) {
                if (const tracking::TrackerNode* src =
                        sys->TrackerByActor(visit->from->actor)) {
                  src->iop().PrefetchVisits(near.object);
                }
              }
            }
          }
          near_ring[near_pos] = mid;
          near_pos = (near_pos + 1) & 1;
          mid_ring[mid_pos] = key;
          mid_pos = (mid_pos + 1) & 3;
        });
  }
  auto sc_shape = options.check_prefix_shape
                      ? std::make_shared<ActorScope>(shape_marks)
                      : nullptr;

  // One drain handler for the whole installer: marks the shared dirty sets
  // and keeps the site mirror fresh between full rebuilds. It inserts each
  // key into ONE shared set per key space, not one per check, in one pass
  // over the batch. Mark order within a batch does not matter (MarkAll
  // dominates, Defer min-merges, Mark is idempotent) except for the index
  // upsert/erase stream, which the site mirror applies in publish order. A
  // write group publishes its per-prefix upserts back to back, so
  // same-object records are adjacent and the MarkSet memos swallow the
  // duplicate Defer probes.
  monitor.AddDrainHandler([state, visit_marks, object_marks, shape_marks](
                              std::span<const RecordedEvent> batch) {
    // Prefetch the map lines a few records ahead: the batch streams
    // sequentially, so the (random) mark/mirror probe for record i+k warms
    // while records i..i+k-1 do real work.
    constexpr std::size_t kAhead = 8;
    const auto prefetch = [&](const RecordedEvent& n) {
      switch (n.event) {
        case RecEvent::kIndexUpsert:
        case RecEvent::kIndexErase:
          state->sites.Prefetch(n.object);
          [[fallthrough]];
        case RecEvent::kReplicaUpsert:
        case RecEvent::kReplicaErase:
        case RecEvent::kObjectTruth:
          if (!object_marks->all) object_marks->deferred.Prefetch(n.object);
          break;
        case RecEvent::kIopVisit:
          if (!visit_marks->all) {
            visit_marks->deferred.Prefetch(VisitKey{n.object, n.actor, n.arg});
          }
          break;
        default:
          break;
      }
    };
    // One-record site-list memo: a write group publishes its per-prefix
    // upserts back to back, so ~3/4 of the mirror probes hit the object of
    // the record just processed. The cached vector pointer stays valid
    // across vector mutation (the map slot doesn't move); it is refreshed
    // on every probe and dropped when its entry is erased, and any
    // operator[] insert refreshes it from the post-rehash slot.
    hash::UInt160 memo_object{};
    std::vector<SiteLoc>* memo_locs = nullptr;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i + kAhead < batch.size()) prefetch(batch[i + kAhead]);
      const RecordedEvent& e = batch[i];
      switch (e.event) {
        case RecEvent::kHandoffFinished:
          state->departed_any = true;
          [[fallthrough]];
        case RecEvent::kMembership:
          // The alive set is part of every tracking check's ground truth
          // (site sweeps skip dead nodes, replication re-derives
          // successors), so membership movement re-judges everything. Rare
          // by construction: only churn events publish these.
          visit_marks->MarkAll();
          object_marks->MarkAll();
          shape_marks->MarkAll();
          break;
        case RecEvent::kLpChange:
          shape_marks->MarkAll();
          break;
        case RecEvent::kIopDropped:
          // Graceful-leave extraction moves visit lists wholesale; the
          // adopter republishes per record, but the extracted records must
          // be re-judged away too.
          visit_marks->MarkAll();
          break;
        case RecEvent::kIndexErase: {
          // Mirror maintenance is unconditional, even once a key space is
          // flat.
          std::vector<SiteLoc>* locs =
              (memo_locs != nullptr && e.object == memo_object)
                  ? memo_locs
                  : state->sites.Find(e.object);
          if (locs != nullptr) {
            std::erase(*locs, SiteLoc{e.actor, e.individual, e.prefix()});
            if (locs->empty()) {
              state->sites.Erase(e.object);
              locs = nullptr;
            }
          }
          memo_object = e.object;
          memo_locs = locs;
          object_marks->Mark(e.object);
          shape_marks->Mark(e.actor);
          break;
        }
        case RecEvent::kIndexUpsert: {
          std::vector<SiteLoc>* locs =
              (memo_locs != nullptr && e.object == memo_object)
                  ? memo_locs
                  : &state->sites[e.object];
          AddUniqueLoc(*locs, SiteLoc{e.actor, e.individual, e.prefix()});
          memo_object = e.object;
          memo_locs = locs;
          if (e.arg >= 0.0) {
            object_marks->Defer(e.object, e.arg);
          } else {
            object_marks->Mark(e.object);
          }
          shape_marks->Mark(e.actor);
          break;
        }
        case RecEvent::kReplicaUpsert:
        case RecEvent::kObjectTruth:
          // Replica upserts and truths carry the arrival that starts the
          // settle clock: every object-grain check's own pending logic
          // would return exactly `when + staleness` for this state, so
          // park the audit there.
          if (e.arg >= 0.0) {
            object_marks->Defer(e.object, e.arg);
          } else {
            object_marks->Mark(e.object);
          }
          break;
        case RecEvent::kReplicaErase:
          object_marks->Mark(e.object);
          break;
        case RecEvent::kIopVisit:
          // A write is judgeable once its gate settles (the record's own
          // arrival, or the next hop's arrival for a departure write); a
          // coarse publish re-judges every record.
          if (e.arg >= 0.0) {
            visit_marks->Defer(VisitKey{e.object, e.actor, e.arg},
                               e.gate >= 0.0 ? e.gate : e.arg);
          } else {
            visit_marks->MarkAll();
          }
          break;
        case RecEvent::kPrefixShape:
          shape_marks->Mark(e.actor);
          break;
        default:
          break;
      }
    }
  });
  // Gates judged this scan are the ones at or before now - staleness (the
  // scopes' shared grace); later gates are still in flight and survive.
  monitor.AddScanEpilogue([visit_marks, object_marks, shape_marks,
                           staleness](double now) {
    visit_marks->Retire(now - staleness);
    object_marks->Retire(now - staleness);
    shape_marks->Retire(now);
  });

  const auto enumerate_visits = [sys, state](const auto& fn) {
    for (std::size_t i = 0; i < sys->NodeCount(); ++i) {
      tracking::TrackerNode& tracker = sys->Tracker(i);
      if (!tracker.chord().Alive()) continue;
      const std::uint32_t actor = tracker.Self().actor;
      state->hint_tracker = &tracker;
      tracker.iop().ForEachObject(
          [&](const hash::UInt160& object,
              const std::vector<moods::Visit>& visits) {
            for (const moods::Visit& visit : visits) {
              state->hint_visit = &visit;
              fn(VisitKey{object, actor, visit.arrived});
            }
          });
    }
    state->hint_tracker = nullptr;
    state->hint_visit = nullptr;
  };
  // Full-pass universe of the fused object trio: every object the oracle
  // knows (hint_trace set while in its sweep), then any site-mirror
  // leftovers — index entries for objects with no oracle trace, possible
  // only in corrupted/test states. The enumerator owns overlap dedup (the
  // FusedScope contract requires unique keys): oracle keys are unique by
  // construction, and the leftover loop skips anything the oracle knows —
  // one probe per leftover instead of a hashed judged-set insert per key.
  const auto enumerate_objects = [sys, state, mon](const auto& fn) {
    EnsureMirrors(*state, mon->ScansRun(), *sys);
    sys->oracle().ForEachObject(
        [&](const hash::UInt160& object,
            const std::vector<moods::OracleVisit>& trace) {
          state->hint_trace = &trace;
          fn(object);
        });
    state->hint_trace = nullptr;
    // Materialize the leftover keys first: the audits prune the mirror
    // while the pass runs, and erasing from the map being iterated is UB.
    auto& keys = state->key_scratch;
    keys.clear();
    keys.reserve(state->sites.Size());
    for (const auto& [object, locs] : state->sites) {
      if (sys->oracle().FullTrace(object) == nullptr) keys.push_back(object);
    }
    for (const hash::UInt160& object : keys) fn(object);
  };
  const auto enumerate_trackers = [sys](const auto& fn) {
    for (std::size_t i = 0; i < sys->NodeCount(); ++i) {
      tracking::TrackerNode& tracker = sys->Tracker(i);
      if (tracker.chord().Alive()) fn(tracker.Self().actor);
    }
  };

  // Fetch the visit record a VisitKey names: the enumerator's hint on full
  // passes, the live store on incremental ticks. Null when the record (or
  // its holder) is gone — the key simply retires.
  const auto fetch_visit =
      [sys, state](const VisitKey& key) -> const moods::Visit* {
    if (state->hint_visit != nullptr) return state->hint_visit;
    tracking::TrackerNode* tracker = sys->TrackerByActor(key.actor);
    if (tracker == nullptr || !tracker->chord().Alive()) return nullptr;
    return tracker->iop().VisitAt(key.object, key.arrived);
  };

  if (options.check_iop) {
    // One judge for both visit-grain audits: the record fetch happens once
    // per due key instead of once per check.
    const auto judge_visits = [sys, staleness, fetch_visit, sub_link,
                               sub_acyclic](VisitFused& fused,
                                            CheckContext& ctx,
                                            const VisitKey& key,
                                            unsigned mask) {
      const moods::Visit* vp = fetch_visit(key);
      if (vp == nullptr) return;  // Record gone: kHealthy for both subs.
      const moods::Visit& visit = *vp;
      const double settled_before = ctx.Now() - staleness;
      const auto subject = [&](const char* end) {
        return util::Format("{}@{:.3f}:{}", key.object.ToShortHex(),
                            visit.arrived, end);
      };

      if ((mask & (1u << sub_link)) != 0u) {
        const hash::UInt160& object = key.object;
        const sim::ActorId self = key.actor;
        bool failed = false;
        double deadline = kHealthy;
        const auto defer = [&](double at) {
          deadline = deadline < 0.0 ? at : std::min(deadline, at);
        };
        const auto report = [&](std::string subj, std::string detail) {
          fused.Report(sub_link, self, object, std::move(subj),
                       std::move(detail));
          failed = true;
        };
        // Forward: our to-link must have a matching from-link on the
        // destination's visit record.
        if (visit.to.has_value() && visit.to->Valid() &&
            visit.to_arrived.has_value()) {
          if (*visit.to_arrived > settled_before) {
            defer(*visit.to_arrived + staleness);  // Judge at settle.
          } else {
            tracking::TrackerNode* dest = sys->TrackerByActor(visit.to->actor);
            // A link into a crashed node is unverifiable and unfixable —
            // the corpse's records are gone and nothing can reciprocate.
            // Trace walks surface it as a broken chain; graceful leavers
            // are NOT exempt (their records were handed over, so a
            // dangling reference is a handoff bug).
            const bool dest_crashed = dest != nullptr &&
                                      !dest->chord().Alive() &&
                                      !dest->LeftGracefully();
            const moods::Visit* far =
                dest == nullptr ? nullptr
                                : dest->iop().VisitAt(object, *visit.to_arrived);
            if (dest_crashed) {
              // Skip: nothing alive can reciprocate this link.
            } else if (far == nullptr) {
              report(subject("to"),
                     util::Format("to-link points at {} @ {:.3f} but no such "
                                  "visit exists there",
                                  visit.to->Describe(), *visit.to_arrived));
            } else if (!far->from.has_value() || !far->from->Valid() ||
                       far->from->actor != self ||
                       far->from_arrived != visit.arrived) {
              report(subject("to"),
                     util::Format("to-link points at {} @ {:.3f} but its "
                                  "from-link does not point back here",
                                  visit.to->Describe(), *visit.to_arrived));
            }
          }
        }
        // Reverse: our from-link must have a matching to-link on the
        // source's visit record.
        if (visit.from.has_value() && visit.from->Valid() &&
            visit.from_arrived.has_value()) {
          if (visit.arrived > settled_before) {
            defer(visit.arrived + staleness);
          } else {
            tracking::TrackerNode* src = sys->TrackerByActor(visit.from->actor);
            const bool src_crashed = src != nullptr &&
                                     !src->chord().Alive() &&
                                     !src->LeftGracefully();
            const moods::Visit* far =
                src == nullptr
                    ? nullptr
                    : src->iop().VisitAt(object, *visit.from_arrived);
            if (!src_crashed &&
                (far == nullptr || !far->to.has_value() || !far->to->Valid() ||
                 far->to->actor != self || far->to_arrived != visit.arrived)) {
              report(subject("from"),
                     util::Format("from-link points at {} @ {:.3f} but its "
                                  "to-link does not point back here",
                                  visit.from->Describe(), *visit.from_arrived));
            }
          }
        }
        // An M3 is issued for every indexed arrival; a settled visit that
        // never learned its provenance marks a lost/missing M3.
        if (!visit.from.has_value()) {
          if (visit.arrived > settled_before) {
            defer(visit.arrived + staleness);
          } else {
            report(subject("m3"),
                   "visit never received its M3 (from-link unset)");
          }
        }
        fused.SetVerdict(sub_link, key, failed ? kWatch : deadline);
      }

      if ((mask & (1u << sub_acyclic)) != 0u) {
        // A cycle in a time-sorted chain must contain a link that does not
        // advance time, so strict per-link monotonicity implies
        // acyclicity — O(1) per visit record instead of a global chain
        // walk. Like every other iop gate, judge only settled records: a
        // fresh visit's links land out of order in flight, and one
        // post-settle audit per record is what the deferral path relies
        // on (identical in both modes, so detection timing agrees).
        double verdict = kHealthy;
        if (visit.arrived > settled_before) {
          verdict = visit.arrived + staleness;
        } else {
          bool failed = false;
          if (visit.to.has_value() && visit.to->Valid() &&
              visit.to_arrived.has_value() &&
              *visit.to_arrived <= visit.arrived) {
            fused.Report(sub_acyclic, key.actor, key.object, subject("to"),
                         util::Format("to-link goes backward in time ({:.3f} "
                                      "-> {:.3f}): chain is cyclic",
                                      visit.arrived, *visit.to_arrived));
            failed = true;
          }
          if (visit.from.has_value() && visit.from->Valid() &&
              visit.from_arrived.has_value() &&
              *visit.from_arrived >= visit.arrived) {
            fused.Report(sub_acyclic, key.actor, key.object, subject("from"),
                         util::Format("from-link goes forward in time ({:.3f} "
                                      "<- {:.3f}): chain is cyclic",
                                      visit.arrived, *visit.from_arrived));
            failed = true;
          }
          if (failed) verdict = kWatch;
        }
        fused.SetVerdict(sub_acyclic, key, verdict);
      }
    };

    monitor.AddCheck(
        "iop.link", Severity::kError,
        [mon, fused_visits, enumerate_visits, judge_visits,
         sub_link](CheckContext& ctx) {
          fused_visits->Run(ctx, mon->ledger(), mon->ScansRun(),
                            enumerate_visits, judge_visits, sub_link);
        });
    monitor.AddCheck(
        "iop.acyclic", Severity::kFatal,
        [mon, fused_visits, enumerate_visits, judge_visits,
         sub_acyclic](CheckContext& ctx) {
          fused_visits->Run(ctx, mon->ledger(), mon->ScansRun(),
                            enumerate_visits, judge_visits, sub_acyclic);
        });
  }

  if (sub_stale != kNoSub || sub_triangle != kNoSub || sub_repl != kNoSub) {
    // One judge for all three object-grain audits. The oracle trace and the
    // site resolution — the two dominant costs of the object pass — are
    // fetched once per due object instead of once per enabled check.
    const auto judge_objects = [sys, state, mon, staleness, sub_stale,
                                sub_triangle, sub_repl](
                                   ObjectFused& fused, CheckContext& ctx,
                                   const hash::UInt160& object, unsigned mask) {
      // site_resolve carries its own scope; the oracle fetch is a single
      // flat-map probe, so a per-key leaf scope would cost more than the
      // fetch — it stays inside the fused pass's exclusive remainder.
      const std::vector<moods::OracleVisit>* trips =
          state->hint_trace != nullptr ? state->hint_trace
                                       : sys->oracle().FullTrace(object);
      // Lazy: gateway.staleness skips resolution for in-flight objects and
      // gateway.replication skips it when replication is disabled.
      bool have_sites = false;
      SiteList found{nullptr, 0};
      const auto sites = [&]() -> const SiteList& {
        if (!have_sites) {
          found = ResolveSites(*state, *sys, object, mon->ScansRun(),
                               ctx.FullPass());
          have_sites = true;
        }
        return found;
      };
      const double settled_before = ctx.Now() - staleness;

      if (sub_stale != kNoSub && (mask & (1u << sub_stale)) != 0u) {
        double verdict = kHealthy;
        if (trips != nullptr && !trips->empty()) {
          const moods::OracleVisit& truth = trips->back();
          if (truth.arrived > settled_before) {
            verdict = truth.arrived + staleness;  // In flight: judge then.
          } else if (!sites().empty()) {  // Empty: triangle.coverage's finding.
            const ResolvedSite* best = nullptr;
            for (const ResolvedSite& site : sites()) {
              if (best == nullptr ||
                  site.entry->latest_arrived > best->entry->latest_arrived) {
                best = &site;
              }
            }
            // actor <-> node index is a bijection, so compare actors:
            // Tracker(index) is a vector access where the reverse
            // NodeIndexOfActor is a hash find on the audit hot path.
            const std::uint32_t truth_actor =
                truth.node == moods::kNowhere ||
                        static_cast<std::size_t>(truth.node) >= sys->NodeCount()
                    ? 0xFFFFFFFFu
                    : sys->Tracker(static_cast<std::size_t>(truth.node))
                          .Self()
                          .actor;
            if (best->entry->latest_arrived != truth.arrived ||
                best->entry->latest_node.actor != truth_actor) {
              const moods::NodeIndex indexed =
                  sys->NodeIndexOfActor(best->entry->latest_node.actor);
              fused.Report(sub_stale, best->node->Self().actor, object,
                           object.ToShortHex(),
                           util::Format(
                               "index says node {} @ {:.3f}, oracle latest is "
                               "node {} @ {:.3f}",
                               indexed, best->entry->latest_arrived, truth.node,
                               truth.arrived));
              verdict = kWatch;
            }
          }
        }
        fused.SetVerdict(sub_stale, object, verdict);
      }

      if (sub_triangle != kNoSub && (mask & (1u << sub_triangle)) != 0u) {
        double verdict = kHealthy;
        if (trips != nullptr && !trips->empty()) {
          if (trips->back().arrived > settled_before) {
            verdict = trips->back().arrived + staleness;
          } else if (sites().empty()) {
            const tracking::TrackerNode* gateway = sys->OwnerOf(object);
            fused.Report(sub_triangle,
                         gateway != nullptr ? gateway->Self().actor
                                            : sim::kInvalidActor,
                         object, object.ToShortHex(),
                         "no index entry anywhere: record lost");
            verdict = kWatch;
          } else if (sites().size() > 1) {
            // Query-time caching copies a child/parent entry onto the
            // object's own prefix chain at another level
            // (data_triangle.cpp); that is the only sanctioned form of
            // duplication. Site lists are a handful of entries, so the
            // duplicate-level probe is a quadratic scan over a tiny span
            // rather than a heap-allocated set.
            bool sanctioned = true;
            const ResolvedSite* const first = sites().begin();
            for (const ResolvedSite* site = first;
                 sanctioned && site != sites().end(); ++site) {
              if (site->individual || !site->prefix.Matches(object)) {
                sanctioned = false;
                break;
              }
              for (const ResolvedSite* prior = first; prior != site; ++prior) {
                if (prior->prefix.length == site->prefix.length) {
                  sanctioned = false;
                  break;
                }
              }
            }
            if (!sanctioned) {
              fused.Report(sub_triangle, sites().front().node->Self().actor,
                           object, object.ToShortHex(),
                           util::Format(
                               "{} index entries off the object's own prefix "
                               "chain: record duplicated",
                               sites().size()));
              verdict = kWatch;
            }
          }
        }
        fused.SetVerdict(sub_triangle, object, verdict);
      }

      if (sub_repl != kNoSub && (mask & (1u << sub_repl)) != 0u) {
        double verdict = kHealthy;
        if (sys->config().tracker.replicate_index) {
          EnsureReplication(*state, mon->ScansRun(), *sys);
          if (state->repl_r != 0 && !sites().empty()) {  // repl_r 0: n < 2.
            const SiteList& holders = sites();
            moods::Time freshest = holders.front().entry->latest_arrived;
            for (const ResolvedSite& site : holders) {
              freshest = std::max(freshest, site.entry->latest_arrived);
            }
            // The replica push itself needs time to land.
            if (freshest > settled_before) {
              verdict = freshest + staleness;
            } else {
              bool covered = false;
              for (const ResolvedSite& site : holders) {
                if (site.entry->latest_arrived != freshest) continue;
                const std::size_t* pos = state->position.Find(site.node);
                if (pos == nullptr) continue;
                bool all_successors_hold_it = true;
                for (tracking::TrackerNode* succ : state->successors[*pos]) {
                  bool holds = false;
                  if (succ != nullptr) {
                    const tracking::IndexEntry* replica =
                        succ->replica_store().Find(object);
                    holds = replica != nullptr &&
                            replica->latest_arrived >= freshest;
                    if (!holds) {
                      // The successor may hold the object authoritatively
                      // instead (promotion or index migration landed there).
                      for (const ResolvedSite& other : holders) {
                        if (other.node == succ &&
                            other.entry->latest_arrived >= freshest) {
                          holds = true;
                          break;
                        }
                      }
                    }
                  }
                  if (!holds) {
                    all_successors_hold_it = false;
                    break;
                  }
                }
                if (all_successors_hold_it) {
                  covered = true;
                  break;
                }
              }
              if (!covered) {
                fused.Report(sub_repl, holders.front().node->Self().actor,
                             object, object.ToShortHex(),
                             util::Format(
                                 "freshest entry (@ {:.3f}) is not mirrored on "
                                 "the {} successors of any holder: a gateway "
                                 "crash would lose L(o,t)",
                                 freshest, state->repl_r));
                verdict = kWatch;
              }
            }
          }
        }
        fused.SetVerdict(sub_repl, object, verdict);
      }
    };

    if (sub_stale != kNoSub) {
      monitor.AddCheck(
          "gateway.staleness", Severity::kError,
          [mon, fused_objects, enumerate_objects, judge_objects,
           sub_stale](CheckContext& ctx) {
            fused_objects->Run(ctx, mon->ledger(), mon->ScansRun(),
                               enumerate_objects, judge_objects, sub_stale);
          });
    }
    if (sub_triangle != kNoSub) {
      monitor.AddCheck(
          "triangle.coverage", Severity::kFatal,
          [mon, fused_objects, enumerate_objects, judge_objects,
           sub_triangle](CheckContext& ctx) {
            fused_objects->Run(ctx, mon->ledger(), mon->ScansRun(),
                               enumerate_objects, judge_objects, sub_triangle);
          });
    }
    if (sub_repl != kNoSub) {
      monitor.AddCheck(
          "gateway.replication", Severity::kError,
          [mon, fused_objects, enumerate_objects, judge_objects,
           sub_repl](CheckContext& ctx) {
            fused_objects->Run(ctx, mon->ledger(), mon->ScansRun(),
                               enumerate_objects, judge_objects, sub_repl);
          });
    }
  }

  if (options.check_handoff) {
    monitor.AddCheck(
        "handoff.complete", Severity::kError,
        [sys, state, mon](CheckContext& ctx) {
          // Cheap while nobody has gracefully departed (the common case):
          // incremental ticks skip the sweep entirely until the first
          // kHandoffFinished delta, then run the full body every tick —
          // departure findings can appear or heal anywhere after that.
          const bool watched = state->departed_any;
          if (ctx.Incremental() && !ctx.FullPass() && !watched) return;
          const std::size_t before = ctx.findings().size();
          AuditHandoff(*sys, ctx);
          if (ctx.findings().size() != before) state->departed_any = true;
          if (ctx.Incremental() && ctx.FullPass() && !watched) {
            for (std::size_t i = before; i < ctx.findings().size(); ++i) {
              if (!mon->ledger().IsOpen("handoff.complete",
                                        ctx.findings()[i].subject)) {
                ctx.CrossCheckMiss();
              }
            }
          }
        });
  }

  if (options.check_prefix_shape) {
    monitor.AddCheck(
        "prefix.shape", Severity::kError,
        [sys, view, mon, sc_shape, enumerate_trackers](CheckContext& ctx) {
          sc_shape->Run(
              ctx, "prefix.shape", mon->ledger(), enumerate_trackers,
              [&](CheckContext& c, std::uint32_t actor) -> double {
                view->Refresh(sys->ring(), mon->ScansRun());
                if (view->sorted.empty()) return kHealthy;
                tracking::TrackerNode* tracker = sys->TrackerByActor(actor);
                if (tracker == nullptr || !tracker->chord().Alive()) {
                  return kHealthy;
                }
                const unsigned lp = sys->CurrentLp();
                const bool group = sys->config().tracker.mode ==
                                   tracking::IndexingMode::kGroup;
                const std::size_t before = c.findings().size();
                if (group) {
                  for (const auto& prefix : tracker->prefix_store().Prefixes()) {
                    const tracking::PrefixBucket* bucket =
                        tracker->prefix_store().TryBucket(prefix);
                    if (bucket == nullptr || bucket->Empty()) continue;
                    const auto subject = util::Format(
                        "{}:{}", tracker->chord().Address(), prefix.ToString());
                    if (prefix.length != lp && prefix.length != lp + 1) {
                      c.Report(tracker->Self().actor, subject,
                               util::Format(
                                   "bucket at level {} with Lp={} (only Lp and "
                                   "the delegated Lp+1 are legal)",
                                   prefix.length, lp));
                      continue;
                    }
                    const chord::ChordNode* owner =
                        TrueOwner(view->sorted, hash::GroupKey(prefix));
                    if (owner->Self().actor != tracker->Self().actor) {
                      c.Report(tracker->Self().actor, subject,
                               util::Format(
                                   "bucket hosted off its gateway (owner of "
                                   "hash('{}') is {})",
                                   prefix.ToString(), owner->Self().Describe()));
                    }
                  }
                } else {
                  std::size_t misplaced = 0;
                  for (const auto& [object, entry] :
                       tracker->individual_index().Entries()) {
                    const chord::ChordNode* owner = TrueOwner(view->sorted, object);
                    if (owner->Self().actor != tracker->Self().actor) {
                      ++misplaced;
                    }
                  }
                  if (misplaced > 0) {
                    c.Report(tracker->Self().actor,
                             util::Format("{}:individual",
                                          tracker->chord().Address()),
                             util::Format(
                                 "{} individual entries for keys this node does "
                                 "not own",
                                 misplaced));
                  }
                }
                return c.findings().size() != before ? kWatch : kHealthy;
              });
        });
  }
}

}  // namespace peertrack::obs
