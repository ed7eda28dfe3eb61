// Self-tests for the benchmark's own helpers (bench_stats.hpp): the
// percentile rule, query-outcome accounting and metric-name validity.
// Prints one line per failed check and exits 1 if any failed.
//
//   perfbench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void PercentileRule() {
  using perfbench::PercentileSupported;
  using perfbench::SamplesBeyond;
  // p99 needs 1000 samples: rank 990 leaves exactly ten beyond it.
  Expect(SamplesBeyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  Expect(PercentileSupported(1000, 99.0), "p99 supported at n=1000");
  Expect(!PercentileSupported(999, 99.0), "p99 unsupported at n=999");
  Expect(PercentileSupported(20, 50.0), "p50 supported at n=20");
  Expect(!PercentileSupported(19, 50.0), "p50 unsupported at n=19");
  Expect(PercentileSupported(10000, 99.9), "p99.9 supported at n=10000");
  Expect(!PercentileSupported(9999, 99.9), "p99.9 unsupported at n=9999");
  Expect(!PercentileSupported(0, 50.0), "nothing is supported without samples");
  Expect(!PercentileSupported(5, 50.0), "p50 unsupported at n=5");

  // Nearest rank: p50 of 1..100 is 50, p99 is 99, p100 is the maximum.
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  Expect(perfbench::Percentile(samples, 50.0) == 50.0, "p50 of 1..100 is 50");
  Expect(perfbench::Percentile(samples, 99.0) == 99.0, "p99 of 1..100 is 99");
  Expect(perfbench::Percentile(samples, 100.0) == 100.0, "p100 is the maximum");
  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  Expect(perfbench::Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of four");
}

void FailureAccounting() {
  perfbench::QueryTally tally;
  tally.attempted = 100;
  tally.correct = 90;
  tally.refused = 4;
  tally.timed_out = 2;
  tally.wrong = 4;
  Expect(tally.Balanced(), "every attempt lands in one bucket");
  Expect(tally.Failed() == 10, "refused + timed out + wrong are failures");
  Expect(tally.FailFrac() == 0.10, "fail fraction is failures / attempted");
  Expect(tally.OkFrac() == 0.90, "ok fraction is correct / attempted");

  perfbench::QueryTally timed_out_only;
  timed_out_only.attempted = 3;
  timed_out_only.timed_out = 3;
  Expect(timed_out_only.FailFrac() == 1.0, "a never-completed query is a failure");

  perfbench::QueryTally sum = tally;
  sum.Add(timed_out_only);
  Expect(sum.attempted == 103 && sum.Failed() == 13 && sum.Balanced(),
         "tallies add bucket by bucket");

  perfbench::QueryTally unbalanced = tally;
  unbalanced.wrong = 0;
  Expect(!unbalanced.Balanced(), "a lost attempt breaks the balance");
  Expect(perfbench::QueryTally{}.FailFrac() == 0.0, "empty tally has no failures");
}

void MetricNames() {
  using perfbench::ValidMetricName;
  using perfbench::ValidUnit;
  Expect(ValidMetricName("captures_per_s"), "plain name");
  Expect(ValidMetricName("prof.obs.recorder.self_s"), "dotted name");
  Expect(ValidMetricName("ledger.replication.cpu_s"), "ledger name");
  Expect(ValidMetricName("sim.speedup_2"), "digit in name");
  Expect(ValidMetricName("99th-pct"), "leading digit and dash");
  Expect(!ValidMetricName(""), "empty name");
  Expect(!ValidMetricName("_hidden"), "leading underscore");
  Expect(!ValidMetricName(".dot"), "leading dot");
  Expect(!ValidMetricName("has space"), "space");
  Expect(!ValidMetricName("slash/name"), "slash");
  Expect(!ValidMetricName("quote\""), "quote");
  Expect(ValidMetricName(std::string(64, 'a')), "64 characters");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 characters");
  Expect(ValidUnit("1/s") && ValidUnit("us") && ValidUnit("MiB") && ValidUnit("%"),
         "units");
  Expect(!ValidUnit("") && !ValidUnit("µs") && !ValidUnit(std::string(17, 's')),
         "bad units");
  Expect(perfbench::JsonNumber(0.1) == "0.10000000000000001",
         "numbers keep every digit");
}

}  // namespace

int main() {
  PercentileRule();
  FailureAccounting();
  MetricNames();
  if (failures != 0) {
    std::printf("%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
