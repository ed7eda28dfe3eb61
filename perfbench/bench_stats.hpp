#pragma once
// Helpers the layer-cost benchmark reports through: the percentile rule,
// query-outcome accounting, metric-name validity, medians and the JSON
// number format. Header-only and std-only so selftest.cpp can check them
// without linking the library.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond it before it may be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank index (0-based) of percentile `p` (0 < p <= 100) in `n`
/// sorted samples: the smallest rank r with r / n >= p / 100.
inline std::size_t RankOf(std::size_t n, double p) {
  if (n == 0) return 0;
  // p percent in millionths, so 99.9 and friends are exact integers.
  const auto scaled = static_cast<std::uint64_t>(std::llround(p * 1e4));
  const std::uint64_t num = scaled * n;
  const std::uint64_t rank = (num + 1'000'000 - 1) / 1'000'000;  // ceil
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(rank, 1, n) - 1);
}

/// Samples strictly beyond percentile `p` of `n` samples.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - RankOf(n, p);
}

/// True when `n` samples leave at least kTailSamples beyond percentile `p`.
inline bool PercentileSupported(std::size_t n, double p) {
  return SamplesBeyond(n, p) >= kTailSamples;
}

/// Nearest-rank percentile of `samples` (sorted in place).
inline double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[RankOf(samples.size(), p)];
}

/// Median of `values` (mean of the middle pair for even counts).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Outcome of every query a workload attempted. Every attempt ends in
/// exactly one bucket; Failed() is what the benchmark reports as failed.
struct QueryTally {
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;    ///< Answered and agreed with the oracle.
  std::uint64_t refused = 0;    ///< Callback reported failure (ok = false).
  std::uint64_t timed_out = 0;  ///< Callback never ran before the run ended.
  std::uint64_t wrong = 0;      ///< Answered, but disagreed with the oracle.

  std::uint64_t Failed() const noexcept { return refused + timed_out + wrong; }
  /// Every attempt is in exactly one bucket.
  bool Balanced() const noexcept {
    return correct + Failed() == attempted;
  }
  double FailFrac() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(Failed()) /
                                static_cast<double>(attempted);
  }
  double OkFrac() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(attempted);
  }
  void Add(const QueryTally& other) noexcept {
    attempted += other.attempted;
    correct += other.correct;
    refused += other.refused;
    timed_out += other.timed_out;
    wrong += other.wrong;
  }
};

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Units: 1 to 16 of letters, digits, '_', '/', '%', '.', '-'.
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

/// A double as JSON with every digit kept (round-trips exactly).
inline std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
