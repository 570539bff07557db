// Metric summaries and the result line of the wall-clock benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median of `values` (the mean of the middle two for an even count).
/// Requires a non-empty input.
double median(std::vector<double> values);

/// The tail of a latency sample: the highest percentile that still has at
/// least kTailBeyond samples strictly above it.
struct TailStat {
  double value = 0.0;
  /// Share of the samples at or below `value`, in percent.
  double percentile = 0.0;
  std::size_t samples = 0;
  /// Samples strictly above `value` (at least kTailBeyond; more when ties
  /// at the cut push it down to the next distinct value).
  std::size_t beyond = 0;
};

inline constexpr std::size_t kTailBeyond = 10;

/// Returns the largest sample value with at least kTailBeyond samples
/// strictly greater than it.  With fewer than kTailBeyond + 1 samples, or
/// when ties leave no such value, the tail is absent: no percentile is
/// made up from too few rounds.
std::optional<TailStat> tail_stat(std::vector<double> samples);

/// One human-readable line naming the tail's percentile and sample count,
/// e.g. "round_ms.tail = 12.5 ms (p97.2 of 351 rounds, 10 beyond)".
std::string describe_tail(const std::string& name, const TailStat& tail);

/// The benchmark's last stdout line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics (name -> {value, unit}).
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
