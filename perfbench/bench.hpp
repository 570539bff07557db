// Shared types of the wall-clock benchmark: run options, the per-run
// outcome, and the metric values each workload hands back to main.cpp.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: keep them in memory).
  std::string trace_out;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;  // rounds attempted
  std::uint64_t failed = 0;     // rounds failed
  /// Metric values by name; main.cpp orders and labels them.
  std::map<std::string, double> values;

  /// Records a correctness failure: every round of the run counts as
  /// failed (set once the run has finished attempting them).
  void fail(const std::string& why);

  /// Sets rounds_per_s and setup_s (medians over the measured passes) and
  /// round_ms.p50 / round_ms.tail (over every round period of the run),
  /// printing the per-pass rates and the tail's percentile and count.
  void put_round_metrics(const std::vector<double>& pass_rounds_per_s,
                         const std::vector<double>& pass_setup_s,
                         const std::vector<double>& round_periods_ms);
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process peak resident set size (getrusage ru_maxrss), in MiB.
double peak_rss_mb();

/// Measured passes in a run: the work is fixed by --seconds and a
/// workload's nominal pass time on the reference machine (4-core Xeon), so
/// every commit does the same work and a run there lasts about --seconds.
std::size_t passes_for(double seconds, double nominal_pass_seconds);

RunOutcome run_sim_workload(const RunOptions& options);
RunOutcome run_socket_workload(const RunOptions& options);

}  // namespace perfbench
