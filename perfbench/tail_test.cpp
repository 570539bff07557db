// Edge cases of the round_ms.tail rule (report.hpp: tail_stat) and the
// result line.  Run with `ctest --test-dir .bench_build`.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

}  // namespace

int main() {
  using perfbench::tail_stat;

  // Fewer than 11 samples: absent, never a made-up percentile.
  expect(!tail_stat({}).has_value(), "empty sample has no tail");
  expect(!tail_stat(ramp(10)).has_value(), "10 samples have no tail");

  // Exactly 11: the minimum, with ten samples beyond it.
  const auto eleven = tail_stat(ramp(11));
  expect(eleven.has_value(), "11 samples have a tail");
  expect(eleven && eleven->value == 1.0, "11 samples: tail is the minimum");
  expect(eleven && eleven->beyond == 10, "11 samples: ten beyond");
  expect(eleven && eleven->samples == 11, "sample count is reported");
  expect(eleven && std::fabs(eleven->percentile - 100.0 / 11.0) < 1e-12,
         "11 samples: percentile 1/11");

  // 1000 distinct samples, shuffled: the 990th value, p99.
  std::vector<double> thousand = ramp(1000);
  std::reverse(thousand.begin(), thousand.end());
  const auto p99 = tail_stat(thousand);
  expect(p99 && p99->value == 990.0, "1000 samples: tail is the 990th");
  expect(p99 && std::fabs(p99->percentile - 99.0) < 1e-12,
         "1000 samples: percentile 99");

  // Ties at the cut: the value shared with samples above it does not count
  // them as beyond, so the cut steps down to the next distinct value.
  std::vector<double> tied = ramp(20);               // 1..20
  for (std::size_t i = 8; i < 20; ++i) tied[i] = 9.0;  // 1..8, twelve 9s
  const auto step = tail_stat(tied);
  expect(step && step->value == 8.0, "ties: cut steps below the tied run");
  expect(step && step->beyond == 12, "ties: all twelve tied values beyond");
  expect(step && std::fabs(step->percentile - 40.0) < 1e-12,
         "ties: percentile counts the samples at or below the cut");

  // All samples tied: nothing is beyond any value, so no tail.
  expect(!tail_stat(std::vector<double>(50, 3.0)).has_value(),
         "all tied: no tail");

  // Median.
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");

  // The percentile and the sample count are printed next to the value.
  expect(p99 && perfbench::describe_tail("round_ms.tail", *p99) ==
                    "round_ms.tail = 990.0000 ms (p99.0 of 1000 rounds, "
                    "10 beyond)",
         "tail line names percentile and count");
  const std::string line = perfbench::result_json(
      true, 5, 0, {{"round_ms.tail", 1.5, "ms"}});
  expect(line ==
             "{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
             "\"metrics\": {\"round_ms.tail\": {\"value\": 1.5, "
             "\"unit\": \"ms\"}}}",
         "result line shape");

  if (failures == 0) {
    std::printf("perfbench_tail_test: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
