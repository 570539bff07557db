// perfbench — host wall-clock benchmark of the Marsit reproduction.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Workloads: images-resnet20 (nn-bound), text-wide (sync-bound) and
// socket-ring (net/dist-bound over real TCP); sim_workloads.cpp and
// socket_workload.cpp say why each was chosen.  --trace 0 measures the
// end-to-end metrics untraced; --trace 1 runs untraced and traced passes
// alternately and reports the per-layer metrics.  The last stdout line is
// one JSON object {correct, attempted, failed, metrics}; the exit status is
// non-zero when a correctness check failed or a round did not complete.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "report.hpp"
#include "util/logging.hpp"

namespace perfbench {

void RunOutcome::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
               why.c_str());
  correct = false;
}

void RunOutcome::put_round_metrics(
    const std::vector<double>& pass_rounds_per_s,
    const std::vector<double>& pass_setup_s,
    const std::vector<double>& round_periods_ms) {
  std::printf("rounds_per_s by pass:");
  for (const double rate : pass_rounds_per_s) {
    std::printf(" %.3f", rate);
  }
  std::printf("\n");
  values["rounds_per_s"] = median(pass_rounds_per_s);
  values["setup_s"] = median(pass_setup_s);
  values["round_ms.p50"] = median(round_periods_ms);
  if (const auto tail = tail_stat(round_periods_ms)) {
    std::printf("%s\n", describe_tail("round_ms.tail", *tail).c_str());
    values["round_ms.tail"] = tail->value;
  }
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t passes_for(double seconds, double nominal_pass_seconds) {
  constexpr std::size_t kMinPasses = 3;
  const double passes = std::round(seconds / nominal_pass_seconds);
  return passes < static_cast<double>(kMinPasses)
             ? kMinPasses
             : static_cast<std::size_t>(passes);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units of BENCHMARK.json, in its order.
const std::vector<MetricSpec> kEndToEnd = {
    {"rounds_per_s", "1/s"},
    {"round_ms.p50", "ms"},
    {"round_ms.tail", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"wire_bytes_per_round", "bytes"},
    {"eval_loss", "nats"},
};

// Host seconds are per round, summed over workers (ranks); ".onebit" and
// ".flush" split a metric by round kind.  A layer the workload never
// reaches reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"data.sample_s", "s"},
    {"nn.forward_s", "s"},
    {"nn.backward_s", "s"},
    {"nn.forward_gflops", "GFLOP/s"},
    {"nn.optimizer_s", "s"},
    {"nn.apply_s", "s"},
    {"parallel.compute_wall_s", "s"},
    {"parallel.busy_share", "ratio"},
    {"parallel.straggler_s", "s"},
    {"core.sync_onebit_s", "s"},
    {"core.sync_flush_s", "s"},
    {"core.sync_gb_per_s", "GB/s"},
    {"net.send_s.onebit", "s"},
    {"net.send_s.flush", "s"},
    {"net.recv_wait_s.onebit", "s"},
    {"net.recv_wait_s.flush", "s"},
    {"net.send_ms.p50.onebit", "ms"},
    {"net.send_ms.p50.flush", "ms"},
    {"net.frames.onebit", "count"},
    {"net.frames.flush", "count"},
    {"net.payload_bytes.onebit", "bytes"},
    {"net.payload_bytes.flush", "bytes"},
    {"net.goodput_mb_per_s.onebit", "MB/s"},
    {"net.goodput_mb_per_s.flush", "MB/s"},
    {"dist.self_s", "s"},
    {"dist.measured_over_predicted.onebit", "ratio"},
    {"dist.measured_over_predicted.flush", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<images-resnet20|text-wide|socket-ring> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

int run(const RunOptions& options) {
  RunOutcome outcome = options.workload == "socket-ring"
                           ? run_socket_workload(options)
                           : run_sim_workload(options);
  outcome.values["peak_rss_mb"] = peak_rss_mb();

  std::vector<Metric> metrics;
  const std::vector<MetricSpec>& specs = options.trace ? kPerLayer : kEndToEnd;
  for (const MetricSpec& spec : specs) {
    const auto found = outcome.values.find(spec.name);
    if (found == outcome.values.end() && !options.trace) {
      outcome.fail(std::string("no value for ") + spec.name);
    }
    metrics.push_back({spec.name,
                       found == outcome.values.end() ? 0.0 : found->second,
                       spec.unit});
  }
  if (!outcome.correct) {
    outcome.failed = outcome.attempted;
  }
  std::printf("fail_ratio = %llu / %llu\n",
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  std::printf("%s\n", result_json(outcome.correct, outcome.attempted,
                                   outcome.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return outcome.correct && outcome.failed == 0 && outcome.attempted > 0 ? 0
                                                                         : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return perfbench::usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      (options.workload != "images-resnet20" &&
       options.workload != "text-wide" && options.workload != "socket-ring")) {
    return perfbench::usage();
  }
  marsit::set_log_level(marsit::LogLevel::kWarning);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
