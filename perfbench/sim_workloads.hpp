// The simulator workloads (images-resnet20, text-wide) and the pieces the
// socket workload reuses: a job definition, an untraced DistributedTrainer
// pass and the traced bench-side driver that rebuilds the trainer's round
// from public calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sync_strategy.hpp"
#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "sim/trainer.hpp"
#include "span_trace.hpp"

namespace perfbench {

/// One training job: dataset, model, Marsit sync and trainer settings.
struct SimJob {
  std::unique_ptr<marsit::Dataset> dataset;
  std::function<marsit::Sequential()> factory;
  marsit::SyncConfig sync;
  marsit::MarsitOptions options;
  marsit::TrainerConfig trainer;
  /// Held-out samples behind eval_loss.
  std::size_t eval_samples = 0;
  /// Host seconds one measured pass takes on the reference machine.
  double nominal_pass_seconds = 1.0;
};

/// Builds the job of workload `name` ("images-resnet20", "text-wide" or
/// "socket-ring", whose simulator twin is the digest reference) for `seed`.
/// Throws std::invalid_argument for an unknown name.
SimJob make_sim_job(const std::string& name, std::uint64_t seed);

struct TrainerPass {
  double setup_seconds = 0.0;  // strategy + trainer construction
  double train_seconds = 0.0;  // DistributedTrainer::train()
  std::size_t rounds = 0;
  bool diverged = false;
  std::uint64_t digest = 0;
  double wire_bits = 0.0;
  /// Host seconds at which each round entered SyncStrategy::synchronize.
  std::vector<double> round_starts;
  /// NaN unless `evaluate` was set.
  double eval_loss = 0.0;
};

/// One untraced DistributedTrainer run of `job`.
TrainerPass run_trainer_pass(const SimJob& job, bool evaluate);

/// Outcome of one traced driver pass; its per-layer time is in the trace.
struct DriverPass {
  std::size_t rounds = 0;
  bool diverged = false;
  std::uint64_t digest = 0;
  double loop_seconds = 0.0;  // first round start to last round end
  /// Rounds whose top-level spans cover less than kMinCoverage of their
  /// wall time ("no dark matter"); each is also reported on stderr.
  std::vector<std::size_t> dark_rounds;
};

inline constexpr double kMinCoverage = 0.95;

/// Replays `job`'s training rounds with spans around every public call the
/// trainer makes: ShardedSampler::worker_batch, the Sequential passes, the
/// local optimizer, parallel_for on the global pool, synchronize and the
/// replica updates.  Its parameter digest must equal run_trainer_pass's.
DriverPass run_traced_driver(const SimJob& job, SpanTrace& trace);

/// Per-layer metrics of the driver spans in `trace` (rounds of every
/// traced pass so far); `values` receives data.*, nn.*, parallel.*, core.*
/// and trace.coverage.
void sim_layer_metrics(const SimJob& job, const SpanTrace& trace,
                       std::map<std::string, double>& values);

}  // namespace perfbench
