#include "sim_workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "ckpt/snapshot.hpp"
#include "data/synthetic_images.hpp"
#include "data/synthetic_sentiment.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "parallel/thread_pool.hpp"
#include "report.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

using marsit::DistributedTrainer;
using marsit::MarParadigm;
using marsit::MarsitSync;
using marsit::Sequential;
using marsit::SyncMode;
using marsit::SyncStepResult;
using marsit::SyncStrategy;
using marsit::Tensor;
using marsit::WorkerSpans;

namespace {

/// Salt separating the sync seed from the trainer seed of a run.
constexpr std::uint64_t kSyncSeedSalt = 0x5bc;

// images-resnet20 — nn-bound.  SyntheticImages + ResNet20-mini
// (D = 79,274), 4 workers on a ring, Marsit K=25, Momentum, 16 samples per
// worker, with examples/image_classification's calibrated hyperparameters
// (the defaults diverge at round 51).
//
// Why: GEMM and im2col do almost all the work, so a GEMM/conv change must
// move rounds_per_s here and a sync change must not.  Layer shares measured
// by the traced run on the seed commit (4-core Xeon VM, Release; host ms
// per round summed over the 4 workers): nn.backward 93.0 + nn.forward 63.1
// of 165 ms, data.sample 7.1, nn.optimizer 1.0, core.sync 0.7; the trainer
// ran at 21-22 rounds/s.  The sync mode is pinned to reduce-scatter so a
// change of SyncConfig's default leaves this workload's arithmetic alone.
SimJob images_resnet20(std::uint64_t seed) {
  marsit::SyntheticImagesConfig data;
  data.seed = 42;
  data.num_classes = 10;
  data.channels = 3;
  data.height = 16;
  data.width = 16;
  auto images = std::make_unique<marsit::SyntheticImages>(data);
  const marsit::ImageDims dims = images->image_dims();

  SimJob job;
  job.factory = [dims] { return marsit::make_resnet20_mini(dims, 10); };
  job.dataset = std::move(images);
  job.sync.num_workers = 4;
  job.sync.paradigm = MarParadigm::kRing;
  job.sync.sync_mode = SyncMode::kReduceScatter;
  job.sync.shard_chunk_elements = std::size_t{1} << 16;
  job.sync.seed = marsit::derive_seed(seed, kSyncSeedSalt);
  job.options.eta_s = 2e-3f;
  job.options.full_precision_period = 25;
  job.options.use_compensation = true;
  job.options.full_precision_max_norm = 0.5f;
  job.trainer.batch_size_per_worker = 16;
  job.trainer.optimizer = marsit::OptimizerKind::kMomentum;
  job.trainer.eta_l = 0.015f;
  job.trainer.clip_grad_norm = 2.0f;
  job.trainer.rounds = 50;
  job.eval_samples = 256;
  job.nominal_pass_seconds = 2.5;
  job.trainer.seed = seed;
  return job;
}

// text-wide — sync-bound.  SyntheticSentiment with a 65,536-token
// vocabulary + the text classifier at embed 64 (D = 4,198,594), 8 workers
// on a 2x4 torus, Marsit K=10, SGD, 32 samples per worker.
//
// Why: compute is cheap and D is large, so SyncStrategy::synchronize is
// the largest layer.  Shares measured by the traced run on the seed commit
// (same machine and convention, 8 workers): core.sync 56.3 ms per round
// (48 ms one-bit, 130 ms flush), nn.optimizer 40.0, nn.backward 32.5,
// nn.forward 25.7, nn.apply 20.9, at 9.7-10.1 rounds/s.  The nn time is
// O(D) zero/copy work with no GEMM, so a GEMM change must not move it.  Its
// 10% flush rounds take the float path of the same sync layer.  Set-up
// takes 1.1-1.5 s and peak RSS is 842 MB, so setup_s and peak_rss_mb have
// something to move.
//
// The sync mode is deliberately left at SyncConfig's default (the legacy
// all-gather plane at the seed commit): when the default flips to
// reduce-scatter, this workload measures the flip as users will see it.
// Judge that flip against the sync host cost of the two planes on the seed
// commit: 84 ms per round on reduce-scatter against 56 ms on legacy (52 ms
// in an earlier probe), and 7.1-7.5 against 9.7-10.1 rounds/s end to end.
SimJob text_wide(std::uint64_t seed) {
  marsit::SyntheticSentimentConfig data;
  data.seed = 44;
  data.vocab_size = 65536;
  data.seq_len = 32;
  data.lexicon = 200;
  auto sentiment = std::make_unique<marsit::SyntheticSentiment>(data);

  SimJob job;
  job.factory = [] { return marsit::make_text_classifier(65536, 32, 64, 2); };
  job.dataset = std::move(sentiment);
  job.sync.num_workers = 8;
  job.sync.paradigm = MarParadigm::kTorus2d;
  job.sync.torus_rows = 2;
  job.sync.torus_cols = 4;
  job.sync.shard_chunk_elements = std::size_t{1} << 16;
  job.sync.seed = marsit::derive_seed(seed, kSyncSeedSalt);
  job.options.eta_s = 1e-3f;
  job.options.full_precision_period = 10;
  job.options.use_compensation = true;
  job.options.full_precision_max_norm = 0.0f;
  job.trainer.batch_size_per_worker = 32;
  job.trainer.optimizer = marsit::OptimizerKind::kSgd;
  job.trainer.eta_l = 0.05f;
  job.trainer.clip_grad_norm = 0.0f;
  job.trainer.rounds = 40;
  job.eval_samples = 256;
  job.nominal_pass_seconds = 5.5;
  job.trainer.seed = seed;
  return job;
}

// socket-ring's simulator twin: the DistributedTrainer + MarsitSync run
// whose final digest every socket rank must reproduce.  The workload itself
// is described in socket_workload.cpp.
SimJob socket_ring_reference(std::uint64_t seed) {
  marsit::SyntheticSentimentConfig data;
  data.seed = 44;
  data.vocab_size = 16384;
  data.seq_len = 32;
  data.lexicon = 200;
  auto sentiment = std::make_unique<marsit::SyntheticSentiment>(data);

  SimJob job;
  job.factory = [] { return marsit::make_text_classifier(16384, 32, 64, 2); };
  job.dataset = std::move(sentiment);
  job.sync.num_workers = 3;
  job.sync.paradigm = MarParadigm::kRing;
  job.sync.sync_mode = SyncMode::kReduceScatter;
  job.sync.shard_chunk_elements = std::size_t{1} << 16;
  job.sync.seed = marsit::derive_seed(seed, kSyncSeedSalt);
  job.options.eta_s = 1e-3f;
  job.options.full_precision_period = 10;
  job.options.use_compensation = true;
  job.options.full_precision_max_norm = 0.0f;
  job.trainer.batch_size_per_worker = 32;
  job.trainer.optimizer = marsit::OptimizerKind::kSgd;
  job.trainer.eta_l = 0.05f;
  job.trainer.clip_grad_norm = 0.0f;
  job.trainer.rounds = 100;
  job.eval_samples = 256;
  job.nominal_pass_seconds = 2.0;
  job.trainer.seed = seed;
  return job;
}

/// Settings every job shares: one local step, no schedule, no mid-run
/// evaluation (train() still closes with one small evaluation), workers on
/// the global pool, no checkpoints.
void finish_trainer_config(marsit::TrainerConfig& config) {
  config.local_steps = 1;
  config.eval_interval = 0;
  config.eval_samples = 32;
  config.lr_decay_rounds.clear();
  config.stop_accuracy.reset();
  config.track_matching_rate = false;
  config.parallel_workers = true;
  config.train_metric_samples = 0;
  config.checkpoint_every = 0;
  config.checkpoint_path.clear();
  config.resume_from.clear();
}

/// Strategy decorator that stamps the host time at which each round enters
/// synchronize — one clock read per round, the only addition to the
/// untraced trainer.
class RoundClock final : public SyncStrategy {
 public:
  RoundClock(SyncStrategy& inner, Clock::time_point epoch,
             std::vector<double>& starts)
      : SyncStrategy(inner.config()),
        inner_(inner),
        epoch_(epoch),
        starts_(starts) {}

  std::string name() const override { return inner_.name(); }
  std::size_t flush_period() const override { return inner_.flush_period(); }

 private:
  SyncStepResult do_synchronize(const WorkerSpans& inputs,
                                std::span<float> out) override {
    starts_.push_back(seconds_between(epoch_, Clock::now()));
    return inner_.synchronize(inputs, out);
  }

  SyncStrategy& inner_;
  Clock::time_point epoch_;
  std::vector<double>& starts_;
};

/// One simulated worker of the traced driver.
struct Replica {
  Sequential model;
  std::unique_ptr<marsit::LocalOptimizer> optimizer;
  marsit::Batch batch;
  Tensor grad;
  Tensor update;
  Tensor dlogits;
};

double span_seconds(const Span& span) { return span.end - span.start; }

/// FNV-1a digest of a model's parameters (dist::WorkerResult's digest).
std::uint64_t param_digest(const Sequential& model) {
  Tensor params(model.param_count());
  model.copy_params_into(params.span());
  return marsit::ckpt::fnv1a(params.span().data(),
                             params.size() * sizeof(float));
}

}  // namespace

SimJob make_sim_job(const std::string& name, std::uint64_t seed) {
  SimJob job;
  if (name == "images-resnet20") {
    job = images_resnet20(seed);
  } else if (name == "text-wide") {
    job = text_wide(seed);
  } else if (name == "socket-ring") {
    job = socket_ring_reference(seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  finish_trainer_config(job.trainer);
  return job;
}


TrainerPass run_trainer_pass(const SimJob& job, bool evaluate) {
  TrainerPass pass;
  const Clock::time_point t0 = Clock::now();
  MarsitSync marsit(job.sync, job.options);
  RoundClock clock(marsit, t0, pass.round_starts);
  DistributedTrainer trainer(*job.dataset, job.factory, clock, job.trainer);
  const Clock::time_point t1 = Clock::now();
  const marsit::TrainResult result = trainer.train();
  const Clock::time_point t2 = Clock::now();
  pass.setup_seconds = seconds_between(t0, t1);
  pass.train_seconds = seconds_between(t1, t2);
  pass.rounds = result.rounds_completed;
  pass.diverged = result.diverged;
  pass.wire_bits = result.total_wire_bits;

  Tensor params(trainer.param_count());
  trainer.copy_params_into(params.span());
  pass.digest = marsit::ckpt::fnv1a(params.span().data(),
                                    params.size() * sizeof(float));
  pass.eval_loss = evaluate ? trainer.evaluate(job.eval_samples).test_loss
                            : std::numeric_limits<double>::quiet_NaN();
  return pass;
}

DriverPass run_traced_driver(const SimJob& job, SpanTrace& trace) {
  const std::size_t m = job.sync.num_workers;
  const marsit::TrainerConfig& config = job.trainer;
  const marsit::Dataset& dataset = *job.dataset;
  // The trainer's own construction, call for call (sim/trainer.hpp's public
  // seed salts make the sampler and init streams reproducible).
  MarsitSync strategy(job.sync, job.options);
  const marsit::ShardedSampler sampler(
      dataset, m, config.batch_size_per_worker, marsit::kTrainSampleRange,
      marsit::kTestSampleRange,
      marsit::derive_seed(config.seed, marsit::kSamplerSeedSalt));
  std::vector<Replica> replicas(m);
  for (Replica& replica : replicas) {
    replica.model = job.factory();
    marsit::Rng init_rng(
        marsit::derive_seed(config.seed, marsit::kModelInitSeedSalt));
    replica.model.init(init_rng);
    replica.optimizer = marsit::make_optimizer(config.optimizer);
  }
  const std::size_t d = replicas.front().model.param_count();
  for (Replica& replica : replicas) {
    replica.grad = Tensor(d);
    replica.update = Tensor(d);
  }
  Tensor global(d);
  WorkerSpans inputs;
  for (const Replica& replica : replicas) {
    inputs.push_back(replica.update.span());
  }
  marsit::ThreadPool& pool = marsit::global_thread_pool();
  const float eta_l = config.eta_l;

  const auto worker_round = [&](std::size_t w, std::int64_t t,
                                std::size_t parent) {
    Replica& r = replicas[w];
    const ScopedSpan task(trace, "parallel.task", t, parent);
    {
      const ScopedSpan span(trace, "data.sample", t, task.id());
      sampler.worker_batch(w, static_cast<std::size_t>(t), r.batch);
    }
    {
      const ScopedSpan span(trace, "nn.forward", t, task.id());
      r.model.zero_grads();
      const auto logits = r.model.forward(r.batch.inputs.span(),
                                          r.batch.size());
      if (r.dlogits.size() != logits.size()) {
        r.dlogits = Tensor(logits.size());
      }
      marsit::softmax_cross_entropy(
          logits, {r.batch.labels.data(), r.batch.labels.size()},
          dataset.num_classes(), r.dlogits.span());
    }
    {
      const ScopedSpan span(trace, "nn.backward", t, task.id());
      r.model.backward(r.dlogits.span(), r.batch.size());
      r.model.copy_grads_into(r.grad.span());
    }
    {
      const ScopedSpan span(trace, "nn.optimizer", t, task.id());
      if (config.clip_grad_norm > 0.0f) {
        const float norm = marsit::l2_norm(r.grad.span());
        if (norm > config.clip_grad_norm) {
          marsit::scale(r.grad.span(), config.clip_grad_norm / norm);
        }
      }
      r.optimizer->transform(r.grad.span(), r.update.span());
      marsit::scale(r.update.span(), eta_l);
    }
  };

  DriverPass pass;
  const double loop_start = trace.now();
  for (std::size_t round = 0; round < config.rounds; ++round) {
    const auto t = static_cast<std::int64_t>(round);
    const std::size_t root = trace.begin("sim.round", t);
    const double round_start = trace.now();
    double covered = 0.0;

    double start = trace.now();
    {
      const ScopedSpan compute(trace, "parallel.compute", t, root);
      marsit::parallel_for(pool, m, [&](std::size_t w) {
        worker_round(w, t, compute.id());
      });
    }
    double stop = trace.now();
    covered += stop - start;

    start = stop;
    const SyncStepResult step = strategy.synchronize(inputs, global.span());
    stop = trace.now();
    trace.add(step.full_precision ? "core.sync.flush" : "core.sync.onebit",
              start, stop, t, root);
    covered += stop - start;

    start = stop;
    {
      const ScopedSpan apply(trace, "nn.apply", t, root);
      for (Replica& replica : replicas) {
        replica.model.apply_update(global.span());
      }
    }
    stop = trace.now();
    covered += stop - start;

    start = stop;
    bool finite = true;
    {
      const ScopedSpan check(trace, "sim.check", t, root);
      finite = marsit::all_finite(global.span()) &&
               marsit::all_finite(replicas.front().update.span());
    }
    stop = trace.now();
    covered += stop - start;
    trace.end(root);

    if (covered < kMinCoverage * (stop - round_start)) {
      std::fprintf(stderr,
                   "perfbench: traced round %zu: spans cover %.1f%% of its "
                   "wall time, below %.0f%%\n",
                   round, 100.0 * covered / (stop - round_start),
                   100.0 * kMinCoverage);
      pass.dark_rounds.push_back(round);
    }
    pass.rounds = round + 1;
    if (!finite) {
      pass.diverged = true;
      break;
    }
  }
  pass.loop_seconds = trace.now() - loop_start;
  pass.digest = param_digest(replicas.front().model);
  return pass;
}

void sim_layer_metrics(const SimJob& job, const SpanTrace& trace,
                       std::map<std::string, double>& values) {
  const std::vector<Span> spans = trace.spans();
  std::map<std::string, double> total;
  double rounds = 0.0;
  double round_wall = 0.0;
  double covered = 0.0;
  double onebit_rounds = 0.0;
  double flush_rounds = 0.0;
  // Per compute span: busy seconds per pool thread, for the straggler.
  std::map<std::size_t, std::map<std::size_t, double>> thread_busy;
  for (const Span& span : spans) {
    const std::string name = span.name;
    total[name] += span_seconds(span);
    if (name == "sim.round") {
      rounds += 1.0;
      round_wall += span_seconds(span);
    } else if (span.parent != kNoParent &&
               std::string(spans[span.parent].name) == "sim.round") {
      covered += span_seconds(span);
    }
    if (name == "core.sync.onebit") {
      onebit_rounds += 1.0;
    } else if (name == "core.sync.flush") {
      flush_rounds += 1.0;
    } else if (name == "parallel.task") {
      thread_busy[span.parent][span.thread] += span_seconds(span);
    }
  }
  if (rounds == 0.0) {
    return;
  }
  const auto m = static_cast<double>(job.sync.num_workers);
  const Sequential probe = job.factory();
  const double d = static_cast<double>(probe.param_count());
  // Forward share of Sequential::flops_per_sample (2 flops per forward MAC
  // out of its 6 for forward + backward).
  const double forward_flops = probe.flops_per_sample() / 3.0;
  const double samples =
      static_cast<double>(job.trainer.batch_size_per_worker) * m * rounds;
  std::printf("base: nn.forward_gflops = %.6g forward flops/sample x %.0f "
              "samples / %.6g s\n",
              forward_flops, samples, total["nn.forward"]);

  // The layer shares behind each workload's "why", largest first.
  std::vector<std::pair<double, const char*>> shares = {
      {total["data.sample"], "data.sample"},
      {total["nn.forward"], "nn.forward"},
      {total["nn.backward"], "nn.backward"},
      {total["nn.optimizer"], "nn.optimizer"},
      {total["nn.apply"], "nn.apply"},
      {total["core.sync.onebit"] + total["core.sync.flush"], "core.sync"}};
  std::sort(shares.rbegin(), shares.rend());
  std::printf("layers (host ms per round, summed over workers):");
  for (const auto& [seconds, layer] : shares) {
    std::printf(" %s %.3f", layer, 1e3 * seconds / rounds);
  }
  std::printf("\n");
  values["data.sample_s"] = total["data.sample"] / rounds;
  values["nn.forward_s"] = total["nn.forward"] / rounds;
  values["nn.backward_s"] = total["nn.backward"] / rounds;
  values["nn.optimizer_s"] = total["nn.optimizer"] / rounds;
  values["nn.apply_s"] = total["nn.apply"] / rounds;
  values["nn.forward_gflops"] =
      forward_flops * samples / total["nn.forward"] / 1e9;

  const double threads =
      static_cast<double>(marsit::global_thread_pool().num_threads());
  values["parallel.compute_wall_s"] = total["parallel.compute"] / rounds;
  values["parallel.busy_share"] =
      total["parallel.task"] / (threads * total["parallel.compute"]);
  double straggler = 0.0;
  for (const auto& [compute, per_thread] : thread_busy) {
    std::vector<double> busy;
    for (const auto& [thread, seconds] : per_thread) {
      busy.push_back(seconds);
    }
    straggler += *std::max_element(busy.begin(), busy.end()) - median(busy);
  }
  values["parallel.straggler_s"] = straggler / rounds;

  const double sync_total =
      total["core.sync.onebit"] + total["core.sync.flush"];
  values["core.sync_onebit_s"] =
      onebit_rounds > 0.0 ? total["core.sync.onebit"] / onebit_rounds : 0.0;
  values["core.sync_flush_s"] =
      flush_rounds > 0.0 ? total["core.sync.flush"] / flush_rounds : 0.0;
  values["core.sync_gb_per_s"] = m * d * 4.0 * rounds / sync_total / 1e9;
  values["trace.coverage"] = covered / round_wall;
}

RunOutcome run_sim_workload(const RunOptions& options) {
  const SimJob job = make_sim_job(options.workload, options.seed);
  const std::size_t passes =
      passes_for(options.seconds, job.nominal_pass_seconds);
  const double rounds_per_pass = static_cast<double>(job.trainer.rounds);
  RunOutcome out;

  std::vector<double> setup;
  std::vector<double> rate;
  std::vector<double> periods_ms;
  std::uint64_t digest = 0;
  double wire_bits = 0.0;
  double eval_loss = 0.0;
  bool diverged = false;
  const auto record = [&](const TrainerPass& pass, std::size_t index) {
    out.attempted += job.trainer.rounds;
    out.failed += job.trainer.rounds - pass.rounds;
    diverged = diverged || pass.diverged;
    if (index == 0) {
      digest = pass.digest;
      wire_bits = pass.wire_bits;
      eval_loss = pass.eval_loss;
    } else if (pass.digest != digest || pass.wire_bits != wire_bits) {
      out.fail("pass " + std::to_string(index) +
               " is not bit-identical to pass 0");
    }
    setup.push_back(pass.setup_seconds);
    rate.push_back(static_cast<double>(pass.rounds) / pass.train_seconds);
    for (std::size_t t = 1; t < pass.round_starts.size(); ++t) {
      periods_ms.push_back(
          1e3 * (pass.round_starts[t] - pass.round_starts[t - 1]));
    }
  };

  if (!options.trace) {
    for (std::size_t p = 0; p < passes; ++p) {
      record(run_trainer_pass(job, p == 0), p);
    }
  } else {
    // Untraced and traced passes alternate so drift hits both alike.
    SpanTrace trace;
    std::vector<double> traced_rate;
    std::size_t dark = 0;
    const std::size_t pairs = std::max<std::size_t>(1, passes / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      record(run_trainer_pass(job, p == 0), p);
      const DriverPass driven = run_traced_driver(job, trace);
      out.attempted += job.trainer.rounds;
      out.failed += job.trainer.rounds - driven.rounds;
      if (driven.digest != digest) {
        out.fail("traced driver digest differs from train()'s");
      }
      traced_rate.push_back(static_cast<double>(driven.rounds) /
                            driven.loop_seconds);
      dark += driven.dark_rounds.size();
    }
    std::printf("trace: %zu traced rounds below %.0f%% span coverage\n", dark,
                100.0 * kMinCoverage);
    sim_layer_metrics(job, trace, out.values);
    out.values["trace.overhead_ratio"] = median(traced_rate) / median(rate);
    if (!options.trace_out.empty() &&
        !trace.write_chrome_json(options.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
    }
  }

  if (diverged) {
    std::fprintf(stderr, "perfbench: training diverged\n");
  }
  if (!std::isfinite(eval_loss)) {
    out.fail("eval_loss is not finite");
  }
  out.put_round_metrics(rate, setup, periods_ms);
  out.values["wire_bytes_per_round"] = wire_bits / 8.0 / rounds_per_pass;
  out.values["eval_loss"] = eval_loss;
  return out;
}

}  // namespace perfbench
