// socket-ring — net/dist-bound, over real TCP.
//
// 3 ranks run as threads of this process, each calling
// dist::run_marsit_worker over a loopback SocketTransport mesh (3 rank
// threads and 3 connections, within a 4-core machine).  Ring,
// SyncMode::kReduceScatter pinned, SyntheticSentiment with a 16,384-token
// vocabulary + the text classifier at embed 64 (D = 1,052,866), Marsit
// K=10, SGD, 32 samples per worker; sim_workloads.cpp holds the simulator
// twin whose digest every rank must reproduce.
//
// Why: it is the only workload that reaches net and dist.  On the seed
// commit (4-core Xeon VM, Release) one-bit rounds took about 6.5 ms at p50,
// dominated by send->ack; flush rounds (10%) carry frames 32x larger, take
// 80-110 ms and make up about 84% of the bytes, so the same layer runs in
// two frame regimes.  The traced run put net.send + net.recv_wait at 28 ms
// per round summed over ranks against 18 ms of dist self time.  A run is
// 15 fresh meshes of 100 rounds; throughput drifts by up to 15% within one
// process, so the run reports medians over the meshes.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <latch>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "compress/kernels.hpp"
#include "dist/worker.hpp"
#include "net/socket_transport.hpp"
#include "report.hpp"
#include "sim_workloads.hpp"

namespace perfbench {

namespace {

using marsit::Transport;

/// Trace lanes of the socket ranks, clear of the process's own threads.
constexpr std::size_t kSocketLaneBase = 100;

/// One transport call seen by the decorator.
struct Call {
  bool send = false;
  std::size_t round = 0;
  std::size_t bytes = 0;
  double start = 0.0;  // seconds since the pass epoch
  double end = 0.0;
};

/// Transport decorator: counts frames and payload bytes per round, stamps
/// the first call of every round (round = tag >> 2, the worker's documented
/// tag base t << 2) and, when tracing, times every send and recv.
class TimedTransport final : public Transport {
 public:
  TimedTransport(Transport& inner, std::size_t rounds, Clock::time_point epoch,
                 bool trace)
      : inner_(inner),
        epoch_(epoch),
        trace_(trace),
        round_start_(rounds, -1.0),
        round_bytes_(rounds, 0),
        round_frames_(rounds, 0) {}

  std::size_t rank() const override { return inner_.rank(); }
  std::size_t world_size() const override { return inner_.world_size(); }

  void send(std::size_t peer, std::uint32_t tag,
            std::span<const std::uint8_t> payload) override {
    const std::size_t round = enter(tag);
    const double start = trace_ ? now() : 0.0;
    inner_.send(peer, tag, payload);
    if (trace_) {
      calls_.push_back({true, round, payload.size(), start, now()});
    }
    round_bytes_[round] += payload.size();
    ++round_frames_[round];
  }

  std::vector<std::uint8_t> recv(std::size_t peer,
                                 std::uint32_t tag) override {
    const std::size_t round = enter(tag);
    const double start = trace_ ? now() : 0.0;
    std::vector<std::uint8_t> payload = inner_.recv(peer, tag);
    if (trace_) {
      calls_.push_back({false, round, payload.size(), start, now()});
    }
    return payload;
  }

  const std::vector<double>& round_start() const { return round_start_; }
  const std::vector<std::uint64_t>& round_bytes() const { return round_bytes_; }
  const std::vector<std::uint64_t>& round_frames() const {
    return round_frames_;
  }
  const std::vector<Call>& calls() const { return calls_; }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  std::size_t enter(std::uint32_t tag) {
    const std::size_t round = tag >> 2;
    if (round >= round_start_.size()) {
      throw std::runtime_error("transport tag beyond the configured rounds");
    }
    if (round_start_[round] < 0.0) {
      round_start_[round] = now();
    }
    return round;
  }

  Transport& inner_;
  Clock::time_point epoch_;
  bool trace_;
  std::vector<double> round_start_;
  std::vector<std::uint64_t> round_bytes_;
  std::vector<std::uint64_t> round_frames_;
  std::vector<Call> calls_;
};

marsit::dist::WorkerConfig worker_config(const SimJob& job) {
  marsit::dist::WorkerConfig config;
  config.batch_size_per_worker = job.trainer.batch_size_per_worker;
  config.optimizer = job.trainer.optimizer;
  config.eta_l = job.trainer.eta_l;
  config.clip_grad_norm = job.trainer.clip_grad_norm;
  config.rounds = job.trainer.rounds;
  config.trainer_seed = job.trainer.seed;
  config.sync_seed = job.sync.seed;
  config.paradigm = job.sync.paradigm;
  config.torus_rows = job.sync.torus_rows;
  config.torus_cols = job.sync.torus_cols;
  config.sync_mode = job.sync.sync_mode;
  config.options = job.options;
  config.shard_chunk_elements = job.sync.shard_chunk_elements;
  config.cost_model = job.sync.cost_model;
  return config;
}

struct RankRun {
  std::unique_ptr<marsit::SocketTransport> socket;
  std::unique_ptr<TimedTransport> timed;
  marsit::dist::WorkerResult result;
  double ready = 0.0;  // transport constructed
  double start = 0.0;  // entered run_marsit_worker
  double end = 0.0;    // returned from it
  std::string error;
};

struct SocketPass {
  Clock::time_point epoch;
  double setup_seconds = 0.0;
  double train_seconds = 0.0;
  std::vector<RankRun> ranks;
};

/// One job over a fresh loopback mesh.  Set-up is the listener binds, the
/// mesh connects and the transports; the training phase spans from the
/// first rank's start to the last rank's join.
SocketPass run_socket_pass(const SimJob& job,
                           const marsit::dist::WorkerConfig& config,
                           bool trace) {
  const std::size_t m = job.sync.num_workers;
  SocketPass pass;
  pass.ranks.resize(m);
  const Clock::time_point epoch = Clock::now();
  pass.epoch = epoch;
  std::vector<int> listeners(m);
  std::vector<std::uint16_t> ports(m);
  for (std::size_t r = 0; r < m; ++r) {
    listeners[r] = marsit::bind_loopback_listener(&ports[r]);
  }
  std::latch connected(static_cast<std::ptrdiff_t>(m));
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < m; ++r) {
    threads.emplace_back([&, r] {
      RankRun& run = pass.ranks[r];
      try {
        std::vector<int> fds = marsit::connect_socket_mesh(
            r, m, listeners[r], {ports.data(), ports.size()});
        run.socket =
            std::make_unique<marsit::SocketTransport>(r, std::move(fds));
        run.timed = std::make_unique<TimedTransport>(*run.socket,
                                                     config.rounds, epoch,
                                                     trace);
      } catch (const std::exception& e) {
        run.error = e.what();
      }
      run.ready = seconds_between(epoch, Clock::now());
      connected.arrive_and_wait();
      if (!run.error.empty()) {
        return;
      }
      run.start = seconds_between(epoch, Clock::now());
      try {
        run.result = marsit::dist::run_marsit_worker(*run.timed, *job.dataset,
                                                     job.factory, config);
      } catch (const std::exception& e) {
        run.error = e.what();
      }
      run.end = seconds_between(epoch, Clock::now());
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const double joined = seconds_between(epoch, Clock::now());
  double ready = 0.0;
  double first_start = joined;
  for (const RankRun& run : pass.ranks) {
    ready = std::max(ready, run.ready);
    first_start = std::min(first_start, run.start);
  }
  pass.setup_seconds = ready;
  pass.train_seconds = joined - first_start;
  return pass;
}

/// Checks one pass against the reference digest and the wire contract;
/// returns the first violation, or an empty string.
std::string check_pass(const SocketPass& pass, std::uint64_t reference,
                       std::size_t d, std::size_t rounds) {
  const std::size_t m = pass.ranks.size();
  const std::uint64_t word_bytes =
      marsit::kernels::words_for(d) * sizeof(std::uint64_t);
  for (std::size_t r = 0; r < m; ++r) {
    const RankRun& run = pass.ranks[r];
    if (!run.error.empty()) {
      return "rank " + std::to_string(r) + ": " + run.error;
    }
    if (run.result.rounds.size() != rounds) {
      return "rank " + std::to_string(r) + " reported " +
             std::to_string(run.result.rounds.size()) + " rounds";
    }
    if (run.result.param_digest != reference) {
      return "rank " + std::to_string(r) +
             " digest differs from DistributedTrainer + MarsitSync";
    }
    std::uint64_t bytes = 0;
    std::uint64_t frames = 0;
    for (std::size_t t = 0; t < rounds; ++t) {
      bytes += run.timed->round_bytes()[t];
      frames += run.timed->round_frames()[t];
      const double sent_bits =
          8.0 * static_cast<double>(run.timed->round_bytes()[t]);
      if (run.result.rounds[t].wire_bits != sent_bits) {
        return "rank " + std::to_string(r) + " round " + std::to_string(t) +
               ": RoundReport wire_bits disagrees with the bytes sent";
      }
    }
    if (bytes != run.socket->payload_bytes_sent() ||
        frames != run.socket->data_frames_sent()) {
      return "rank " + std::to_string(r) +
             ": decorator counts differ from SocketTransport's counters";
    }
  }
  for (std::size_t t = 0; t < rounds; ++t) {
    std::uint64_t bytes = 0;
    for (const RankRun& run : pass.ranks) {
      bytes += run.timed->round_bytes()[t];
    }
    const marsit::dist::RoundReport& report =
        pass.ranks.front().result.rounds[t];
    if (report.total_wire_bits != 8.0 * static_cast<double>(bytes)) {
      return "round " + std::to_string(t) +
             ": RoundReport total_wire_bits disagrees with the bytes sent";
    }
    const bool flush = report.full_precision;
    // One-bit rounds: the 2(M-1)·D sign bits dist_wire_volume_test pins
    // (D word-padded); flush rounds: a ring all-gather of M float vectors.
    const std::uint64_t expected =
        flush ? m * (m - 1) * d * sizeof(float) : 2 * (m - 1) * word_bytes;
    if (bytes != expected) {
      return "round " + std::to_string(t) + " moved " + std::to_string(bytes) +
             " payload bytes, expected " + std::to_string(expected);
    }
  }
  return {};
}

/// Copies a traced pass into `trace`: per rank a dist.rank span, its
/// dist.startup and dist.round children, and a net.send / net.recv span
/// under the round for every transport call.
void add_socket_spans(const SocketPass& pass, SpanTrace& trace) {
  const double offset = trace.since_epoch(pass.epoch);
  for (std::size_t r = 0; r < pass.ranks.size(); ++r) {
    const RankRun& run = pass.ranks[r];
    const std::size_t lane = kSocketLaneBase + r;
    const std::vector<double>& starts = run.timed->round_start();
    const std::size_t rank = trace.add("dist.rank", offset + run.start,
                                       offset + run.end, -1, kNoParent, lane);
    trace.add("dist.startup", offset + run.start, offset + starts.front(), -1,
              rank, lane);
    std::vector<std::size_t> round_ids;
    for (std::size_t t = 0; t < starts.size(); ++t) {
      const double end = t + 1 < starts.size() ? starts[t + 1] : run.end;
      round_ids.push_back(trace.add("dist.round", offset + starts[t],
                                    offset + end,
                                    static_cast<std::int64_t>(t), rank, lane));
    }
    for (const Call& call : run.timed->calls()) {
      trace.add(call.send ? "net.send" : "net.recv", offset + call.start,
                offset + call.end, static_cast<std::int64_t>(call.round),
                round_ids[call.round], lane);
    }
  }
}

/// Per-layer net/dist metrics of the traced passes.
void socket_layer_metrics(const std::vector<SocketPass>& traced,
                          std::map<std::string, double>& values) {
  struct Kind {
    double rounds = 0.0;
    double send_s = 0.0;
    double recv_s = 0.0;
    double frames = 0.0;
    double bytes = 0.0;
    std::vector<double> send_ms;
    double measured = 0.0;
    double predicted = 0.0;
  };
  Kind kinds[2];  // [0] one-bit, [1] flush
  double self_s = 0.0;
  double rounds_total = 0.0;
  double rank_wall = 0.0;
  double job_wall = 0.0;
  for (const SocketPass& pass : traced) {
    const std::size_t rounds = pass.ranks.front().result.rounds.size();
    for (std::size_t t = 0; t < rounds; ++t) {
      kinds[pass.ranks.front().result.rounds[t].full_precision ? 1 : 0]
          .rounds += 1.0;
    }
    rounds_total += static_cast<double>(rounds);
    double first_start = pass.ranks.front().start;
    double last_end = pass.ranks.front().end;
    for (const RankRun& run : pass.ranks) {
      first_start = std::min(first_start, run.start);
      last_end = std::max(last_end, run.end);
      rank_wall += run.end - run.start;
      std::vector<double> net_in_round(rounds, 0.0);
      for (const Call& call : run.timed->calls()) {
        Kind& kind =
            kinds[run.result.rounds[call.round].full_precision ? 1 : 0];
        const double seconds = call.end - call.start;
        net_in_round[call.round] += seconds;
        if (call.send) {
          kind.send_s += seconds;
          kind.frames += 1.0;
          kind.bytes += static_cast<double>(call.bytes);
          kind.send_ms.push_back(1e3 * seconds);
        } else {
          kind.recv_s += seconds;
        }
      }
      const std::vector<double>& starts = run.timed->round_start();
      for (std::size_t t = 0; t < rounds; ++t) {
        const double end = t + 1 < rounds ? starts[t + 1] : run.end;
        self_s += (end - starts[t]) - net_in_round[t];
        const marsit::dist::RoundReport& report = run.result.rounds[t];
        Kind& kind = kinds[report.full_precision ? 1 : 0];
        kind.measured += report.measured_comm_seconds;
        kind.predicted += report.predicted_comm_seconds;
      }
    }
    job_wall += static_cast<double>(pass.ranks.size()) *
                (last_end - first_start);
  }
  const double net_s =
      kinds[0].send_s + kinds[0].recv_s + kinds[1].send_s + kinds[1].recv_s;
  std::printf("socket layers (host ms per round, summed over ranks): "
              "net.send+recv_wait %.3f, dist.self %.3f\n",
              1e3 * net_s / rounds_total, 1e3 * self_s / rounds_total);
  const char* suffix[2] = {".onebit", ".flush"};
  for (int k = 0; k < 2; ++k) {
    const Kind& kind = kinds[k];
    const std::string s = suffix[k];
    if (kind.rounds == 0.0) {
      continue;
    }
    values["net.send_s" + s] = kind.send_s / kind.rounds;
    values["net.recv_wait_s" + s] = kind.recv_s / kind.rounds;
    values["net.send_ms.p50" + s] =
        kind.send_ms.empty() ? 0.0 : median(kind.send_ms);
    values["net.frames" + s] = kind.frames / kind.rounds;
    values["net.payload_bytes" + s] = kind.bytes / kind.rounds;
    values["net.goodput_mb_per_s" + s] =
        kind.send_s > 0.0 ? kind.bytes / kind.send_s / 1e6 : 0.0;
    values["dist.measured_over_predicted" + s] =
        kind.predicted > 0.0 ? kind.measured / kind.predicted : 0.0;
  }
  values["dist.self_s"] = self_s / rounds_total;
  values["trace.coverage"] = rank_wall / job_wall;
}

}  // namespace

RunOutcome run_socket_workload(const RunOptions& options) {
  const SimJob job = make_sim_job("socket-ring", options.seed);
  const marsit::dist::WorkerConfig config = worker_config(job);
  const std::size_t rounds = job.trainer.rounds;
  const std::size_t d = job.factory().param_count();
  const std::size_t passes =
      passes_for(options.seconds, job.nominal_pass_seconds);
  RunOutcome out;

  // The simulator twin first: its digest is the reference every rank of
  // every pass must reproduce, and it supplies eval_loss.
  const TrainerPass reference = run_trainer_pass(job, true);
  if (reference.diverged || reference.rounds != rounds) {
    out.fail("the simulator reference diverged");
  }

  std::vector<double> setup;
  std::vector<double> rate;
  std::vector<double> periods_ms;
  std::vector<double> traced_rate;
  std::vector<SocketPass> traced;
  std::uint64_t wire_bytes = 0;
  const auto measure = [&](bool trace) {
    SocketPass pass = run_socket_pass(job, config, trace);
    out.attempted += rounds;
    const std::string error = check_pass(pass, reference.digest, d, rounds);
    if (!error.empty()) {
      out.fail(error);
      return;
    }
    const double r = static_cast<double>(rounds) / pass.train_seconds;
    if (trace) {
      traced_rate.push_back(r);
      traced.push_back(std::move(pass));
      return;
    }
    setup.push_back(pass.setup_seconds);
    rate.push_back(r);
    wire_bytes = 0;
    for (const RankRun& run : pass.ranks) {
      wire_bytes += run.socket->payload_bytes_sent();
    }
    const std::vector<double>& starts =
        pass.ranks.front().timed->round_start();
    for (std::size_t t = 1; t < starts.size(); ++t) {
      periods_ms.push_back(1e3 * (starts[t] - starts[t - 1]));
    }
  };

  if (!options.trace) {
    for (std::size_t p = 0; p < passes; ++p) {
      measure(false);
    }
  } else {
    // Untraced and traced meshes alternate; the simulator twin's traced
    // driver covers the data, nn, parallel and core layers the ranks run.
    SpanTrace trace;
    for (std::size_t p = 0; p < std::max<std::size_t>(1, passes / 2); ++p) {
      measure(false);
      measure(true);
    }
    for (const SocketPass& pass : traced) {
      add_socket_spans(pass, trace);
    }
    const DriverPass driven = run_traced_driver(job, trace);
    if (driven.digest != reference.digest) {
      out.fail("traced driver digest differs from train()'s");
    }
    std::printf("trace: %zu simulator-twin rounds below %.0f%% span "
                "coverage\n",
                driven.dark_rounds.size(), 100.0 * kMinCoverage);
    sim_layer_metrics(job, trace, out.values);
    if (!traced.empty()) {
      socket_layer_metrics(traced, out.values);
    }
    if (!rate.empty() && !traced_rate.empty()) {
      out.values["trace.overhead_ratio"] = median(traced_rate) / median(rate);
    }
    if (!options.trace_out.empty() &&
        !trace.write_chrome_json(options.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
    }
  }
  if (rate.empty()) {
    return out;
  }
  out.put_round_metrics(rate, setup, periods_ms);
  out.values["wire_bytes_per_round"] =
      static_cast<double>(wire_bytes) / static_cast<double>(rounds);
  out.values["eval_loss"] = reference.eval_loss;
  return out;
}

}  // namespace perfbench
