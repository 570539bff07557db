// Distributed Marsit worker — one rank of a real multi-process (or
// multi-thread) training run over a Transport (DESIGN.md §14).
//
// Each rank owns a full model replica and runs the exact per-round math of
// DistributedTrainer + MarsitSync: same sampler streams (sim/trainer.hpp's
// public seed salts), same local-optimizer transform, same ⊙ reduction.  A
// run over SimTransport or SocketTransport therefore finishes with
// parameters bit-identical to the simulator's — the cross-backend
// determinism contract tests/dist_cross_backend_test pins via FNV-1a param
// digests.
//
// One-bit rounds run the paper's schedule at the paper's wire volume:
// per-segment independently seeded fold chains (core/segmented_fold.hpp)
// let each rank fold only the segments it owns, so a ring round moves
// exactly 2(M−1)·D sign bits — reduce-scatter then all-gather.  The torus
// runs the same two phases per dimension (row RS, column RS, column AG, row
// AG); the parameter server folds at a colocated rank-0 server and
// broadcasts; the binomial tree reduces up and broadcasts down.  All four
// total 2(M−1)·D payload bits per one-bit round.
//
// Full-precision flush rounds all-gather every rank's float update instead
// (float summation is order-sensitive, so the flush keeps the single
// local-mean ordering everywhere); for the PS and tree paradigms that
// all-gather routes over the ring — the fold structure, not the gather
// route, is what distinguishes those paradigms' aggregates.
//
// The α–β prediction reported per round replays the exact hop schedule this
// backend ran on a fresh NetworkSim, so RoundReport::total_wire_bits equals
// the sum of every rank's measured payload bits bit-for-bit — the invariant
// tests/dist_wire_volume_test pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/sync_strategy.hpp"
#include "data/dataset.hpp"
#include "net/cost_model.hpp"
#include "net/transport.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace marsit::dist {

struct WorkerConfig {
  std::size_t batch_size_per_worker = 32;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  float eta_l = 0.05f;
  /// Per-worker gradient clipping before the local optimizer (0 disables);
  /// same semantics as TrainerConfig::clip_grad_norm.
  float clip_grad_norm = 0.0f;
  std::size_t rounds = 10;
  /// Seeds TrainerConfig::seed / SyncConfig::seed would carry in the
  /// simulator run this worker must match.
  std::uint64_t trainer_seed = 7;
  std::uint64_t sync_seed = 7;
  /// Any of kRing / kTorus2d / kParameterServer / kTree.
  MarParadigm paradigm = MarParadigm::kRing;
  std::size_t torus_rows = 0;
  std::size_t torus_cols = 0;
  /// Unread; see SyncMode.
  SyncMode sync_mode = SyncMode::kReduceScatter;
  MarsitOptions options;
  /// Unread: the fold's rng grid is the fabric segment partition, not a
  /// chunk grid.  Remains only because the wall-clock benchmark sets it.
  std::size_t shard_chunk_elements = std::size_t{1} << 16;
  /// Prices the per-round α–β prediction reported next to measured
  /// wall-clock.
  CostModel cost_model;
};

struct RoundReport {
  std::size_t round = 0;
  bool full_precision = false;
  /// Host wall-clock spent in this rank's communication phase.
  double measured_comm_seconds = 0.0;
  /// α–β prediction for the whole round's collective (all ranks), from a
  /// NetworkSim replay of the hop schedule this backend ran.
  double predicted_comm_seconds = 0.0;
  /// Payload bits this rank put on the wire this round.
  double wire_bits = 0.0;
  /// Payload bits ALL ranks put on the wire this round, from the same
  /// NetworkSim replay as predicted_comm_seconds.  Identical on every rank
  /// and bit-for-bit equal to the sum of per-rank wire_bits: 2(M−1)·D sign
  /// bits on one-bit rounds.
  double total_wire_bits = 0.0;
};

struct WorkerResult {
  /// FNV-1a digest over the final parameter bytes — the cross-backend
  /// equality witness.
  std::uint64_t param_digest = 0;
  std::vector<RoundReport> rounds;
};

/// Runs `config.rounds` rounds of Marsit training as rank
/// `transport.rank()` of `transport.world_size()` workers.  Blocking; every
/// rank of the job must call this with identical config, dataset and model
/// factory.
WorkerResult run_marsit_worker(Transport& transport, const Dataset& dataset,
                               const std::function<Sequential()>& model_factory,
                               const WorkerConfig& config);

}  // namespace marsit::dist
