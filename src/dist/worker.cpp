#include "dist/worker.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <numeric>

#include "ckpt/snapshot.hpp"
#include "compress/bit_vector.hpp"
#include "compress/kernels.hpp"
#include "core/one_bit.hpp"
#include "core/segmented_fold.hpp"
#include "net/network_sim.hpp"
#include "nn/loss.hpp"
#include "sim/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace marsit::dist {

namespace {

// marsit-lint: allow(determinism): measured wall-clock next to the α–β
// prediction is this backend's deliverable (ISSUE: real-socket timing)
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

std::vector<std::uint8_t> bytes_of(const void* data, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  std::memcpy(bytes.data(), data, size);
  return bytes;
}

void send_words(Transport& transport, std::size_t peer, std::uint32_t tag,
                std::span<const std::uint64_t> words, double& sent_bytes) {
  const std::size_t bytes = words.size() * sizeof(std::uint64_t);
  sent_bytes += static_cast<double>(bytes);
  transport.send(peer, tag,
                 {reinterpret_cast<const std::uint8_t*>(words.data()), bytes});
}

void recv_words(Transport& transport, std::size_t peer, std::uint32_t tag,
                std::span<std::uint64_t> into) {
  const std::vector<std::uint8_t> blob = transport.recv(peer, tag);
  MARSIT_CHECK(blob.size() == into.size() * sizeof(std::uint64_t))
      << "word payload " << blob.size() << " bytes, expected "
      << into.size() * sizeof(std::uint64_t);
  std::memcpy(into.data(), blob.data(), blob.size());
}

/// Ring all-gather over `members` (global ranks in ring order): on entry
/// only blobs[my_pos] is filled; on exit every position holds that member's
/// payload.  L−1 steps, each rotating the newest blob one hop rightward.
void ring_all_gather(Transport& transport,
                     const std::vector<std::size_t>& members,
                     std::uint32_t tag,
                     std::vector<std::vector<std::uint8_t>>& blobs,
                     double& sent_bytes) {
  const std::size_t L = members.size();
  const auto self = std::find(members.begin(), members.end(),
                              transport.rank());
  MARSIT_CHECK(self != members.end())
      << "rank " << transport.rank() << " is not a member of this ring";
  const std::size_t my_pos =
      static_cast<std::size_t>(self - members.begin());
  const std::size_t right = members[(my_pos + 1) % L];
  const std::size_t left = members[(my_pos + L - 1) % L];
  for (std::size_t s = 0; s + 1 < L; ++s) {
    const std::size_t send_pos = (my_pos + L - s) % L;
    const std::size_t recv_pos = (my_pos + L - 1 - s) % L;
    const std::vector<std::uint8_t>& outgoing = blobs[send_pos];
    sent_bytes += static_cast<double>(outgoing.size());
    transport.send(right, tag, {outgoing.data(), outgoing.size()});
    blobs[recv_pos] = transport.recv(left, tag);
  }
}

std::vector<std::size_t> ring_members(std::size_t m) {
  std::vector<std::size_t> members(m);
  std::iota(members.begin(), members.end(), std::size_t{0});
  return members;
}

std::vector<std::size_t> row_members(std::size_t row, std::size_t cols) {
  std::vector<std::size_t> members(cols);
  std::iota(members.begin(), members.end(), row * cols);
  return members;
}

std::vector<std::size_t> col_members(std::size_t col, std::size_t rows,
                                     std::size_t cols) {
  std::vector<std::size_t> members(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    members[r] = r * cols + col;
  }
  return members;
}

/// All-gathers this rank's `own` blob so `out[g]` holds rank g's blob for
/// every g.  The torus gathers within the row then bundles along the
/// column; every other paradigm routes over the full ring — the gather
/// route does not affect what each rank ends up holding, and the PS/tree
/// distinction lives entirely in the fold structure.
void all_gather_blobs(Transport& transport, const WorkerConfig& config,
                      std::uint32_t tag, std::vector<std::uint8_t> own,
                      std::size_t blob_bytes,
                      std::vector<std::vector<std::uint8_t>>& out,
                      double& sent_bytes) {
  const std::size_t m = transport.world_size();
  const std::size_t rank = transport.rank();
  MARSIT_CHECK(own.size() == blob_bytes) << "blob extent mismatch";
  if (config.paradigm != MarParadigm::kTorus2d) {
    out.assign(m, {});
    out[rank] = std::move(own);
    ring_all_gather(transport, ring_members(m), tag, out, sent_bytes);
    return;
  }
  // Torus: all-gather within the row, then all-gather the whole-row
  // bundles along the column — the rows-then-columns structure of the
  // torus collective, with phase B moving cols-times larger payloads.
  const std::size_t rows = config.torus_rows;
  const std::size_t cols = config.torus_cols;
  const std::size_t row = rank / cols;
  const std::size_t col = rank % cols;
  std::vector<std::vector<std::uint8_t>> row_blobs(cols);
  row_blobs[col] = std::move(own);
  ring_all_gather(transport, row_members(row, cols), tag, row_blobs,
                  sent_bytes);
  std::vector<std::uint8_t> bundle;
  bundle.reserve(cols * blob_bytes);
  for (const auto& blob : row_blobs) {
    bundle.insert(bundle.end(), blob.begin(), blob.end());
  }
  std::vector<std::vector<std::uint8_t>> bundles(rows);
  bundles[row] = std::move(bundle);
  ring_all_gather(transport, col_members(col, rows, cols), tag | 1u, bundles,
                  sent_bytes);
  out.assign(m, {});
  for (std::size_t g = 0; g < m; ++g) {
    const std::size_t src_row = g / cols;
    const std::size_t src_col = g % cols;
    const auto begin =
        bundles[src_row].begin() +
        static_cast<std::ptrdiff_t>(src_col * blob_bytes);
    out[g].assign(begin, begin + static_cast<std::ptrdiff_t>(blob_bytes));
  }
}

// --- reduce-scatter data planes (one-bit rounds) ---------------------------
//
// Every schedule below carries exactly 2(M−1)·W words of payload per round
// (W = sign words) and folds with the segment-seeded rng discipline of
// core/segmented_fold.hpp, so the aggregate is bit-identical to the
// trainer's marsit_fold_signs_segmented.  Zero-length segments (W < M) are
// skipped on both ends — no frame, no rng.

/// One ring reduce-scatter pass over `len` members, this rank at position
/// `pos` with neighbours `right` and `left`.  `own` (this rank's words of
/// the reduced region) splits into word_segment(own.size(), len, ·); at step
/// t this rank sends its partial of segment (pos−t) mod len rightward and
/// folds the arriving partial of segment (pos−t−1) mod len into its own
/// words — op t of that segment's chain, seed id seed_base + segment,
/// weights ((t+1)·unit, unit).  Returns the finalized segment (pos+1) mod
/// len, which then stands for len·unit workers.
std::vector<std::uint64_t> ring_reduce_scatter(
    Transport& transport, std::size_t right, std::size_t left,
    std::size_t pos, std::size_t len, std::uint32_t tag,
    std::span<const std::uint64_t> own, std::uint64_t round_seed,
    std::size_t seed_base, std::size_t unit, double& sent_bytes) {
  const std::size_t num_words = own.size();
  std::vector<std::uint64_t> partial;
  std::vector<std::uint64_t> incoming;
  for (std::size_t t = 0; t + 1 < len; ++t) {
    const WordSegment ss = word_segment(num_words, len, (pos + len - t) % len);
    if (t == 0) {
      const auto first = own.subspan(ss.begin, ss.count);
      partial.assign(first.begin(), first.end());
    }
    if (ss.count > 0) {
      send_words(transport, right, tag, partial, sent_bytes);
    }
    const std::size_t recv_seg = (pos + 2 * len - t - 1) % len;
    const WordSegment rs = word_segment(num_words, len, recv_seg);
    incoming.resize(rs.count);
    if (rs.count > 0) {
      recv_words(transport, left, tag, incoming);
      Rng rng = segment_op_rng(
          segment_fold_seed(round_seed, seed_base + recv_seg), t);
      one_bit_combine_words(incoming, (t + 1) * unit,
                            own.subspan(rs.begin, rs.count), unit, rng);
    }
    partial = std::move(incoming);
    incoming = {};
  }
  return partial;
}

/// The matching all-gather pass: on entry `words` holds this rank's
/// finalized segment (pos+1) mod len of word_segment(words.size(), len, ·);
/// on exit it holds every segment.
void ring_all_gather_words(Transport& transport, std::size_t right,
                           std::size_t left, std::size_t pos, std::size_t len,
                           std::uint32_t tag, std::span<std::uint64_t> words,
                           double& sent_bytes) {
  for (std::size_t t = 0; t + 1 < len; ++t) {
    const WordSegment ss =
        word_segment(words.size(), len, (pos + 1 + 2 * len - t) % len);
    if (ss.count > 0) {
      send_words(transport, right, tag, words.subspan(ss.begin, ss.count),
                 sent_bytes);
    }
    const WordSegment rs =
        word_segment(words.size(), len, (pos + 2 * len - t) % len);
    if (rs.count > 0) {
      recv_words(transport, left, tag, words.subspan(rs.begin, rs.count));
    }
  }
}

/// Ring: reduce-scatter over the word_segment(W, M, ·) partition (seed id =
/// segment), then all-gather of the finalized segments.
void ring_rs_ag(Transport& transport, std::uint32_t tag,
                std::span<const std::uint64_t> own,
                std::span<std::uint64_t> result, std::uint64_t round_seed,
                double& sent_bytes) {
  const std::size_t m = transport.world_size();
  const std::size_t r = transport.rank();
  const std::size_t right = (r + 1) % m;
  const std::size_t left = (r + m - 1) % m;
  const std::vector<std::uint64_t> fin = ring_reduce_scatter(
      transport, right, left, r, m, tag, own, round_seed, 0, 1, sent_bytes);
  const WordSegment fs = word_segment(own.size(), m, (r + 1) % m);
  std::copy(fin.begin(), fin.end(), result.subspan(fs.begin).begin());
  ring_all_gather_words(transport, right, left, r, m, tag + 1u, result,
                        sent_bytes);
}

/// Torus: the ring's two phases per dimension.  Phase A row-reduce-scatters
/// the word_segment(W, cols, ·) partition (segment seed id row·cols + j);
/// phase B column-reduce-scatters the owned segment's word_segment(·, rows,
/// ·) sub-partition with whole-row weights (seed id M + col·rows + i);
/// phases C/D all-gather back up, column then row.  Tags tag..tag+3 keep
/// the four phases on independent FIFO streams.
void torus_rs_ag(Transport& transport, const WorkerConfig& config,
                 std::uint32_t tag, std::span<const std::uint64_t> own,
                 std::span<std::uint64_t> result, std::uint64_t round_seed,
                 double& sent_bytes) {
  const std::size_t m = transport.world_size();
  const std::size_t rows = config.torus_rows;
  const std::size_t cols = config.torus_cols;
  const std::size_t rank = transport.rank();
  const std::size_t row = rank / cols;
  const std::size_t col = rank % cols;
  const std::size_t row_right = row * cols + (col + 1) % cols;
  const std::size_t row_left = row * cols + (col + cols - 1) % cols;
  const std::size_t col_down = ((row + 1) % rows) * cols + col;
  const std::size_t col_up = ((row + rows - 1) % rows) * cols + col;

  // Phase A: this rank ends up owning the whole-row aggregate (weight cols)
  // of segment (col+1) mod cols.
  const std::vector<std::uint64_t> row_agg =
      ring_reduce_scatter(transport, row_right, row_left, col, cols, tag, own,
                          round_seed, row * cols, 1, sent_bytes);
  // Phase B: every contribution stands for a whole row, so weights are
  // multiples of cols; this rank finalizes sub-segment (row+1) mod rows of
  // its segment at weight M.
  const std::vector<std::uint64_t> fin =
      ring_reduce_scatter(transport, col_down, col_up, row, rows, tag + 1u,
                          row_agg, round_seed, m + col * rows, cols,
                          sent_bytes);
  const WordSegment seg = word_segment(own.size(), cols, (col + 1) % cols);
  const std::span<std::uint64_t> seg_words =
      result.subspan(seg.begin, seg.count);
  const WordSegment sub = word_segment(seg.count, rows, (row + 1) % rows);
  std::copy(fin.begin(), fin.end(), seg_words.subspan(sub.begin).begin());
  // Phases C and D: column all-gather of the sub-segments, then row
  // all-gather of the segments.
  ring_all_gather_words(transport, col_down, col_up, row, rows, tag + 2u,
                        seg_words, sent_bytes);
  ring_all_gather_words(transport, row_right, row_left, col, cols, tag + 3u,
                        result, sent_bytes);
}

/// Parameter server, colocated at rank 0: workers push their sign words up,
/// the server chain-folds in rank order (the trainer fold's PS discipline:
/// one whole-payload segment, one derived generator per hop) and broadcasts
/// the aggregate — (M−1)·W words up + (M−1)·W down.
void ps_rs_ag(Transport& transport, std::uint32_t tag,
              std::span<const std::uint64_t> own,
              std::span<std::uint64_t> result, std::uint64_t round_seed,
              double& sent_bytes) {
  const std::size_t m = transport.world_size();
  const std::size_t rank = transport.rank();
  const std::uint32_t down_tag = tag + 1u;
  if (rank == 0) {
    std::copy(own.begin(), own.end(), result.begin());
    const std::uint64_t seg_seed = segment_fold_seed(round_seed, 0);
    std::vector<std::uint64_t> incoming(own.size());
    for (std::size_t k = 0; k + 1 < m; ++k) {
      recv_words(transport, k + 1, tag, incoming);
      Rng rng = segment_op_rng(seg_seed, k);
      one_bit_combine_words(result, k + 1, incoming, 1, rng);
    }
    for (std::size_t g = 1; g < m; ++g) {
      send_words(transport, g, down_tag, result, sent_bytes);
    }
  } else {
    send_words(transport, 0, tag, own, sent_bytes);
    recv_words(transport, 0, down_tag, result);
  }
}

/// Binomial tree: reduce up along tree_merge_schedule (every rank replays
/// the same enumeration, so src/dst agree on each merge's op ordinal), then
/// broadcast rank 0's aggregate down the mirrored tree — (M−1)·W words each
/// way.
void tree_rs_ag(Transport& transport, std::uint32_t tag,
                std::span<const std::uint64_t> own,
                std::span<std::uint64_t> result, std::uint64_t round_seed,
                double& sent_bytes) {
  const std::size_t m = transport.world_size();
  const std::size_t rank = transport.rank();
  std::copy(own.begin(), own.end(), result.begin());
  const std::uint64_t seg_seed = segment_fold_seed(round_seed, 0);
  std::vector<std::uint64_t> incoming(own.size());
  for (const TreeMerge& merge : tree_merge_schedule(m)) {
    if (merge.src == rank) {
      send_words(transport, merge.dst, tag, result, sent_bytes);
    } else if (merge.dst == rank) {
      recv_words(transport, merge.src, tag, incoming);
      Rng rng = segment_op_rng(seg_seed, merge.op);
      one_bit_combine_words(result, merge.dst_weight, incoming,
                            merge.src_weight, rng);
    }
  }
  const std::uint32_t down_tag = tag + 1u;
  for (std::size_t stride = std::bit_floor(m - 1); stride >= 1;
       stride >>= 1) {
    if (rank % (2 * stride) == 0 && rank + stride < m) {
      send_words(transport, rank + stride, down_tag, result, sent_bytes);
    } else if (rank % (2 * stride) == stride) {
      recv_words(transport, rank - stride, down_tag, result);
    }
  }
}

// --- α–β prediction ---------------------------------------------------------
//
// Each predictor replays the exact hop schedule its data plane runs on a
// fresh NetworkSim: predicted seconds = the latest rank-ready time, and
// net.total_bytes() is by construction the sum of every rank's measured
// payload bytes — RoundReport::total_wire_bits comes from here.

struct RoundPrediction {
  double seconds = 0.0;
  double total_bits = 0.0;
};

/// Replays one ring all-gather's hop schedule on `net` (per-rank readiness
/// in `ready`, indexed by global rank).
void predict_ring(NetworkSim& net, const std::vector<std::size_t>& members,
                  double bytes, std::vector<double>& ready) {
  const std::size_t L = members.size();
  std::vector<double> done(L, 0.0);
  for (std::size_t s = 0; s + 1 < L; ++s) {
    for (std::size_t i = 0; i < L; ++i) {
      done[i] = net.transfer(members[i], members[(i + 1) % L], bytes,
                             ready[members[i]]);
    }
    for (std::size_t i = 0; i < L; ++i) {
      // A member starts its next hop once its own send retired and the
      // incoming blob (from its left neighbour) has landed.
      ready[members[i]] = std::max(done[i], done[(i + L - 1) % L]);
    }
  }
}

/// Replays one segmented ring pass over `members`: at step t, position i
/// sends the segment indexed (i + offset − t) mod L, whose byte size
/// `seg_bytes` reports.  offset 0 is a reduce-scatter pass (sends start at
/// the own segment), offset 1 an all-gather pass (sends start at the
/// finalized segment) — exactly the schedules the data planes above run.
template <typename SegBytes>
void predict_ring_pass(NetworkSim& net,
                       const std::vector<std::size_t>& members,
                       std::size_t offset, SegBytes seg_bytes,
                       std::vector<double>& ready) {
  const std::size_t L = members.size();
  std::vector<double> done(L, 0.0);
  for (std::size_t t = 0; t + 1 < L; ++t) {
    for (std::size_t i = 0; i < L; ++i) {
      const double bytes = seg_bytes((i + offset + 2 * L - t) % L);
      done[i] = bytes == 0.0
                    ? ready[members[i]]
                    : net.transfer(members[i], members[(i + 1) % L], bytes,
                                   ready[members[i]]);
    }
    for (std::size_t i = 0; i < L; ++i) {
      ready[members[i]] = std::max(done[i], done[(i + L - 1) % L]);
    }
  }
}

RoundPrediction predict_round(const WorkerConfig& config, std::size_t m,
                              std::size_t d, std::size_t num_words,
                              bool full_precision) {
  NetworkSim net(m, config.cost_model);
  std::vector<double> ready(m, 0.0);
  const double word_bytes =
      static_cast<double>(num_words * sizeof(std::uint64_t));
  if (full_precision) {
    const double blob = static_cast<double>(d * sizeof(float));
    if (config.paradigm == MarParadigm::kTorus2d) {
      const std::size_t rows = config.torus_rows;
      const std::size_t cols = config.torus_cols;
      for (std::size_t r = 0; r < rows; ++r) {
        predict_ring(net, row_members(r, cols), blob, ready);
      }
      for (std::size_t c = 0; c < cols; ++c) {
        predict_ring(net, col_members(c, rows, cols),
                     blob * static_cast<double>(cols), ready);
      }
    } else {
      predict_ring(net, ring_members(m), blob, ready);
    }
  } else if (config.paradigm == MarParadigm::kParameterServer) {
    double server_ready = 0.0;
    for (std::size_t g = 1; g < m; ++g) {
      server_ready =
          std::max(server_ready, net.transfer(g, 0, word_bytes, 0.0, true));
    }
    ready[0] = server_ready;
    for (std::size_t g = 1; g < m; ++g) {
      ready[g] = net.transfer(0, g, word_bytes, server_ready, true);
    }
  } else if (config.paradigm == MarParadigm::kTree) {
    for (const TreeMerge& merge : tree_merge_schedule(m)) {
      const double arrive =
          net.transfer(merge.src, merge.dst, word_bytes, ready[merge.src]);
      ready[merge.dst] = std::max(ready[merge.dst], arrive);
    }
    for (std::size_t stride = std::bit_floor(m - 1); stride >= 1;
         stride >>= 1) {
      for (std::size_t r = 0; r + stride < m; r += 2 * stride) {
        ready[r + stride] =
            net.transfer(r, r + stride, word_bytes, ready[r]);
      }
    }
  } else if (config.paradigm == MarParadigm::kTorus2d) {
    const std::size_t rows = config.torus_rows;
    const std::size_t cols = config.torus_cols;
    const auto seg_of = [&](std::size_t j) {
      return static_cast<double>(word_segment(num_words, cols, j).count *
                                 sizeof(std::uint64_t));
    };
    for (std::size_t r = 0; r < rows; ++r) {
      predict_ring_pass(net, row_members(r, cols), 0, seg_of, ready);
    }
    // Column reduce-scatter (offset 0), then column all-gather (offset 1).
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      for (std::size_t c = 0; c < cols; ++c) {
        const WordSegment seg_j =
            word_segment(num_words, cols, (c + 1) % cols);
        const auto sub_of = [&](std::size_t i) {
          return static_cast<double>(
              word_segment(seg_j.count, rows, i).count *
              sizeof(std::uint64_t));
        };
        predict_ring_pass(net, col_members(c, rows, cols), offset, sub_of,
                          ready);
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      predict_ring_pass(net, row_members(r, cols), 1, seg_of, ready);
    }
  } else {
    const auto seg_of = [&](std::size_t s) {
      return static_cast<double>(word_segment(num_words, m, s).count *
                                 sizeof(std::uint64_t));
    };
    predict_ring_pass(net, ring_members(m), 0, seg_of, ready);
    predict_ring_pass(net, ring_members(m), 1, seg_of, ready);
  }
  RoundPrediction prediction;
  prediction.seconds = *std::max_element(ready.begin(), ready.end());
  prediction.total_bits = net.total_bytes() * 8.0;
  return prediction;
}

}  // namespace

WorkerResult run_marsit_worker(Transport& transport, const Dataset& dataset,
                               const std::function<Sequential()>& model_factory,
                               const WorkerConfig& config) {
  const std::size_t m = transport.world_size();
  const std::size_t rank = transport.rank();
  MARSIT_CHECK(m >= 2) << "distributed run needs at least 2 workers";
  if (config.paradigm == MarParadigm::kTorus2d) {
    MARSIT_CHECK(config.torus_rows >= 2 && config.torus_cols >= 2 &&
                 config.torus_rows * config.torus_cols == m)
        << "torus " << config.torus_rows << "x" << config.torus_cols
        << " does not tile " << m << " workers";
  }
  MARSIT_CHECK(model_factory != nullptr) << "null model factory";

  // Exactly the simulator's streams: same sampler seed salt, same model
  // init salt, so rank r's gradients equal simulated worker r's.
  const ShardedSampler sampler(
      dataset, m, config.batch_size_per_worker, kTrainSampleRange,
      kTestSampleRange, derive_seed(config.trainer_seed, kSamplerSeedSalt));
  Sequential model = model_factory();
  Rng init_rng(derive_seed(config.trainer_seed, kModelInitSeedSalt));
  model.init(init_rng);
  const std::size_t d = model.param_count();
  MARSIT_CHECK(d > 0) << "model has no parameters";
  MARSIT_CHECK(model.in_size() == dataset.sample_size() &&
               model.out_size() == dataset.num_classes())
      << "model shape does not match the dataset";

  auto optimizer = make_optimizer(config.optimizer);
  Tensor grad(d);
  Tensor update(d);
  Tensor adjusted(d);
  Tensor compensation(d);
  Tensor global(d);
  Tensor dlogits;
  Batch batch;
  const std::size_t num_words = kernels::words_for(d);
  const std::size_t k = config.options.full_precision_period;

  WorkerResult result;
  result.rounds.reserve(config.rounds);
  for (std::size_t t = 0; t < config.rounds; ++t) {
    // --- local step (DistributedTrainer::worker_round, local_steps == 1) --
    sampler.worker_batch(rank, t, batch);
    model.zero_grads();
    const auto logits = model.forward(batch.inputs.span(), batch.size());
    if (dlogits.size() != logits.size()) {
      dlogits = Tensor(logits.size());
    }
    softmax_cross_entropy(logits, {batch.labels.data(), batch.labels.size()},
                          dataset.num_classes(), dlogits.span());
    model.backward(dlogits.span(), batch.size());
    model.copy_grads_into(grad.span());
    if (config.clip_grad_norm > 0.0f) {
      const float norm = l2_norm(grad.span());
      if (norm > config.clip_grad_norm) {
        scale(grad.span(), config.clip_grad_norm / norm);
      }
    }
    optimizer->transform(grad.span(), update.span());
    scale(update.span(), config.eta_l);

    // --- synchronize (MarsitSync::do_synchronize, full membership) --------
    const bool full_precision = k > 0 && t % k == 0;
    RoundReport report;
    report.round = t;
    report.full_precision = full_precision;
    // Four tag streams per round: the one-bit planes use +0..+3 (ring
    // RS/AG, the torus' four phases, PS/tree up/down); the flush all-gather
    // uses +0 and +1 (torus row/column rings).
    const std::uint32_t tag = static_cast<std::uint32_t>(t << 2);
    double sent_bytes = 0.0;
    const WallClock::time_point comm_start = WallClock::now();

    add(update.span(), compensation.span(), adjusted.span());
    if (full_precision) {
      std::vector<std::vector<std::uint8_t>> gathered;
      all_gather_blobs(transport, config, tag,
                       bytes_of(adjusted.span().data(), d * sizeof(float)),
                       d * sizeof(float), gathered, sent_bytes);
      std::vector<Tensor> others(m);
      WorkerSpans spans;
      spans.reserve(m);
      for (std::size_t g = 0; g < m; ++g) {
        others[g] = Tensor(d);
        std::memcpy(others[g].span().data(), gathered[g].data(),
                    d * sizeof(float));
        spans.push_back(others[g].span());
      }
      aggregate_mean(spans, global.span());
      if (config.options.full_precision_max_norm > 0.0f) {
        const float norm = l2_norm(global.span());
        if (norm > config.options.full_precision_max_norm) {
          scale(global.span(), config.options.full_precision_max_norm / norm);
        }
      }
      compensation.zero();
    } else {
      BitVector own(d);
      kernels::pack_signs_words(adjusted.span(), own.words());
      const std::uint64_t round_seed = derive_seed(config.sync_seed, t);
      BitVector folded(d);
      switch (config.paradigm) {
        case MarParadigm::kTorus2d:
          torus_rs_ag(transport, config, tag, own.words(), folded.words(),
                      round_seed, sent_bytes);
          break;
        case MarParadigm::kParameterServer:
          ps_rs_ag(transport, tag, own.words(), folded.words(), round_seed,
                   sent_bytes);
          break;
        case MarParadigm::kTree:
          tree_rs_ag(transport, tag, own.words(), folded.words(), round_seed,
                     sent_bytes);
          break;
        case MarParadigm::kRing:
        default:
          ring_rs_ag(transport, tag, own.words(), folded.words(), round_seed,
                     sent_bytes);
          break;
      }
      kernels::unpack_signs_words(folded.words(), config.options.eta_s,
                                  global.span());
      if (config.options.use_compensation) {
        sub(adjusted.span(), global.span(), compensation.span());
      }
    }
    report.measured_comm_seconds = seconds_since(comm_start);
    report.wire_bits = sent_bytes * 8.0;
    const RoundPrediction prediction =
        predict_round(config, m, d, num_words, full_precision);
    report.predicted_comm_seconds = prediction.seconds;
    report.total_wire_bits = prediction.total_bits;

    model.apply_update(global.span());
    result.rounds.push_back(report);
  }

  Tensor params(d);
  model.copy_params_into(params.span());
  result.param_digest =
      ckpt::fnv1a(params.span().data(), d * sizeof(float));
  return result;
}

}  // namespace marsit::dist
