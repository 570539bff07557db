#include "core/segmented_fold.hpp"

#include <algorithm>

#include "core/one_bit.hpp"
#include "util/check.hpp"

namespace marsit {

WordSegment word_segment(std::size_t num_words, std::size_t parts,
                         std::size_t index) {
  MARSIT_CHECK(parts > 0) << "word_segment over zero parts";
  MARSIT_CHECK(index < parts)
      << "word_segment index " << index << " of " << parts;
  const std::size_t base = num_words / parts;
  const std::size_t rem = num_words % parts;
  WordSegment seg;
  seg.begin = index * base + std::min(index, rem);
  seg.count = base + (index < rem ? 1 : 0);
  return seg;
}

std::vector<TreeMerge> tree_merge_schedule(std::size_t count) {
  MARSIT_CHECK(count > 0) << "tree schedule over zero ranks";
  std::vector<TreeMerge> merges;
  std::vector<std::size_t> weights(count, 1);
  std::size_t op = 0;
  for (std::size_t stride = 1; stride < count; stride *= 2) {
    for (std::size_t i = 0; i + stride < count; i += 2 * stride) {
      merges.push_back(
          {i, i + stride, weights[i], weights[i + stride], op++});
      weights[i] += weights[i + stride];
    }
  }
  return merges;
}

std::size_t survivor_torus_rows(std::size_t cols, std::size_t survivors) {
  return cols > 0 && survivors % cols == 0 && survivors / cols >= 2
             ? survivors / cols
             : 0;
}

namespace {

void ring_steps(std::vector<FoldStep>& steps, std::size_t count,
                std::size_t num_words) {
  // Chain for segment s accumulates in signs[s]'s own segment-s words — the
  // buffer the chain-starting rank would hold on the wire.  Chains touch
  // disjoint (vector, word-range) pairs, so their order is immaterial.
  for (std::size_t s = 0; s < count; ++s) {
    const WordSegment seg = word_segment(num_words, count, s);
    if (seg.count == 0) continue;
    for (std::size_t k = 0; k + 1 < count; ++k) {
      steps.push_back({s, (s + k + 1) % count, seg, k + 1, 1, s, k, false});
    }
  }
  // Local image of the all-gather phase: finalized segments move into
  // signs.front() so downstream unpacking reads one vector.
  for (std::size_t s = 1; s < count; ++s) {
    const WordSegment seg = word_segment(num_words, count, s);
    if (seg.count > 0) steps.push_back({0, s, seg, 0, 0, 0, 0, true});
  }
}

void torus_steps(std::vector<FoldStep>& steps, std::size_t rows,
                 std::size_t cols, std::size_t num_words) {
  const std::size_t count = rows * cols;
  // Phase A — row reduce-scatter: within row r, segment j's chain starts at
  // column j and accumulates in signs[r·cols + j].
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      const WordSegment seg = word_segment(num_words, cols, j);
      if (seg.count == 0) continue;
      for (std::size_t k = 0; k + 1 < cols; ++k) {
        steps.push_back({r * cols + j, r * cols + (j + k + 1) % cols, seg,
                         k + 1, 1, r * cols + j, k, false});
      }
    }
  }
  // Phase B — column reduce-scatter: column c owns segment j = (c+1) mod
  // cols after phase A; its rows-sized chains merge whole-row aggregates, so
  // weights are multiples of cols.  Row i's aggregate of segment j lives in
  // signs[i·cols + j] (where its phase-A chain accumulated).
  const auto sub_segment = [&](std::size_t c, std::size_t i) {
    const WordSegment seg = word_segment(num_words, cols, (c + 1) % cols);
    const WordSegment sub = word_segment(seg.count, rows, i);
    return WordSegment{seg.begin + sub.begin, sub.count};
  };
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t j = (c + 1) % cols;
    for (std::size_t i = 0; i < rows; ++i) {
      const WordSegment sub = sub_segment(c, i);
      if (sub.count == 0) continue;
      for (std::size_t k = 0; k + 1 < rows; ++k) {
        steps.push_back({i * cols + j, ((i + k + 1) % rows) * cols + j, sub,
                         (k + 1) * cols, cols, count + c * rows + i, k,
                         false});
      }
    }
  }
  // Local image of phases C/D (column then row all-gather).
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t j = (c + 1) % cols;
    for (std::size_t i = 0; i < rows; ++i) {
      const WordSegment sub = sub_segment(c, i);
      if (sub.count > 0 && i * cols + j != 0) {
        steps.push_back({0, i * cols + j, sub, 0, 0, 0, 0, true});
      }
    }
  }
}

}  // namespace

std::vector<FoldStep> segmented_fold_steps(MarParadigm paradigm,
                                           std::size_t torus_cols,
                                           std::size_t count,
                                           std::size_t num_words) {
  MARSIT_CHECK(count > 0) << "segmented fold over zero ranks";
  std::vector<FoldStep> steps;
  if (count == 1) return steps;
  const WordSegment whole{0, num_words};
  switch (paradigm) {
    case MarParadigm::kTorus2d:
      if (const std::size_t rows = survivor_torus_rows(torus_cols, count)) {
        torus_steps(steps, rows, torus_cols, num_words);
      } else {
        ring_steps(steps, count, num_words);
      }
      break;
    case MarParadigm::kParameterServer:
      // The server chain-folds workers in rank order, one whole-payload
      // segment, one derived generator per hop.
      for (std::size_t k = 0; k + 1 < count; ++k) {
        steps.push_back({0, k + 1, whole, k + 1, 1, 0, k, false});
      }
      break;
    case MarParadigm::kTree:
      for (const TreeMerge& merge : tree_merge_schedule(count)) {
        steps.push_back({merge.dst, merge.src, whole, merge.dst_weight,
                         merge.src_weight, 0, merge.op, false});
      }
      break;
    case MarParadigm::kRing:
      ring_steps(steps, count, num_words);
      break;
  }
  return steps;
}

void seed_fold_rngs(std::span<const FoldStep> steps, std::uint64_t round_seed,
                    std::vector<Rng>& rngs) {
  rngs.resize(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!steps[i].copy) {
      rngs[i] = segment_op_rng(segment_fold_seed(round_seed, steps[i].segment),
                               steps[i].op);
    }
  }
}

void run_fold_steps(std::span<const FoldStep> steps, std::span<Rng> rngs,
                    std::vector<BitVector>& signs, std::size_t w0,
                    std::size_t nw) {
  MARSIT_CHECK(rngs.size() == steps.size())
      << rngs.size() << " generators for " << steps.size() << " fold steps";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const FoldStep& step = steps[i];
    const std::size_t lo = std::max(step.words.begin, w0);
    const std::size_t hi =
        std::min(step.words.begin + step.words.count, w0 + nw);
    if (lo >= hi) continue;
    const auto dst = signs[step.dst].words().subspan(lo, hi - lo);
    const auto src = signs[step.src].words().subspan(lo, hi - lo);
    if (step.copy) {
      std::copy(src.begin(), src.end(), dst.begin());
    } else {
      one_bit_combine_words(dst, step.dst_weight, src, step.src_weight,
                            rngs[i]);
    }
  }
}

void marsit_fold_signs_segmented(MarParadigm paradigm, std::size_t torus_cols,
                                 std::vector<BitVector>& signs,
                                 std::size_t count, std::size_t num_words,
                                 std::uint64_t round_seed) {
  MARSIT_CHECK(count > 0 && count <= signs.size())
      << "segmented fold over " << count << " of " << signs.size();
  const std::vector<FoldStep> steps =
      segmented_fold_steps(paradigm, torus_cols, count, num_words);
  std::vector<Rng> rngs;
  seed_fold_rngs(steps, round_seed, rngs);
  run_fold_steps(steps, rngs, signs, 0, num_words);
}

}  // namespace marsit
