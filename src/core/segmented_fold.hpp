// Segment-seeded ⊙ fold — Marsit's one-bit reduction.
//
// Every (segment, fold-op) pair draws from its own derived generator
// (core/one_bit.hpp: segment_fold_seed / segment_op_rng), so a rank can fold
// exactly the segments it owns in a reduce-scatter schedule — 2(M−1)·D bits
// on the wire, the paper's volume — while all other ranks, and the
// single-process trainer emulating them, reproduce the identical aggregate
// bit-for-bit.
//
// The trainer-side (single-process) replay of the wire schedules run by
// src/dist/worker.cpp is one flat list of FoldSteps per (paradigm, survivor
// count, torus shape, word count), built by segmented_fold_steps:
//
//   ring   reduce-scatter: W words split into `count` segments; segment s's
//          chain starts at rank s and its op k folds at rank (s+k+1) mod
//          count, merging the arriving partial (weight k+1) with that
//          rank's local signs (weight 1).
//   torus  two-level reduce-scatter: row rings over `cols` segments, then
//          column rings over `rows` sub-segments, with whole-row weights
//          (multiples of cols) in the column phase.
//   PS     the server folds workers in rank order over one whole-payload
//          segment.
//   tree   the binomial merge enumeration with a per-merge op ordinal
//          (tree_merge_schedule).
//
// Ring and torus lists end with copy steps — the local image of the
// all-gather phase — so the final aggregate lands in signs.front().
//
// run_fold_steps interprets the list over one word window at a time.  Each
// step's generator lives for the whole round and bernoulli_word draws once
// per word in ascending order, so folding the windows of a partition in
// ascending order is bit-identical to folding the whole range at once —
// which lets MarsitSync run the fold as one stage of its chunk pipeline.
//
// The statistical contract — both Eq. 2 branches unbiased for every segment
// split — is proven in tests/core_one_bit_stat_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/bit_vector.hpp"
#include "core/paradigm.hpp"
#include "util/rng.hpp"

namespace marsit {

/// One word-aligned segment of a reduce-scatter partition.
struct WordSegment {
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Deterministic partition of `num_words` words into `parts` segments: the
/// first (num_words mod parts) segments get one extra word.  Segments may be
/// empty when num_words < parts; empty segments cost no wire bytes and no
/// rng.  Every backend derives ownership from this single function.
WordSegment word_segment(std::size_t num_words, std::size_t parts,
                         std::size_t index);

/// One merge of the binomial-tree reduction: `src`'s aggregate (weight
/// src_weight) folds into `dst`'s (weight dst_weight), as the op-th ⊙ of the
/// round (rng = segment_op_rng(segment_fold_seed(seed, 0), op)).
struct TreeMerge {
  std::size_t dst = 0;
  std::size_t src = 0;
  std::size_t dst_weight = 0;
  std::size_t src_weight = 0;
  std::size_t op = 0;
};

/// The canonical merge order of the binomial tree over `count` ranks —
/// stride doubling, ascending dst — with a running op ordinal.  Both the
/// trainer fold and the distributed worker replay this schedule so their rng
/// draws line up.
std::vector<TreeMerge> tree_merge_schedule(std::size_t count);

/// Rows of the torus a round with `survivors` members runs on, given the
/// fabric's `cols` columns: survivors that still fill at least two whole
/// rows re-form as a (survivors/cols)×cols torus — at full membership, the
/// configured one.  Returns 0 otherwise, and the round runs as a ring over
/// the survivors.  The fold and the round timing both shape a degraded
/// torus here, so its aggregate and its price describe the same fabric.
std::size_t survivor_torus_rows(std::size_t cols, std::size_t survivors);

/// One step of the fold: `words` of signs[src] fold into the same words of
/// signs[dst] with weights (dst_weight, src_weight), as op `op` of segment
/// `segment`'s chain — or, for a copy, overwrite them.
struct FoldStep {
  std::size_t dst = 0;
  std::size_t src = 0;
  WordSegment words;
  std::size_t dst_weight = 0;
  std::size_t src_weight = 0;
  std::uint64_t segment = 0;
  std::uint64_t op = 0;
  bool copy = false;
};

/// The fold of the first `count` sign vectors' leading `num_words` words,
/// in execution order.  A torus re-forms per survivor_torus_rows.  Torus
/// segment ids: the row phase uses r·cols + j for (row r, segment j), the
/// column phase count + c·rows + i for (column c, sub-segment i).
std::vector<FoldStep> segmented_fold_steps(MarParadigm paradigm,
                                           std::size_t torus_cols,
                                           std::size_t count,
                                           std::size_t num_words);

/// Seeds one generator per step for the round (copies get an unused one),
/// reusing `rngs`' storage: a warm round allocates nothing.
void seed_fold_rngs(std::span<const FoldStep> steps, std::uint64_t round_seed,
                    std::vector<Rng>& rngs);

/// Applies `steps` to the word window [w0, w0 + nw), advancing rngs[i] by
/// one draw per word of step i inside the window.  Windows of one round
/// must be visited in ascending order.
void run_fold_steps(std::span<const FoldStep> steps, std::span<Rng> rngs,
                    std::vector<BitVector>& signs, std::size_t w0,
                    std::size_t nw);

/// The whole fold in one window: builds the steps, seeds them with
/// `round_seed` and folds all `num_words` words.  Aggregate lands in
/// signs.front().  The reference the chunked pipeline is tested against.
void marsit_fold_signs_segmented(MarParadigm paradigm, std::size_t torus_cols,
                                 std::vector<BitVector>& signs,
                                 std::size_t count, std::size_t num_words,
                                 std::uint64_t round_seed);

}  // namespace marsit
