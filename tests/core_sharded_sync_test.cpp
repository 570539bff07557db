// Determinism tests for the sharded synchronization pipeline: the chunk grid
// and per-chunk rng streams depend only on (seed, round, payload geometry),
// so every strategy must produce bit-identical outputs for any thread-pool
// size.  Also pins signSGD-MV's sharded output to the serial scalar
// reference (pack → sign-sum → majority → unpack), and Marsit's to the
// whole-range segmented fold at every chunk size.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "compress/sign_codec.hpp"
#include "compress/sign_sum.hpp"
#include "core/segmented_fold.hpp"
#include "core/sync_strategy.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace marsit {
namespace {

// Ragged dimension spanning many chunks at the test chunk size below.
constexpr std::size_t kDim = 5000;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kChunk = 256;  // → 20 chunks at kDim
constexpr std::size_t kRounds = 3;

std::vector<std::vector<float>> make_inputs(std::size_t round) {
  std::vector<std::vector<float>> inputs(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    inputs[w].resize(kDim);
    Rng rng(derive_seed(1000 + round, w));
    fill_normal({inputs[w].data(), kDim}, rng, 0.0f, 1.0f);
  }
  return inputs;
}

SyncConfig base_config(MarParadigm paradigm, ThreadPool* pool) {
  SyncConfig config;
  config.num_workers = kWorkers;
  config.paradigm = paradigm;
  if (paradigm == MarParadigm::kTorus2d) {
    config.torus_rows = 2;
    config.torus_cols = 2;
  }
  config.seed = 77;
  config.pool = pool;
  config.shard_chunk_elements = kChunk;
  return config;
}

/// Runs kRounds synchronize() calls and returns the concatenated outputs.
std::vector<float> run_rounds(SyncMethod method, MarParadigm paradigm,
                              ThreadPool* pool, bool use_elias = false,
                              std::size_t chunk = kChunk) {
  SyncConfig config = base_config(paradigm, pool);
  config.use_elias = use_elias;
  config.shard_chunk_elements = chunk;
  config.elias_refresh_interval = 2;  // hit both refresh and cached rounds
  auto strategy = make_sync_strategy(method, config);
  std::vector<float> all;
  std::vector<float> out(kDim);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto inputs = make_inputs(t);
    WorkerSpans spans;
    for (const auto& in : inputs) {
      spans.emplace_back(in.data(), in.size());
    }
    strategy->synchronize(spans, {out.data(), out.size()});
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << label << ": outputs differ";
}

void check_pool_invariance(SyncMethod method, MarParadigm paradigm,
                           const char* label) {
  ThreadPool pool1(1), pool4(4), pool_hw(0);
  const std::vector<float> ref = run_rounds(method, paradigm, &pool1);
  expect_bit_identical(run_rounds(method, paradigm, &pool4), ref, label);
  expect_bit_identical(run_rounds(method, paradigm, &pool_hw), ref, label);
}

TEST(ShardedSyncTest, MarsitRingPoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kRing,
                        "Marsit-RAR");
}

TEST(ShardedSyncTest, MarsitTorusPoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kTorus2d,
                        "Marsit-TAR");
}

TEST(ShardedSyncTest, MarsitTreePoolInvariant) {
  check_pool_invariance(SyncMethod::kMarsit, MarParadigm::kTree,
                        "Marsit-TREE");
}

TEST(ShardedSyncTest, SignSgdPoolInvariant) {
  check_pool_invariance(SyncMethod::kSignSgdMv, MarParadigm::kRing,
                        "signSGD-MV");
}

TEST(ShardedSyncTest, SsdmPoolInvariant) {
  check_pool_invariance(SyncMethod::kSsdm, MarParadigm::kRing, "SSDM-RAR");
}

TEST(ShardedSyncTest, SsdmPsPoolInvariant) {
  check_pool_invariance(SyncMethod::kSsdmPs, MarParadigm::kParameterServer,
                        "SSDM-PS");
}

TEST(ShardedSyncTest, EliasRefreshDoesNotChangeOutputs) {
  // Elias refresh rounds materialize per-worker sign vectors instead of
  // packing into scratch; the packing consumes rng identically either way,
  // so outputs must not depend on the wire encoding choice.
  ThreadPool pool(2);
  for (const SyncMethod method : {SyncMethod::kSignSgdMv, SyncMethod::kSsdm}) {
    const auto plain = run_rounds(method, MarParadigm::kRing, &pool, false);
    const auto elias = run_rounds(method, MarParadigm::kRing, &pool, true);
    expect_bit_identical(elias, plain, sync_method_name(method));
  }
}

TEST(ShardedSyncTest, SignSgdMatchesScalarReference) {
  // The whole sharded pipeline, pinned against the serial scalar path:
  // per-worker pack_signs_scalar → SignSum::accumulate_scalar →
  // majority_scalar → unpack_signs_scalar.
  ThreadPool pool(3);
  const float eta_s = 1e-3f;  // MethodOptions default
  const auto inputs = make_inputs(0);
  WorkerSpans spans;
  for (const auto& in : inputs) {
    spans.emplace_back(in.data(), in.size());
  }

  SignSum sum(kDim);
  for (const auto& in : inputs) {
    sum.accumulate_scalar(pack_signs_scalar({in.data(), in.size()}));
  }
  std::vector<float> expected(kDim);
  unpack_signs_scalar(sum.majority_scalar(), eta_s,
                      {expected.data(), expected.size()});

  auto strategy = make_sync_strategy(SyncMethod::kSignSgdMv,
                                     base_config(MarParadigm::kRing, &pool));
  std::vector<float> out(kDim);
  strategy->synchronize(spans, {out.data(), out.size()});
  EXPECT_EQ(
      std::memcmp(out.data(), expected.data(), kDim * sizeof(float)), 0)
      << "sharded signSGD-MV diverges from the scalar reference";
}

TEST(ShardedSyncTest, MarsitOutputIndependentOfChunkSize) {
  // Marsit's fold generators follow the fabric segments and carry over from
  // one chunk to the next, so the shard grid moves no bit of the output — a
  // fold that restarted a step's rng at a chunk boundary diverges here.
  // Round 0 is also pinned to the whole-range fold done by hand: the
  // compensation is still zero, so it folds the raw inputs' signs.
  ThreadPool pool(2);
  for (const MarParadigm paradigm :
       {MarParadigm::kRing, MarParadigm::kTorus2d}) {
    const SyncConfig config = base_config(paradigm, &pool);
    const auto inputs = make_inputs(0);
    std::vector<BitVector> signs;
    for (const auto& in : inputs) {
      signs.push_back(pack_signs({in.data(), in.size()}));
    }
    marsit_fold_signs_segmented(paradigm, config.torus_cols, signs, kWorkers,
                                signs.front().words().size(),
                                derive_seed(config.seed, 0));
    std::vector<float> expected(kDim);
    unpack_signs(signs.front(), MethodOptions{}.eta_s,
                 {expected.data(), expected.size()});

    const std::vector<float> whole =
        run_rounds(SyncMethod::kMarsit, paradigm, &pool, false, 1 << 20);
    EXPECT_EQ(
        std::memcmp(whole.data(), expected.data(), kDim * sizeof(float)), 0)
        << mar_paradigm_name(paradigm)
        << ": Marsit diverges from the by-hand segmented fold";
    for (const std::size_t chunk : {std::size_t{64}, std::size_t{4096}}) {
      expect_bit_identical(
          run_rounds(SyncMethod::kMarsit, paradigm, &pool, false, chunk),
          whole, mar_paradigm_name(paradigm));
    }
  }
}

}  // namespace
}  // namespace marsit
