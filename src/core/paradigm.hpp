// The all-reduce fabrics a sync round can run on — shared by the strategies
// (core/sync_strategy.hpp) and the fold schedule (core/segmented_fold.hpp).
#pragma once

namespace marsit {

/// Which synchronization fabric carries the update.  kTree is the paper's
/// claimed extension target ("easily extended to ... tree all-reduce"): the
/// weighted ⊙ operator folds binomial-tree merges exactly like torus ones.
enum class MarParadigm { kRing, kTorus2d, kParameterServer, kTree };

const char* mar_paradigm_name(MarParadigm paradigm);

}  // namespace marsit
