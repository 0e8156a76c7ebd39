// Model-driven block-size selection (paper §III-A, §V-B).
//
// The heuristic: pick n₁ (= b_n) by minimizing the §III-A reciprocal
// computational intensity, then take b_d as large as the cache constraint
// allows — the paper's observation that "setting b_d to larger values and
// decreasing b_n" offloads memory traffic onto the regenerated S.
#pragma once

#include "analysis/pattern.hpp"
#include "sketch/config.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Suggested outer blocking for Algorithm 1.
struct BlockSuggestion {
  index_t block_d = 0;
  index_t block_n = 0;
  double model_ci = 0.0;  ///< predicted computational intensity at optimum
};

/// Suggest (b_d, b_n) for a d×m·m×n sketch over a matrix of the given
/// density, a cache of `cache_bytes`, element size `elem_bytes`, and RNG
/// cost h (relative to a memory access; measure with measure_h()).
BlockSuggestion suggest_blocks(index_t m, index_t n, index_t d, double density,
                               std::size_t cache_bytes, double rng_cost_h,
                               std::size_t elem_bytes);

/// Max-over-mean row degree above which a pattern counts as heavily skewed
/// and bias_blocks_for_skew() intervenes.
inline constexpr double kSkewBiasRatio = 8.0;

/// Skew guard for the block scheduler (DESIGN.md §5b): when the densest row
/// carries >= kSkewBiasRatio × the mean nnz-per-row, the §III-A suggestion
/// can hand back so few j-blocks that the LPT partitioner has nothing to
/// move — one dense slab pins one thread. Cap b_n so at least ~4 blocks
/// exist per thread (floor 8 total). No-op for balanced patterns or
/// sequential runs (nthreads < 2).
BlockSuggestion bias_blocks_for_skew(BlockSuggestion s,
                                     const RowDegreeStats& stats, index_t n,
                                     int nthreads);

/// The model's (b_d, b_n) for sketching `a` under cfg: suggest_blocks() at
/// the detected cache size and a measured h for cfg.dist/backend (one
/// memoized STREAM pass + RNG probe), skew-biased for cfg's team size so the
/// scheduler has enough blocks to balance. The one model-blocks probe —
/// autotune_blocks() and the tuner's model path both go through it.
template <typename T>
BlockSuggestion suggest_blocks_for(const SketchConfig& cfg,
                                   const CscMatrix<T>& a);

/// Convenience: fill cfg.block_d / cfg.block_n from suggest_blocks_for().
template <typename T>
void autotune_blocks(SketchConfig& cfg, const CscMatrix<T>& a);

extern template BlockSuggestion suggest_blocks_for<float>(
    const SketchConfig&, const CscMatrix<float>&);
extern template BlockSuggestion suggest_blocks_for<double>(
    const SketchConfig&, const CscMatrix<double>&);

extern template void autotune_blocks<float>(SketchConfig&,
                                            const CscMatrix<float>&);
extern template void autotune_blocks<double>(SketchConfig&,
                                             const CscMatrix<double>&);

}  // namespace rsketch
