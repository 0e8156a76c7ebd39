// Model-driven block-size selection (paper §III-A, §V-B), from measured
// sampler costs rather than the single intensity constant h.
//
// Each sampler call pays a fixed reseek c₀ on top of its per-sample cost, so
// b_d is the shortest fill that amortizes c₀ (the paper's "large b_d"), or
// the paper's own 3000 for the cheap samplers; b_n is then the widest column
// slab whose b_d×b_n panel of Â fits in half the per-core cache (the "small
// b_n"), for either kernel.
#pragma once

#include "analysis/machine.hpp"
#include "analysis/pattern.hpp"
#include "sketch/config.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Suggested outer blocking for Algorithm 1.
struct BlockSuggestion {
  index_t block_d = 0;
  index_t block_n = 0;
  double model_ci = 0.0;  ///< §III-A computational intensity at block_n
};

/// Largest share of one fill that the per-call cost c₀ may take: b_d is the
/// shortest length L with c₀ <= kCallCostShare·(c₀ + L·sample_seconds).
inline constexpr double kCallCostShare = 0.15;

/// The b_d×b_n panel of Â may take 1/kPanelCacheDivisor of the per-core
/// cache; the rest stays with the sparse operand (jki's slab arrays) and
/// the sampler's stream. jki scatters each regenerated column over the
/// panel: at b_d = 3000 on a 2 MiB cache it ran 9–15 % faster at b_n = 43
/// than with the panel filling the cache (b_n = 87), while kji's time did
/// not depend on b_n.
inline constexpr std::size_t kPanelCacheDivisor = 2;

/// Whether (dist, backend) is a cheap sampler, which the model gives the
/// paper's fixed b_d = min(d, 3000) (SketchConfig's default block_d) rather
/// than its calibrated fill length: the 8-lane xoshiro batch with any
/// distribution but Gaussian. S is a function of (seed, b_d), so a b_d taken
/// from the per-process calibration would change Â from one run, and one
/// build, to the next. In optimized builds on a 4-vCPU x86-64 VM these are
/// exactly the samplers whose fill length is long anyway (≈ 1050–3200, also
/// under full CPU load; scalar Xoshiro ≈ 100–185, Philox ≤ 145, Gaussian
/// ≤ 41), but under ASan it falls to ≈ 90–225, so the choice goes by sampler
/// rather than by timing. The slow samplers keep their calibrated length:
/// forcing 3000 on Gaussian and Philox made jki 1.35–2.47× slower.
bool is_cheap_sampler(Dist dist, RngBackend backend);

/// Suggest (b_d, b_n) for a d×m·m×n sketch over a matrix of the given
/// density, a per-core cache of `cache_bytes`, element size `elem_bytes` and
/// the sampler costs `cal`, for either kernel:
///   - b_d: min(d, 3000) when `cheap_sampler` (is_cheap_sampler()); else the
///     shortest fill whose per-call cost is at most kCallCostShare of it,
///     clamped to [min(64, d), d];
///   - b_n: the widest slab with b_d·b_n·elem_bytes <= cache_bytes /
///     kPanelCacheDivisor (jki scatters each regenerated column over that
///     panel; kji regenerates d·nnz samples whatever b_n is), clamped to
///     [1, n]. jki's slabs list only their nonempty rows, so narrow slabs
///     cost it no extra memory.
BlockSuggestion suggest_blocks(index_t m, index_t n, index_t d, double density,
                               std::size_t cache_bytes,
                               const SamplerCalibration& cal,
                               std::size_t elem_bytes, bool cheap_sampler);

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
/// the detected cache size and the memoized sampler_calibration() of
/// cfg.dist/backend, skew-biased for cfg's team size so the scheduler has
/// enough blocks to balance. The one model-blocks probe — autotune_blocks()
/// goes through it. The same input and config give the
/// same blocks for the life of the process.
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
