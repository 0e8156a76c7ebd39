#include "sketch/autotune.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/machine.hpp"
#include "analysis/roofline.hpp"
#include "support/parallel.hpp"

namespace rsketch {

BlockSuggestion suggest_blocks(index_t m, index_t n, index_t d, double density,
                               std::size_t cache_bytes, double rng_cost_h,
                               std::size_t elem_bytes) {
  require(m >= 0 && n >= 1 && d >= 1, "suggest_blocks: bad dimensions");
  require(elem_bytes > 0, "suggest_blocks: bad element size");
  RooflineParams p;
  p.cache_elems = static_cast<double>(cache_bytes) /
                  static_cast<double>(elem_bytes);
  p.rng_cost = std::max(1e-6, rng_cost_h);
  p.density = std::clamp(density, 1e-12, 1.0);

  const double n1 = optimal_n1(p, static_cast<double>(n));
  const ModelBlocks mb = model_blocks(p, n1);

  BlockSuggestion s;
  // llround on a non-finite or out-of-range double is undefined; tiny inputs
  // (m below the probe sizes, degenerate caches) can push the model there.
  // Route every suggestion through explicit [1, n] / [1, d] clamps so the
  // kernels always get usable block sizes, never 0.
  const index_t n1_int =
      std::isfinite(n1) ? static_cast<index_t>(std::llround(n1)) : n;
  s.block_n = std::clamp<index_t>(n1_int, 1, n);
  // d₁ = M/(2n₁) from the balanced cache split, clamped to [min(64, d), d].
  const index_t d1_int =
      std::isfinite(mb.d1) ? static_cast<index_t>(std::llround(mb.d1)) : d;
  s.block_d = std::clamp<index_t>(d1_int, std::min<index_t>(64, d), d);
  s.block_d = std::clamp<index_t>(s.block_d, 1, d);
  s.model_ci = ci(p, n1);
  return s;
}

BlockSuggestion bias_blocks_for_skew(BlockSuggestion s,
                                     const RowDegreeStats& stats, index_t n,
                                     int nthreads) {
  if (n < 1 || nthreads < 2 || stats.mean <= 0.0) return s;
  const double max_degree = stats.max_fraction * static_cast<double>(n);
  if (max_degree < kSkewBiasRatio * stats.mean) return s;
  const index_t target_blocks =
      std::max<index_t>(8, 4 * static_cast<index_t>(nthreads));
  s.block_n = std::clamp<index_t>(ceil_div(n, target_blocks), 1, s.block_n);
  return s;
}

template <typename T>
BlockSuggestion suggest_blocks_for(const SketchConfig& cfg,
                                   const CscMatrix<T>& a) {
  // A short, cheap probe: one memoized STREAM pass + short-vector RNG timing.
  const double h = measure_h(cfg.dist, cfg.backend, cached_stream_result());
  const BlockSuggestion s =
      suggest_blocks(a.rows(), a.cols(), cfg.d, a.density(),
                     detect_cache_bytes(), h, sizeof(T));
  const int nthreads =
      cfg.parallel == ParallelOver::Sequential ? 1 : max_threads();
  return bias_blocks_for_skew(s, row_degree_stats(a), a.cols(), nthreads);
}

template <typename T>
void autotune_blocks(SketchConfig& cfg, const CscMatrix<T>& a) {
  const BlockSuggestion s = suggest_blocks_for(cfg, a);
  cfg.block_d = s.block_d;
  cfg.block_n = s.block_n;
}

template BlockSuggestion suggest_blocks_for<float>(const SketchConfig&,
                                                   const CscMatrix<float>&);
template BlockSuggestion suggest_blocks_for<double>(const SketchConfig&,
                                                    const CscMatrix<double>&);
template void autotune_blocks<float>(SketchConfig&, const CscMatrix<float>&);
template void autotune_blocks<double>(SketchConfig&, const CscMatrix<double>&);

}  // namespace rsketch
