#include "sketch/autotune.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/roofline.hpp"
#include "support/parallel.hpp"

namespace rsketch {

bool is_cheap_sampler(Dist dist, RngBackend backend) {
  return backend == RngBackend::XoshiroBatch && dist != Dist::Gaussian;
}

BlockSuggestion suggest_blocks(index_t m, index_t n, index_t d, double density,
                               std::size_t cache_bytes,
                               const SamplerCalibration& cal,
                               std::size_t elem_bytes, bool cheap_sampler) {
  require(m >= 0 && n >= 1 && d >= 1, "suggest_blocks: bad dimensions");
  require(elem_bytes > 0, "suggest_blocks: bad element size");
  BlockSuggestion s;
  if (cheap_sampler) {
    s.block_d = std::min(d, SketchConfig{}.block_d);
  } else {
    // c₀ <= share·(c₀ + L·s)  <=>  L >= c₀·(1 - share) / (share·s). The
    // floor of 64 covers the kernels' own per-call work (loop and axpy
    // set-up), which the sampler probe does not see: with Philox ±1, whose
    // c₀ alone allows b_d ≈ 20, kji on shar_te2-b2 (4 threads) ran 1.6×
    // slower at b_d = 16 than at 64.
    const double len = cal.call_seconds * (1.0 - kCallCostShare) /
                       (kCallCostShare * cal.sample_seconds);
    // Non-finite or huge lengths (a zero per-sample cost) go to d before the
    // cast, which is undefined for doubles outside index_t's range.
    s.block_d = std::isfinite(len) && len < static_cast<double>(d)
                    ? static_cast<index_t>(std::ceil(len))
                    : d;
    s.block_d = std::clamp<index_t>(s.block_d, std::min<index_t>(64, d), d);
  }

  const std::size_t col_bytes = static_cast<std::size_t>(s.block_d) * elem_bytes;
  s.block_n = std::clamp<index_t>(
      static_cast<index_t>(cache_bytes / kPanelCacheDivisor / col_bytes), 1,
      n);

  RooflineParams p;
  p.cache_elems = static_cast<double>(cache_bytes) /
                  static_cast<double>(elem_bytes);
  p.rng_cost = std::max(1e-6, cal.h);
  p.density = std::clamp(density, 1e-12, 1.0);
  s.model_ci = ci(p, static_cast<double>(s.block_n));
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
  const BlockSuggestion s = suggest_blocks(
      a.rows(), a.cols(), cfg.d, a.density(), detect_cache_bytes(),
      sampler_calibration(cfg.dist, cfg.backend), sizeof(T),
      is_cheap_sampler(cfg.dist, cfg.backend));
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
