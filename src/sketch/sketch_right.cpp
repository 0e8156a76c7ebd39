#include "sketch/sketch_right.hpp"

#include <algorithm>
#include <vector>

#include "perf/perf.hpp"
#include "sketch/run_staged.hpp"
#include "sparse/validate.hpp"

namespace rsketch {

template <typename T>
SketchStats sketch_right_into(const SketchConfig& cfg, const CscMatrix<T>& a,
                              std::vector<T>& b_rowmajor) {
  cfg.validate(a.rows(), a.cols());
  if (cfg.check_inputs) {
    perf::Span span("validate_inputs");
    require_valid(a);
  }
  const index_t d = cfg.d;
  const double flops = 2.0 * static_cast<double>(d) * a.nnz();
  return run_staged(
      cfg, b_rowmajor, OutputShape{a.rows(), d, true},
      [&](std::vector<T>& b, RunControl* run) {
        return for_each_row_block<T>(
            "sketch_right_into", cfg, run, flops,
            [&](SketchSampler<T>& sampler, T* v, index_t c0, index_t d1) {
              for (index_t k = 0; k < a.cols(); ++k) {
                const index_t lo = a.col_ptr()[static_cast<std::size_t>(k)];
                const index_t hi =
                    a.col_ptr()[static_cast<std::size_t>(k) + 1];
                if (lo == hi) continue;  // column k of S never generated
                // v := S[c0 : c0+d1, k], generated once and reused for the
                // whole CSC column — the reuse Algorithm 4 needs blocked CSR
                // to achieve.
                sampler.fill(c0, k, v, d1);
                for (index_t p = lo; p < hi; ++p) {
                  const index_t i = a.row_idx()[static_cast<std::size_t>(p)];
                  axpy(d1, a.values()[static_cast<std::size_t>(p)], v,
                       b.data() + i * d + c0);
                }
              }
            });
      });
}

template <typename T>
DenseMatrix<T> materialize_right_S(const SketchConfig& cfg, index_t n) {
  DenseMatrix<T> s(cfg.d, n);
  const index_t d = cfg.d;
  const index_t bd = std::min(cfg.block_d, std::max<index_t>(d, 1));
  SketchSampler<T> sampler(cfg.seed, cfg.dist, cfg.backend, cfg.isa);
  std::vector<T> v(static_cast<std::size_t>(bd));
  for (index_t k = 0; k < n; ++k) {
    for (index_t c0 = 0; c0 < d; c0 += bd) {
      const index_t d1 = std::min(bd, d - c0);
      sampler.fill(c0, k, v.data(), d1);
      for (index_t c = 0; c < d1; ++c) {
        s(c0 + c, k) = v[static_cast<std::size_t>(c)];
      }
    }
  }
  apply_post_scale(cfg, s);
  return s;
}

template SketchStats sketch_right_into<float>(const SketchConfig&,
                                              const CscMatrix<float>&,
                                              std::vector<float>&);
template SketchStats sketch_right_into<double>(const SketchConfig&,
                                               const CscMatrix<double>&,
                                               std::vector<double>&);
template DenseMatrix<float> materialize_right_S<float>(const SketchConfig&,
                                                       index_t);
template DenseMatrix<double> materialize_right_S<double>(const SketchConfig&,
                                                         index_t);

}  // namespace rsketch
