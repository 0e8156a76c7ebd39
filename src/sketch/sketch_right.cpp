#include "sketch/sketch_right.hpp"

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
                // B[i, c0 : c0+d1] += a_ik · S[c0 : c0+d1, k] for every
                // nonzero of CSC column k, the column of S generated once
                // and reused across them — the reuse Algorithm 4 needs
                // blocked CSR to achieve.
                sampler.accumulate(c0, k, a.values().data() + lo,
                                   a.row_idx().data() + lo, hi - lo,
                                   b.data() + c0, d, d1, v);
              }
              // Columns [c0, c0 + d1) of B are final: only this block
              // writes them.
              apply_post_scale(cfg, b.data() + c0, d1, a.rows(), d);
            });
      });
}

template SketchStats sketch_right_into<float>(const SketchConfig&,
                                              const CscMatrix<float>&,
                                              std::vector<float>&);
template SketchStats sketch_right_into<double>(const SketchConfig&,
                                               const CscMatrix<double>&,
                                               std::vector<double>&);

}  // namespace rsketch
