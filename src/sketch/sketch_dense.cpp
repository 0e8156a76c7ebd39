#include "sketch/sketch_dense.hpp"

#include <omp.h>

#include <numeric>
#include <vector>

#include "perf/perf.hpp"
#include "sketch/run_staged.hpp"
#include "sparse/validate.hpp"

namespace rsketch {

namespace {

/// check_inputs scan for the dense path: a NaN/Inf in X is reported through
/// the same validation_error channel as the sparse validators, with a
/// column-attributed report instead of a bare message.
template <typename T>
void require_finite_dense(const DenseMatrix<T>& x) {
  ValidationReport report;
  report.structure = "dense";
  report.rows = x.rows();
  report.cols = x.cols();
  report.nnz = x.rows() * x.cols();
  for (index_t j = 0; j < x.cols(); ++j) {
    const index_t bad = count_non_finite(x.col(j), x.rows());
    if (bad == 0) continue;
    if (report.findings_total == 0) {
      report.findings.push_back(
          {ValidationIssue::NonFiniteValue, j,
           "column " + std::to_string(j) + " contains " +
               std::to_string(bad) + " non-finite value(s)"});
    }
    report.findings_total += bad;
    report.non_finite_values += bad;
  }
  if (!report.ok()) throw validation_error(std::move(report));
}

}  // namespace

template <typename T>
SketchStats sketch_dense_into(const SketchConfig& cfg, const DenseMatrix<T>& x,
                              DenseMatrix<T>& y) {
  cfg.validate(x.rows(), x.cols());
  if (cfg.check_inputs) {
    perf::Span span("validate_inputs");
    require_finite_dense(x);
  }
  const index_t k = x.cols();
  const double flops = 2.0 * static_cast<double>(cfg.d) * x.rows() * k;
  return run_staged(
      cfg, y, OutputShape{cfg.d, k, true},
      [&](DenseMatrix<T>& out, RunControl* run) {
        // Every row of X lands in all k columns of Y. The row is gathered
        // into a per-thread k-long buffer; like for_each_row_block's
        // scratch, the buffers are allocated here on the calling thread, so
        // a refused budget charge throws before the parallel region.
        std::vector<index_t> cols(static_cast<std::size_t>(k));
        std::iota(cols.begin(), cols.end(), index_t{0});
        std::vector<AlignedBuffer<T>> rows;
        for (int t = 0; t < omp_get_max_threads(); ++t) rows.emplace_back(k);
        return for_each_row_block<T>(
            "sketch_dense_into", cfg, run, flops,
            [&](SketchSampler<T>& sampler, T* v, index_t i0, index_t d1) {
              T* const row =
                  rows[static_cast<std::size_t>(omp_get_thread_num())].data();
              for (index_t j = 0; j < x.rows(); ++j) {
                // S[i0 : i0+d1, j], generated once and reused across all k
                // columns of X (dense X has no empty rows to skip).
                for (index_t c = 0; c < k; ++c) row[c] = x(j, c);
                sampler.accumulate(i0, j, row, cols.data(), k, out.col(0) + i0,
                                   out.ld(), d1, v);
              }
            });
      });
}

template <typename T>
std::vector<T> sketch_dense_vector(const SketchConfig& cfg, const T* x,
                                   index_t m) {
  DenseMatrix<T> xm(m, 1);
  for (index_t i = 0; i < m; ++i) xm(i, 0) = x[i];
  DenseMatrix<T> y;
  sketch_dense_into(cfg, xm, y);
  std::vector<T> out(static_cast<std::size_t>(cfg.d));
  for (index_t i = 0; i < cfg.d; ++i) out[static_cast<std::size_t>(i)] = y(i, 0);
  return out;
}

template SketchStats sketch_dense_into<float>(const SketchConfig&,
                                              const DenseMatrix<float>&,
                                              DenseMatrix<float>&);
template SketchStats sketch_dense_into<double>(const SketchConfig&,
                                               const DenseMatrix<double>&,
                                               DenseMatrix<double>&);
template std::vector<float> sketch_dense_vector<float>(const SketchConfig&,
                                                       const float*, index_t);
template std::vector<double> sketch_dense_vector<double>(const SketchConfig&,
                                                         const double*,
                                                         index_t);

}  // namespace rsketch
