#include "sketch/streaming.hpp"

#include <algorithm>
#include <vector>

#include "perf/perf.hpp"
#include "sketch/run_staged.hpp"
#include "sparse/validate.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

namespace {

/// The (1, m, 1) rank-1 update loop over the rows of A, accumulating into
/// the zeroed `out`; `run` (nullable) is polled between rows.
template <typename T>
SketchStats stream_rows(const SketchConfig& cfg, const CsrMatrix<T>& a,
                        DenseMatrix<T>& out, RunControl* run) {
  const index_t d = cfg.d;
  const index_t bd = std::min(cfg.block_d, std::max<index_t>(d, 1));
  SketchSampler<T> sampler(cfg.seed, cfg.dist, cfg.backend, cfg.isa);
  // The b_d-long column scratch is std::vector-backed, so the AlignedBuffer
  // budget hook never sees it — reserve it explicitly. This is the floor of
  // the degradation ladder: if even this does not fit, the charge throws
  // BudgetExceeded.
  ScopedCharge scratch_charge(
      run, run != nullptr && run->budget_armed()
               ? static_cast<std::size_t>(bd) * sizeof(T)
               : 0);
  std::vector<T> v(static_cast<std::size_t>(bd));
  const T* values = a.values().data();
  const index_t* col_idx = a.col_idx().data();

  Timer timer;
  for (index_t j = 0; j < a.rows(); ++j) {
    if (run != nullptr) run->poll();
    const index_t lo = a.row_ptr()[static_cast<std::size_t>(j)];
    const index_t hi = a.row_ptr()[static_cast<std::size_t>(j) + 1];
    if (lo == hi) continue;
    // The full column S[:, j] in b_d-sized checkpointed chunks, each added
    // into every column of Â the row touches, so the values match the
    // blocked kernels bit-for-bit.
    for (index_t i0 = 0; i0 < d; i0 += bd) {
      sampler.accumulate(i0, j, values + lo, col_idx + lo, hi - lo,
                         out.col(0) + i0, out.ld(), std::min(bd, d - i0),
                         v.data());
    }
  }

  SketchStats stats;
  stats.total_seconds = timer.seconds();
  stats.samples_generated = sampler.samples_generated();
  stats.isa = sampler.isa();
  const double flops = 2.0 * static_cast<double>(d) * static_cast<double>(a.nnz());
  stats.gflops = stats.total_seconds > 0 ? flops / stats.total_seconds / 1e9 : 0.0;

  // Same accounting as kernel_jki, over the whole matrix in one pass: one
  // full column of S per nonempty row, 2·d elements of Â per nonzero.
  std::uint64_t nonempty_rows = 0;
  for (index_t j = 0; j < a.rows(); ++j) {
    nonempty_rows += a.row_ptr()[static_cast<std::size_t>(j) + 1] >
                             a.row_ptr()[static_cast<std::size_t>(j)]
                         ? 1u
                         : 0u;
  }
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.nnz());
  const std::uint64_t du = static_cast<std::uint64_t>(d);
  auto& c = stats.counters;
  c.rng_samples = nonempty_rows * du;
  c.nnz_processed = nnz;
  c.flops = 2 * nnz * du;
  c.elems_moved = nnz * (2 * du + 1);
  c.bytes_moved = nnz * (2 * du * sizeof(T) + sizeof(T) + sizeof(index_t)) +
                  (static_cast<std::uint64_t>(a.rows()) + 1) * sizeof(index_t);
  c.bytes_generated = nonempty_rows * du * sizeof(T);
  c.kernel_blocks = 1;
  if (perf::enabled()) {
    perf::add(c);
    perf::add(perf::Counter::SketchCalls, 1);
  }
  return stats;
}

}  // namespace

template <typename T>
SketchStats streaming_sketch(const SketchConfig& cfg, const CsrMatrix<T>& a,
                             DenseMatrix<T>& a_hat) {
  perf::Span span("streaming_sketch");
  cfg.validate(a.rows(), a.cols());
  if (cfg.check_inputs) {
    perf::Span vspan("validate_inputs");
    require_valid(a);
  }
  return run_staged(cfg, a_hat, OutputShape{cfg.d, a.cols(), true},
                    [&](DenseMatrix<T>& out, RunControl* run) {
                      return stream_rows(cfg, a, out, run);
                    });
}

template SketchStats streaming_sketch<float>(const SketchConfig&,
                                             const CsrMatrix<float>&,
                                             DenseMatrix<float>&);
template SketchStats streaming_sketch<double>(const SketchConfig&,
                                              const CsrMatrix<double>&,
                                              DenseMatrix<double>&);

}  // namespace rsketch
