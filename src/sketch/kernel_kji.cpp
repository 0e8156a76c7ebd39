#include "sketch/kernel_kji.hpp"

#include "perf/trace.hpp"

namespace rsketch {

template <typename T>
void kernel_kji(DenseMatrix<T>& a_hat, index_t i0, index_t d1, index_t j0,
                index_t n1, const CscMatrix<T>& a, SketchSampler<T>& sampler,
                T* v, perf::KernelCounters& counters) {
  // One trace slice per outer (i-block, j-block) pair — coarse enough that
  // tracing never intrudes on the nonzero loop below.
  static const std::uint32_t trace_id = perf::trace::intern("kernel_kji/block");
  perf::trace::Scope trace_scope(trace_id);
  const auto& col_ptr = a.col_ptr();
  const auto& row_idx = a.row_idx();
  const auto& values = a.values();
  // Column k of Â, from row i0, is panel + k·ld.
  T* const panel = a_hat.col(0) + i0;
  const index_t ld = a_hat.ld();

  for (index_t k = j0; k < j0 + n1; ++k) {
    const index_t lo = col_ptr[static_cast<std::size_t>(k)];
    const index_t hi = col_ptr[static_cast<std::size_t>(k) + 1];
    for (index_t p = lo; p < hi; ++p) {
      // Â[i0 : i0+d1, k] += a_jk · S[i0 : i0+d1, j] — the column of S is
      // regenerated, never read from memory.
      sampler.accumulate(i0, row_idx[static_cast<std::size_t>(p)],
                         &values[static_cast<std::size_t>(p)], &k, 1, panel,
                         ld, d1, v);
    }
  }

  // Exact per-block accounting from the CSC structure alone — the nonzero
  // loop above carries no counter updates. Per nonzero: one value + one
  // row index of A read, d1 elements of Â read and written (axpy), d1
  // entries of S regenerated.
  const std::uint64_t nnz = static_cast<std::uint64_t>(
      col_ptr[static_cast<std::size_t>(j0 + n1)] -
      col_ptr[static_cast<std::size_t>(j0)]);
  const std::uint64_t du = static_cast<std::uint64_t>(d1);
  counters.rng_samples += nnz * du;
  counters.nnz_processed += nnz;
  counters.flops += 2 * nnz * du;
  counters.elems_moved += nnz * (2 * du + 1);
  counters.bytes_moved +=
      nnz * (2 * du * sizeof(T) + sizeof(T) + sizeof(index_t));
  counters.bytes_generated += nnz * du * sizeof(T);
  counters.kernel_blocks += 1;
}

template void kernel_kji<float>(DenseMatrix<float>&, index_t, index_t, index_t,
                                index_t, const CscMatrix<float>&,
                                SketchSampler<float>&, float*,
                                perf::KernelCounters&);
template void kernel_kji<double>(DenseMatrix<double>&, index_t, index_t,
                                 index_t, index_t, const CscMatrix<double>&,
                                 SketchSampler<double>&, double*,
                                 perf::KernelCounters&);

}  // namespace rsketch
