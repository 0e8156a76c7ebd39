#include "sketch/kernel_jki.hpp"

#include "perf/trace.hpp"

namespace rsketch {

template <typename T>
void kernel_jki(DenseMatrix<T>& a_hat, index_t i0, index_t d1,
                const typename BlockedCsr<T>::Block& blk,
                SketchSampler<T>& sampler, T* v,
                perf::KernelCounters& counters) {
  // One trace slice per outer (i-block, vertical-block) pair — coarse enough
  // that tracing never intrudes on the nonzero loop below.
  static const std::uint32_t trace_id = perf::trace::intern("kernel_jki/block");
  perf::trace::Scope trace_scope(trace_id);
  const index_t* rows = blk.rows.data();
  const index_t* row_off = blk.row_off.data();
  const index_t* col_idx = blk.col_idx.data();
  const T* values = blk.values.data();
  const index_t nrows = static_cast<index_t>(blk.rows.size());
  // Column col0 + c of Â, from row i0: the destination of local column c.
  T* const panel = a_hat.col(blk.col0) + i0;
  const index_t ld = a_hat.ld();

  // Listed rows ascend, so each Â entry accumulates in ascending row order
  // of A exactly as a walk over all m rows would. S[i0 : i0+d1, j] is
  // generated once per row and applied to every destination column of it.
  for (index_t k = 0; k < nrows; ++k) {
    const index_t lo = row_off[k];
    sampler.accumulate(i0, rows[k], values + lo, col_idx + lo,
                       row_off[k + 1] - lo, panel, ld, d1, v);
  }

  // Exact per-block accounting from metadata the blocked-CSR conversion
  // precomputed (Block::nonempty_rows / Block::nnz) — no structure walk
  // here, and the hot loop above carries no counter updates. One
  // regenerated column of S serves every nonzero of its row (the
  // sample-reuse advantage of Algorithm 4); each nonzero still moves d1
  // elements of Â twice plus its own value and column index, and each
  // listed row its row index and offset (plus the closing offset).
  const std::uint64_t nonempty_rows =
      static_cast<std::uint64_t>(blk.nonempty_rows);
  const std::uint64_t nnz = static_cast<std::uint64_t>(blk.nnz);
  const std::uint64_t du = static_cast<std::uint64_t>(d1);
  counters.rng_samples += nonempty_rows * du;
  counters.nnz_processed += nnz;
  counters.flops += 2 * nnz * du;
  counters.elems_moved += nnz * (2 * du + 1);
  counters.bytes_moved +=
      nnz * (2 * du * sizeof(T) + sizeof(T) + sizeof(index_t)) +
      (2 * nonempty_rows + 1) * sizeof(index_t);
  counters.bytes_generated += nonempty_rows * du * sizeof(T);
  counters.kernel_blocks += 1;
}

template void kernel_jki<float>(DenseMatrix<float>&, index_t, index_t,
                                const BlockedCsr<float>::Block&,
                                SketchSampler<float>&, float*,
                                perf::KernelCounters&);
template void kernel_jki<double>(DenseMatrix<double>&, index_t, index_t,
                                 const BlockedCsr<double>::Block&,
                                 SketchSampler<double>&, double*,
                                 perf::KernelCounters&);

}  // namespace rsketch
