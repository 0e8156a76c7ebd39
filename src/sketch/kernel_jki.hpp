// Algorithm 4 of the paper: compute-kernel variant `jki` with on-the-fly
// random number generation and sample reuse.
//
// For one outer block pair (row block [i0, i0+d1) of Â, one vertical DCSR
// block of A): walk the block's listed (nonempty) rows j in ascending order;
// regenerate v = S[i0 : i0+d1, j] once and reuse it for every stored entry
// A[j, k] in the row via rank-1 updates Â[i0 : i0+d1, col0+k] += A[j,k]·v.
// With the batched sampler v is never stored: each chunk of it goes straight
// from the generator into the row's destination columns.
// Generates far fewer samples than kji (§III-B) at the price of
// sparsity-pattern-dependent column jumps in Â (§II-B2).
#pragma once

#include "dense/dense_matrix.hpp"
#include "perf/counters.hpp"
#include "rng/distributions.hpp"
#include "sparse/blocked_csr.hpp"

namespace rsketch {

/// Apply the jki kernel for row block [i0, i0+d1) of Â against one vertical
/// block of A. `v` is caller scratch of at least d1 elements for
/// SketchSampler::accumulate (unused on its fused path). The block's
/// work/traffic totals are accumulated into `counters` (O(1) arithmetic on
/// the block metadata, outside the nonzero loop).
template <typename T>
void kernel_jki(DenseMatrix<T>& a_hat, index_t i0, index_t d1,
                const typename BlockedCsr<T>::Block& blk,
                SketchSampler<T>& sampler, T* v,
                perf::KernelCounters& counters);

extern template void kernel_jki<float>(DenseMatrix<float>&, index_t, index_t,
                                       const BlockedCsr<float>::Block&,
                                       SketchSampler<float>&, float*,
                                       perf::KernelCounters&);
extern template void kernel_jki<double>(DenseMatrix<double>&, index_t, index_t,
                                        const BlockedCsr<double>::Block&,
                                        SketchSampler<double>&, double*,
                                        perf::KernelCounters&);

}  // namespace rsketch
