// Algorithm 3 of the paper: compute-kernel variant `kji` with on-the-fly
// random number generation.
//
// For one outer block pair (row block [i0, i0+d1) of Â, column block
// [j0, j0+n1) of A): walk the CSC columns of the block; for every stored
// entry A[j, k], re-generate v = S[i0 : i0+d1, j] via the sampler's O(1)
// block checkpoint and perform the contiguous update
// Â[i0 : i0+d1, k] += A[j, k] · v. All three operands are accessed with
// unit stride, which is why this variant is preferred on architectures that
// punish random access (§II-B1).
#pragma once

#include "dense/dense_matrix.hpp"
#include "perf/counters.hpp"
#include "rng/distributions.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Apply the kji kernel to one outer block. `v` is caller-provided scratch
/// of at least d1 elements (one per thread) for SketchSampler::accumulate
/// (unused on its fused path). The block's work/traffic totals are
/// accumulated into `counters` (O(1) arithmetic on the CSC column pointers,
/// outside the nonzero loop).
template <typename T>
void kernel_kji(DenseMatrix<T>& a_hat, index_t i0, index_t d1, index_t j0,
                index_t n1, const CscMatrix<T>& a, SketchSampler<T>& sampler,
                T* v, perf::KernelCounters& counters);

extern template void kernel_kji<float>(DenseMatrix<float>&, index_t, index_t,
                                       index_t, index_t,
                                       const CscMatrix<float>&,
                                       SketchSampler<float>&, float*,
                                       perf::KernelCounters&);
extern template void kernel_kji<double>(DenseMatrix<double>&, index_t, index_t,
                                        index_t, index_t,
                                        const CscMatrix<double>&,
                                        SketchSampler<double>&, double*,
                                        perf::KernelCounters&);

}  // namespace rsketch
