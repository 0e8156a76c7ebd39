// Algorithm 1 of the paper: the (⌈d/b_d⌉, 1, ⌈n/b_n⌉) outer blocking loop
// that drives a compute kernel over block pairs, with OpenMP parallelism
// over either outer loop (§II-C).
//
// One driver (run_blocked in outer_blocking.cpp) runs the loop for both
// kernels; the kji and jki entry points below differ only in the kernel
// call on one (b_d, b_n) pair. The unit of work is always a pair. The
// parallel mode only changes how pairs are grouped onto threads
// (sketch/schedule.hpp, build_pair_schedule): DBlocks schedules pairs one by
// one; NBlocks hands every pair of a column slab to the same thread, in
// ascending (jb, ib) order; Sequential runs them all on the caller.
#pragma once

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sparse/blocked_csr.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Run Algorithm 1 with the kji kernel (Algorithm 3). `a_hat` must be
/// pre-sized to d × n and is overwritten with the finished sketch,
/// post-scale included (each panel is scaled by the thread that computed
/// it). A non-null `run` is polled between (b_d, b_n) block pairs (one
/// relaxed load per block; one predictable branch when null) and the call
/// throws run_stopped_error after the parallel region joins if any bound
/// fired — a_hat's contents are then
/// unspecified, which is why sketch_into() stages into a private buffer when
/// a control is armed.
template <typename T>
SketchStats sketch_blocked_kji(const SketchConfig& cfg, const CscMatrix<T>& a,
                               DenseMatrix<T>& a_hat,
                               const RunControl* run = nullptr);

/// Run Algorithm 1 with the jki kernel (Algorithm 4) over a pre-built
/// blocked-CSR matrix. The vertical block width of `ab` plays the role of
/// b_n; cfg.block_n is ignored here. Run control as in sketch_blocked_kji.
template <typename T>
SketchStats sketch_blocked_jki(const SketchConfig& cfg, const BlockedCsr<T>& ab,
                               DenseMatrix<T>& a_hat,
                               const RunControl* run = nullptr);

extern template SketchStats sketch_blocked_kji<float>(const SketchConfig&,
                                                      const CscMatrix<float>&,
                                                      DenseMatrix<float>&,
                                                      const RunControl*);
extern template SketchStats sketch_blocked_kji<double>(
    const SketchConfig&, const CscMatrix<double>&, DenseMatrix<double>&,
    const RunControl*);
extern template SketchStats sketch_blocked_jki<float>(const SketchConfig&,
                                                      const BlockedCsr<float>&,
                                                      DenseMatrix<float>&,
                                                      const RunControl*);
extern template SketchStats sketch_blocked_jki<double>(
    const SketchConfig&, const BlockedCsr<double>&, DenseMatrix<double>&,
    const RunControl*);

}  // namespace rsketch
