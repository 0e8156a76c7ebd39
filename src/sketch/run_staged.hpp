// The run envelope every sketch entry point shares (docs/ROBUSTNESS.md,
// "Run envelope"): resolve the run control, poll, stage the output, install
// the budget and arena scopes around the compute body, poll again and
// publish. The body returns a finished result: each one post-scales its own
// output, where it is still in cache (apply_post_scale below). The
// complete-or-untouched policy lives here and only here — sketch_into,
// sketch_into_prepartitioned, streaming_sketch, sketch_dense_into and
// sketch_right_into are each one run_staged() call around their own compute
// body.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dense/blas1.hpp"
#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sketch/sketch.hpp"
#include "support/aligned_buffer.hpp"
#include "support/arena.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

/// Multiply `cols` columns of `rows` elements, starting `ld` apart at
/// `data`, by sketch_post_scale(cfg) — the one post-scale loop (a no-op when
/// the scale is 1). Every compute body calls it on each part of its output
/// once that part is final: a panel, a row block or the whole result.
template <typename T>
void apply_post_scale(const SketchConfig& cfg, T* data, index_t rows,
                      index_t cols, index_t ld) {
  const T s = sketch_post_scale<T>(cfg);
  if (s == T{1}) return;
  for (index_t j = 0; j < cols; ++j) scal(rows, s, data + j * ld);
}

template <typename T>
void apply_post_scale(const SketchConfig& cfg, DenseMatrix<T>& out) {
  apply_post_scale(cfg, out.data(), out.rows(), out.cols(), out.ld());
}

/// Geometry of an entry point's result: `rows` × `cols` (a std::vector
/// output only uses the element count), and whether the compute body
/// accumulates into it — so a reused output must be zeroed first — or
/// overwrites every entry itself.
struct OutputShape {
  index_t rows = 0;
  index_t cols = 0;
  bool accumulate = false;
};

template <typename T>
void shape_output(DenseMatrix<T>& out, const OutputShape& shape) {
  if (out.rows() != shape.rows || out.cols() != shape.cols) {
    out.reset(shape.rows, shape.cols);
  } else if (shape.accumulate) {
    out.set_zero();
  }
}

template <typename T>
void shape_output(std::vector<T>& out, const OutputShape& shape) {
  out.assign(static_cast<std::size_t>(shape.rows * shape.cols), T{0});
}

/// Run `body(target, run)` under cfg's run control and publish the finished
/// (already post-scaled) result into `out`. `run` is the effective control
/// to poll and charge (nullptr when nothing is armed); `target` is the
/// output to fill, already shaped.
///
/// - Unarmed (no control, deadline or budget): `target` is `out` itself,
///   shaped in place — no staging copy, no polling, no charges. The arena
///   scope covers only the body; `out` escapes to the caller and is sized
///   outside it.
/// - Armed: poll (counted) at entry; allocate a fresh staged output before
///   the budget and arena scopes (the budget bounds workspace, not the
///   result, and the result outlives any batch arena); run the body with
///   both scopes installed; poll again; and only then move the staged result
///   over `out`. A run that stops anywhere leaves `out` exactly as the caller
///   passed it.
template <typename Out, typename Body>
SketchStats run_staged(const SketchConfig& cfg, Out& out,
                       const OutputShape& shape, Body&& body) {
  ResolvedRunControl rrc(cfg.control, cfg.deadline_ms,
                         cfg.workspace_budget_bytes);
  RunControl* const run = rrc.get();
  if (run == nullptr) {
    shape_output(out, shape);
    SketchStats stats;
    {
      ScopedArenaScope arena(cfg.arena);
      stats = body(out, run);
    }
    return stats;
  }

  run->poll();
  Out staged;
  shape_output(staged, shape);
  SketchStats stats;
  {
    ScopedBudgetScope budget(run);
    ScopedArenaScope arena(cfg.arena);
    stats = body(staged, run);
  }
  run->poll();
  out = std::move(staged);
  return stats;
}

/// The row-block loop of the dense and right sketches: split the ⌈d/b_d⌉
/// row blocks of S over the team and call body(sampler, v, i0, d1) once per
/// block, with a per-thread sampler and a b_d-long scratch column `v`. `run`
/// (nullable) is polled between blocks. Scratch is allocated on the calling
/// thread, so a refused budget charge throws before the parallel region,
/// never across it. `flops` feeds stats.gflops.
template <typename T, typename Body>
SketchStats for_each_row_block(const char* where, const SketchConfig& cfg,
                               const RunControl* run, double flops,
                               Body&& body) {
  const index_t d = cfg.d;
  const index_t bd = std::min(cfg.block_d, std::max<index_t>(d, 1));
  const index_t n_blocks = d == 0 ? 0 : ceil_div(d, bd);
  const int nthreads =
      cfg.parallel == ParallelOver::Sequential ? 1 : omp_get_max_threads();
  std::vector<AlignedBuffer<T>> scratch;
  scratch.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) scratch.emplace_back(bd);
  std::vector<std::uint64_t> samples(static_cast<std::size_t>(nthreads), 0);
  CooperativeStop stop;

  Timer timer;
#pragma omp parallel num_threads(nthreads) if (nthreads > 1)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    SketchSampler<T> sampler(cfg.seed, cfg.dist, cfg.backend, cfg.isa);
#pragma omp for schedule(dynamic)
    for (index_t ib = 0; ib < n_blocks; ++ib) {
      if (stop.should_skip(run)) continue;
      const index_t i0 = ib * bd;
      body(sampler, scratch[t].data(), i0, std::min(bd, d - i0));
    }
    samples[t] = sampler.samples_generated();
  }
  stop.throw_if_stopped(where);

  SketchStats stats;
  stats.total_seconds = timer.seconds();
  stats.isa = microkernel::resolve(cfg.isa);
  for (std::uint64_t n : samples) stats.samples_generated += n;
  stats.gflops =
      stats.total_seconds > 0 ? flops / stats.total_seconds / 1e9 : 0.0;
  return stats;
}

}  // namespace rsketch
