#include "sketch/outer_blocking.hpp"

#include <omp.h>

#include "sketch/kernel_jki.hpp"
#include "sketch/kernel_kji.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "dense/microkernel.hpp"
#include "perf/perf.hpp"
#include "perf/trace.hpp"
#include "sketch/run_staged.hpp"
#include "sketch/schedule.hpp"
#include "support/aligned_buffer.hpp"
#include "support/parallel.hpp"
#include "support/run_control.hpp"
#include "support/timer.hpp"

namespace rsketch {

namespace {

/// Per-thread working state: a private sampler (the sampler is stateful), an
/// aligned scratch vector v of b_d elements for the regenerated column, and
/// the thread's counters and busy time, merged after the join.
template <typename T>
struct ThreadCtx {
  explicit ThreadCtx(const SketchConfig& cfg)
      : sampler(cfg.seed, cfg.dist, cfg.backend, cfg.isa), v(cfg.block_d) {}
  SketchSampler<T> sampler;
  AlignedBuffer<T> v;
  perf::KernelCounters counters;
  /// Seconds this thread spent inside kernel calls (one Timer pair per outer
  /// block). For parallel runs it feeds stats.thread_imbalance and, when
  /// telemetry is on, perf::add_parallel_busy().
  double busy_seconds = 0.0;
};

/// First-touch zero of the output panel Â[i0 : i0+d1, j0 : j0+n1), done by
/// the thread about to accumulate into it so the pages land on its node.
/// Replaces the up-front set_zero(): output blocks are disjoint and every
/// (ib, jb) pair is executed exactly once, so coverage is identical. The
/// last row block extends to the padded leading dimension so a reused Â
/// keeps zero-initialized padding.
template <typename T>
void zero_panel(DenseMatrix<T>& a_hat, index_t i0, index_t d1, index_t j0,
                index_t n1) {
  const index_t top = i0 + d1 == a_hat.rows() ? a_hat.ld() : i0 + d1;
  for (index_t j = j0; j < j0 + n1; ++j) {
    T* c = a_hat.col(j) + i0;
    std::fill(c, c + (top - i0), T{0});
  }
}

template <typename T>
SketchStats collect(std::vector<ThreadCtx<T>>& ctxs, const char* region,
                    double total_seconds, index_t d, index_t nnz) {
  SketchStats stats;
  stats.total_seconds = total_seconds;
  for (auto& c : ctxs) {
    stats.samples_generated += c.sampler.samples_generated();
    stats.counters.merge(c.counters);
  }
  if (!ctxs.empty()) stats.isa = ctxs.front().sampler.isa();

  // Thread-busy split of the parallel region. Keyed by the enclosing span's
  // name so the report merges the imbalance fields into that span's entry.
  const int nt = static_cast<int>(ctxs.size());
  if (nt > 1) {
    std::vector<double> busy(static_cast<std::size_t>(nt));
    double total_busy = 0.0;
    double max_busy = 0.0;
    for (int t = 0; t < nt; ++t) {
      busy[static_cast<std::size_t>(t)] =
          ctxs[static_cast<std::size_t>(t)].busy_seconds;
      total_busy += busy[static_cast<std::size_t>(t)];
      max_busy = std::max(max_busy, busy[static_cast<std::size_t>(t)]);
    }
    if (total_busy > 0.0) {
      stats.threads_used = nt;
      const double mean = total_busy / static_cast<double>(nt);
      stats.thread_imbalance = mean > 0.0 ? max_busy / mean : 1.0;
      perf::add_parallel_busy(region, nt, busy.data());
    }
  }
  const double flops = 2.0 * static_cast<double>(d) * static_cast<double>(nnz);
  stats.gflops = total_seconds > 0 ? flops / total_seconds / 1e9 : 0.0;
  if (perf::enabled()) {
    perf::add(stats.counters);
    perf::add(perf::Counter::SketchCalls, 1);
    // The resolved tier, visible both as a count and as a per-tier span
    // ("kernel_dispatch/avx2"), so a report alone shows what ran.
    perf::add(perf::Counter::KernelDispatches, 1);
    perf::add_span(std::string("kernel_dispatch/") +
                       microkernel::to_string(stats.isa),
                   0.0);
  }
  if (perf::trace::armed()) {
    // Timeline marker of the resolved ISA tier, visible even in trace-only
    // runs (RSKETCH_TRACE without RSKETCH_PERF).
    perf::trace::instant(perf::trace::intern(
        std::string("kernel_dispatch/") + microkernel::to_string(stats.isa)));
  }
  return stats;
}

/// One (b_d, b_n) block pair of Â: rows [i0, i0 + d1) by columns
/// [j0, j0 + n1), the latter being column slab jb.
struct BlockPair {
  index_t i0, d1, jb, j0, n1;
};

/// Algorithm 1: the outer-blocking loop over (b_d, b_n) block pairs, run by
/// the static per-thread schedule (sketch/schedule.hpp). Owns everything but
/// the kernel call: per-thread contexts, the schedule build, the OMP region
/// and its team-shrink walk, first-touch panel zeroing, busy-time brackets,
/// the post-scale of each finished panel, the cooperative stop latch (OpenMP
/// forbids throwing across the region, so threads only *skip* once it fires
/// and the throw happens after the join) and the stats merge. `costs(bd, h)`
/// returns the schedule's item costs for cfg.parallel; `body(ctx, pair)`
/// runs the kernel on one pair. Slab jb spans columns
/// [jb·bn, min((jb+1)·bn, n)). Any assignment of pairs to threads is
/// bitwise-equivalent — panels are disjoint and S columns are
/// seed-checkpointed — so the schedule only moves work between threads.
template <typename T, typename Costs, typename Body>
SketchStats run_blocked(const char* region, const SketchConfig& cfg,
                        DenseMatrix<T>& a_hat, index_t bn, index_t nnz,
                        const RunControl* run, Costs&& costs, Body&& body) {
  const index_t d = cfg.d;
  const index_t n = a_hat.cols();
  const index_t bd = std::min(cfg.block_d, std::max<index_t>(d, 1));
  const index_t n_iblocks = d == 0 ? 0 : ceil_div(d, bd);
  const index_t n_jblocks = n == 0 ? 0 : ceil_div(n, bn);

  const int nthreads =
      cfg.parallel == ParallelOver::Sequential ? 1 : omp_get_max_threads();
  std::vector<ThreadCtx<T>> ctxs;
  ctxs.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) ctxs.emplace_back(cfg);
  CooperativeStop stop;

  const BlockSchedule sched = build_pair_schedule(
      resolve_schedule_mode(cfg.schedule), cfg.parallel, nthreads, n_iblocks,
      n_jblocks,
      [&] { return costs(bd, schedule_rng_cost(cfg.dist, cfg.backend)); });

  Timer timer;
#pragma omp parallel num_threads(nthreads) if (nthreads > 1)
  {
    trace_name_omp_thread();
    const int team = std::max(1, omp_get_num_threads());
    // Robust to a shrunk team: every per-thread list runs exactly once no
    // matter how many workers actually materialized.
    for (int t = omp_get_thread_num(); t < sched.threads(); t += team) {
      auto& ctx = ctxs[static_cast<std::size_t>(t)];
      const index_t begin = sched.offsets[static_cast<std::size_t>(t)];
      const index_t end = sched.offsets[static_cast<std::size_t>(t) + 1];
      for (index_t k = begin; k < end; ++k) {
        if (stop.should_skip(run)) break;
        const index_t item = sched.items[static_cast<std::size_t>(k)];
        BlockPair p;
        p.jb = item / n_iblocks;
        p.i0 = (item % n_iblocks) * bd;
        p.d1 = std::min(bd, d - p.i0);
        p.j0 = p.jb * bn;
        p.n1 = std::min(bn, n - p.j0);
        const Timer busy;
        zero_panel(a_hat, p.i0, p.d1, p.j0, p.n1);
        body(ctx, p);
        // The pair is the panel's only writer, so its sum is final here;
        // scale it while it is still in cache.
        apply_post_scale(cfg, a_hat.col(p.j0) + p.i0, p.d1, p.n1,
                         a_hat.ld());
        ctx.busy_seconds += busy.seconds();
      }
    }
  }
  stop.throw_if_stopped(region);
  SketchStats stats = collect(ctxs, region, timer.seconds(), d, nnz);
  stats.schedule_imbalance_est = sched.imbalance_est;
  return stats;
}

}  // namespace

template <typename T>
SketchStats sketch_blocked_kji(const SketchConfig& cfg, const CscMatrix<T>& a,
                               DenseMatrix<T>& a_hat, const RunControl* run) {
  perf::Span span("sketch_blocked_kji");
  cfg.validate(a.rows(), a.cols());
  require(a_hat.rows() == cfg.d && a_hat.cols() == a.cols(),
          "sketch_blocked_kji: a_hat must be d x n");
  const index_t bn = std::min(cfg.block_n, std::max<index_t>(a.cols(), 1));
  return run_blocked(
      "sketch_blocked_kji", cfg, a_hat, bn, a.nnz(), run,
      [&](index_t bd, double h) {
        return kji_item_costs(a, cfg.d, bd, bn, cfg.parallel, h);
      },
      [&](ThreadCtx<T>& ctx, const BlockPair& p) {
        kernel_kji(a_hat, p.i0, p.d1, p.j0, p.n1, a, ctx.sampler,
                   ctx.v.data(), ctx.counters);
      });
}

template <typename T>
SketchStats sketch_blocked_jki(const SketchConfig& cfg, const BlockedCsr<T>& ab,
                               DenseMatrix<T>& a_hat, const RunControl* run) {
  perf::Span span("sketch_blocked_jki");
  cfg.validate(ab.rows(), ab.cols());
  require(a_hat.rows() == cfg.d && a_hat.cols() == ab.cols(),
          "sketch_blocked_jki: a_hat must be d x n");
  // The vertical block width of `ab` plays the role of b_n: its slabs are
  // exactly the driver's column slabs. Per-pair cost comes from the
  // BlockedCsr structure metadata (nnz / nonempty rows per vertical block),
  // which is exactly where the skewed workloads concentrate their work.
  return run_blocked(
      "sketch_blocked_jki", cfg, a_hat, std::max<index_t>(ab.block_cols(), 1),
      ab.nnz(), run,
      [&](index_t bd, double h) {
        return jki_item_costs(ab, cfg.d, bd, cfg.parallel, h);
      },
      [&](ThreadCtx<T>& ctx, const BlockPair& p) {
        kernel_jki(a_hat, p.i0, p.d1, ab.block(p.jb), ctx.sampler,
                   ctx.v.data(), ctx.counters);
      });
}

template SketchStats sketch_blocked_kji<float>(const SketchConfig&,
                                               const CscMatrix<float>&,
                                               DenseMatrix<float>&,
                                               const RunControl*);
template SketchStats sketch_blocked_kji<double>(const SketchConfig&,
                                                const CscMatrix<double>&,
                                                DenseMatrix<double>&,
                                                const RunControl*);
template SketchStats sketch_blocked_jki<float>(const SketchConfig&,
                                               const BlockedCsr<float>&,
                                               DenseMatrix<float>&,
                                               const RunControl*);
template SketchStats sketch_blocked_jki<double>(const SketchConfig&,
                                                const BlockedCsr<double>&,
                                                DenseMatrix<double>&,
                                                const RunControl*);

}  // namespace rsketch
