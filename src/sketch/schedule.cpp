#include "sketch/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "analysis/machine.hpp"
#include "perf/perf.hpp"
#include "perf/trace.hpp"
#include "support/env.hpp"

namespace rsketch {

bool parse_schedule_mode(const std::string& s, ScheduleMode& out) {
  if (s == "auto") {
    out = ScheduleMode::Auto;
    return true;
  }
  if (s == "uniform") {
    out = ScheduleMode::Uniform;
    return true;
  }
  if (s == "balanced") {
    out = ScheduleMode::Balanced;
    return true;
  }
  return false;
}

ScheduleMode resolve_schedule_mode(ScheduleMode requested,
                                   const std::string& env_value) {
  if (requested != ScheduleMode::Auto) return requested;
  if (!env_value.empty()) {
    ScheduleMode m = ScheduleMode::Auto;
    if (!parse_schedule_mode(env_value, m)) {
      env_warn_once("RSKETCH_SCHEDULE", env_value.c_str(),
                    "expected auto/uniform/balanced; using balanced");
    } else if (m != ScheduleMode::Auto) {
      return m;
    }
  }
  return ScheduleMode::Balanced;
}

ScheduleMode resolve_schedule_mode(ScheduleMode requested) {
  if (requested != ScheduleMode::Auto) return requested;
  static const ScheduleMode from_env = resolve_schedule_mode(
      ScheduleMode::Auto, env_string("RSKETCH_SCHEDULE", ""));
  return from_env;
}

double schedule_rng_cost(Dist dist, RngBackend backend) {
  const double h = sampler_calibration(dist, backend).h;
  // The estimator only needs a sane ratio; a probe gone sideways (throttled
  // box, zero-length timing window) must not poison every schedule after it.
  return std::isfinite(h) ? std::clamp(h, 0.1, 1e4) : 1.0;
}

BlockSchedule build_uniform_schedule(index_t n_items, int nthreads) {
  const int nt = std::max(nthreads, 1);
  BlockSchedule s;
  s.items.resize(static_cast<std::size_t>(std::max<index_t>(n_items, 0)));
  std::iota(s.items.begin(), s.items.end(), index_t{0});
  s.offsets.resize(static_cast<std::size_t>(nt) + 1);
  const index_t base = n_items / nt;
  const index_t rem = n_items % nt;
  index_t off = 0;
  for (int t = 0; t <= nt; ++t) {
    s.offsets[static_cast<std::size_t>(t)] = off;
    if (t < nt) off += base + (t < rem ? 1 : 0);
  }
  return s;
}

BlockSchedule build_balanced_schedule(const std::vector<double>& costs,
                                      int nthreads) {
  const int nt = std::max(nthreads, 1);
  const index_t n = static_cast<index_t>(costs.size());
  std::vector<index_t> order(costs.size());
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return costs[static_cast<std::size_t>(a)] >
           costs[static_cast<std::size_t>(b)];
  });

  std::vector<double> load(static_cast<std::size_t>(nt), 0.0);
  std::vector<std::vector<index_t>> bins(static_cast<std::size_t>(nt));
  for (index_t id : order) {
    int best = 0;
    for (int t = 1; t < nt; ++t) {
      if (load[static_cast<std::size_t>(t)] <
          load[static_cast<std::size_t>(best)]) {
        best = t;
      }
    }
    bins[static_cast<std::size_t>(best)].push_back(id);
    load[static_cast<std::size_t>(best)] += costs[static_cast<std::size_t>(id)];
  }

  BlockSchedule s;
  s.items.reserve(static_cast<std::size_t>(n));
  s.offsets.resize(static_cast<std::size_t>(nt) + 1);
  s.offsets[0] = 0;
  for (int t = 0; t < nt; ++t) {
    auto& bin = bins[static_cast<std::size_t>(t)];
    std::sort(bin.begin(), bin.end());
    s.items.insert(s.items.end(), bin.begin(), bin.end());
    s.offsets[static_cast<std::size_t>(t) + 1] =
        static_cast<index_t>(s.items.size());
  }

  const double total = std::accumulate(load.begin(), load.end(), 0.0);
  const double mx = *std::max_element(load.begin(), load.end());
  const double mean = total / static_cast<double>(nt);
  s.imbalance_est = mean > 0.0 ? mx / mean : 1.0;
  return s;
}

namespace {

/// Item costs for `mode` from per-pair costs (flattened jb-major): DBlocks
/// and Sequential schedule the pairs themselves; NBlocks schedules whole
/// column slabs, so each slab's pair costs are summed.
std::vector<double> fold_for_mode(std::vector<double> pair_costs,
                                  index_t n_i, index_t n_j,
                                  ParallelOver mode) {
  if (mode != ParallelOver::NBlocks) return pair_costs;
  std::vector<double> slabs(static_cast<std::size_t>(n_j), 0.0);
  for (index_t jb = 0; jb < n_j; ++jb) {
    for (index_t ib = 0; ib < n_i; ++ib) {
      slabs[static_cast<std::size_t>(jb)] +=
          pair_costs[static_cast<std::size_t>(jb * n_i + ib)];
    }
  }
  return slabs;
}

}  // namespace

template <typename T>
std::vector<double> kji_item_costs(const CscMatrix<T>& a, index_t d,
                                   index_t bd, index_t bn, ParallelOver mode,
                                   double rng_cost) {
  const index_t n = a.cols();
  const index_t n_i = d == 0 ? 0 : ceil_div(d, bd);
  const index_t n_j = n == 0 ? 0 : ceil_div(n, bn);
  const auto& col_ptr = a.col_ptr();
  std::vector<double> out(static_cast<std::size_t>(n_i * n_j));
  for (index_t jb = 0; jb < n_j; ++jb) {
    const index_t j0 = jb * bn;
    const index_t n1 = std::min(bn, n - j0);
    const double nnz = static_cast<double>(
        col_ptr[static_cast<std::size_t>(j0 + n1)] -
        col_ptr[static_cast<std::size_t>(j0)]);
    for (index_t ib = 0; ib < n_i; ++ib) {
      const double d1 = static_cast<double>(std::min(bd, d - ib * bd));
      out[static_cast<std::size_t>(jb * n_i + ib)] =
          d1 * static_cast<double>(n1) + (rng_cost + 2.0) * d1 * nnz;
    }
  }
  return fold_for_mode(std::move(out), n_i, n_j, mode);
}

template <typename T>
std::vector<double> jki_item_costs(const BlockedCsr<T>& ab, index_t d,
                                   index_t bd, ParallelOver mode,
                                   double rng_cost) {
  const index_t n_i = d == 0 ? 0 : ceil_div(d, bd);
  const index_t n_j = ab.num_blocks();
  std::vector<double> out(static_cast<std::size_t>(n_i * n_j));
  for (index_t jb = 0; jb < n_j; ++jb) {
    const double width = static_cast<double>(ab.block_width(jb));
    const double ner = static_cast<double>(ab.block_nonempty_rows(jb));
    const double nnz = static_cast<double>(ab.block_nnz(jb));
    for (index_t ib = 0; ib < n_i; ++ib) {
      const double d1 = static_cast<double>(std::min(bd, d - ib * bd));
      out[static_cast<std::size_t>(jb * n_i + ib)] =
          d1 * width + rng_cost * d1 * ner + 2.0 * d1 * nnz;
    }
  }
  return fold_for_mode(std::move(out), n_i, n_j, mode);
}

BlockSchedule build_block_schedule(
    ScheduleMode resolved, int nthreads, index_t n_items,
    const std::function<std::vector<double>()>& costs) {
  if (nthreads <= 1 || n_items <= 1) {
    return build_uniform_schedule(n_items, nthreads);
  }
  perf::Span span("schedule/build");
  BlockSchedule s = resolved == ScheduleMode::Balanced
                        ? build_balanced_schedule(costs(), nthreads)
                        : build_uniform_schedule(n_items, nthreads);
  if (perf::enabled()) {
    perf::add(perf::Counter::ScheduleBuilds, 1);
    perf::add(perf::Counter::ScheduleBlocks,
              static_cast<std::uint64_t>(n_items));
    perf::add(perf::Counter::ScheduleImbalanceEstMilli,
              static_cast<std::uint64_t>(
                  std::llround(s.imbalance_est * 1000.0)));
  }
  if (perf::trace::armed()) {
    // Predicted imbalance next to the measured busy split in the timeline.
    perf::trace::counter(perf::trace::intern("schedule_imbalance_est"),
                         s.imbalance_est);
  }
  return s;
}

BlockSchedule build_pair_schedule(
    ScheduleMode resolved, ParallelOver parallel, int nthreads,
    index_t n_iblocks, index_t n_jblocks,
    const std::function<std::vector<double>()>& costs) {
  if (parallel != ParallelOver::NBlocks) {
    return build_block_schedule(resolved, nthreads, n_iblocks * n_jblocks,
                                costs);
  }
  // Every slab expands to exactly n_iblocks pairs, in ascending ib order:
  // the thread offsets scale by n_iblocks, and each thread's ascending slab
  // list becomes an ascending (jb, ib) pair list.
  BlockSchedule pairs =
      build_block_schedule(resolved, nthreads, n_jblocks, costs);
  const std::vector<index_t> slabs = std::move(pairs.items);
  pairs.items.clear();
  pairs.items.reserve(slabs.size() * static_cast<std::size_t>(n_iblocks));
  for (const index_t jb : slabs) {
    for (index_t ib = 0; ib < n_iblocks; ++ib) {
      pairs.items.push_back(jb * n_iblocks + ib);
    }
  }
  for (index_t& off : pairs.offsets) off *= n_iblocks;
  return pairs;
}

template std::vector<double> kji_item_costs<float>(const CscMatrix<float>&,
                                                   index_t, index_t, index_t,
                                                   ParallelOver, double);
template std::vector<double> kji_item_costs<double>(const CscMatrix<double>&,
                                                    index_t, index_t, index_t,
                                                    ParallelOver, double);
template std::vector<double> jki_item_costs<float>(const BlockedCsr<float>&,
                                                   index_t, index_t,
                                                   ParallelOver, double);
template std::vector<double> jki_item_costs<double>(const BlockedCsr<double>&,
                                                    index_t, index_t,
                                                    ParallelOver, double);

}  // namespace rsketch
