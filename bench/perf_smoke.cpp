// Perf-smoke suite: the CI performance gate's workload.
//
// Unlike the table/figure reproductions, this suite is deliberately PINNED:
// fixed sizes (no RSKETCH_SCALE), fixed seeds, pinned blocks, sequential
// execution, telemetry force-enabled. Every software counter it emits is an
// exact function of the sparse structure and the blocking — identical on
// every machine and every run — so CI can diff them against a committed
// baseline (bench/baselines/perf_smoke_baseline.json) and fail on real
// regressions in work or traffic, while wall time stays warn-only.
//
// Gate: tools/check_bench_regression.py BENCH_perf_smoke.json baseline.json
#include <cstdio>

#include "dense/microkernel.hpp"
#include "perf/perf.hpp"
#include "perf/report.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace rsketch;

namespace {

struct Case {
  const char* label;
  KernelVariant kernel;
  RngBackend backend;
  double density;
};

}  // namespace

int main() {
  // Force telemetry on: this binary exists to produce BENCH_perf_smoke.json;
  // requiring RSKETCH_PERF=1 would just be a way to run it uselessly.
  perf::set_enabled(true);
  perf::reset();

  constexpr index_t m = 10000;
  constexpr index_t n = 1000;
  constexpr index_t d = 1000;
  constexpr std::uint64_t seed_a = 42;   // matrix structure
  constexpr std::uint64_t seed_s = 7;    // sketch entries

  const Case cases[] = {
      {"kji/xoshiro_batch/rho=1e-3", KernelVariant::Kji,
       RngBackend::XoshiroBatch, 1e-3},
      {"jki/xoshiro_batch/rho=1e-3", KernelVariant::Jki,
       RngBackend::XoshiroBatch, 1e-3},
      {"jki/xoshiro_batch/rho=1e-2", KernelVariant::Jki,
       RngBackend::XoshiroBatch, 1e-2},
      {"kji/philox/rho=1e-3", KernelVariant::Kji, RngBackend::Philox, 1e-3},
  };

  std::printf("perf_smoke: pinned %lld x %lld, d=%lld, sequential, "
              "blocks=(512, 256)\n\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(d));

  perf::ReportBuilder report("perf_smoke");
  report.config("m", static_cast<long long>(m));
  report.config("n", static_cast<long long>(n));
  report.config("d", static_cast<long long>(d));
  report.config("block_d", 512LL);
  report.config("block_n", 256LL);
  report.config("parallel", "sequential");
  report.config("pinned", "true");

  Table t("perf_smoke cases (deterministic counters, advisory wall time):");
  t.set_header({"case", "seconds", "rng_samples", "bytes_moved", "flops"});
  for (const Case& c : cases) {
    const auto a = random_sparse<float>(m, n, c.density, seed_a);
    SketchConfig cfg;
    cfg.d = d;
    cfg.seed = seed_s;
    cfg.dist = Dist::PmOne;
    cfg.backend = c.backend;
    cfg.kernel = c.kernel;
    cfg.block_d = 512;
    cfg.block_n = 256;
    cfg.parallel = ParallelOver::Sequential;
    DenseMatrix<float> a_hat(d, n);
    Timer timer;
    const SketchStats stats = sketch_into(cfg, a, a_hat);
    const double secs = timer.seconds();
    report.timing(c.label, secs, stats);
    t.add_row({c.label, fmt_fixed(secs, 4),
               std::to_string(stats.counters.rng_samples),
               std::to_string(stats.counters.bytes_moved),
               std::to_string(stats.counters.flops)});
  }
  std::printf("%s\n", t.render().c_str());

  // SIMD micro-kernel ratio on the pinned jki case: scalar tier vs. auto
  // dispatch (best SIMD tier this build + CPU offer); best-of-kReps wall
  // time. The labels are machine-neutral ("scalar"/"auto", not the resolved
  // tier) so the report shape is identical everywhere; the ratio itself is
  // advisory (wall time stays warn-only in CI), and the rep count is fixed
  // so the globally accumulated counters stay deterministic.
  {
    constexpr int kReps = 3;
    const auto a = random_sparse<float>(m, n, 1e-3, seed_a);
    double best[2] = {0.0, 0.0};  // best GFLOP/s: [0]=scalar, [1]=auto
    double best_secs[2] = {0.0, 0.0};
    const microkernel::Isa tiers[2] = {microkernel::Isa::Scalar,
                                       microkernel::Isa::Auto};
    for (int side = 0; side < 2; ++side) {
      for (int rep = 0; rep < kReps; ++rep) {
        SketchConfig cfg;
        cfg.d = d;
        cfg.seed = seed_s;
        cfg.dist = Dist::PmOne;
        cfg.backend = RngBackend::XoshiroBatch;
        cfg.kernel = KernelVariant::Jki;
        cfg.block_d = 512;
        cfg.block_n = 256;
        cfg.parallel = ParallelOver::Sequential;
        cfg.isa = tiers[side];
        DenseMatrix<float> a_hat(d, n);
        const SketchStats stats = sketch_into(cfg, a, a_hat);
        if (stats.gflops > best[side]) {
          best[side] = stats.gflops;
          best_secs[side] = stats.total_seconds;
        }
      }
    }
    report.timing("jki/xoshiro_batch/rho=1e-3/isa=scalar", best_secs[0]);
    report.timing("jki/xoshiro_batch/rho=1e-3/isa=auto", best_secs[1]);
    const double ratio = best[0] > 0.0 ? best[1] / best[0] : 0.0;
    report.derived("jki_simd_speedup_vs_scalar", ratio);
    std::printf("jki isa ratio (best of %d): scalar %.2f GF/s, auto %.2f GF/s"
                " -> %.2fx\n",
                kReps, best[0], best[1], ratio);
    if (ratio < 1.3) {
      std::printf("warning: SIMD speedup %.2fx below the 1.3x target "
                  "(advisory, machine-dependent)\n", ratio);
    }
    std::printf("\n");
  }

  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "perf_smoke: failed to write report\n");
    return 1;
  }
  return 0;
}
