// Block-size tuning walkthrough: show the sampler calibration the model
// reads (per-call cost c₀, per-sample cost, h) next to the (b_d, b_n) it
// picks through suggest_blocks_for() — the path autotune_blocks() takes —
// and check the choice against a small empirical sweep.
//
//   ./blocking_autotune [--m 120000] [--n 6000] [--density 1e-3]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/machine.hpp"
#include "sketch/autotune.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"
#include "support/cli.hpp"

using namespace rsketch;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const index_t m = args.get_int("m", 120000);
  const index_t n = args.get_int("n", 6000);
  const double density = args.get_double("density", 1e-3);

  const auto a = random_sparse<float>(m, n, density, 5);
  SketchConfig cfg;
  cfg.d = 3 * n;
  cfg.dist = Dist::Uniform;

  // 1. The model's choice and the calibration it was made from (memoized:
  //    this is the one suggest_blocks_for() just used).
  const BlockSuggestion sug = suggest_blocks_for(cfg, a);
  const SamplerCalibration cal = sampler_calibration(cfg.dist, cfg.backend);
  std::printf("machine: cache %.0f KiB, STREAM copy %.1f GB/s\n",
              static_cast<double>(detect_cache_bytes()) / 1024.0,
              cached_stream_result().copy_gbps);
  std::printf("sampler: c0 = %.1f ns per call, %.3f ns per sample, h = %.3f\n",
              cal.call_seconds * 1e9, cal.sample_seconds * 1e9, cal.h);
  std::printf("(b_d is the shortest fill whose c0 is at most %.0f%% of it; "
              "b_n the widest slab whose b_d x b_n panel fits the cache)\n",
              kCallCostShare * 100.0);
  std::printf("model (%s): b_d = %lld, b_n = %lld (predicted CI %.1f)\n\n",
              to_string(cfg.kernel).c_str(),
              static_cast<long long>(sug.block_d),
              static_cast<long long>(sug.block_n), sug.model_ci);

  // 2. Empirical check around the suggestion, same config.
  std::printf("empirical sweep (GFlop/s):\n");
  std::printf("%10s %10s %10s\n", "b_d", "b_n", "GFlop/s");
  double best_gf = 0.0;
  index_t best_bd = 0, best_bn = 0;
  const std::vector<index_t> bds = {std::max<index_t>(1, sug.block_d / 4),
                                    sug.block_d,
                                    std::min(cfg.d, sug.block_d * 4)};
  const std::vector<index_t> bns = {std::max<index_t>(1, sug.block_n / 4),
                                    sug.block_n,
                                    std::min(n, sug.block_n * 4)};
  DenseMatrix<float> a_hat(cfg.d, n);
  for (index_t bd : bds) {
    for (index_t bn : bns) {
      SketchConfig c = cfg;
      c.block_d = bd;
      c.block_n = bn;
      const auto stats = sketch_into(c, a, a_hat);
      std::printf("%10lld %10lld %10.2f\n", static_cast<long long>(bd),
                  static_cast<long long>(bn), stats.gflops);
      if (stats.gflops > best_gf) {
        best_gf = stats.gflops;
        best_bd = bd;
        best_bn = bn;
      }
    }
  }
  std::printf("\nempirical best: b_d = %lld, b_n = %lld (%.2f GFlop/s)\n",
              static_cast<long long>(best_bd),
              static_cast<long long>(best_bn), best_gf);

  // 3. One-call convenience API: the same blocks, every call.
  autotune_blocks(cfg, a);
  std::printf("autotune_blocks() picked: b_d = %lld, b_n = %lld\n",
              static_cast<long long>(cfg.block_d),
              static_cast<long long>(cfg.block_n));
  return 0;
}
