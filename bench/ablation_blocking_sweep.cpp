// §V-B ablation: empirical sweep over the outer blocking (b_d, b_n) for both
// kernels under the default parallel config, on shar_te2-b2 (Â larger than
// the caches, so the kernel is bound by memory) and Abnormal_B (90% of the
// nonzeros in the middle third of the columns). Each (matrix, kernel) pair
// ends with the model's blocks (autotune_blocks, the library default) timed
// against the best grid point — the heuristic "grow b_d, shrink b_n" checked
// as a ratio rather than by eye.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sketch/autotune.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"
#include "testdata/replicas.hpp"

using namespace rsketch;

namespace {

std::string blocks(index_t bd, index_t bn) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "(%lld, %lld)", static_cast<long long>(bd),
                static_cast<long long>(bn));
  return buf;
}

/// Grid values clamped to [1, limit], deduplicated, in ascending order.
std::vector<index_t> axis(std::vector<index_t> v, index_t limit) {
  for (auto& x : v) x = std::clamp<index_t>(x, 1, limit);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

int main() {
  bench::print_banner(
      "ABLATION — blocking parameter sweep (b_d, b_n) vs. the model",
      "kernel seconds (best of reps) across the blocking grid, default "
      "parallel config, ±1 entries, doubles");
  const index_t scale = bench_scale();
  const int reps = bench_reps();

  struct Case {
    std::string name;
    CscMatrix<double> a;
  };
  std::vector<Case> cases;
  cases.push_back({"shar_te2-b2", make_spmm_replica<double>("shar_te2-b2",
                                                            scale)});
  cases.push_back({"abnormal_b",
                   abnormal_b<double>(std::max<index_t>(720000 / scale, 64),
                                      std::max<index_t>(12000 / scale, 16),
                                      1e-3, 0.9, 11)});

  Table summary("Model blocks vs. best grid point (kernel seconds):");
  summary.set_header({"matrix", "kernel", "model (b_d, b_n)", "model (s)",
                      "best (b_d, b_n)", "best (s)", "model/best"});
  for (const Case& c : cases) {
    const CscMatrix<double>& a = c.a;
    const index_t d = 3 * a.cols();
    DenseMatrix<double> a_hat(d, a.cols());
    const auto seconds = [&](const SketchConfig& cfg) {
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        best = std::min(best, sketch_into(cfg, a, a_hat).total_seconds);
      }
      return best;
    };
    const auto bds = axis({256, 512, 1024, 2048, 4096, d}, d);
    const auto bns = axis({32, 64, 128, 256, 512, a.cols()}, a.cols());

    for (const KernelVariant kernel : {KernelVariant::Kji, KernelVariant::Jki}) {
      SketchConfig cfg;
      cfg.d = d;
      cfg.dist = Dist::PmOne;
      cfg.kernel = kernel;
      SketchConfig model = cfg;
      autotune_blocks(model, a);
      const double t_model = seconds(model);

      Table t(c.name + " " + std::to_string(a.rows()) + "x" +
              std::to_string(a.cols()) + ", d=" + std::to_string(d) + ", " +
              to_string(kernel) + ": seconds");
      std::vector<std::string> header{"b_d \\ b_n"};
      for (index_t bn : bns) header.push_back(fmt_int(bn));
      t.set_header(header);
      double t_best = 1e300;
      index_t best_bd = 0, best_bn = 0;
      for (index_t bd : bds) {
        std::vector<std::string> row{fmt_int(bd)};
        for (index_t bn : bns) {
          cfg.block_d = bd;
          cfg.block_n = bn;
          const double s = seconds(cfg);
          row.push_back(fmt_fixed(s, 4));
          if (s < t_best) {
            t_best = s;
            best_bd = bd;
            best_bn = bn;
          }
        }
        t.add_row(row);
      }
      std::printf("%s\n", t.render().c_str());
      summary.add_row({c.name, to_string(kernel),
                       blocks(model.block_d, model.block_n),
                       fmt_fixed(t_model, 4), blocks(best_bd, best_bn),
                       fmt_fixed(t_best, 4), fmt_fixed(t_model / t_best, 2)});
    }
  }
  const SamplerCalibration cal =
      sampler_calibration(Dist::PmOne, RngBackend::XoshiroBatch);
  summary.set_footnote(
      "Calibration: c0 = " + fmt_fixed(cal.call_seconds * 1e9, 1) +
      " ns per call, " + fmt_fixed(cal.sample_seconds * 1e9, 3) +
      " ns per sample, h = " + fmt_fixed(cal.h, 2) + ", cache " +
      fmt_int(static_cast<index_t>(detect_cache_bytes() >> 10)) +
      " KiB. The model should sit within 1.25x of the best grid point.");
  std::printf("%s\n", summary.render().c_str());
  return 0;
}
