// Table V: sample time vs total SpMM time for Algorithms 3 and 4 with the
// Perlmutter blocking (b_n=1200, b_d=3000) — the configuration where the
// paper sees Algorithm 4 overtake Algorithm 3.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sketch/sketch.hpp"
#include "testdata/replicas.hpp"

using namespace rsketch;

namespace {

struct PaperRow {
  const char* name;
  double total3, sample3, total4, sample4;
};

// Paper Table V (Perlmutter, seconds).
constexpr PaperRow kPaper[] = {
    {"mk-12", 0.0627, 0.034, 0.0520, 0.0142},
    {"ch7-9-b3", 7.37, 3.90, 6.60, 2.09},
    {"shar_te2-b2", 9.89, 5.40, 9.04, 3.64},
    {"mesh_deform", 7.68, 4.21, 5.73, 2.35},
    {"cis-n4c6-b4", 0.628, 0.312, 0.532, 0.120},
};

}  // namespace

int main() {
  bench::print_banner(
      "TABLE V — sample vs total time, Perlmutter blocking",
      "Perlmutter, (-1,1) entries, b_n=1200, b_d=3000 (sample time "
      "estimated from the RNG rate; the kernels run untimed)");
  const index_t scale = bench_scale();
  const int reps = bench_reps();
  constexpr index_t kBlockD = 3000;

  Table paper("Paper (Perlmutter, seconds):");
  paper.set_header({"Matrices", "Algorithm", "total time", "sample time"});
  for (const auto& r : kPaper) {
    paper.add_row(
        {r.name, "Algorithm 3", fmt_time(r.total3), fmt_time(r.sample3)});
  }
  paper.add_separator();
  for (const auto& r : kPaper) {
    paper.add_row(
        {r.name, "Algorithm 4", fmt_time(r.total4), fmt_time(r.sample4)});
  }
  std::printf("%s\n", paper.render().c_str());

  Table ours(
      "This repo (seconds; sample time = samples / measured RNG rate):");
  ours.set_header({"Matrices", "Algorithm", "total time", "sample time (est.)",
                   "sample frac"});
  const auto infos = spmm_replica_infos();
  // One RNG-rate probe per replica config, shared by both algorithms: the
  // kernels fill min(b_d, d) entries per checkpointed call.
  std::vector<double> rates;
  for (const auto& info : infos) {
    const index_t fill = std::min(kBlockD, spmm_replica_d(info.name, scale));
    rates.push_back(bench::rng_fill_rate(Dist::Uniform,
                                         RngBackend::XoshiroBatch, fill, reps));
  }
  for (const KernelVariant kernel : {KernelVariant::Kji, KernelVariant::Jki}) {
    for (std::size_t r = 0; r < infos.size(); ++r) {
      const auto& info = infos[r];
      const auto a = make_spmm_replica<float>(info.name, scale);
      SketchConfig cfg;
      cfg.d = spmm_replica_d(info.name, scale);
      cfg.dist = Dist::Uniform;
      cfg.kernel = kernel;
      cfg.block_d = kBlockD;
      cfg.block_n = 1200;
      cfg.parallel = ParallelOver::Sequential;
      DenseMatrix<float> a_hat(cfg.d, a.cols());

      SketchStats best;
      best.total_seconds = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        const auto stats = sketch_into(cfg, a, a_hat);
        if (stats.total_seconds < best.total_seconds) best = stats;
      }
      const double sample_seconds =
          static_cast<double>(best.samples_generated) / rates[r];
      ours.add_row(
          {info.name,
           kernel == KernelVariant::Kji ? "Algorithm 3" : "Algorithm 4",
           fmt_time(best.total_seconds), fmt_time(sample_seconds),
           fmt_fixed(sample_seconds / best.total_seconds, 2)});
    }
    if (kernel == KernelVariant::Kji) ours.add_separator();
  }
  ours.set_footnote(
      "Shape check: with wide vertical blocks (b_n=1200) Alg4's RNG-cost "
      "saving grows; on RNG-bound machines Alg4 wins overall.");
  std::printf("%s\n", ours.render().c_str());
  return 0;
}
