// Table III: sample time (RNG) vs total SpMM time for Algorithms 3 and 4
// with (-1,1) entries, Frontera blocking (b_n=500, b_d=3000).
#include <algorithm>
#include <cstdio>
#include <string>
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

// Paper Table III (Frontera, seconds).
constexpr PaperRow kPaper[] = {
    {"mk-12", 0.076, 0.036, 0.085, 0.02},
    {"ch7-9-b3", 8.34, 4.07, 11.06, 2.42},
    {"shar_te2-b2", 11.03, 5.63, 14.43, 3.84},
    {"mesh_deform", 9.26, 4.40, 8.14, 2.47},
    {"cis-n4c6-b4", 0.786, 0.325, 0.924, 0.157},
};

}  // namespace

int main() {
  bench::print_banner(
      "TABLE III — sample time vs total SpMM time, Algorithms 3 & 4",
      "Frontera, (-1,1) entries, b_n=500, b_d=3000 (sample time estimated "
      "from the RNG rate; the kernels run untimed)");
  const index_t scale = bench_scale();
  const int reps = bench_reps();
  constexpr index_t kBlockD = 3000;

  Table paper("Paper (Frontera, seconds):");
  paper.set_header({"Matrices", "Algorithm", "total time", "sample time"});
  for (const auto& r : kPaper) {
    paper.add_row({r.name, "Algorithm 3", fmt_time(r.total3),
                   fmt_time(r.sample3)});
  }
  paper.add_separator();
  for (const auto& r : kPaper) {
    paper.add_row({r.name, "Algorithm 4", fmt_time(r.total4),
                   fmt_time(r.sample4)});
  }
  std::printf("%s\n", paper.render().c_str());

  auto report = bench::make_report("table3_sample_breakdown");
  bench::HwScope hw(report);

  Table ours(
      "This repo (seconds; sample time = samples / measured RNG rate):");
  ours.set_header({"Matrices", "Algorithm", "total time", "sample time (est.)",
                   "samples generated"});
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
      cfg.block_n = 500;
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
      const std::string label =
          info.name + (kernel == KernelVariant::Kji ? "/alg3" : "/alg4");
      report.timing(label, best.total_seconds, best);
      report.timing(label + "/sample_est", sample_seconds);
      ours.add_row({info.name,
                    kernel == KernelVariant::Kji ? "Algorithm 3"
                                                 : "Algorithm 4",
                    fmt_time(best.total_seconds), fmt_time(sample_seconds),
                    fmt_int(static_cast<long long>(best.samples_generated))});
    }
    if (kernel == KernelVariant::Kji) ours.add_separator();
  }
  ours.set_footnote(
      "Shape check: Alg4's sample time is a small fraction of Alg3's "
      "(paper: ~2x fewer seconds, far fewer samples).");
  std::printf("%s\n", ours.render().c_str());
  hw.finish();
  report.write();
  return 0;
}
