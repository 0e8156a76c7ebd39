// sketch_large: in-process autotune_blocks + sketch_into with library
// defaults (model blocks, schedule=auto, d = 3n, ±1 entries, normalized).
// One request is a pass over {shar_te2-b2 replica at scale 6, abnormal_b
// 120000×2000 ρ=1e-3 with 0.9 of the nonzeros in the middle third} ×
// {kji, jki}. Â for shar_te2-b2 is about 2× the L3, so its kernel is bound by
// memory; abnormal_b gives the scheduler column skew to balance.
#include <unistd.h>

#include <cstdio>

#include "analysis/machine.hpp"
#include "analysis/roofline.hpp"
#include "harness.hpp"
#include "sketch/autotune.hpp"
#include "sketch/schedule.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"
#include "support/parallel.hpp"
#include "testdata/replicas.hpp"

namespace pb {
namespace {

using rsketch::KernelVariant;
using rsketch::SketchStats;

/// One resolved and executed sketch request.
struct Done {
  SketchConfig cfg;
  SketchStats stats;
  double tune_s = 0.0;
  double sketch_s = 0.0;
};

std::string label(const std::string& matrix, const SketchConfig& c) {
  return matrix + "/" + rsketch::to_string(c.kernel) + " b=(" +
         std::to_string(c.block_d) + "," + std::to_string(c.block_n) + ")";
}

class SketchLarge final : public Workload {
 public:
  explicit SketchLarge(const Options& o) : seed_(o.seed), check_(o.check) {
    names_ = {"shar_te2-b2", "abnormal_b"};
    mats_.push_back(rsketch::make_spmm_replica<double>("shar_te2-b2", 6));
    mats_.push_back(
        rsketch::abnormal_b<double>(120000, 2000, 1e-3, 0.9, seed_ * 7 + 1));
    for (std::size_t i = 0; i < mats_.size(); ++i) {
      checks_.emplace_back(mats_[i], seed_ * 13 + i);
    }
    outs_.resize(mats_.size());
  }

  Request request() override {
    Request r;
    std::string line;
    for (std::size_t mi = 0; mi < mats_.size(); ++mi) {
      for (const auto k : {KernelVariant::Kji, KernelVariant::Jki}) {
        ++r.ops;
        try {
          poison(outs_[mi]);
          const Done d = sketch_one(mi, k);
          r.seconds += d.tune_s + d.sketch_s;
          r.parts.push_back(d.tune_s + d.sketch_s);
          line += "  " + label(names_[mi], d.cfg) + " " +
                  fmt(d.tune_s + d.sketch_s) + "s";
          if (check_ && !check(mi, d.cfg)) ++r.failed;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: sketch_large %s failed: %s\n",
                       names_[mi].c_str(), e.what());
          ++r.failed;
        }
      }
    }
    passes_.push_back(fmt(r.seconds) + "s:" + line);
    return r;
  }

  Request layers(Metrics& m, std::vector<Ratio>& derived,
                 Facts& facts) override {
    Scope layer("sketch_large/layers");
    layer_ops_ = Request{};
    std::vector<Done> pass;
    {
      Scope s("sketch_large/request");
      for (std::size_t mi = 0; mi < mats_.size(); ++mi) {
        for (const auto k : {KernelVariant::Kji, KernelVariant::Jki}) {
          pass.push_back(sketch_one(mi, k));
          count_check(mi, pass.back().cfg);
        }
      }
    }
    const Done& shar_kji = pass[0];
    const Done& abn_kji = pass[2];

    double tune_s = 0, kernel_s = 0, convert_s = 0, envelope_s = 0, flops = 0;
    double samples = 0;
    std::string decisions = "[";
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const Done& d = pass[i];
      const auto& a = mats_[i / 2];
      tune_s += d.tune_s;
      kernel_s += d.stats.total_seconds;
      convert_s += d.stats.convert_seconds;
      envelope_s +=
          d.sketch_s - d.stats.total_seconds - d.stats.convert_seconds;
      flops += 2.0 * static_cast<double>(d.cfg.d) *
               static_cast<double>(a.nnz());
      samples += static_cast<double>(d.stats.samples_generated);
      decisions += std::string(i ? "," : "") + "{\"request\":" +
                   json_string(label(names_[i / 2], d.cfg)) +
                   ",\"tune_s\":" + json_number(d.tune_s) +
                   ",\"sketch_s\":" + json_number(d.sketch_s) +
                   ",\"kernel_s\":" + json_number(d.stats.total_seconds) +
                   ",\"thread_imbalance\":" +
                   json_number(d.stats.thread_imbalance) +
                   ",\"schedule_imbalance_est\":" +
                   json_number(d.stats.schedule_imbalance_est) + "}";
    }
    facts.emplace_back("sketch_large.traced_pass", decisions + "]");

    // analysis: the in-cache probe the model uses versus a STREAM pass whose
    // arrays are each at least 4× the last-level cache.
    const std::size_t llc = llc_bytes();
    const index_t big_elems = static_cast<index_t>(4 * llc / sizeof(double)) + 1;
    const index_t probe_elems = index_t{1} << 21;  // cached_stream_result()
    double stream_gbps = 0.0;
    {
      Scope s("analysis/stream_benchmark");
      stream_gbps = rsketch::stream_benchmark(big_elems, 2).copy_gbps;
    }
    const double probe_gbps = rsketch::cached_stream_result().copy_gbps;
    double h = 0.0;
    {
      Scope s("analysis/measure_h");
      h = rsketch::measure_h(shar_kji.cfg.dist, shar_kji.cfg.backend,
                             rsketch::cached_stream_result());
    }
    m.set("analysis.stream_gb_per_s", stream_gbps, "GB/s");
    m.set("analysis.stream_probe_gb_per_s", probe_gbps, "GB/s");
    m.set("analysis.rng_cost_h", h, "ratio");
    facts.emplace_back("analysis.stream_array_mb", json_number(mb(big_elems)));
    facts.emplace_back("analysis.stream_probe_array_mb",
                       json_number(mb(probe_elems)));
    facts.emplace_back("analysis.llc_bytes", json_number(double(llc)));
    facts.emplace_back("analysis.model_cache_bytes",
                       json_number(double(rsketch::detect_cache_bytes())));
    derived.push_back({"stream_probe_vs_large", probe_gbps, stream_gbps, "GB/s",
                       "copy bandwidth of the 2^21-element probe (3 arrays of " +
                           fmt(mb(probe_elems)) + " MB) over arrays of " +
                           fmt(mb(big_elems)) + " MB each"});

    // sketch: tune, schedule, kernel, envelope.
    m.set("sketch.tune_s", tune_s, "s");
    m.set("sketch.tune_block_d", double(shar_kji.cfg.block_d), "count");
    m.set("sketch.tune_block_n", double(shar_kji.cfg.block_n), "count");
    m.set("sketch.kernel_s", kernel_s, "s");
    m.set("sketch.kernel_gflops", flops / kernel_s / 1e9, "GFLOP/s");
    m.set("sketch.envelope_s", envelope_s, "s");
    m.set("sparse.convert_s", convert_s, "s");

    {
      const auto& a = mats_[1];
      const SketchConfig& c = abn_kji.cfg;
      const index_t n_items = ((c.d + c.block_d - 1) / c.block_d) *
                              ((a.cols() + c.block_n - 1) / c.block_n);
      Scope s("sketch/build_block_schedule");
      const auto sched = rsketch::build_block_schedule(
          rsketch::resolve_schedule_mode(c.schedule), rsketch::max_threads(),
          n_items, [&] {
            return rsketch::kji_item_costs(
                a, c.d, c.block_d, c.block_n, c.parallel,
                rsketch::schedule_rng_cost(c.dist, c.backend));
          });
      m.set("sketch.schedule_s", s.stop(), "s");
      m.set("sketch.schedule_imbalance_est", sched.imbalance_est, "ratio");
      m.set("sketch.thread_imbalance", abn_kji.stats.thread_imbalance,
            "ratio");
      derived.push_back({"schedule_imbalance", abn_kji.stats.thread_imbalance,
                         sched.imbalance_est, "max/mean thread busy",
                         "measured thread imbalance of abnormal_b/kji over "
                         "the schedule's predicted imbalance"});
    }

    // Intensity and bandwidth of the memory-bound request (shar_te2-b2/kji).
    const auto& kc = shar_kji.stats.counters;
    rsketch::RooflineParams p;
    p.cache_elems = double(rsketch::detect_cache_bytes()) / sizeof(double);
    p.rng_cost = h;
    p.density = mats_[0].density();
    const double ci_model = rsketch::ci(p, double(shar_kji.cfg.block_n));
    const double bytes_per_s =
        double(kc.bytes_moved) / shar_kji.stats.total_seconds;
    m.set("sketch.intensity_measured", kc.intensity_per_element(),
          "flop/elem");
    m.set("sketch.intensity_model", ci_model, "flop/elem");
    m.set("sketch.bw_attainment", bytes_per_s / (stream_gbps * 1e9), "ratio");
    derived.push_back({"intensity", kc.intensity_per_element(), ci_model,
                       "flop/elem",
                       "measured intensity of shar_te2-b2/kji over the "
                       "§III-A model at the resolved b_n"});
    derived.push_back({"axpy_bandwidth", bytes_per_s / 1e9, stream_gbps,
                       "GB/s",
                       "computed bytes moved by shar_te2-b2/kji per kernel "
                       "second over large-array STREAM copy"});

    // rng: samples generated against the generator's own peak.
    const double samples_per_s = samples / kernel_s;
    double peak = 0.0;
    {
      Scope s("rng/rng_throughput");
      peak = rsketch::rng_throughput(shar_kji.cfg.dist, shar_kji.cfg.backend,
                                     shar_kji.cfg.block_d, 200) *
             rsketch::max_threads();
    }
    m.set("rng.samples", samples, "count");
    m.set("rng.samples_per_s", samples_per_s, "1/s");
    m.set("rng.peak_samples_per_s", peak, "1/s");
    derived.push_back({"rng_rate", samples_per_s, peak, "samples/s",
                       "samples per kernel second over the pass, over the "
                       "single-thread fill rate at b_d times the threads"});

    // Tuner regret: model blocks against the best of a fixed pinned grid.
    Done at_model = pin(0, shar_kji.cfg, shar_kji.cfg.block_d,
                        shar_kji.cfg.block_n);
    Done best = at_model;
    std::string grid = "[";
    for (const index_t bd : {index_t{1000}, index_t{3000}, shar_kji.cfg.d}) {
      for (const index_t bn : {index_t{250}, index_t{1000}}) {
        const Done g = pin(0, shar_kji.cfg, bd, bn);
        grid += std::string(grid.size() > 1 ? "," : "") + "{\"block_d\":" +
                std::to_string(bd) + ",\"block_n\":" + std::to_string(bn) +
                ",\"kernel_s\":" + json_number(g.stats.total_seconds) + "}";
        if (g.stats.total_seconds < best.stats.total_seconds) best = g;
      }
    }
    facts.emplace_back("sketch.tune_grid", grid + "]");
    m.set("sketch.tune_regret",
          at_model.stats.total_seconds / best.stats.total_seconds, "ratio");
    derived.push_back({"tune_regret", at_model.stats.total_seconds,
                       best.stats.total_seconds, "s",
                       "kernel time at the model blocks over the best grid "
                       "point: " + label(names_[0], at_model.cfg) + " vs " +
                           label(names_[0], best.cfg)});

    // Parallel efficiency of the same request: 1 thread against the team.
    double t1 = 0.0;
    {
      rsketch::ThreadCountGuard one(1);
      t1 = pin(0, shar_kji.cfg, shar_kji.cfg.block_d, shar_kji.cfg.block_n)
               .stats.total_seconds;
    }
    const int team = rsketch::max_threads();
    m.set("sketch.parallel_efficiency",
          t1 / (team * at_model.stats.total_seconds), "ratio");
    return layer_ops_;
  }

  std::vector<std::string> summary() const override {
    std::vector<std::string> out;
    out.push_back("sketch_large passes (pass seconds: tuner decision and "
                  "seconds per request):");
    for (const auto& p : passes_) out.push_back("  " + p);
    for (std::size_t i = 0; i < mats_.size(); ++i) {
      const auto& a = mats_[i];
      const double ahat_mb = 3.0 * a.cols() * a.cols() * 8 / 1e6;
      out.push_back("  " + names_[i] + ": " + std::to_string(a.rows()) + "x" +
                    std::to_string(a.cols()) + " nnz=" +
                    std::to_string(a.nnz()) + " A=" +
                    fmt(a.memory_bytes() / 1e6) + " MB, Ahat=" + fmt(ahat_mb) +
                    " MB");
    }
    return out;
  }

 private:
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
  }
  static double mb(index_t elems) { return double(elems) * 8 / 1e6; }

  static std::size_t llc_bytes() {
    long size = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
    size = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
    return size > 0 ? std::size_t(size) : rsketch::detect_cache_bytes();
  }

  SketchConfig base(std::size_t mi, KernelVariant k) const {
    SketchConfig c;
    c.d = 3 * mats_[mi].cols();
    c.seed = seed_ * 1000003 + mi;
    c.dist = rsketch::Dist::PmOne;
    c.normalize = true;
    c.kernel = k;
    return c;
  }

  Done sketch_one(std::size_t mi, KernelVariant k) {
    Done d;
    d.cfg = base(mi, k);
    {
      Scope s("sketch/autotune_blocks");
      rsketch::autotune_blocks(d.cfg, mats_[mi]);
      d.tune_s = s.stop();
    }
    Scope s("sketch/sketch_into");
    d.stats = rsketch::sketch_into(d.cfg, mats_[mi], outs_[mi]);
    d.sketch_s = s.stop();
    return d;
  }

  /// Re-run a request with pinned blocks (tuner bypassed).
  Done pin(std::size_t mi, SketchConfig c, index_t bd, index_t bn) {
    c.block_d = bd;
    c.block_n = bn;
    Done d;
    d.cfg = c;
    Scope s("sketch/sketch_into");
    d.stats = rsketch::sketch_into(c, mats_[mi], outs_[mi]);
    d.sketch_s = s.stop();
    count_check(mi, c);
    return d;
  }

  void count_check(std::size_t mi, const SketchConfig& cfg) {
    ++layer_ops_.ops;
    if (!check(mi, cfg)) ++layer_ops_.failed;
  }

  bool check(std::size_t mi, const SketchConfig& cfg) {
    const double err =
        checks_[mi].error(cfg, dense_times(outs_[mi], checks_[mi].x()));
    if (err <= LinearityCheck::kTolerance) return true;
    std::fprintf(stderr, "perfbench: sketch_large %s linearity error %.3e\n",
                 label(names_[mi], cfg).c_str(), err);
    return false;
  }

  std::uint64_t seed_;
  bool check_;
  std::vector<std::string> names_;
  std::vector<CscMatrix<double>> mats_;
  std::vector<LinearityCheck> checks_;
  std::vector<DenseMatrix<double>> outs_;
  std::vector<std::string> passes_;
  Request layer_ops_;
};

}  // namespace

std::unique_ptr<Workload> make_sketch_large(const Options& o) {
  return std::make_unique<SketchLarge>(o);
}

}  // namespace pb
