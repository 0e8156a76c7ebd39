// batch_small: one SketchBatch with workers = hardware threads receives 256
// jobs and waits for all of them; the batch repeats. Three quarters are kji
// on 2000×160 and one quarter jki on 3000×160, all at ρ=1e-2 and d=480, with
// blocks from autotune_blocks (one call per shape, as a serving front end
// would memoize it). Each Â is ~0.6 MB and fits in L2, so every job runs
// sequentially on one worker and the executor, arena and per-job envelope
// dominate.
#include <omp.h>

#include <cstdio>

#include "harness.hpp"
#include "sketch/autotune.hpp"
#include "sketch/batch.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"

namespace pb {
namespace {

constexpr int kJobs = 256;

class BatchSmall final : public Workload {
 public:
  explicit BatchSmall(const Options& o) : seed_(o.seed), check_(o.check) {
    for (int j = 0; j < kJobs; ++j) {
      const bool jki = j % 4 == 3;
      mats_.push_back(rsketch::random_sparse<double>(
          jki ? 3000 : 2000, 160, 1e-2, seed_ * 100003 + j));
      SketchConfig c;
      c.d = 480;
      c.seed = seed_ * 7919 + j;
      c.dist = rsketch::Dist::PmOne;
      c.normalize = true;
      c.kernel = jki ? rsketch::KernelVariant::Jki : rsketch::KernelVariant::Kji;
      cfgs_.push_back(c);
    }
    outs_.resize(kJobs);
  }

  void start() override {
    // Blocks from the model, once per distinct shape.
    SketchConfig kji = cfgs_[0];
    SketchConfig jki = cfgs_[3];
    {
      Scope s("sketch/autotune_blocks");
      rsketch::autotune_blocks(kji, mats_[0]);
      rsketch::autotune_blocks(jki, mats_[3]);
      tune_s_ = s.stop();
    }
    for (int j = 0; j < kJobs; ++j) {
      const SketchConfig& shape = j % 4 == 3 ? jki : kji;
      cfgs_[j].block_d = shape.block_d;
      cfgs_[j].block_n = shape.block_n;
    }
    rsketch::BatchOptions opt;
    opt.workers = omp_get_max_threads();
    Scope s("support/SketchBatch");
    batch_ = std::make_unique<rsketch::SketchBatch>(opt);
  }

  Request request() override {
    if (check_ && refs_.empty()) return first_request();
    return guarded(kJobs, [&] { return run_batch(nullptr); });
  }

  Request layers(Metrics& m, std::vector<Ratio>& derived,
                 Facts& facts) override {
    Scope layer("batch_small/layers");
    Request done = request();
    const std::uint64_t steals0 = batch_->steals();
    std::vector<double> service;
    const Request traced = run_batch(&service);
    done.ops += traced.ops;
    done.failed += traced.failed;
    const double steals = double(batch_->steals() - steals0);

    double busy = 0.0;
    for (const double s : service) busy += s;
    const double workers = batch_->workers();
    const auto& arena = batch_->arena();
    const double reuse = double(arena.reuse_hits());
    const double allocs = double(arena.slab_allocs());

    // The same jobs through direct sketch_into calls, one after another.
    std::vector<double> envelope;
    double direct_s = 0.0;
    {
      Scope s("batch_small/direct");
      DenseMatrix<double> out;
      for (int j = 0; j < kJobs; ++j) {
        Scope call("sketch/sketch_into");
        const auto st = rsketch::sketch_into(cfgs_[j], mats_[j], out);
        const double wall = call.stop();
        direct_s += wall;
        envelope.push_back(wall - st.total_seconds - st.convert_seconds);
        ++done.ops;
        if (content_hash(out) != refs_[j]) ++done.failed;
      }
    }

    m.set("batch.tune_s", tune_s_, "s");
    m.set("batch.service_ms_p50", quantile(service, 0.5) * 1e3, "ms");
    m.set("batch.service_ms_p99", quantile(service, 0.99) * 1e3, "ms");
    m.set("batch.idle_share", 1.0 - busy / (workers * traced.seconds),
          "ratio");
    m.set("batch.steals", steals, "count");
    m.set("batch.arena_reuse_ratio", reuse / (reuse + allocs), "ratio");
    m.set("batch.speedup_vs_sequential", direct_s / traced.seconds, "ratio");
    m.set("batch.direct_envelope_ms_p50", quantile(envelope, 0.5) * 1e3, "ms");
    derived.push_back({"batch_speedup", direct_s, traced.seconds, "s",
                       "256 direct sketch_into calls in sequence over one "
                       "batch of the same jobs on " +
                           std::to_string(int(workers)) + " workers"});
    for (const int j : {0, 3}) {
      std::string blocks = std::to_string(cfgs_[j].block_d);
      blocks += ",";
      blocks += std::to_string(cfgs_[j].block_n);
      facts.emplace_back(j == 0 ? "batch.blocks_kji" : "batch.blocks_jki",
                         "[" + blocks + "]");
    }
    return done;
  }

  std::vector<std::string> summary() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "batch_small: %d jobs/batch, blocks kji=(%lld,%lld) "
                  "jki=(%lld,%lld), Ahat=%.2f MB per job",
                  kJobs, static_cast<long long>(cfgs_[0].block_d),
                  static_cast<long long>(cfgs_[0].block_n),
                  static_cast<long long>(cfgs_[3].block_d),
                  static_cast<long long>(cfgs_[3].block_n),
                  480.0 * 160 * 8 / 1e6);
    return {buf};
  }

 private:
  /// The first batch also fixes the bitwise references: a direct
  /// sketch_into of every job under the same resolved config, kept as
  /// content hashes. The reference pass is not part of the timed request.
  Request first_request() {
    return guarded(kJobs, [&] {
      std::vector<rsketch::JobHandle> handles;
      const Request r = submit_all(handles);
      DenseMatrix<double> ref;
      std::vector<std::uint64_t> refs;
      for (int j = 0; j < kJobs; ++j) {
        rsketch::sketch_into(cfgs_[j], mats_[j], ref);
        refs.push_back(content_hash(ref));
      }
      refs_ = std::move(refs);
      return finish(r, handles, nullptr);
    });
  }

  Request run_batch(std::vector<double>* service) {
    std::vector<rsketch::JobHandle> handles;
    const Request r = submit_all(handles);
    return finish(r, handles, service);
  }

  Request submit_all(std::vector<rsketch::JobHandle>& handles) {
#pragma omp parallel for schedule(dynamic, 8)
    for (int j = 0; j < kJobs; ++j) poison(outs_[j]);
    Scope s("support/batch");
    for (int j = 0; j < kJobs; ++j) {
      handles.push_back(batch_->submit(cfgs_[j], mats_[j], outs_[j]));
    }
    batch_->wait_all();
    Request r;
    r.seconds = s.stop();
    r.ops = kJobs;
    return r;
  }

  Request finish(Request r, const std::vector<rsketch::JobHandle>& handles,
                 std::vector<double>* service) {
    std::vector<std::uint64_t> hashes(kJobs);
#pragma omp parallel for schedule(dynamic, 8)
    for (int j = 0; j < kJobs; ++j) hashes[j] = content_hash(outs_[j]);
    for (int j = 0; j < kJobs; ++j) {
      const auto& h = handles[static_cast<std::size_t>(j)];
      if (h.failed()) {
        ++r.failed;
        continue;
      }
      if (service) {
        const auto& st = h.stats();
        service->push_back(st.total_seconds + st.convert_seconds);
      }
      if (check_ && hashes[j] != refs_[static_cast<std::size_t>(j)]) {
        std::fprintf(stderr, "perfbench: batch job %d differs from direct\n",
                     j);
        ++r.failed;
      }
    }
    return r;
  }

  std::uint64_t seed_;
  bool check_;
  std::vector<CscMatrix<double>> mats_;
  std::vector<SketchConfig> cfgs_;
  std::vector<DenseMatrix<double>> outs_;
  std::vector<std::uint64_t> refs_;
  std::unique_ptr<rsketch::SketchBatch> batch_;
  double tune_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_batch_small(const Options& o) {
  return std::make_unique<BatchSmall>(o);
}

}  // namespace pb
