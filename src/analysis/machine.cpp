#include "analysis/machine.hpp"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "support/timer.hpp"

namespace rsketch {

namespace {

/// Defeat dead-code elimination of benchmark loops.
volatile double g_sink = 0.0;

}  // namespace

StreamResult stream_benchmark(index_t elems, int reps) {
  require(elems > 0 && reps > 0, "stream_benchmark: invalid parameters");
  std::vector<double> a(static_cast<std::size_t>(elems), 1.0);
  std::vector<double> b(static_cast<std::size_t>(elems), 2.0);
  std::vector<double> c(static_cast<std::size_t>(elems), 0.0);
  const double scalar = 3.0;
  const double bytes = static_cast<double>(elems) * sizeof(double);

  StreamResult r;
  double t_copy = 1e300, t_scale = 1e300, t_add = 1e300, t_triad = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < elems; ++i) c[i] = a[i];
    t_copy = std::min(t_copy, t.seconds());

    t.reset();
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < elems; ++i) b[i] = scalar * c[i];
    t_scale = std::min(t_scale, t.seconds());

    t.reset();
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < elems; ++i) c[i] = a[i] + b[i];
    t_add = std::min(t_add, t.seconds());

    t.reset();
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < elems; ++i) a[i] = b[i] + scalar * c[i];
    t_triad = std::min(t_triad, t.seconds());
  }
  g_sink = a[0] + b[0] + c[0];

  r.copy_gbps = 2.0 * bytes / t_copy / 1e9;
  r.scale_gbps = 2.0 * bytes / t_scale / 1e9;
  r.add_gbps = 3.0 * bytes / t_add / 1e9;
  r.triad_gbps = 3.0 * bytes / t_triad / 1e9;
  return r;
}

const StreamResult& cached_stream_result() {
  static const StreamResult r = stream_benchmark(index_t{1} << 21, 2);
  return r;
}

double rng_throughput(Dist dist, RngBackend backend, index_t vec_len,
                      int reps) {
  require(vec_len > 0 && reps > 0, "rng_throughput: invalid parameters");
  SketchSampler<float> sampler(12345, dist, backend);
  std::vector<float> v(static_cast<std::size_t>(vec_len));
  // Warm-up fill, then time `reps` checkpointed fills — the exact access
  // pattern the blocked kernels exercise (reseek + short-vector fill).
  sampler.fill(0, 0, v.data(), vec_len);
  Timer t;
  for (int rep = 0; rep < reps; ++rep) {
    sampler.fill(0, static_cast<index_t>(rep), v.data(), vec_len);
  }
  const double secs = t.seconds();
  g_sink = static_cast<double>(v[0]);
  return static_cast<double>(vec_len) * reps / secs;
}

double measure_h(Dist dist, RngBackend backend, const StreamResult& stream,
                 index_t vec_len) {
  const double samples_per_sec = rng_throughput(dist, backend, vec_len, 200);
  const double elems_per_sec = stream.copy_gbps * 1e9 / 4.0;  // 32-bit loads
  return elems_per_sec / samples_per_sec;
}

namespace {

SamplerCalibration calibrate_sampler(Dist dist, RngBackend backend) {
  // Weighted least squares of t(L) = c₀ + L·s with weights 1/t², so each
  // length's relative timing error counts alike. Best of 3 timings per
  // length, each over about 2^15 samples.
  double sw = 0, swl = 0, swt = 0, swll = 0, swlt = 0;
  double t_max = 0, l_max = 0;
  for (const index_t len : {64, 256, 1024, 4096}) {
    const int reps = static_cast<int>((index_t{1} << 15) / len);
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      best = std::max(best, rng_throughput(dist, backend, len, reps));
    }
    const double l = static_cast<double>(len);
    const double t = l / best;
    const double w = 1.0 / (t * t);
    sw += w;
    swl += w * l;
    swt += w * t;
    swll += w * l * l;
    swlt += w * l * t;
    t_max = t;
    l_max = l;
  }
  SamplerCalibration c;
  c.sample_seconds = (sw * swlt - swl * swt) / (sw * swll - swl * swl);
  // A fit gone sideways (timer hiccup) must not produce a free or negative
  // sample: fall back to the longest fill's average cost.
  if (!(c.sample_seconds > 0.0)) c.sample_seconds = t_max / l_max;
  c.call_seconds = std::max(0.0, (swt - c.sample_seconds * swl) / sw);
  c.h = measure_h(dist, backend, cached_stream_result());
  return c;
}

}  // namespace

SamplerCalibration sampler_calibration(Dist dist, RngBackend backend) {
  static std::mutex mu;
  static std::map<std::pair<Dist, RngBackend>, SamplerCalibration> memo;
  std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(dist, backend);
  auto it = memo.find(key);
  if (it == memo.end()) {
    it = memo.emplace(key, calibrate_sampler(dist, backend)).first;
  }
  return it->second;
}

std::size_t detect_cache_bytes() {
  long size = 0;
#ifdef _SC_LEVEL2_CACHE_SIZE
  size = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  if (size <= 0) {
#ifdef _SC_LEVEL3_CACHE_SIZE
    size = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  }
  return size > 0 ? static_cast<std::size_t>(size) : std::size_t{1} << 20;
}

}  // namespace rsketch
