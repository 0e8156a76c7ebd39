// Machine probes and the model-driven autotuner.
#include <gtest/gtest.h>

#include "analysis/machine.hpp"
#include "sketch/autotune.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

/// A calibration with a 70 ns reseek and a per-sample cost in proportion to
/// h (moving one element at 5e9 elements/s).
SamplerCalibration calib_for_h(double h) { return {70e-9, h / 5e9, h}; }

TEST(Stream, ReportsPositiveBandwidth) {
  const auto r = stream_benchmark(1 << 18, 2);
  EXPECT_GT(r.copy_gbps, 0.0);
  EXPECT_GT(r.scale_gbps, 0.0);
  EXPECT_GT(r.add_gbps, 0.0);
  EXPECT_GT(r.triad_gbps, 0.0);
}

TEST(Stream, InvalidArgsThrow) {
  EXPECT_THROW(stream_benchmark(0, 1), invalid_argument_error);
  EXPECT_THROW(stream_benchmark(100, 0), invalid_argument_error);
}

TEST(RngThroughput, PositiveAndOrderedByCost) {
  const double pm1 =
      rng_throughput(Dist::PmOne, RngBackend::XoshiroBatch, 10000, 20);
  const double gauss =
      rng_throughput(Dist::Gaussian, RngBackend::XoshiroBatch, 10000, 20);
  EXPECT_GT(pm1, 0.0);
  EXPECT_GT(gauss, 0.0);
  // ±1 extraction is far cheaper than Box–Muller.
  EXPECT_GT(pm1, gauss);
}

TEST(RngThroughput, InvalidArgsThrow) {
  EXPECT_THROW(rng_throughput(Dist::Uniform, RngBackend::Xoshiro, 0, 1),
               invalid_argument_error);
}

TEST(MeasureH, PositiveAndGaussianCostsMore) {
  const auto stream = stream_benchmark(1 << 18, 2);
  const double h_pm1 = measure_h(Dist::PmOne, RngBackend::XoshiroBatch, stream);
  const double h_gauss =
      measure_h(Dist::Gaussian, RngBackend::XoshiroBatch, stream);
  EXPECT_GT(h_pm1, 0.0);
  EXPECT_GT(h_gauss, h_pm1);
}

TEST(CacheDetect, ReturnsPlausibleSize) {
  const std::size_t bytes = detect_cache_bytes();
  EXPECT_GE(bytes, std::size_t{16} << 10);   // ≥ 16 KiB
  EXPECT_LE(bytes, std::size_t{1} << 31);    // ≤ 2 GiB
}

TEST(SuggestBlocks, ProducesValidBlocks) {
  const auto s = suggest_blocks(100000, 10000, 30000, 1e-3, 1 << 20,
                                calib_for_h(0.1), 4, KernelVariant::Kji);
  EXPECT_GE(s.block_d, 1);
  EXPECT_LE(s.block_d, 30000);
  EXPECT_GE(s.block_n, 1);
  EXPECT_LE(s.block_n, 10000);
  EXPECT_GT(s.model_ci, 0.0);
}

TEST(SuggestBlocks, CheapRngPrefersNarrowColumns) {
  // Cheap samples make the fixed per-call cost a larger share of each fill,
  // so b_d grows and fewer columns fit the cache; costly samples amortize it
  // at short fills and leave room for wider slabs.
  const auto cheap = suggest_blocks(100000, 10000, 30000, 0.05, 1 << 20,
                                    calib_for_h(0.001), 4, KernelVariant::Kji);
  const auto costly = suggest_blocks(100000, 10000, 30000, 0.05, 1 << 20,
                                     calib_for_h(0.9), 4, KernelVariant::Kji);
  EXPECT_LE(cheap.block_n, costly.block_n);
}

TEST(SuggestBlocks, TinyProblemsStayClamped) {
  // Regression: for m < 64 the cache-constraint optimum lands beyond the
  // matrix, and the old code handed kernels block_d > d / block_n > n (or 0).
  for (const index_t m : {1, 2, 7, 33, 63}) {
    const auto s = suggest_blocks(m, m, m, 0.5, 1 << 20, calib_for_h(0.1), 8,
                                  KernelVariant::Kji);
    EXPECT_GE(s.block_d, 1) << "m=" << m;
    EXPECT_LE(s.block_d, m) << "m=" << m;
    EXPECT_GE(s.block_n, 1) << "m=" << m;
    EXPECT_LE(s.block_n, m) << "m=" << m;
  }
  // Degenerate density: the intensity model divides by rho; the suggestion
  // must still come back clamped instead of overflowing through a cast.
  const auto s = suggest_blocks(50, 10, 20, 1e-12, 1 << 20, calib_for_h(0.1),
                                8, KernelVariant::Kji);
  EXPECT_GE(s.block_n, 1);
  EXPECT_LE(s.block_n, 10);
  EXPECT_GE(s.block_d, 1);
  EXPECT_LE(s.block_d, 20);
}

TEST(SuggestBlocks, InvalidArgsThrow) {
  EXPECT_THROW(suggest_blocks(10, 0, 5, 0.1, 1024, calib_for_h(0.1), 4,
                              KernelVariant::Kji),
               invalid_argument_error);
  EXPECT_THROW(suggest_blocks(10, 5, 5, 0.1, 1024, calib_for_h(0.1), 0,
                              KernelVariant::Kji),
               invalid_argument_error);
}

// Regression: the single-h model spent the cache on b_n ≈ n and clamped b_d
// to 64, where each call's ~70 ns reseek dominates a ±1 fill (kernel time
// 4.5× the best pinned grid point on sketch_large). With the calibration
// injected, no timing is involved.
TEST(SuggestBlocks, CalibratedBlocksAmortizeTheReseek) {
  const SamplerCalibration cal{70e-9, 1.0 / 7.8e9, 1.3};
  const std::size_t cache = std::size_t{2} << 20;
  const std::size_t elem = sizeof(double);
  const auto items = [](const BlockSuggestion& s, index_t d, index_t n) {
    return ceil_div(d, s.block_d) * ceil_div(n, s.block_n);
  };
  // shar_te2-b2 replica at scale 6.
  for (const auto k : {KernelVariant::Kji, KernelVariant::Jki}) {
    const auto s = suggest_blocks(33366, 2860, 8580, 1.05e-3, cache, cal,
                                  elem, k);
    EXPECT_GE(s.block_d, 1024) << to_string(k);
    EXPECT_GE(items(s, 8580, 2860), 4 * 4) << to_string(k);
    if (k == KernelVariant::Kji) {
      EXPECT_LE(static_cast<std::size_t>(s.block_d * s.block_n) * elem, cache);
    }
  }
  // abnormal_b shape: jki's blocked-CSR row pointers stay within A's CSC
  // bytes, even though the cache alone would allow narrower slabs.
  {
    const index_t m = 120000, n = 2000, d = 6000;
    const double nnz = 1e-3 * m * n;
    const double csc_bytes = (n + 1) * sizeof(index_t) +
                             nnz * (sizeof(index_t) + elem);
    const auto s = suggest_blocks(m, n, d, 1e-3, cache, cal, elem,
                                  KernelVariant::Jki);
    EXPECT_GE(s.block_d, 1024);
    EXPECT_LE(static_cast<double>(ceil_div(n, s.block_n) * (m + 1) *
                                  static_cast<index_t>(sizeof(index_t))),
              csc_bytes);
  }
  // batch_small shapes: the whole Â fits the cache, so one block covers it.
  for (const index_t m : {2000, 3000}) {
    for (const auto k : {KernelVariant::Kji, KernelVariant::Jki}) {
      const auto s = suggest_blocks(m, 160, 480, 1e-2, cache, cal, elem, k);
      EXPECT_EQ(s.block_d, 480) << m << " " << to_string(k);
      EXPECT_EQ(s.block_n, 160) << m << " " << to_string(k);
    }
  }
}

TEST(SamplerCalibration, MemoizedAndPositive) {
  const auto a = sampler_calibration(Dist::PmOne, RngBackend::XoshiroBatch);
  const auto b = sampler_calibration(Dist::PmOne, RngBackend::XoshiroBatch);
  EXPECT_GE(a.call_seconds, 0.0);
  EXPECT_GT(a.sample_seconds, 0.0);
  EXPECT_GT(a.h, 0.0);
  EXPECT_EQ(a.call_seconds, b.call_seconds);
  EXPECT_EQ(a.sample_seconds, b.sample_seconds);
  EXPECT_EQ(a.h, b.h);
}

// Regression: every call used to re-measure h, so one matrix could get a
// different b_n from one call to the next within a process.
TEST(AutotuneBlocks, SameBlocksEveryCall) {
  const auto a = random_sparse<double>(20000, 600, 1e-3, 3);
  for (const auto k : {KernelVariant::Kji, KernelVariant::Jki}) {
    SketchConfig first;
    first.d = 1800;
    first.dist = Dist::PmOne;
    first.kernel = k;
    autotune_blocks(first, a);
    for (int call = 0; call < 19; ++call) {
      SketchConfig cfg = first;
      cfg.block_d = 0;
      cfg.block_n = 0;
      autotune_blocks(cfg, a);
      EXPECT_EQ(cfg.block_d, first.block_d) << to_string(k) << " " << call;
      EXPECT_EQ(cfg.block_n, first.block_n) << to_string(k) << " " << call;
    }
  }
}

TEST(AutotuneBlocks, FillsConfig) {
  const auto a = random_sparse<float>(2000, 400, 0.01, 1);
  SketchConfig cfg;
  cfg.d = 1200;
  cfg.block_d = 0;  // will be overwritten
  cfg.block_n = 0;
  autotune_blocks(cfg, a);
  EXPECT_GE(cfg.block_d, 1);
  EXPECT_GE(cfg.block_n, 1);
  EXPECT_LE(cfg.block_n, 400);
}

}  // namespace
}  // namespace rsketch
