// Machine probes and the model-driven block choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "analysis/machine.hpp"
#include "sketch/autotune.hpp"
#include "sketch/sketch.hpp"
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
                                calib_for_h(0.1), 4, false);
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
                                    calib_for_h(0.001), 4, false);
  const auto costly = suggest_blocks(100000, 10000, 30000, 0.05, 1 << 20,
                                     calib_for_h(0.9), 4, false);
  EXPECT_LE(cheap.block_n, costly.block_n);
}

TEST(SuggestBlocks, TinyProblemsStayClamped) {
  // Regression: for m < 64 the cache-constraint optimum lands beyond the
  // matrix, and the old code handed kernels block_d > d / block_n > n (or 0).
  for (const index_t m : {1, 2, 7, 33, 63}) {
    const auto s =
        suggest_blocks(m, m, m, 0.5, 1 << 20, calib_for_h(0.1), 8, false);
    EXPECT_GE(s.block_d, 1) << "m=" << m;
    EXPECT_LE(s.block_d, m) << "m=" << m;
    EXPECT_GE(s.block_n, 1) << "m=" << m;
    EXPECT_LE(s.block_n, m) << "m=" << m;
  }
  // Degenerate density: the intensity model divides by rho; the suggestion
  // must still come back clamped instead of overflowing through a cast.
  const auto s = suggest_blocks(50, 10, 20, 1e-12, 1 << 20, calib_for_h(0.1),
                                8, false);
  EXPECT_GE(s.block_n, 1);
  EXPECT_LE(s.block_n, 10);
  EXPECT_GE(s.block_d, 1);
  EXPECT_LE(s.block_d, 20);
}

TEST(SuggestBlocks, InvalidArgsThrow) {
  EXPECT_THROW(
      suggest_blocks(10, 0, 5, 0.1, 1024, calib_for_h(0.1), 4, false),
      invalid_argument_error);
  EXPECT_THROW(
      suggest_blocks(10, 5, 5, 0.1, 1024, calib_for_h(0.1), 0, false),
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
  // shar_te2-b2 replica at scale 6, and the abnormal_b shape. Both kernels
  // take these blocks: jki's slabs list only their nonempty rows, so a
  // narrow slab no longer costs it m+1 row pointers.
  struct Shape {
    index_t m, n, d;
  };
  for (const Shape sh : {Shape{33366, 2860, 8580}, Shape{120000, 2000, 6000}}) {
    const auto s =
        suggest_blocks(sh.m, sh.n, sh.d, 1e-3, cache, cal, elem, false);
    EXPECT_GE(s.block_d, 1024) << sh.m;
    EXPECT_GE(items(s, sh.d, sh.n), 4 * 4) << sh.m;
    // The widest such slab: the panel fills half the cache.
    EXPECT_LE(static_cast<std::size_t>(s.block_d * s.block_n) * elem,
              cache / kPanelCacheDivisor)
        << sh.m;
    EXPECT_GT(static_cast<std::size_t>(s.block_d * (s.block_n + 1)) * elem,
              cache / kPanelCacheDivisor)
        << sh.m;
  }
  // batch_small shapes: the whole Â fits in half the cache, so one block
  // covers it.
  for (const index_t m : {2000, 3000}) {
    const auto s = suggest_blocks(m, 160, 480, 1e-2, cache, cal, elem, false);
    EXPECT_EQ(s.block_d, 480) << m;
    EXPECT_EQ(s.block_n, 160) << m;
  }
}

// Regression: b_d used to be the calibrated fill length L itself, so the
// default ±1 sampler got a b_d that moved with each process's timing noise
// (2577 / 1845 / 2132 / 2594 over four runs of one sketch_tool command) and,
// since S is a function of (seed, b_d), a different Â every run.
TEST(SuggestBlocks, CheapSamplerGetsThePaperBlock) {
  for (const Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    EXPECT_TRUE(is_cheap_sampler(dist, RngBackend::XoshiroBatch));
    EXPECT_FALSE(is_cheap_sampler(dist, RngBackend::Xoshiro));
    EXPECT_FALSE(is_cheap_sampler(dist, RngBackend::Philox));
  }
  EXPECT_FALSE(is_cheap_sampler(Dist::Gaussian, RngBackend::XoshiroBatch));

  const std::size_t cache = std::size_t{2} << 20;
  const std::size_t elem = sizeof(double);
  // Whatever the calibration says — fill lengths across the range measured
  // in optimized builds, and the ≈ 225 of an ASan build — a cheap sampler
  // gets min(d, 3000).
  for (const double len : {225.0, 1050.0, 1650.0, 2100.0, 2600.0, 3200.0}) {
    const double c0 = 70e-9;
    const SamplerCalibration cal{
        c0, c0 * (1.0 - kCallCostShare) / (kCallCostShare * len), 1.3};
    for (const index_t d : {480, 6000, 8580}) {
      const auto s =
          suggest_blocks(33366, 2860, d, 1.05e-3, cache, cal, elem, true);
      EXPECT_EQ(s.block_d, std::min<index_t>(d, 3000))
          << "L=" << len << " d=" << d;
    }
  }
  // A slow, Philox-like sampler keeps its short fill (at the floor of 64).
  const SamplerCalibration philox{23.5e-9, 4.87e-9, 30.0};
  for (const index_t d : {480, 6000, 8580}) {
    EXPECT_EQ(
        suggest_blocks(33366, 2860, d, 1.05e-3, cache, philox, elem, false)
            .block_d,
        64)
        << "d=" << d;
  }
}

// The fixed b_d is for the cheap samplers only: a slow sampler's b_d is its
// calibrated fill length even where that lands near 3000.
TEST(SuggestBlocks, SlowSamplerKeepsTheCalibratedFill) {
  const std::size_t cache = std::size_t{2} << 20;
  const std::size_t elem = sizeof(double);
  for (const double len : {150.0, 2600.0, 3200.0}) {
    const double c0 = 70e-9;
    const SamplerCalibration cal{
        c0, c0 * (1.0 - kCallCostShare) / (kCallCostShare * len), 1.3};
    const auto s =
        suggest_blocks(33366, 2860, 8580, 1.05e-3, cache, cal, elem, false);
    EXPECT_GE(static_cast<double>(s.block_d), len) << "L=" << len;
    EXPECT_LE(static_cast<double>(s.block_d), len + 1.0) << "L=" << len;
    // A fill longer than d is clamped to d.
    EXPECT_EQ(
        suggest_blocks(33366, 2860, 100, 1.05e-3, cache, cal, elem, false)
            .block_d,
        100)
        << "L=" << len;
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

// The default samplers' model blocks reproduce the library's default
// sketch bit for bit: b_d is the default 3000 (b_n never changes Â).
TEST(AutotuneBlocks, DefaultSamplerKeepsDefaultSketch) {
  const auto a = random_sparse<double>(2000, 200, 0.01, 5);
  for (const Dist dist : {Dist::PmOne, Dist::Uniform}) {
    SketchConfig defaults;
    defaults.d = 3200;  // two row blocks at the default b_d
    defaults.dist = dist;
    SketchConfig model = defaults;
    autotune_blocks(model, a);
    EXPECT_EQ(model.block_d, defaults.block_d) << to_string(dist);
    const DenseMatrix<double> expected = sketch(defaults, a);
    const DenseMatrix<double> got = sketch(model, a);
    ASSERT_EQ(got.rows(), expected.rows());
    ASSERT_EQ(got.cols(), expected.cols());
    for (index_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(std::memcmp(got.col(j), expected.col(j),
                            sizeof(double) *
                                static_cast<std::size_t>(got.rows())),
                0)
          << to_string(dist) << " column " << j;
    }
  }
}

// Through the real probe (this process's calibration, detected cache and
// thread count), the default samplers' b_d is min(d, 3000) for both kernels.
TEST(AutotuneBlocks, CheapSamplerBlockIgnoresCalibration) {
  const auto a = random_sparse<float>(3000, 300, 0.01, 7);
  for (const Dist dist : {Dist::PmOne, Dist::Uniform}) {
    for (const auto k : {KernelVariant::Kji, KernelVariant::Jki}) {
      for (const index_t d : {480, 4500}) {
        SketchConfig cfg;
        cfg.d = d;
        cfg.dist = dist;
        cfg.kernel = k;
        const auto s = suggest_blocks_for(cfg, a);
        EXPECT_EQ(s.block_d, std::min<index_t>(d, 3000))
            << to_string(dist) << " " << to_string(k) << " d=" << d;
        EXPECT_GE(s.block_n, 1);
        EXPECT_LE(s.block_n, 300);
      }
    }
  }
}

// Regression: jki used to be held at b_n >= ⌈n / max_slabs⌉ so that its
// blocked-CSR row pointers fit in A's CSC bytes (b_n 477–500 on sketch_large
// where kji got 87). Its slabs now list only nonempty rows, and both kernels
// get the same model blocks.
TEST(AutotuneBlocks, JkiTakesTheKjiBlocks) {
  const auto a = random_sparse<double>(120000, 2000, 1e-4, 11);
  for (const index_t d : {480, 6000}) {
    SketchConfig kji;
    kji.d = d;
    kji.dist = Dist::PmOne;
    kji.kernel = KernelVariant::Kji;
    SketchConfig jki = kji;
    jki.kernel = KernelVariant::Jki;
    const auto sk = suggest_blocks_for(kji, a);
    const auto sj = suggest_blocks_for(jki, a);
    EXPECT_EQ(sj.block_d, sk.block_d) << "d=" << d;
    EXPECT_EQ(sj.block_n, sk.block_n) << "d=" << d;
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
