// Correctness of the two compute kernels (Algorithms 3 and 4) against a
// dense reference product with the explicitly materialized S.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sketch/kernel_jki.hpp"
#include "sketch/kernel_kji.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

/// Dense reference: Â = S·A with S materialized under the same config.
DenseMatrix<double> reference_product(const SketchConfig& cfg,
                                      const CscMatrix<double>& a) {
  const DenseMatrix<double> s = materialize_S<double>(cfg, a.rows());
  DenseMatrix<double> out(cfg.d, a.cols());
  for (index_t k = 0; k < a.cols(); ++k) {
    for (index_t p = a.col_ptr()[k]; p < a.col_ptr()[k + 1]; ++p) {
      const index_t j = a.row_idx()[p];
      const double v = a.values()[p];
      for (index_t i = 0; i < cfg.d; ++i) out(i, k) += v * s(i, j);
    }
  }
  return out;
}

SketchConfig base_config(index_t d) {
  SketchConfig cfg;
  cfg.d = d;
  cfg.seed = 2468;
  cfg.dist = Dist::Uniform;
  cfg.backend = RngBackend::XoshiroBatch;
  cfg.block_d = d;  // single block: kernel tests drive one block pair
  cfg.block_n = 1000;
  cfg.parallel = ParallelOver::Sequential;
  return cfg;
}

TEST(KernelKji, SingleBlockMatchesReference) {
  const auto a = random_sparse<double>(60, 25, 0.15, 11);
  const auto cfg = base_config(40);
  const auto expect = reference_product(cfg, a);

  DenseMatrix<double> got(40, 25);
  SketchSampler<double> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<double> v(40);
  perf::KernelCounters counters;
  kernel_kji(got, 0, 40, 0, 25, a, sampler, v.data(), counters);
  EXPECT_LT(got.max_abs_diff(expect), 1e-12);
}

TEST(KernelKji, PartialColumnBlock) {
  const auto a = random_sparse<double>(60, 25, 0.15, 11);
  const auto cfg = base_config(40);
  const auto expect = reference_product(cfg, a);

  DenseMatrix<double> got(40, 25);
  SketchSampler<double> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<double> v(40);
  perf::KernelCounters counters;
  // Process columns [5, 17) only; the rest must stay zero.
  kernel_kji(got, 0, 40, 5, 12, a, sampler, v.data(), counters);
  for (index_t k = 5; k < 17; ++k) {
    for (index_t i = 0; i < 40; ++i) {
      EXPECT_NEAR(got(i, k), expect(i, k), 1e-12);
    }
  }
  for (index_t k : {0, 1, 17, 24}) {
    for (index_t i = 0; i < 40; ++i) EXPECT_EQ(got(i, k), 0.0);
  }
}

TEST(KernelKji, RowBlockOffsetUsesCheckpoint) {
  // Processing row block [16, 40) must reproduce exactly those rows of the
  // full product computed with b_d = 16 (checkpoints every 16 rows).
  const auto a = random_sparse<double>(30, 10, 0.3, 13);
  auto cfg = base_config(40);
  cfg.block_d = 16;
  const auto expect = reference_product(cfg, a);

  DenseMatrix<double> got(40, 10);
  SketchSampler<double> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<double> v(16);
  perf::KernelCounters counters;
  kernel_kji(got, 16, 16, 0, 10, a, sampler, v.data(), counters);
  for (index_t k = 0; k < 10; ++k) {
    for (index_t i = 16; i < 32; ++i) {
      EXPECT_NEAR(got(i, k), expect(i, k), 1e-12);
    }
  }
}

TEST(KernelKji, CountersMatchSamplesAndNonzeros) {
  // The kernel accounts every call from block metadata: one sample of S per
  // row of the block per consumed nonzero, and counts accumulate across calls.
  const auto a = random_sparse<double>(100, 40, 0.2, 17);
  const auto cfg = base_config(64);
  DenseMatrix<double> got(64, 40);
  SketchSampler<double> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<double> v(64);
  perf::KernelCounters counters;
  kernel_kji(got, 0, 64, 0, 40, a, sampler, v.data(), counters);
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.nnz());
  EXPECT_EQ(sampler.samples_generated(), 64u * nnz);
  EXPECT_EQ(counters.rng_samples, sampler.samples_generated());
  EXPECT_EQ(counters.nnz_processed, nnz);
  EXPECT_EQ(counters.flops, 2u * 64u * nnz);
  EXPECT_EQ(counters.kernel_blocks, 1u);

  // A second call over columns [10, 30) adds exactly that slab's nonzeros.
  const std::uint64_t slab_nnz =
      static_cast<std::uint64_t>(a.col_ptr()[30] - a.col_ptr()[10]);
  kernel_kji(got, 0, 64, 10, 20, a, sampler, v.data(), counters);
  EXPECT_EQ(counters.nnz_processed, nnz + slab_nnz);
  EXPECT_EQ(counters.rng_samples, sampler.samples_generated());
  EXPECT_EQ(counters.kernel_blocks, 2u);
}

TEST(KernelJki, SingleBlockMatchesReference) {
  const auto a = random_sparse<double>(60, 25, 0.15, 11);
  const auto cfg = base_config(40);
  const auto expect = reference_product(cfg, a);

  const auto ab = BlockedCsr<double>::from_csc(a, 25);  // one vertical block
  DenseMatrix<double> got(40, 25);
  SketchSampler<double> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<double> v(40);
  perf::KernelCounters counters;
  kernel_jki(got, 0, 40, ab.block(0), sampler, v.data(), counters);
  EXPECT_LT(got.max_abs_diff(expect), 1e-12);
}

TEST(KernelJki, MultipleVerticalBlocksMatchReference) {
  const auto a = random_sparse<double>(80, 33, 0.1, 19);
  const auto cfg = base_config(48);
  const auto expect = reference_product(cfg, a);

  const auto ab = BlockedCsr<double>::from_csc(a, 7);
  DenseMatrix<double> got(48, 33);
  SketchSampler<double> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<double> v(48);
  perf::KernelCounters counters;
  for (index_t b = 0; b < ab.num_blocks(); ++b) {
    kernel_jki(got, 0, 48, ab.block(b), sampler, v.data(), counters);
  }
  EXPECT_LT(got.max_abs_diff(expect), 1e-12);
}

TEST(KernelJki, SkipsEmptyRowsEntirely) {
  // Abnormal_A-style input: only every 8th row nonzero. The jki kernel must
  // generate samples only for nonempty rows.
  const auto a = abnormal_a<double>(64, 10, 8, 23);
  const auto ab = BlockedCsr<double>::from_csc(a, 10);
  const auto cfg = base_config(32);
  DenseMatrix<double> got(32, 10);
  SketchSampler<double> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<double> v(32);
  perf::KernelCounters counters;
  kernel_jki(got, 0, 32, ab.block(0), sampler, v.data(), counters);
  EXPECT_EQ(sampler.samples_generated(), 32u * 8u);  // 8 nonempty rows
}

TEST(KernelJki, CountersMatchSamplesAndNonzeros) {
  // One sample of S per row of the block per nonempty row of A, summed over
  // every vertical block; each block is one kernel invocation.
  const auto a = abnormal_a<double>(64, 30, 4, 29);
  const auto ab = BlockedCsr<double>::from_csc(a, 8);
  const auto cfg = base_config(24);
  DenseMatrix<double> got(24, 30);
  SketchSampler<double> sampler(cfg.seed, cfg.dist, cfg.backend);
  std::vector<double> v(24);
  perf::KernelCounters counters;
  std::uint64_t nonempty_rows = 0;
  for (index_t b = 0; b < ab.num_blocks(); ++b) {
    kernel_jki(got, 0, 24, ab.block(b), sampler, v.data(), counters);
    nonempty_rows += static_cast<std::uint64_t>(ab.block(b).nonempty_rows);
  }
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.nnz());
  EXPECT_EQ(sampler.samples_generated(), 24u * nonempty_rows);
  EXPECT_EQ(counters.rng_samples, sampler.samples_generated());
  EXPECT_EQ(counters.nnz_processed, nnz);
  EXPECT_EQ(counters.flops, 2u * 24u * nnz);
  EXPECT_EQ(counters.kernel_blocks,
            static_cast<std::uint64_t>(ab.num_blocks()));
}

TEST(KernelsAgree, KjiEqualsJkiForMatchedBd) {
  // With the same seed and b_d, both kernels must produce bit-identical
  // results in exact-arithmetic terms (same generated values, same sums up
  // to FP reordering — the additions happen in a different order, so allow
  // a tiny tolerance).
  const auto a = random_sparse<double>(120, 40, 0.08, 29);
  auto cfg = base_config(60);
  cfg.block_d = 20;

  DenseMatrix<double> out_kji(60, 40);
  sketch_into(cfg, a, out_kji);
  cfg.kernel = KernelVariant::Jki;
  cfg.block_n = 9;
  DenseMatrix<double> out_jki(60, 40);
  sketch_into(cfg, a, out_jki);
  EXPECT_LT(out_kji.max_abs_diff(out_jki), 1e-10);
}

TEST(KernelJki, SampleCountFarBelowKji) {
  // §III-B: jki generates ~nnz-row-dependent samples, kji d×nnz.
  const auto a = random_sparse<double>(500, 100, 0.05, 31);
  const index_t d = 90;

  SketchConfig cfg = base_config(d);
  SketchSampler<double> s_kji(cfg.seed, cfg.dist, cfg.backend);
  DenseMatrix<double> out(d, 100);
  std::vector<double> v(static_cast<std::size_t>(d));
  perf::KernelCounters counters;
  kernel_kji(out, 0, d, 0, 100, a, s_kji, v.data(), counters);

  const auto ab = BlockedCsr<double>::from_csc(a, 100);
  SketchSampler<double> s_jki(cfg.seed, cfg.dist, cfg.backend);
  out.set_zero();
  kernel_jki(out, 0, d, ab.block(0), s_jki, v.data(), counters);

  EXPECT_LT(s_jki.samples_generated() * 2, s_kji.samples_generated());
}

}  // namespace
}  // namespace rsketch
