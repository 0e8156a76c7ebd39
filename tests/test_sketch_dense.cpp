// Dense sketch application Y = S·X: consistency with the sparse kernels'
// virtual S, vector convenience API, parallel determinism, run control.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "dense/microkernel.hpp"
#include "sketch/sketch.hpp"
#include "sketch/sketch_dense.hpp"
#include "sparse/generate.hpp"
#include "sparse/validate.hpp"
#include "support/run_control.hpp"

namespace rsketch {
namespace {

DenseMatrix<double> random_dense(index_t m, index_t k, std::uint64_t seed) {
  SketchSampler<double> g(seed, Dist::Uniform, RngBackend::Xoshiro);
  DenseMatrix<double> x(m, k);
  for (index_t c = 0; c < k; ++c) g.fill(0, c + 1000, x.col(c), m);
  return x;
}

TEST(SketchDense, MatchesMaterializedS) {
  const index_t m = 50, k = 7, d = 30;
  const auto x = random_dense(m, k, 1);
  SketchConfig cfg;
  cfg.d = d;
  cfg.block_d = 13;
  const auto s = materialize_S<double>(cfg, m);

  DenseMatrix<double> y;
  sketch_dense_into(cfg, x, y);
  for (index_t c = 0; c < k; ++c) {
    for (index_t i = 0; i < d; ++i) {
      double acc = 0.0;
      for (index_t j = 0; j < m; ++j) acc += s(i, j) * x(j, c);
      EXPECT_NEAR(y(i, c), acc, 1e-10) << i << "," << c;
    }
  }
}

TEST(SketchDense, ConsistentWithSparseSketchOfSameMatrix) {
  // Densifying A and sketching must agree with the sparse kernel.
  const auto a = random_sparse<double>(40, 12, 0.3, 2);
  SketchConfig cfg;
  cfg.d = 20;
  cfg.block_d = 9;
  DenseMatrix<double> a_dense(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.col_ptr()[j]; p < a.col_ptr()[j + 1]; ++p) {
      a_dense(a.row_idx()[p], j) = a.values()[p];
    }
  }
  DenseMatrix<double> from_dense;
  sketch_dense_into(cfg, a_dense, from_dense);
  DenseMatrix<double> from_sparse;
  sketch_into(cfg, a, from_sparse);
  EXPECT_LT(from_dense.max_abs_diff(from_sparse), 1e-10);
}

TEST(SketchDense, VectorConvenienceMatchesMatrixPath) {
  const index_t m = 33;
  std::vector<double> x(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i) x[static_cast<std::size_t>(i)] = 0.1 * i - 1.0;
  SketchConfig cfg;
  cfg.d = 14;
  const auto y = sketch_dense_vector(cfg, x.data(), m);

  DenseMatrix<double> xm(m, 1);
  for (index_t i = 0; i < m; ++i) xm(i, 0) = x[static_cast<std::size_t>(i)];
  DenseMatrix<double> ym;
  sketch_dense_into(cfg, xm, ym);
  for (index_t i = 0; i < cfg.d; ++i) {
    EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)], ym(i, 0));
  }
}

TEST(SketchDense, ParallelMatchesSequential) {
  const auto x = random_dense(200, 5, 3);
  SketchConfig cfg;
  cfg.d = 64;
  cfg.block_d = 16;
  cfg.parallel = ParallelOver::Sequential;
  DenseMatrix<double> seq;
  sketch_dense_into(cfg, x, seq);
  cfg.parallel = ParallelOver::DBlocks;
  DenseMatrix<double> par;
  sketch_dense_into(cfg, x, par);
  EXPECT_EQ(seq.max_abs_diff(par), 0.0);
}

TEST(SketchDense, SampleCountIndependentOfK) {
  // One regenerated column per (block, row) regardless of X's width.
  const auto x1 = random_dense(100, 1, 4);
  const auto x8 = random_dense(100, 8, 4);
  SketchConfig cfg;
  cfg.d = 32;
  cfg.block_d = 32;
  DenseMatrix<double> y;
  const auto s1 = sketch_dense_into(cfg, x1, y);
  const auto s8 = sketch_dense_into(cfg, x8, y);
  EXPECT_EQ(s1.samples_generated, s8.samples_generated);
  EXPECT_EQ(s1.samples_generated, 32u * 100u);
}

TEST(SketchDense, NormPreservationWithNormalize) {
  const auto x = random_dense(300, 3, 5);
  SketchConfig cfg;
  cfg.d = 256;
  cfg.dist = Dist::PmOne;
  cfg.normalize = true;
  DenseMatrix<double> y;
  sketch_dense_into(cfg, x, y);
  for (index_t c = 0; c < 3; ++c) {
    double orig = 0.0, sk = 0.0;
    for (index_t i = 0; i < 300; ++i) orig += x(i, c) * x(i, c);
    for (index_t i = 0; i < 256; ++i) sk += y(i, c) * y(i, c);
    EXPECT_NEAR(std::sqrt(sk / orig), 1.0, 0.3);
  }
}

TEST(SketchDense, CheckInputsRejectsNonFiniteInput) {
  DenseMatrix<double> x(30, 4);
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) x(i, j) = 1.0;
  }
  x(7, 2) = std::numeric_limits<double>::quiet_NaN();
  SketchConfig cfg;
  cfg.d = 8;
  DenseMatrix<double> y;
  // Off by default: the hot path never scans.
  EXPECT_NO_THROW(sketch_dense_into(cfg, x, y));
  cfg.check_inputs = true;
  try {
    sketch_dense_into(cfg, x, y);
    FAIL() << "check_inputs must reject the NaN";
  } catch (const validation_error& e) {
    // The report attributes the finding to the offending column.
    EXPECT_NE(std::string(e.what()).find("column 2"), std::string::npos)
        << e.what();
  }
  x(7, 2) = 0.0;
  EXPECT_NO_THROW(sketch_dense_into(cfg, x, y));
}

// ------------------------------------------------------------ run control --

constexpr double kSentinel = -123.25;

DenseMatrix<double> sentinel_matrix(index_t rows, index_t cols) {
  DenseMatrix<double> m(rows, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) m(i, j) = kSentinel;
  }
  return m;
}

void expect_sentinel_intact(const DenseMatrix<double>& m) {
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) {
      ASSERT_EQ(m(i, j), kSentinel) << "output mutated at (" << i << ", " << j
                                    << ") despite the stop";
    }
  }
}

/// Expect `cfg` to stop sketch_dense_into with `cause` before touching y.
void expect_stopped_untouched(const SketchConfig& cfg, StopCause cause) {
  const auto x = random_dense(50, 7, 4);
  auto y = sentinel_matrix(cfg.d, x.cols());
  try {
    sketch_dense_into(cfg, x, y);
    FAIL() << "a fired bound must stop the dense sketch";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), cause);
  }
  expect_sentinel_intact(y);
}

TEST(SketchDense, PreCancelledControlLeavesOutputUntouched) {
  SketchConfig cfg;
  cfg.d = 30;
  cfg.block_d = 13;
  RunControl rc;
  rc.request_cancel();
  cfg.control = &rc;
  expect_stopped_untouched(cfg, StopCause::Cancelled);
}

TEST(SketchDense, ExpiredDeadlineLeavesOutputUntouched) {
  SketchConfig cfg;
  cfg.d = 30;
  cfg.block_d = 13;
  // Sub-nanosecond: the deadline has passed by the time the entry poll
  // reads the (monotonic) clock.
  cfg.deadline_ms = 1e-9;
  expect_stopped_untouched(cfg, StopCause::DeadlineExceeded);
}

TEST(SketchDense, ExhaustedBudgetLeavesOutputUntouched) {
  SketchConfig cfg;
  cfg.d = 30;
  cfg.block_d = 13;
  cfg.parallel = ParallelOver::DBlocks;
  cfg.workspace_budget_bytes = 1;  // not even one scratch column fits
  expect_stopped_untouched(cfg, StopCause::BudgetExceeded);
}

TEST(SketchDense, UnarmedAndArmedMatchBlockwiseReferenceBitwise) {
  // Reference: the kernel's exact operation sequence — for each b_d row
  // block, S-column by S-column, one axpy of the dispatched micro-kernel
  // table per column of X — replayed over the materialized S (Uniform, no
  // normalization: post-scale is 1).
  const index_t m = 50, k = 7;
  const auto x = random_dense(m, k, 5);
  SketchConfig cfg;
  cfg.d = 30;
  cfg.block_d = 13;
  cfg.parallel = ParallelOver::DBlocks;
  const auto s = materialize_S<double>(cfg, m);
  const auto& mk = microkernel::ops<double>(microkernel::resolve(cfg.isa));
  DenseMatrix<double> ref(cfg.d, k);
  for (index_t i0 = 0; i0 < cfg.d; i0 += cfg.block_d) {
    const index_t d1 = std::min(cfg.block_d, cfg.d - i0);
    for (index_t j = 0; j < m; ++j) {
      for (index_t c = 0; c < k; ++c) {
        mk.axpy(d1, x(j, c), s.col(j) + i0, ref.col(c) + i0);
      }
    }
  }

  auto plain = sentinel_matrix(cfg.d, k);  // reused output: must be zeroed
  sketch_dense_into(cfg, x, plain);
  SketchConfig armed = cfg;
  armed.deadline_ms = 1e9;
  armed.workspace_budget_bytes = std::size_t{1} << 40;
  DenseMatrix<double> bounded;
  sketch_dense_into(armed, x, bounded);
  for (index_t c = 0; c < k; ++c) {
    for (index_t i = 0; i < cfg.d; ++i) {
      ASSERT_EQ(plain(i, c), ref(i, c)) << i << "," << c;
      ASSERT_EQ(bounded(i, c), ref(i, c)) << i << "," << c;
    }
  }
}

}  // namespace
}  // namespace rsketch
