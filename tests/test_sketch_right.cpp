// Right-sketching B = A·Sᵀ: correctness against materialized S, blocking
// invariants, sample counting, parallel determinism, run control.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "dense/microkernel.hpp"
#include "sketch/sketch.hpp"
#include "sketch/sketch_right.hpp"
#include "sparse/generate.hpp"
#include "sparse/validate.hpp"
#include "support/run_control.hpp"
#include "testdata/faults.hpp"

namespace rsketch {
namespace {

/// Dense reference B = A·Sᵀ from the materialized sketch S (d×n).
std::vector<double> reference(const SketchConfig& cfg,
                              const CscMatrix<double>& a) {
  const auto s = materialize_S<double>(cfg, a.cols());
  std::vector<double> b(static_cast<std::size_t>(a.rows() * cfg.d), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t c = 0; c < cfg.d; ++c) {
      double acc = 0.0;
      for (index_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * s(c, k);
      b[static_cast<std::size_t>(i * cfg.d + c)] = acc;
    }
  }
  return b;
}

using Combo = std::tuple<Dist, index_t, ParallelOver>;

class SketchRight : public ::testing::TestWithParam<Combo> {};

TEST_P(SketchRight, MatchesMaterializedProduct) {
  const auto [dist, bd, par] = GetParam();
  const auto a = random_sparse<double>(60, 45, 0.1, 77);
  SketchConfig cfg;
  cfg.d = 24;
  cfg.seed = 9;
  cfg.dist = dist;
  cfg.block_d = bd;
  cfg.parallel = par;

  std::vector<double> b;
  sketch_right_into(cfg, a, b);
  const auto expect = reference(cfg, a);
  ASSERT_EQ(b.size(), expect.size());
  double max_diff = 0.0;
  for (std::size_t p = 0; p < b.size(); ++p) {
    max_diff = std::max(max_diff, std::abs(b[p] - expect[p]));
  }
  const double tol = dist == Dist::UniformScaled ? 1e-7 : 1e-10;
  EXPECT_LT(max_diff, tol);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SketchRight,
    ::testing::Combine(::testing::Values(Dist::PmOne, Dist::Uniform,
                                         Dist::UniformScaled, Dist::Gaussian),
                       ::testing::Values(index_t{24}, index_t{7}, index_t{1}),
                       ::testing::Values(ParallelOver::Sequential,
                                         ParallelOver::DBlocks)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_bd" +
                         std::to_string(std::get<1>(info.param)) + "_" +
                         to_string(std::get<2>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SketchRight, SampleCountIsDTimesNonemptyColumnsPerBlock) {
  // Reuse across a CSC column means exactly d samples per nonempty column.
  const auto a = abnormal_c<double>(40, 30, 10, 3);  // 3 dense, 27 empty cols
  SketchConfig cfg;
  cfg.d = 16;
  cfg.block_d = 16;
  std::vector<double> b;
  const auto stats = sketch_right_into(cfg, a, b);
  EXPECT_EQ(stats.samples_generated, 16u * 3u);
}

TEST(SketchRight, ParallelMatchesSequentialExactly) {
  const auto a = random_sparse<double>(120, 80, 0.05, 5);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.block_d = 8;
  cfg.parallel = ParallelOver::Sequential;
  std::vector<double> seq, par;
  sketch_right_into(cfg, a, seq);
  cfg.parallel = ParallelOver::DBlocks;
  sketch_right_into(cfg, a, par);
  EXPECT_EQ(seq, par);
}

TEST(SketchRight, PhiloxBlockingIndependent) {
  const auto a = random_sparse<double>(50, 35, 0.15, 6);
  SketchConfig cfg;
  cfg.d = 20;
  cfg.backend = RngBackend::Philox;
  cfg.block_d = 20;
  std::vector<double> b1, b2;
  sketch_right_into(cfg, a, b1);
  cfg.block_d = 3;
  sketch_right_into(cfg, a, b2);
  for (std::size_t p = 0; p < b1.size(); ++p) {
    ASSERT_NEAR(b1[p], b2[p], 1e-12);
  }
}

TEST(SketchRight, NormalizePreservesColumnNormsApproximately) {
  // Rows of B approximate rows of A in norm after normalization.
  const auto a = random_sparse<double>(30, 400, 0.1, 8);
  SketchConfig cfg;
  cfg.d = 320;
  cfg.dist = Dist::PmOne;
  cfg.normalize = true;
  std::vector<double> b;
  sketch_right_into(cfg, a, b);
  for (index_t i = 0; i < 10; ++i) {
    double orig = 0.0, sk = 0.0;
    for (index_t k = 0; k < a.cols(); ++k) orig += a.at(i, k) * a.at(i, k);
    for (index_t c = 0; c < cfg.d; ++c) {
      const double v = b[static_cast<std::size_t>(i * cfg.d + c)];
      sk += v * v;
    }
    if (orig == 0.0) continue;
    EXPECT_NEAR(std::sqrt(sk / orig), 1.0, 0.35) << "row " << i;
  }
}

TEST(SketchRight, EmptyAndInvalidInputs) {
  CscMatrix<double> empty(10, 0);
  SketchConfig cfg;
  cfg.d = 4;
  std::vector<double> b;
  sketch_right_into(cfg, empty, b);
  EXPECT_EQ(b.size(), 40u);
  for (double v : b) EXPECT_EQ(v, 0.0);

  const auto a = random_sparse<double>(5, 5, 0.5, 1);
  cfg.block_d = 0;
  EXPECT_THROW(sketch_right_into(cfg, a, b), invalid_argument_error);
}

TEST(SketchRight, CheckInputsRejectsCorruptInput) {
  const auto clean = random_sparse<double>(60, 20, 0.2, 5);
  // A value fault (not structural): safe to execute unvalidated, so the test
  // can show the default path really skips the scan.
  const auto bad = faults::corrupt_csc(clean, faults::CscFault::NanPayload, 1);
  SketchConfig cfg;
  cfg.d = 16;
  std::vector<double> b;
  // Off by default: the hot path never validates.
  EXPECT_NO_THROW(sketch_right_into(cfg, bad, b));
  cfg.check_inputs = true;
  EXPECT_THROW(sketch_right_into(cfg, bad, b), validation_error);
  EXPECT_NO_THROW(sketch_right_into(cfg, clean, b));
}

// ------------------------------------------------------------ run control --

constexpr double kSentinel = -123.25;

/// Expect `cfg` to stop sketch_right_into with `cause` before touching b.
void expect_stopped_untouched(const SketchConfig& cfg, StopCause cause) {
  const auto a = random_sparse<double>(60, 45, 0.1, 78);
  std::vector<double> b(static_cast<std::size_t>(a.rows() * cfg.d), kSentinel);
  try {
    sketch_right_into(cfg, a, b);
    FAIL() << "a fired bound must stop the right sketch";
  } catch (const run_stopped_error& e) {
    EXPECT_EQ(e.cause(), cause);
  }
  ASSERT_EQ(b.size(), static_cast<std::size_t>(a.rows() * cfg.d));
  for (std::size_t p = 0; p < b.size(); ++p) {
    ASSERT_EQ(b[p], kSentinel) << "output mutated at " << p
                               << " despite the stop";
  }
}

TEST(SketchRight, PreCancelledControlLeavesOutputUntouched) {
  SketchConfig cfg;
  cfg.d = 24;
  cfg.block_d = 7;
  RunControl rc;
  rc.request_cancel();
  cfg.control = &rc;
  expect_stopped_untouched(cfg, StopCause::Cancelled);
}

TEST(SketchRight, ExpiredDeadlineLeavesOutputUntouched) {
  SketchConfig cfg;
  cfg.d = 24;
  cfg.block_d = 7;
  // Sub-nanosecond: the deadline has passed by the time the entry poll
  // reads the (monotonic) clock.
  cfg.deadline_ms = 1e-9;
  expect_stopped_untouched(cfg, StopCause::DeadlineExceeded);
}

TEST(SketchRight, ExhaustedBudgetLeavesOutputUntouched) {
  SketchConfig cfg;
  cfg.d = 24;
  cfg.block_d = 7;
  cfg.parallel = ParallelOver::DBlocks;
  cfg.workspace_budget_bytes = 1;  // not even one scratch column fits
  expect_stopped_untouched(cfg, StopCause::BudgetExceeded);
}

TEST(SketchRight, UnarmedAndArmedMatchBlockwiseReferenceBitwise) {
  // Reference: the kernel's exact operation sequence — for each b_d block of
  // S's rows, column k of A by column k, one axpy of the dispatched
  // micro-kernel table per stored entry — replayed over the materialized S
  // (Uniform, no normalization: post-scale is 1).
  const auto a = random_sparse<double>(60, 45, 0.1, 79);
  SketchConfig cfg;
  cfg.d = 24;
  cfg.block_d = 7;
  cfg.parallel = ParallelOver::DBlocks;
  const auto s = materialize_S<double>(cfg, a.cols());
  const auto& mk = microkernel::ops<double>(microkernel::resolve(cfg.isa));
  std::vector<double> ref(static_cast<std::size_t>(a.rows() * cfg.d), 0.0);
  for (index_t c0 = 0; c0 < cfg.d; c0 += cfg.block_d) {
    const index_t d1 = std::min(cfg.block_d, cfg.d - c0);
    for (index_t k = 0; k < a.cols(); ++k) {
      for (index_t p = a.col_ptr()[k]; p < a.col_ptr()[k + 1]; ++p) {
        mk.axpy(d1, a.values()[p], s.col(k) + c0,
                ref.data() + a.row_idx()[p] * cfg.d + c0);
      }
    }
  }

  std::vector<double> plain(3, kSentinel);  // reused output: reshaped
  sketch_right_into(cfg, a, plain);
  SketchConfig armed = cfg;
  armed.deadline_ms = 1e9;
  armed.workspace_budget_bytes = std::size_t{1} << 40;
  std::vector<double> bounded;
  sketch_right_into(armed, a, bounded);
  EXPECT_EQ(plain, ref);
  EXPECT_EQ(bounded, ref);
}

}  // namespace
}  // namespace rsketch
