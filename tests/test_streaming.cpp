// The pylspack-style (1, m, 1) streaming scheme the paper contrasts against.
#include <gtest/gtest.h>

#include "sketch/sketch.hpp"
#include "sketch/streaming.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "sparse/validate.hpp"
#include "testdata/faults.hpp"

namespace rsketch {
namespace {

class StreamingDists : public ::testing::TestWithParam<Dist> {};

TEST_P(StreamingDists, MatchesBlockedKernel) {
  const auto a = random_sparse<double>(100, 35, 0.12, 1);
  SketchConfig cfg;
  cfg.d = 30;
  cfg.block_d = 30;
  cfg.dist = GetParam();
  DenseMatrix<double> blocked;
  sketch_into(cfg, a, blocked);
  DenseMatrix<double> streamed;
  streaming_sketch(cfg, csc_to_csr(a), streamed);
  ASSERT_EQ(streamed.rows(), blocked.rows());
  ASSERT_EQ(streamed.cols(), blocked.cols());
  for (index_t k = 0; k < blocked.cols(); ++k) {
    for (index_t i = 0; i < blocked.rows(); ++i) {
      ASSERT_EQ(streamed(i, k), blocked(i, k)) << i << "," << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDists, StreamingDists,
                         ::testing::Values(Dist::PmOne, Dist::Uniform,
                                           Dist::UniformScaled,
                                           Dist::Gaussian),
                         [](const ::testing::TestParamInfo<Dist>& info) {
                           std::string n = to_string(info.param);
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return n;
                         });

TEST(Streaming, SkipsEmptyRows) {
  // Only nonempty rows of A trigger generation of a column of S.
  const auto a = abnormal_a<double>(80, 12, 8, 2);  // 10 dense rows
  SketchConfig cfg;
  cfg.d = 24;
  cfg.block_d = 24;
  DenseMatrix<double> out;
  const auto stats = streaming_sketch(cfg, csc_to_csr(a), out);
  EXPECT_EQ(stats.samples_generated, 24u * 10u);
}

TEST(Streaming, SampleCountIsMinimal) {
  // (1, m, 1)-blocking generates at most d×(nonempty rows) — the memory-
  // optimal count, at the cost of touching all of Â per row.
  const auto a = random_sparse<double>(200, 50, 0.1, 3);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.block_d = 40;
  DenseMatrix<double> out;
  const auto stats = streaming_sketch(cfg, csc_to_csr(a), out);
  EXPECT_LE(stats.samples_generated, 40u * 200u);

  // Algorithm 3 on the same problem generates d per NONZERO: strictly more.
  SketchSampler<double> probe(cfg.seed, cfg.dist, cfg.backend);
  EXPECT_LT(stats.samples_generated,
            static_cast<std::uint64_t>(40) *
                static_cast<std::uint64_t>(a.nnz()));
}

TEST(Streaming, EmptyMatrix) {
  CsrMatrix<double> a(50, 0);
  SketchConfig cfg;
  cfg.d = 8;
  DenseMatrix<double> out;
  const auto stats = streaming_sketch(cfg, a, out);
  EXPECT_EQ(out.cols(), 0);
  EXPECT_EQ(stats.samples_generated, 0u);
}

TEST(Streaming, StatsReportTimeAndGflops) {
  const auto a = random_sparse<double>(500, 80, 0.05, 4);
  SketchConfig cfg;
  cfg.d = 64;
  DenseMatrix<double> out;
  const auto stats = streaming_sketch(cfg, csc_to_csr(a), out);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.gflops, 0.0);
}

TEST(Streaming, CheckInputsRejectsNonFiniteInput) {
  const auto clean = random_sparse<double>(60, 20, 0.2, 5);
  const auto bad =
      csc_to_csr(faults::corrupt_csc(clean, faults::CscFault::NanPayload, 1));
  SketchConfig cfg;
  cfg.d = 16;
  DenseMatrix<double> out;
  // Off by default: the hot path never scans.
  EXPECT_NO_THROW(streaming_sketch(cfg, bad, out));
  cfg.check_inputs = true;
  EXPECT_THROW(streaming_sketch(cfg, bad, out), validation_error);
  // Clean input sails through with the validators on.
  EXPECT_NO_THROW(streaming_sketch(cfg, csc_to_csr(clean), out));
}

}  // namespace
}  // namespace rsketch
