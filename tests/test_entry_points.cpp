// The five sketch entry points share one arithmetic: every one of them
// applies S through SketchSampler::accumulate, so for the same A, seed and
// b_d they produce the same bits — sketch_into with either kernel,
// streaming_sketch of A's CSR, sketch_dense_into of a dense copy of A, and
// sketch_right_into of Aᵀ read transposed. Equality here is exact: a
// contracted (fused multiply-add) update in any one of them rounds
// differently and fails the test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sketch/sketch.hpp"
#include "sketch/sketch_dense.hpp"
#include "sketch/sketch_right.hpp"
#include "sketch/streaming.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

template <typename T>
void check_entry_points(Dist dist, RngBackend backend) {
  // 6 rows per 40 columns on average, so rows and columns span several
  // jam groups; d = 45 with b_d = 20 leaves a short last row block, and
  // neither is a multiple of a sampler chunk (16 or 64).
  const auto a = random_sparse<T>(90, 40, 0.15, 31);
  SketchConfig cfg;
  cfg.d = 45;
  cfg.block_d = 20;
  cfg.block_n = 16;
  cfg.dist = dist;
  cfg.backend = backend;
  const std::string where = to_string(dist) + " / " + to_string(backend) +
                            (sizeof(T) == 4 ? " / float" : " / double");

  DenseMatrix<T> kji;
  cfg.kernel = KernelVariant::Kji;
  sketch_into(cfg, a, kji);
  DenseMatrix<T> jki;
  cfg.kernel = KernelVariant::Jki;
  sketch_into(cfg, a, jki);
  DenseMatrix<T> streamed;
  streaming_sketch(cfg, csc_to_csr(a), streamed);
  DenseMatrix<T> x(a.rows(), a.cols());
  for (index_t k = 0; k < a.cols(); ++k) {
    for (index_t p = a.col_ptr()[k]; p < a.col_ptr()[k + 1]; ++p) {
      x(a.row_idx()[p], k) = a.values()[p];
    }
  }
  DenseMatrix<T> dense;
  sketch_dense_into(cfg, x, dense);
  std::vector<T> right;  // (Aᵀ·Sᵀ), row-major n×d
  sketch_right_into(cfg, transpose(a), right);

  ASSERT_EQ(right.size(), static_cast<std::size_t>(cfg.d * a.cols()));
  for (index_t k = 0; k < a.cols(); ++k) {
    for (index_t i = 0; i < cfg.d; ++i) {
      const T want = kji(i, k);
      ASSERT_EQ(jki(i, k), want) << "jki " << where << " at " << i << "," << k;
      ASSERT_EQ(streamed(i, k), want)
          << "streaming " << where << " at " << i << "," << k;
      ASSERT_EQ(dense(i, k), want)
          << "dense " << where << " at " << i << "," << k;
      ASSERT_EQ(right[static_cast<std::size_t>(k * cfg.d + i)], want)
          << "right " << where << " at " << i << "," << k;
    }
  }
}

TEST(SketchEntryPoints, AgreeBitwise) {
  for (Dist dist :
       {Dist::PmOne, Dist::Uniform, Dist::UniformScaled, Dist::Gaussian}) {
    for (RngBackend backend : {RngBackend::Xoshiro, RngBackend::XoshiroBatch,
                               RngBackend::Philox}) {
      check_entry_points<float>(dist, backend);
      check_entry_points<double>(dist, backend);
    }
  }
}

}  // namespace
}  // namespace rsketch
