// Cross-ISA bitwise reproducibility of the micro-kernel layer
// (dense/microkernel.hpp): every compiled tier (scalar / AVX2 / AVX-512)
// must produce a bit-for-bit identical sketch Â. The tiers share one
// templated implementation compiled with -ffp-contract=off, so each entry
// is the same sequence of individually rounded mul+add operations at any
// vector width — equality here is exact, not tolerance-based.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "dense/microkernel.hpp"
#include "rng/distributions.hpp"
#include "sketch/sketch.hpp"
#include "sketch/sketch_dense.hpp"
#include "sketch/sketch_right.hpp"
#include "sketch/streaming.hpp"
#include "sparse/coo.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

/// Scalar plus every SIMD tier this build + CPU can actually run.
std::vector<microkernel::Isa> supported_isas() {
  std::vector<microkernel::Isa> out = {microkernel::Isa::Scalar};
  if (microkernel::supported(microkernel::Isa::Avx2)) {
    out.push_back(microkernel::Isa::Avx2);
  }
  if (microkernel::supported(microkernel::Isa::Avx512)) {
    out.push_back(microkernel::Isa::Avx512);
  }
  return out;
}

/// Bitwise equality over the logical entries (padded tail rows excluded —
/// they are zero-initialized but not part of the contract).
template <typename T>
void expect_bitwise_equal(const DenseMatrix<T>& a, const DenseMatrix<T>& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    ASSERT_EQ(0, std::memcmp(a.col(j), b.col(j),
                             static_cast<std::size_t>(a.rows()) * sizeof(T)))
        << what << ": column " << j << " differs";
  }
}

template <typename T>
SketchConfig isa_config(KernelVariant kernel, Dist dist) {
  SketchConfig cfg;
  cfg.d = 96;
  cfg.seed = 777;
  cfg.dist = dist;
  cfg.backend = RngBackend::XoshiroBatch;
  cfg.kernel = kernel;
  // Small odd-ish blocks so row/column block boundaries, jam tails (hi-lo
  // not a multiple of 4), and chunk tails (d1 % 16 != 0) all occur.
  cfg.block_d = 40;
  cfg.block_n = 17;
  cfg.parallel = ParallelOver::Sequential;
  return cfg;
}

template <typename T>
void check_all_isas(KernelVariant kernel, Dist dist) {
  const auto a = random_sparse<T>(150, 60, 0.08, 31);
  const std::vector<microkernel::Isa> isas = supported_isas();

  SketchConfig cfg = isa_config<T>(kernel, dist);
  cfg.isa = isas.front();  // Scalar reference
  DenseMatrix<T> ref(cfg.d, a.cols());
  const SketchStats ref_stats = sketch_into(cfg, a, ref);
  EXPECT_EQ(ref_stats.isa, microkernel::Isa::Scalar);

  for (std::size_t t = 1; t < isas.size(); ++t) {
    SketchConfig tier_cfg = isa_config<T>(kernel, dist);
    tier_cfg.isa = isas[t];
    DenseMatrix<T> got(tier_cfg.d, a.cols());
    const SketchStats stats = sketch_into(tier_cfg, a, got);
    EXPECT_EQ(stats.isa, isas[t]);
    EXPECT_EQ(stats.samples_generated, ref_stats.samples_generated)
        << "ISA tier must not change the RNG stream consumption";
    expect_bitwise_equal(ref, got,
                         std::string("isa=") +
                             microkernel::to_string(isas[t]) + " dist=" +
                             to_string(dist) + " kernel=" + to_string(kernel));
  }
}

TEST(SimdEquivalence, KjiAllDistsDouble) {
  for (Dist dist :
       {Dist::PmOne, Dist::Uniform, Dist::UniformScaled, Dist::Gaussian}) {
    check_all_isas<double>(KernelVariant::Kji, dist);
  }
}

TEST(SimdEquivalence, JkiAllDistsDouble) {
  for (Dist dist :
       {Dist::PmOne, Dist::Uniform, Dist::UniformScaled, Dist::Gaussian}) {
    check_all_isas<double>(KernelVariant::Jki, dist);
  }
}

TEST(SimdEquivalence, KjiAllDistsFloat) {
  for (Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    check_all_isas<float>(KernelVariant::Kji, dist);
  }
}

TEST(SimdEquivalence, JkiAllDistsFloat) {
  for (Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    check_all_isas<float>(KernelVariant::Jki, dist);
  }
}

/// Test-local kji reference on the buffered path: for every column k and
/// row block i0, sampler.fill() then the sampler's tier's axpy per nonzero
/// in the kernel's (ascending CSC) order, then the post-scale — what
/// kernel_kji computes when the sampler is not fused-eligible. Returns the
/// number of samples generated.
template <typename T>
std::uint64_t buffered_kji_reference(const SketchConfig& cfg,
                                     const CscMatrix<T>& a,
                                     DenseMatrix<T>& out) {
  SketchSampler<T> sampler(cfg.seed, cfg.dist, cfg.backend, cfg.isa);
  const auto& mk = microkernel::ops<T>(sampler.isa());
  std::vector<T> v(static_cast<std::size_t>(cfg.block_d));
  for (index_t k = 0; k < a.cols(); ++k) {
    for (index_t i0 = 0; i0 < cfg.d; i0 += cfg.block_d) {
      const index_t d1 = std::min(cfg.block_d, cfg.d - i0);
      for (index_t p = a.col_ptr()[k]; p < a.col_ptr()[k + 1]; ++p) {
        sampler.fill(i0, a.row_idx()[p], v.data(), d1);
        mk.axpy(d1, a.values()[p], v.data(), out.col(k) + i0);
      }
    }
  }
  const T scale = sketch_post_scale<T>(cfg);
  for (index_t k = 0; k < a.cols(); ++k) {
    for (index_t i = 0; i < cfg.d; ++i) out(i, k) *= scale;
  }
  return sampler.samples_generated();
}

// The kji fused generate-and-axpy path that sketch_into takes for the
// batched backend must be bitwise identical to the buffered fill-then-axpy
// reference and must consume the RNG stream in exactly the same amount —
// samples_generated included.
TEST(SimdEquivalence, FusedMatchesBufferedKji) {
  const auto a = random_sparse<double>(120, 45, 0.1, 97);
  for (Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    for (microkernel::Isa isa : supported_isas()) {
      SketchConfig cfg = isa_config<double>(KernelVariant::Kji, dist);
      cfg.isa = isa;
      ASSERT_TRUE(SketchSampler<double>(cfg.seed, dist, cfg.backend, isa)
                      .fused_eligible());

      DenseMatrix<double> fused(cfg.d, a.cols());
      const SketchStats fused_stats = sketch_into(cfg, a, fused);

      DenseMatrix<double> buffered(cfg.d, a.cols());
      const std::uint64_t buffered_samples =
          buffered_kji_reference(cfg, a, buffered);

      EXPECT_EQ(fused_stats.samples_generated, buffered_samples);
      expect_bitwise_equal(fused, buffered,
                           std::string("fused-vs-buffered isa=") +
                               microkernel::to_string(isa) + " dist=" +
                               to_string(dist));
    }
  }
}

/// A 30×24 matrix whose two 12-column slabs hold rows of 1, 2, 3, 4, 5, 7,
/// 9 and 12 nonzeros (a single fused column, every jam width, one and two
/// full jams plus a tail, and three full jams), between empty rows.
template <typename T>
CscMatrix<T> jam_width_matrix() {
  struct Run {
    index_t row, first_col, count;
  };
  const Run runs[] = {{0, 0, 1},   {2, 3, 2},   {5, 1, 3},   {7, 4, 4},
                      {11, 0, 5},  {13, 2, 9},  {20, 0, 12}, {1, 12, 9},
                      {2, 15, 5},  {4, 14, 4},  {6, 20, 3},  {13, 18, 2},
                      {28, 12, 7}, {29, 23, 1}};
  CooMatrix<T> coo(30, 24);
  for (const Run& r : runs) {
    for (index_t c = r.first_col; c < r.first_col + r.count; ++c) {
      const double v =
          1.0 + 0.125 * static_cast<double>((r.row * 7 + c * 3) % 11);
      coo.push(r.row, c, static_cast<T>(v));
    }
  }
  return coo_to_csc(coo);
}

/// Test-local jki reference on the buffered path, read from A's CSR rather
/// than the blocked structure: for every slab of cfg.block_n columns, row
/// block i0 and row j of A with entries in the slab (ascending), one
/// sampler.fill() then the sampler's tier's axpy_multi over the row's
/// entries, kMaxJam at a time, then the post-scale. Returns the samples
/// generated.
template <typename T>
std::uint64_t buffered_jki_reference(const SketchConfig& cfg,
                                     const CscMatrix<T>& a,
                                     DenseMatrix<T>& out) {
  SketchSampler<T> sampler(cfg.seed, cfg.dist, cfg.backend, cfg.isa);
  const auto& mk = microkernel::ops<T>(sampler.isa());
  const auto rows = csc_to_csr(a);
  std::vector<T> v(static_cast<std::size_t>(cfg.block_d));
  for (index_t c0 = 0; c0 < a.cols(); c0 += cfg.block_n) {
    const index_t c1 = std::min(a.cols(), c0 + cfg.block_n);
    for (index_t i0 = 0; i0 < cfg.d; i0 += cfg.block_d) {
      const index_t d1 = std::min(cfg.block_d, cfg.d - i0);
      for (index_t j = 0; j < a.rows(); ++j) {
        std::vector<T> alphas;
        std::vector<T*> ys;
        for (index_t p = rows.row_ptr()[j]; p < rows.row_ptr()[j + 1]; ++p) {
          const index_t col = rows.col_idx()[p];
          if (col < c0 || col >= c1) continue;
          alphas.push_back(rows.values()[p]);
          ys.push_back(out.col(col) + i0);
        }
        if (alphas.empty()) continue;
        sampler.fill(i0, j, v.data(), d1);
        const auto count = static_cast<index_t>(alphas.size());
        for (index_t q = 0; q < count; q += microkernel::kMaxJam) {
          mk.axpy_multi(d1, v.data(), alphas.data() + q, ys.data() + q,
                        std::min(microkernel::kMaxJam, count - q));
        }
      }
    }
  }
  const T scale = sketch_post_scale<T>(cfg);
  for (index_t k = 0; k < a.cols(); ++k) {
    for (index_t i = 0; i < cfg.d; ++i) out(i, k) *= scale;
  }
  return sampler.samples_generated();
}

template <typename T>
void check_fused_jki() {
  const auto a = jam_width_matrix<T>();
  for (Dist dist : {Dist::PmOne, Dist::Uniform, Dist::UniformScaled}) {
    for (microkernel::Isa isa : supported_isas()) {
      SketchConfig cfg = isa_config<T>(KernelVariant::Jki, dist);
      cfg.block_n = 12;
      cfg.isa = isa;
      ASSERT_TRUE(
          SketchSampler<T>(cfg.seed, dist, cfg.backend, isa).fused_eligible());

      DenseMatrix<T> fused(cfg.d, a.cols());
      const SketchStats fused_stats = sketch_into(cfg, a, fused);

      DenseMatrix<T> buffered(cfg.d, a.cols());
      const std::uint64_t buffered_samples =
          buffered_jki_reference(cfg, a, buffered);

      EXPECT_EQ(fused_stats.samples_generated, buffered_samples);
      expect_bitwise_equal(fused, buffered,
                           std::string("fused-vs-buffered jki isa=") +
                               microkernel::to_string(isa) + " dist=" +
                               to_string(dist) + " " +
                               (sizeof(T) == 4 ? "float" : "double"));
    }
  }
}

// The jki fused path (one generator sweep per row of a slab, each chunk
// applied to every destination column) must be bitwise identical to
// filling v once per row and jamming it into the row's columns, and must
// generate exactly as many samples.
TEST(SimdEquivalence, FusedMatchesBufferedJki) {
  check_fused_jki<double>();
  check_fused_jki<float>();
}

/// Fused ±1 accumulate (the sign select out += bit ? -a : a) against the
/// buffered reference (fill v, then axpy_multi's a * v), bit for bit, for
/// alphas at the edges of T: signed zeros, the smallest subnormal, −max,
/// ±inf and a huge finite value. y starts with −0 entries too, so a zero of
/// the wrong sign would show. NaN alphas are left out: a folded a * −1 may
/// flip a NaN's sign bit (docs/ROBUSTNESS.md, "Run envelope").
template <typename T>
void check_pm1_select(microkernel::Isa isa) {
  using lim = std::numeric_limits<T>;
  const T huge = sizeof(T) == sizeof(double) ? static_cast<T>(1e300)
                                             : static_cast<T>(1e30);
  const T alphas[] = {T{0},          -T{0},          lim::denorm_min(),
                      -lim::max(),   lim::infinity(), -lim::infinity(),
                      huge};
  const index_t col = 0;
  for (const index_t n : {index_t{1}, index_t{63}, index_t{64}, index_t{65},
                          index_t{3000}}) {
    std::vector<T> init(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      init[static_cast<std::size_t>(i)] =
          i % 3 == 0 ? -T{0} : static_cast<T>(0.5 * static_cast<double>(i % 7) - 1.0);
    }
    for (const T a : alphas) {
      SketchSampler<T> fused(4242, Dist::PmOne, RngBackend::XoshiroBatch, isa);
      ASSERT_TRUE(fused.fused_eligible());
      std::vector<T> got = init;
      std::vector<T> scratch(static_cast<std::size_t>(n));
      fused.accumulate(3000, 17, &a, &col, 1, got.data(), n, n,
                       scratch.data());

      SketchSampler<T> buffered(4242, Dist::PmOne, RngBackend::XoshiroBatch,
                                isa);
      std::vector<T> want = init;
      std::vector<T> v(static_cast<std::size_t>(n));
      buffered.fill(3000, 17, v.data(), n);
      T* const ys[] = {want.data()};
      microkernel::ops<T>(buffered.isa()).axpy_multi(n, v.data(), &a, ys, 1);

      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               static_cast<std::size_t>(n) * sizeof(T)))
          << (sizeof(T) == 4 ? "float" : "double") << " a=" << a
          << " n=" << n << " isa=" << microkernel::to_string(isa);
    }
  }
}

TEST(SimdEquivalence, PmOneSelectMatchesMultiply) {
  for (microkernel::Isa isa : supported_isas()) {
    check_pm1_select<double>(isa);
    check_pm1_select<float>(isa);
  }
}

// The entry points off the blocked driver honour cfg.isa and report the
// tier their sampler ran: Auto resolves like the blocked kernels, a pinned
// tier is the one reported.
TEST(SimdEquivalence, StreamingDenseAndRightReportTheirTier) {
  const auto a = random_sparse<double>(80, 30, 0.1, 5);
  const auto a_csr = csc_to_csr(a);
  DenseMatrix<double> x(80, 6);
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) x(i, j) = 0.25 * (i - j);
  }
  for (microkernel::Isa isa : {microkernel::Isa::Auto,
                               microkernel::Isa::Scalar}) {
    SketchConfig cfg = isa_config<double>(KernelVariant::Kji, Dist::Uniform);
    cfg.isa = isa;
    const microkernel::Isa want = microkernel::resolve(isa);
    DenseMatrix<double> streamed;
    EXPECT_EQ(streaming_sketch(cfg, a_csr, streamed).isa, want)
        << "streaming isa=" << microkernel::to_string(isa);
    DenseMatrix<double> dense;
    EXPECT_EQ(sketch_dense_into(cfg, x, dense).isa, want)
        << "dense isa=" << microkernel::to_string(isa);
    std::vector<double> right;
    EXPECT_EQ(sketch_right_into(cfg, a, right).isa, want)
        << "right isa=" << microkernel::to_string(isa);
  }
}

// Direct sampler check: fill() output per (r, j) checkpoint is the same bit
// pattern on every tier, including non-chunked distributions that fall back
// to the shared generic path.
TEST(SimdEquivalence, SamplerFillMatchesAcrossIsas) {
  constexpr index_t kN = 53;  // not a multiple of any chunk size
  for (Dist dist :
       {Dist::PmOne, Dist::Uniform, Dist::UniformScaled, Dist::Gaussian}) {
    SketchSampler<double> ref(99, dist, RngBackend::XoshiroBatch,
                              microkernel::Isa::Scalar);
    std::vector<double> vref(kN);
    ref.fill(3, 7, vref.data(), kN);
    for (microkernel::Isa isa : supported_isas()) {
      SketchSampler<double> s(99, dist, RngBackend::XoshiroBatch, isa);
      std::vector<double> v(kN);
      s.fill(3, 7, v.data(), kN);
      EXPECT_EQ(0, std::memcmp(vref.data(), v.data(), kN * sizeof(double)))
          << "dist=" << to_string(dist)
          << " isa=" << microkernel::to_string(isa);
    }
  }
}

// Dispatch plumbing: resolve() honors explicit tiers, best_supported() is
// itself supported, and every supported tier has a populated ops table.
TEST(SimdEquivalence, DispatchInvariants) {
  EXPECT_TRUE(microkernel::supported(microkernel::Isa::Scalar));
  const microkernel::Isa best = microkernel::best_supported();
  EXPECT_TRUE(microkernel::supported(best));
  EXPECT_NE(best, microkernel::Isa::Auto);
  for (microkernel::Isa isa : supported_isas()) {
    EXPECT_EQ(microkernel::resolve(isa), isa);
    const auto& ops = microkernel::ops<double>(isa);
    EXPECT_NE(ops.axpy, nullptr);
    EXPECT_NE(ops.axpy_multi, nullptr);
    EXPECT_NE(ops.fill, nullptr);
    EXPECT_NE(ops.fused_axpy_multi, nullptr);
    const auto& fops = microkernel::ops<float>(isa);
    EXPECT_NE(fops.axpy, nullptr);
    EXPECT_NE(fops.fused_axpy_multi, nullptr);
  }
  microkernel::Isa parsed = microkernel::Isa::Auto;
  EXPECT_TRUE(microkernel::parse_isa("avx2", &parsed));
  EXPECT_EQ(parsed, microkernel::Isa::Avx2);
  EXPECT_TRUE(microkernel::parse_isa("auto", &parsed));
  EXPECT_EQ(parsed, microkernel::Isa::Auto);
  EXPECT_FALSE(microkernel::parse_isa("sse9", &parsed));
}

}  // namespace
}  // namespace rsketch
