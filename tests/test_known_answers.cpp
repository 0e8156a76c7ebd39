// Known-answer tests: FNV-1a 64-bit digests of the batched sample stream,
// of one jki sketch and of one normalized kji sketch, pinned as constants. The other RNG and kernel tests
// compare two runs of one build with each other, so a change that moves
// every run the same way (a different lane derivation, a different chunk
// layout, a reordered accumulation) passes them all. These digests fail it.
//
// A new digest means a new stream or a new Â; the constants must not be
// re-recorded to make a change pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dense/microkernel.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro_batch.hpp"
#include "sketch/sketch.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<microkernel::Isa> supported_isas() {
  std::vector<microkernel::Isa> out = {microkernel::Isa::Scalar};
  for (const auto isa : {microkernel::Isa::Avx2, microkernel::Isa::Avx512}) {
    if (microkernel::supported(isa)) out.push_back(isa);
  }
  return out;
}

constexpr std::uint64_t kSeed = 0x5EED2024;
constexpr index_t kRow = 6000;
constexpr index_t kCol = 12345;

template <typename T>
std::uint64_t fill_digest(Dist dist, microkernel::Isa isa, index_t n) {
  SketchSampler<T> s(kSeed, dist, RngBackend::XoshiroBatch, isa);
  std::vector<T> v(static_cast<std::size_t>(n));
  s.fill(kRow, kCol, v.data(), n);
  return fnv1a(v.data(), v.size() * sizeof(T));
}

struct FillAnswer {
  Dist dist;
  index_t n;
  std::uint64_t f64;  ///< digest of the double fill
  std::uint64_t f32;  ///< digest of the float fill
};

// n covers one sample, one short of a 64-sample chunk, one chunk, one past
// it, and b_d = 3000 (a whole ±1 column segment at the model's b_d).
constexpr FillAnswer kFillAnswers[] = {
    {Dist::PmOne, 1, 0xaab1693229ba1db8ULL, 0x4b72477f9c5c2f98ULL},
    {Dist::PmOne, 63, 0x7f6bf5e962d45518ULL, 0x046d391fdb742ce8ULL},
    {Dist::PmOne, 64, 0xc6dc0e0d804691a5ULL, 0x1d324c97db4110a5ULL},
    {Dist::PmOne, 65, 0xd1630d3158fa3338ULL, 0xa7e1593ed9adde18ULL},
    {Dist::PmOne, 3000, 0x4934008b29118a25ULL, 0x4ee29d118005ad65ULL},
    {Dist::Uniform, 1, 0x6a6bf925240caae6ULL, 0xc8608bbe52eca18cULL},
    {Dist::Uniform, 63, 0xac7a5dad9e773833ULL, 0x02bf766eafc4b836ULL},
    {Dist::Uniform, 64, 0xf7006a61b8892eddULL, 0x1b763638d5cb280aULL},
    {Dist::Uniform, 65, 0x4cd025a1872906b0ULL, 0xf6f63c6165132cf5ULL},
    {Dist::Uniform, 3000, 0x456f41c1899733cdULL, 0x7899ac97415ee1d0ULL},
    {Dist::UniformScaled, 1, 0x6aa25325243ad344ULL, 0xca147bbe545fcddcULL},
    {Dist::UniformScaled, 63, 0x6ee82e165bc4a2a9ULL, 0xb6cc70ddbff9eb4cULL},
    {Dist::UniformScaled, 64, 0x592e815f74f7f871ULL, 0x72e51eb9dd02e167ULL},
    {Dist::UniformScaled, 65, 0x6e503ac3459dd4b6ULL, 0x4a2fa7f6440104f8ULL},
    {Dist::UniformScaled, 3000, 0xff0c2e727d5075fdULL, 0x5d5e55b5743f6f5aULL},
};

TEST(KnownAnswer, BatchedLaneWords) {
  XoshiroBatch g(kSeed);
  g.set_state(kRow, kCol);
  std::vector<std::uint64_t> words(37 * XoshiroBatch::kLanes);
  g.fill_lanes(words.data(), 37);
  EXPECT_EQ(hex(fnv1a(words.data(), words.size() * sizeof(std::uint64_t))),
            hex(0xb20d3a07750c4bd9ULL));
}

TEST(KnownAnswer, BatchedFillOnEveryTier) {
  for (const microkernel::Isa isa : supported_isas()) {
    for (const FillAnswer& a : kFillAnswers) {
      const std::string what = to_string(a.dist) + " n=" +
                               std::to_string(a.n) + " isa=" +
                               microkernel::to_string(isa);
      EXPECT_EQ(hex(fill_digest<double>(a.dist, isa, a.n)), hex(a.f64))
          << "double " << what;
      EXPECT_EQ(hex(fill_digest<float>(a.dist, isa, a.n)), hex(a.f32))
          << "float " << what;
    }
  }
}

/// Digest of Â's logical entries, column by column.
template <typename T>
std::uint64_t sketch_digest(const DenseMatrix<T>& a_hat) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (index_t j = 0; j < a_hat.cols(); ++j) {
    h = fnv1a(a_hat.col(j), static_cast<std::size_t>(a_hat.rows()) * sizeof(T),
              h);
  }
  return h;
}

/// jki at pinned blocks: slabs of 16 columns over a 300-row matrix, so the
/// slab rows hold one to several nonzeros, and b_d = 72 leaves a chunk tail
/// in every column segment.
template <typename T>
std::uint64_t jki_digest(Dist dist, microkernel::Isa isa) {
  const auto a = random_sparse<T>(300, 120, 0.05, 2024);
  SketchConfig cfg;
  cfg.d = 200;
  cfg.seed = kSeed;
  cfg.dist = dist;
  cfg.kernel = KernelVariant::Jki;
  cfg.block_d = 72;
  cfg.block_n = 16;
  cfg.parallel = ParallelOver::Sequential;
  cfg.isa = isa;
  DenseMatrix<T> a_hat(cfg.d, a.cols());
  sketch_into(cfg, a, a_hat);
  return sketch_digest(a_hat);
}

TEST(KnownAnswer, JkiSketchAtPinnedBlocks) {
  for (const microkernel::Isa isa : supported_isas()) {
    EXPECT_EQ(hex(jki_digest<double>(Dist::PmOne, isa)),
              hex(0x4c48e0607395043fULL))
        << microkernel::to_string(isa);
    EXPECT_EQ(hex(jki_digest<float>(Dist::Uniform, isa)),
              hex(0xc13e2a6e56df9ba5ULL))
        << microkernel::to_string(isa);
  }
}

/// kji with normalize set, at pinned blocks: three row blocks (the last a
/// chunk tail) by five column slabs over a 250×90 matrix, run in parallel
/// over the row blocks, so every (b_d, b_n) panel is post-scaled by the
/// thread that computed it.
template <typename T>
std::uint64_t normalized_kji_digest(Dist dist, microkernel::Isa isa) {
  const auto a = random_sparse<T>(250, 90, 0.04, 2025);
  SketchConfig cfg;
  cfg.d = 150;
  cfg.seed = kSeed;
  cfg.dist = dist;
  cfg.kernel = KernelVariant::Kji;
  cfg.normalize = true;
  cfg.block_d = 64;
  cfg.block_n = 20;
  cfg.parallel = ParallelOver::DBlocks;
  cfg.isa = isa;
  DenseMatrix<T> a_hat(cfg.d, a.cols());
  sketch_into(cfg, a, a_hat);
  return sketch_digest(a_hat);
}

TEST(KnownAnswer, NormalizedKjiSketchAtPinnedBlocks) {
  for (const microkernel::Isa isa : supported_isas()) {
    EXPECT_EQ(hex(normalized_kji_digest<double>(Dist::PmOne, isa)),
              hex(0x403ff5312f221fc0ULL))
        << microkernel::to_string(isa);
    EXPECT_EQ(hex(normalized_kji_digest<float>(Dist::Uniform, isa)),
              hex(0xc59b402585a11011ULL))
        << microkernel::to_string(isa);
  }
}

}  // namespace
}  // namespace rsketch
