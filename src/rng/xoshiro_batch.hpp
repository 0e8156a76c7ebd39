// Batched ("SIMD") Xoshiro256++: eight independent lanes stepped in lockstep
// inside plain loops the compiler auto-vectorizes (AVX2: 4×64-bit per vector;
// AVX-512: 8). This mirrors the SIMD Xoshiro the paper uses via
// RandomNumbers.jl / SIMDxorshift and is the fast path for filling the
// regenerated column v of S.
#pragma once

#include <cstdint>

#include "rng/splitmix64.hpp"
#include "support/common.hpp"

namespace rsketch {

/// Eight-lane Xoshiro256++ with structure-of-arrays state.
///
/// Lane l of the batch is an independent Xoshiro stream derived from
/// (seed, r, j, l); a bulk fill interleaves lane outputs, so the produced
/// stream is a pure function of (seed, r, j) — exactly the block-checkpoint
/// reproducibility contract of the scalar generator.
class XoshiroBatch {
 public:
  static constexpr int kLanes = 8;

  explicit XoshiroBatch(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) {
    seed_ = seed;
    derive_state(mix3(seed_, 0, 0));
  }

  /// O(1) checkpoint seek; see Xoshiro256pp::set_state.
  void set_state(std::uint64_t r, std::uint64_t j) {
    derive_state(mix3(seed_, r, j));
  }

  /// Produce one 64-bit output per lane into out[0..kLanes).
  inline void next8(std::uint64_t* out) {
    // Plain elementwise loops over the 8 lanes; with -O2 -march=native GCC
    // vectorizes each into a couple of AVX instructions.
    for (int l = 0; l < kLanes; ++l) {
      out[l] = rotl(s0_[l] + s3_[l], 23) + s0_[l];
    }
    for (int l = 0; l < kLanes; ++l) {
      const std::uint64_t t = s1_[l] << 17;
      s2_[l] ^= s0_[l];
      s3_[l] ^= s1_[l];
      s1_[l] ^= s2_[l];
      s0_[l] ^= s3_[l];
      s2_[l] ^= t;
      s3_[l] = rotl(s3_[l], 45);
    }
  }

  /// Batch fill into caller-provided lanes: `nbatches` consecutive batch
  /// steps written raw (lane-interleaved, untransformed) into
  /// out[0 .. nbatches*kLanes). Exactly the words for_each_batch() hands its
  /// callback — the SIMD micro-kernels consume the callback form directly;
  /// this form serves callers that want the raw lane words (external
  /// transforms, tests pinning the stream-consumption order).
  void fill_lanes(std::uint64_t* out, index_t nbatches) {
    for_each_batch(nbatches, [&](const std::uint64_t* w, index_t c) {
      for (int l = 0; l < kLanes; ++l) out[c * kLanes + l] = w[l];
    });
  }

  /// Fill out[0..n) with 64-bit outputs (lane-interleaved); the tail of the
  /// final batch of 8 is discarded, keeping the stream a function of the
  /// checkpoint only (not of n's residue history).
  void fill_u64(std::uint64_t* out, index_t n) {
    const index_t full = n / kLanes;
    fill_lanes(out, full);
    if (full * kLanes < n) {
      std::uint64_t tail[kLanes];
      next8(tail);
      for (index_t i = full * kLanes, l = 0; i < n; ++i, ++l) {
        out[i] = tail[l];
      }
    }
  }

  /// Bulk generation hot path: run `count` batch steps with the lane state
  /// hoisted into locals (AVX-512: four zmm registers) instead of paying a
  /// 64-word memory round-trip per next8() call. fn(words, c) receives the
  /// c-th batch of 8 outputs. State is written back afterwards, so mixing
  /// with next8() stays consistent.
  template <typename Fn>
  inline void for_each_batch(index_t count, Fn&& fn) {
    alignas(64) std::uint64_t a0[kLanes], a1[kLanes], a2[kLanes], a3[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      a0[l] = s0_[l];
      a1[l] = s1_[l];
      a2[l] = s2_[l];
      a3[l] = s3_[l];
    }
    alignas(64) std::uint64_t out[kLanes];
    for (index_t c = 0; c < count; ++c) {
#pragma omp simd aligned(a0, a1, a2, a3, out : 64)
      for (int l = 0; l < kLanes; ++l) {
        out[l] = rotl(a0[l] + a3[l], 23) + a0[l];
        const std::uint64_t t = a1[l] << 17;
        a2[l] ^= a0[l];
        a3[l] ^= a1[l];
        a1[l] ^= a2[l];
        a0[l] ^= a3[l];
        a2[l] ^= t;
        a3[l] = rotl(a3[l], 45);
      }
      fn(static_cast<const std::uint64_t*>(out), c);
    }
    for (int l = 0; l < kLanes; ++l) {
      s0_[l] = a0[l];
      s1_[l] = a1[l];
      s2_[l] = a2[l];
      s3_[l] = a3[l];
    }
  }

 private:
  /// Lane l draws four SplitMix64 outputs starting from base + G·(l+1), so
  /// its word k is the output at offset l + k + 2 from base: the 32 state
  /// words are 11 distinct outputs, each computed once.
  void derive_state(std::uint64_t base) {
    constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
    std::uint64_t z[kLanes + 3];
    for (int o = 0; o < kLanes + 3; ++o) {
      std::uint64_t sm = base + kGolden * static_cast<std::uint64_t>(o + 1);
      z[o] = splitmix64_next(sm);
    }
    for (int l = 0; l < kLanes; ++l) {
      s0_[l] = z[l];
      s1_[l] = z[l + 1];
      s2_[l] = z[l + 2];
      s3_[l] = z[l + 3];
    }
  }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t seed_ = 0;
  alignas(64) std::uint64_t s0_[kLanes] = {};
  alignas(64) std::uint64_t s1_[kLanes] = {};
  alignas(64) std::uint64_t s2_[kLanes] = {};
  alignas(64) std::uint64_t s3_[kLanes] = {};
};

}  // namespace rsketch
