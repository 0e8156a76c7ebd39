// Shared template body of the micro-kernel ISA tiers (dense/microkernel.hpp).
//
// This header is compiled once per tier: kernel_simd_{scalar,avx2,avx512}.cpp
// each define RSKETCH_SIMD_NS and include it, and CMake gives each TU its own
// -m flags plus -ffp-contract=off. The loops are written so the compiler
// auto-vectorizes them at whatever width the flags allow; because contraction
// is pinned off, every tier performs the identical elementwise mul + add
// sequence and therefore produces bitwise-identical results — the dispatch
// contract tests/test_simd_equivalence.cpp enforces. The fused ±1 update
// needs no multiply at all: a·(±1) is exact, so it adds a sign-selected ±a.
//
// The chunked distribution transforms mirror the batched sampler exactly
// (one 8x64-bit xoshiro batch -> 16 uniforms or 64 +-1 samples): the fused
// generate-and-axpy path consumes the stream in the same chunk layout as the
// buffered fill, so fusing never changes which random bits land where.
//
// Tracing granularity: nothing in this header emits perf::trace events. The
// loops here run per chunk / per nonzero — millions of times per sketch — so
// even one armed-flag branch per call would be measurable. The trace
// instrumentation floor is the kernel outer block (kernel_{jki,kji}.cpp),
// one Scope per (i-block, j-block) pair; keep it there.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "dense/microkernel.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro_batch.hpp"

#ifndef RSKETCH_SIMD_NS
#error "kernel_simd_impl.hpp must be included with RSKETCH_SIMD_NS defined"
#endif

namespace rsketch::microkernel {
namespace RSKETCH_SIMD_NS {
namespace {

constexpr float kInv31f = 1.0f / 2147483648.0f;  // 2^-31

// ---- register-blocked dense updates ---------------------------------------

template <typename T>
void axpy_one(index_t n, T a, const T* __restrict x, T* __restrict y) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) y[i] += a * x[i];
}

// The jam bodies keep one vector load of v per iteration feeding R
// independent accumulator columns — R-fold reuse of the regenerated column
// straight out of registers (Algorithm 4's reuse argument applied one level
// down the memory hierarchy).

template <typename T>
void jam2(index_t n, const T* __restrict v, T a0, T a1, T* __restrict y0,
          T* __restrict y1) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) {
    const T vi = v[i];
    y0[i] += a0 * vi;
    y1[i] += a1 * vi;
  }
}

template <typename T>
void jam3(index_t n, const T* __restrict v, T a0, T a1, T a2,
          T* __restrict y0, T* __restrict y1, T* __restrict y2) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) {
    const T vi = v[i];
    y0[i] += a0 * vi;
    y1[i] += a1 * vi;
    y2[i] += a2 * vi;
  }
}

template <typename T>
void jam4(index_t n, const T* __restrict v, T a0, T a1, T a2, T a3,
          T* __restrict y0, T* __restrict y1, T* __restrict y2,
          T* __restrict y3) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) {
    const T vi = v[i];
    y0[i] += a0 * vi;
    y1[i] += a1 * vi;
    y2[i] += a2 * vi;
    y3[i] += a3 * vi;
  }
}

template <typename T>
void axpy_multi(index_t n, const T* v, const T* alphas, T* const* ys,
                index_t ncols) {
  switch (ncols) {
    case 1:
      axpy_one(n, alphas[0], v, ys[0]);
      return;
    case 2:
      jam2(n, v, alphas[0], alphas[1], ys[0], ys[1]);
      return;
    case 3:
      jam3(n, v, alphas[0], alphas[1], alphas[2], ys[0], ys[1], ys[2]);
      return;
    case 4:
      jam4(n, v, alphas[0], alphas[1], alphas[2], alphas[3], ys[0], ys[1],
           ys[2], ys[3]);
      return;
    default:
      // Callers group by kMaxJam; anything wider degrades gracefully.
      for (index_t c = 0; c < ncols; ++c) axpy_one(n, alphas[c], v, ys[c]);
      return;
  }
}

// ---- chunked distribution transforms --------------------------------------
// One 8x64-bit batch -> a fixed-size chunk. Word order is identical across
// tiers and identical between the fill and fused variants below.

/// 16 uniforms per batch: the buffer viewed as 16 int32 words, converted and
/// scaled elementwise.
template <typename T>
inline void chunk_uniform(const std::uint64_t* buf, T* __restrict out) {
  std::int32_t w[16];
  std::memcpy(w, buf, sizeof w);
#pragma omp simd
  for (int k = 0; k < 16; ++k) {
    out[k] = static_cast<T>(w[k]) * static_cast<T>(kInv31f);
  }
}

/// 16 raw-int32 samples per batch (scaling trick; same word order as
/// chunk_uniform so trick * 2^-31 == uniform holds exactly).
template <typename T>
inline void chunk_uniform_scaled(const std::uint64_t* buf, T* __restrict out) {
  std::int32_t w[16];
  std::memcpy(w, buf, sizeof w);
#pragma omp simd
  for (int k = 0; k < 16; ++k) out[k] = static_cast<T>(w[k]);
}

/// 64 +-1 samples per batch: the random low bit of each byte selects -1 or
/// +1, branch-free and byte-parallel.
template <typename T>
inline void chunk_pm1(const std::uint64_t* buf, T* __restrict out) {
  unsigned char bytes[64];
  std::memcpy(bytes, buf, sizeof bytes);
#pragma omp simd
  for (int k = 0; k < 64; ++k) out[k] = (bytes[k] & 1u) ? T{-1} : T{1};
}

// ---- fused generate-and-axpy chunk bodies ---------------------------------
// Same transform as above, but the sample goes straight into the update:
// out[k] += a * s_k with s_k computed exactly as the buffered path computes
// v[k] (the inner multiply rounds first, then the outer one — never fused).

template <typename T>
inline void chunk_uniform_fma(const std::uint64_t* buf, T a,
                              T* __restrict out) {
  std::int32_t w[16];
  std::memcpy(w, buf, sizeof w);
#pragma omp simd
  for (int k = 0; k < 16; ++k) {
    out[k] += a * (static_cast<T>(w[k]) * static_cast<T>(kInv31f));
  }
}

template <typename T>
inline void chunk_uniform_scaled_fma(const std::uint64_t* buf, T a,
                                     T* __restrict out) {
  std::int32_t w[16];
  std::memcpy(w, buf, sizeof w);
#pragma omp simd
  for (int k = 0; k < 16; ++k) out[k] += a * static_cast<T>(w[k]);
}

/// a·(±1) is exact, so the update selects between the two precomputed
/// products instead of multiplying: out[k] += bit ? -a : a. Every finite or
/// infinite a (±0 and subnormals included) gives the bits of the buffered
/// a * v[k]; only a NaN a may come out with its sign bit flipped, because the
/// compiler folds a * -1 to a sign flip (docs/ROBUSTNESS.md, "Run envelope").
template <typename T>
inline void chunk_pm1_fma(const std::uint64_t* buf, T a, T* __restrict out) {
  unsigned char bytes[64];
  std::memcpy(bytes, buf, sizeof bytes);
  const T pos = a * T{1};
  const T neg = a * T{-1};
#pragma omp simd
  for (int k = 0; k < 64; ++k) out[k] += (bytes[k] & 1u) ? neg : pos;
}

// ---- chunked drivers ------------------------------------------------------

/// Full chunks straight into v, one spilled chunk for the tail, all inside
/// one register-resident generator sweep. The emitted stream is a pure
/// function of the checkpoint and the chunk layout, so prefixes agree across
/// different fill lengths.
template <typename T, int kChunk, typename Transform>
inline void fill_chunked(XoshiroBatch& g, T* v, index_t n,
                         Transform&& transform) {
  const index_t batches = ceil_div(n, kChunk);
  const index_t full = n / kChunk;
  g.for_each_batch(batches, [&](const std::uint64_t* buf, index_t c) {
    if (c < full) {
      transform(buf, v + c * kChunk);
    } else {
      alignas(64) T tail[kChunk];
      transform(buf, tail);
      std::memcpy(v + c * kChunk, tail,
                  static_cast<std::size_t>(n - c * kChunk) * sizeof(T));
    }
  });
}

/// Fused driver: identical chunk walk, but each full chunk applies the
/// update in place. The spilled tail transforms into scratch and applies the
/// same per-element mul + add, so fused output is bitwise identical to
/// fill_chunked-then-axpy.
template <typename T, int kChunk, typename Fma, typename Transform>
inline void fused_chunked(XoshiroBatch& g, T a, T* out, index_t n,
                          Fma&& fma_chunk, Transform&& transform) {
  const index_t batches = ceil_div(n, kChunk);
  const index_t full = n / kChunk;
  g.for_each_batch(batches, [&](const std::uint64_t* buf, index_t c) {
    if (c < full) {
      fma_chunk(buf, a, out + c * kChunk);
    } else {
      alignas(64) T tail[kChunk];
      transform(buf, tail);
      T* __restrict o = out + c * kChunk;
      const index_t rem = n - c * kChunk;
      for (index_t i = 0; i < rem; ++i) o[i] += a * tail[i];
    }
  });
}

/// Fused chunk walk for one SketchSampler::accumulate call (a kji nonzero,
/// a jki or streaming row, a row of dense X, a CSC column of the right
/// sketch): the same walk, each chunk generated once and applied to every
/// destination column y + cols[c]·ld. One column takes fused_chunked's
/// in-place path; more go through a chunk of scratch and the jam bodies,
/// kMaxJam columns at a time — the per-element mul + add of
/// fill_chunked-then-axpy_multi.
template <typename T, int kChunk, typename Fma, typename Transform>
inline void fused_row_chunked(XoshiroBatch& g, const T* alphas,
                              const index_t* cols, index_t ncols, T* y,
                              index_t ld, index_t n, Fma&& fma_chunk,
                              Transform&& transform) {
  if (ncols == 1) {
    fused_chunked<T, kChunk>(g, alphas[0], y + cols[0] * ld, n, fma_chunk,
                             transform);
    return;
  }
  g.for_each_batch(ceil_div(n, kChunk), [&](const std::uint64_t* buf,
                                            index_t c) {
    alignas(64) T s[kChunk];
    transform(buf, s);
    const index_t off = c * kChunk;
    const index_t len = std::min<index_t>(kChunk, n - off);
    for (index_t q = 0; q < ncols; q += kMaxJam) {
      const index_t jam = std::min(kMaxJam, ncols - q);
      T* ys[kMaxJam];
      for (index_t t = 0; t < jam; ++t) ys[t] = y + cols[q + t] * ld + off;
      axpy_multi(len, s, alphas + q, ys, jam);
    }
  });
}

/// Calls f(chunk, fma_chunk, transform) with the chunk length (as a
/// std::integral_constant) and the two chunk bodies of `dist`.
template <typename T, typename F>
void with_chunk_bodies(Dist dist, F&& f) {
  switch (dist) {
    case Dist::PmOne:
      f(std::integral_constant<int, 64>{},
        [](const std::uint64_t* buf, T a, T* o) { chunk_pm1_fma(buf, a, o); },
        [](const std::uint64_t* buf, T* o) { chunk_pm1(buf, o); });
      return;
    case Dist::Uniform:
      f(std::integral_constant<int, 16>{},
        [](const std::uint64_t* buf, T a, T* o) {
          chunk_uniform_fma(buf, a, o);
        },
        [](const std::uint64_t* buf, T* o) { chunk_uniform(buf, o); });
      return;
    case Dist::UniformScaled:
      f(std::integral_constant<int, 16>{},
        [](const std::uint64_t* buf, T a, T* o) {
          chunk_uniform_scaled_fma(buf, a, o);
        },
        [](const std::uint64_t* buf, T* o) { chunk_uniform_scaled(buf, o); });
      return;
    default:
      // Gaussian/Junk never dispatch here (the sampler routes them through
      // its generic paths); a misuse is a library bug, not user error.
      require(false, "microkernel: distribution is not chunk-capable");
  }
}

template <typename T>
void fill(XoshiroBatch& g, Dist dist, T* v, index_t n) {
  with_chunk_bodies<T>(dist, [&](auto chunk, auto, auto transform) {
    fill_chunked<T, decltype(chunk)::value>(g, v, n, transform);
  });
}

template <typename T>
void fused_axpy_multi(XoshiroBatch& g, Dist dist, const T* alphas,
                      const index_t* cols, index_t ncols, T* y, index_t ld,
                      index_t n) {
  with_chunk_bodies<T>(dist, [&](auto chunk, auto fma, auto transform) {
    fused_row_chunked<T, decltype(chunk)::value>(g, alphas, cols, ncols, y,
                                                 ld, n, fma, transform);
  });
}

}  // namespace

template <typename T>
Ops<T> make_ops() {
  Ops<T> t;
  t.axpy = &axpy_one<T>;
  t.axpy_multi = &axpy_multi<T>;
  t.fill = &fill<T>;
  t.fused_axpy_multi = &fused_axpy_multi<T>;
  return t;
}

template Ops<float> make_ops<float>();
template Ops<double> make_ops<double>();

}  // namespace RSKETCH_SIMD_NS
}  // namespace rsketch::microkernel
