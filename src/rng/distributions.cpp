#include "rng/distributions.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

namespace rsketch {

std::string to_string(Dist d) {
  switch (d) {
    case Dist::PmOne: return "+-1";
    case Dist::Uniform: return "(-1,1)";
    case Dist::UniformScaled: return "(-1,1) scaling trick";
    case Dist::Gaussian: return "Gaussian";
    case Dist::Junk: return "junk";
  }
  return "?";
}

std::string to_string(RngBackend b) {
  switch (b) {
    case RngBackend::Xoshiro: return "xoshiro256++";
    case RngBackend::XoshiroBatch: return "xoshiro256++ x8";
    case RngBackend::Philox: return "philox4x32-10";
  }
  return "?";
}

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr float kInv31f = 1.0f / 2147483648.0f;      // 2^-31
constexpr double kInv53 = 1.0 / 9007199254740992.0;  // 2^-53

/// Pulls 64-bit words one at a time from a scalar Xoshiro stream.
struct ScalarStream {
  Xoshiro256pp& g;
  std::uint64_t next() { return g.next(); }
};

/// Pulls 64-bit words from the 8-lane batch generator, buffering one batch.
struct BatchStream {
  explicit BatchStream(XoshiroBatch& gen) : g(gen) {}
  XoshiroBatch& g;
  std::uint64_t buf[XoshiroBatch::kLanes];
  int pos = XoshiroBatch::kLanes;
  std::uint64_t next() {
    if (pos == XoshiroBatch::kLanes) {
      g.next8(buf);
      pos = 0;
    }
    return buf[pos++];
  }
};

template <typename T, typename Stream>
void fill_uniform(Stream& s, T* v, index_t n) {
  // One int32 per sample in EVERY precision (the paper's samples are 32-bit,
  // §III-C), so that the Uniform stream is exactly the UniformScaled stream
  // times 2^-31 regardless of T — the identity the scaling trick relies on.
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint64_t w = s.next();
    v[i] = static_cast<T>(static_cast<std::int32_t>(w)) *
           static_cast<T>(kInv31f);
    v[i + 1] = static_cast<T>(static_cast<std::int32_t>(w >> 32)) *
               static_cast<T>(kInv31f);
  }
  if (i < n) {
    v[i] = static_cast<T>(static_cast<std::int32_t>(s.next())) *
           static_cast<T>(kInv31f);
  }
}

template <typename T, typename Stream>
void fill_uniform_scaled(Stream& s, T* v, index_t n) {
  // Raw int32 values; the caller owns the global 2^-31 scale factor.
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint64_t w = s.next();
    v[i] = static_cast<T>(static_cast<std::int32_t>(w));
    v[i + 1] = static_cast<T>(static_cast<std::int32_t>(w >> 32));
  }
  if (i < n) v[i] = static_cast<T>(static_cast<std::int32_t>(s.next()));
}

template <typename T, typename Stream>
void fill_pm1(Stream& s, T* v, index_t n) {
  // One byte of entropy per sample (the paper's 8-bit ±1 path).
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = s.next();
    for (int b = 0; b < 8; ++b) {
      v[i + b] = (w & 1u) ? T{1} : T{-1};
      w >>= 8;
    }
  }
  if (i < n) {
    std::uint64_t w = s.next();
    for (; i < n; ++i) {
      v[i] = (w & 1u) ? T{1} : T{-1};
      w >>= 8;
    }
  }
}

template <typename T, typename Stream>
void fill_gaussian(Stream& s, T* v, index_t n) {
  // Box–Muller on pairs of (0,1] / [0,1) uniforms built from 53-bit words.
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double u1 = (static_cast<double>(s.next() >> 11) + 1.0) * kInv53;
    const double u2 = static_cast<double>(s.next() >> 11) * kInv53;
    const double rad = std::sqrt(-2.0 * std::log(u1));
    v[i] = static_cast<T>(rad * std::cos(kTwoPi * u2));
    v[i + 1] = static_cast<T>(rad * std::sin(kTwoPi * u2));
  }
  if (i < n) {
    const double u1 = (static_cast<double>(s.next() >> 11) + 1.0) * kInv53;
    const double u2 = static_cast<double>(s.next() >> 11) * kInv53;
    v[i] = static_cast<T>(std::sqrt(-2.0 * std::log(u1)) *
                          std::cos(kTwoPi * u2));
  }
}

template <typename T, typename Stream>
void fill_dispatch(Dist dist, Stream& s, T* v, index_t n) {
  switch (dist) {
    case Dist::PmOne: fill_pm1(s, v, n); break;
    case Dist::Uniform: fill_uniform(s, v, n); break;
    case Dist::UniformScaled: fill_uniform_scaled(s, v, n); break;
    case Dist::Gaussian: fill_gaussian(s, v, n); break;
    case Dist::Junk: break;  // handled separately (no stream needed)
  }
}

}  // namespace

template <typename T>
void SketchSampler<T>::fill_junk(index_t r, index_t j, T* v, index_t n) {
  // Affine filler with O(1) setup and one add per entry — models a free RNG
  // (h -> 0) for the §V-A upper-bound experiment. Values stay in (-1, 1).
  const auto mix = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(r) * 2654435761ULL +
      static_cast<std::uint64_t>(j) * 40503ULL + seed_);
  const T x0 = static_cast<T>(static_cast<std::int32_t>(mix)) *
               static_cast<T>(kInv31f) * T{0.5};
  const T delta = static_cast<T>(9.5367431640625e-07);  // 2^-20
#pragma omp simd
  for (index_t i = 0; i < n; ++i) {
    v[i] = x0 + static_cast<T>(i) * delta;
  }
}

template <typename T>
void SketchSampler<T>::fill_xoshiro(index_t r, index_t j, T* v, index_t n) {
  scalar_.set_state(static_cast<std::uint64_t>(r),
                    static_cast<std::uint64_t>(j));
  ScalarStream s{scalar_};
  fill_dispatch(dist_, s, v, n);
}

template <typename T>
void SketchSampler<T>::fill_batch(index_t r, index_t j, T* v, index_t n) {
  batch_.set_state(static_cast<std::uint64_t>(r),
                   static_cast<std::uint64_t>(j));
  switch (dist_) {
    case Dist::PmOne:
    case Dist::Uniform:
    case Dist::UniformScaled:
      // Bulk chunked transforms, one 8-word batch per fixed-size chunk,
      // compiled per ISA tier (sketch/kernel_simd_impl.hpp) and dispatched
      // through the resolved micro-kernel table — per-sample branching and
      // per-word function calls are the difference between ~0.4 and several
      // Gsamples/s, and the tier decides the vector width.
      ops_->fill(batch_, dist_, v, n);
      return;
    case Dist::Gaussian:
    case Dist::Junk: {
      // Gaussian stays on the generic path (Box–Muller dominates anyway —
      // which is exactly the paper's Fig. 4 point); Junk never reaches here.
      BatchStream s(batch_);
      fill_dispatch(dist_, s, v, n);
      return;
    }
  }
}

template <typename T>
void SketchSampler<T>::fill_philox(index_t r, index_t j, T* v, index_t n) {
  // Per-entry addressing: sample i of this call is a function of
  // (seed, r + i, j) only — blocking independent.
  thread_local std::vector<std::uint32_t> scratch;
  scratch.resize(static_cast<std::size_t>(n));
  philox_.fill_u32(static_cast<std::uint64_t>(r),
                   static_cast<std::uint64_t>(j), scratch.data(), n);
  switch (dist_) {
    case Dist::PmOne:
      for (index_t i = 0; i < n; ++i) v[i] = (scratch[i] & 1u) ? T{1} : T{-1};
      break;
    case Dist::Uniform:
      for (index_t i = 0; i < n; ++i) {
        v[i] = static_cast<T>(static_cast<std::int32_t>(scratch[i])) *
               static_cast<T>(kInv31f);
      }
      break;
    case Dist::UniformScaled:
      for (index_t i = 0; i < n; ++i) {
        v[i] = static_cast<T>(static_cast<std::int32_t>(scratch[i]));
      }
      break;
    case Dist::Gaussian:
      // One word per entry to preserve per-entry addressing: split the word
      // into two 16-bit uniforms and take the cosine Box–Muller branch.
      // Slightly coarser tails than the 53-bit path; fine for sketching.
      for (index_t i = 0; i < n; ++i) {
        const double u1 = (static_cast<double>(scratch[i] & 0xFFFFu) + 1.0) /
                          65536.0;
        const double u2 = static_cast<double>(scratch[i] >> 16) / 65536.0;
        v[i] = static_cast<T>(std::sqrt(-2.0 * std::log(u1)) *
                              std::cos(kTwoPi * u2));
      }
      break;
    case Dist::Junk:
      break;  // unreachable; junk bypasses the backend
  }
}

template <typename T>
void SketchSampler<T>::fill(index_t r, index_t j, T* v, index_t n) {
  if (n <= 0) return;
  count_ += static_cast<std::uint64_t>(n);
  if (dist_ == Dist::Junk) {
    fill_junk(r, j, v, n);
    return;
  }
  switch (backend_) {
    case RngBackend::Xoshiro: fill_xoshiro(r, j, v, n); break;
    case RngBackend::XoshiroBatch: fill_batch(r, j, v, n); break;
    case RngBackend::Philox: fill_philox(r, j, v, n); break;
  }
}

template <typename T>
void SketchSampler<T>::accumulate(index_t r, index_t j, const T* alphas,
                                  const index_t* cols, index_t ncols, T* y,
                                  index_t ld, index_t n, T* v) {
  if (n <= 0) return;
  if (fused_eligible()) {
    count_ += static_cast<std::uint64_t>(n);
    batch_.set_state(static_cast<std::uint64_t>(r),
                     static_cast<std::uint64_t>(j));
    ops_->fused_axpy_multi(batch_, dist_, alphas, cols, ncols, y, ld, n);
    return;
  }
  // v := S[r : r+n, j], generated once and reused across the columns.
  // Unroll-and-jam: each sweep over v feeds up to kMaxJam destination
  // columns, so one vector load of v serves several accumulators.
  fill(r, j, v, n);
  for (index_t q = 0; q < ncols; q += microkernel::kMaxJam) {
    const index_t jam = std::min(microkernel::kMaxJam, ncols - q);
    T* ys[microkernel::kMaxJam];
    for (index_t c = 0; c < jam; ++c) ys[c] = y + cols[q + c] * ld;
    ops_->axpy_multi(n, v, alphas + q, ys, jam);
  }
}

template <typename T>
T dist_second_moment(Dist d) {
  switch (d) {
    case Dist::PmOne: return T{1};
    case Dist::Uniform: return static_cast<T>(1.0 / 3.0);
    case Dist::UniformScaled:
      // Var of uniform int32: (2^31)^2 / 3.
      return static_cast<T>(4611686018427387904.0 / 3.0);
    case Dist::Gaussian: return T{1};
    case Dist::Junk: return static_cast<T>(1.0 / 12.0);  // rough; ablation only
  }
  return T{1};
}

template class SketchSampler<float>;
template class SketchSampler<double>;
template float dist_second_moment<float>(Dist);
template double dist_second_moment<double>(Dist);

}  // namespace rsketch
