// Distribution transforms and the SketchSampler — the component that turns a
// raw bit generator into columns of the virtual random matrix S (§III-C,
// §IV-B of the paper).
//
// The sketches never see S as stored data: every sketch entry point asks the
// sampler to add scaled copies of S[r : r+n, j] into its output
// (accumulate); materialize_S, the RNG probes and the tests ask it to
// overwrite a small vector v with the column (fill). The produced values are
// a pure function of (seed, r, j) for the Xoshiro backends (block-checkpoint
// reproducibility) and of (seed, row, j) per entry for the Philox backend
// (blocking-independent reproducibility, RandBLAS-style).
#pragma once

#include <cstdint>
#include <string>

#include "dense/microkernel.hpp"
#include "rng/philox.hpp"
#include "rng/xoshiro.hpp"
#include "rng/xoshiro_batch.hpp"
#include "support/common.hpp"

namespace rsketch {

/// Entry distribution for S (paper Fig. 4 studies all five).
enum class Dist {
  PmOne,          ///< iid uniform over {-1, +1}; cheapest (one byte per sample)
  Uniform,        ///< iid uniform over (-1, 1); int32 scaled by 2^-31
  UniformScaled,  ///< the "scaling trick": raw int32 values; A is pre-scaled
                  ///< by f = 2^-31 so (Sf)(A/f) = SA without per-sample scaling
  Gaussian,       ///< iid N(0,1) via Box–Muller; expensive on the fly
  Junk            ///< deterministic affine filler (h ~ 0); upper-bound ablation
};

/// Bit-generator backend used to realize the stream.
enum class RngBackend {
  Xoshiro,       ///< scalar Xoshiro256++, block checkpoints
  XoshiroBatch,  ///< 8-lane batched Xoshiro256++, block checkpoints (default)
  Philox         ///< Philox4x32-10 counter-based, per-entry addressing
};

std::string to_string(Dist d);
std::string to_string(RngBackend b);

/// Scale factor f for Dist::UniformScaled: the generated integer entries
/// represent S/f, so the caller multiplies A (or the final product) by f.
inline constexpr double kScalingTrickFactor = 1.0 / 2147483648.0;  // 2^-31

/// Column sampler over the virtual sketching matrix S ∈ R^{d×m}.
///
/// fill(r, j, v, n) overwrites v[0..n) with S[r : r+n, j]; accumulate()
/// adds a scaled S[r : r+n, j] into columns of an output. Thread safety:
/// each thread owns its own SketchSampler (they are cheap, ~300 bytes).
template <typename T>
class SketchSampler {
 public:
  SketchSampler(std::uint64_t seed, Dist dist,
                RngBackend backend = RngBackend::XoshiroBatch,
                microkernel::Isa isa = microkernel::Isa::Auto)
      : dist_(dist),
        backend_(backend),
        seed_(seed),
        scalar_(seed),
        batch_(seed),
        philox_(seed),
        isa_(microkernel::resolve(isa)),
        ops_(&microkernel::ops<T>(isa_)) {}

  /// Overwrite v[0..n) with entries S[r : r+n, j].
  void fill(index_t r, index_t j, T* v, index_t n);

  /// True when this sampler's stream runs through the chunked micro-kernel
  /// transforms, i.e. accumulate() generates straight into the update: the
  /// batched backend with a chunk-capable distribution. Gaussian
  /// (Box–Muller) and Junk stay on the generic paths.
  bool fused_eligible() const {
    return backend_ == RngBackend::XoshiroBatch &&
           (dist_ == Dist::PmOne || dist_ == Dist::Uniform ||
            dist_ == Dist::UniformScaled);
  }

  /// The one generate-and-accumulate call every sketch makes (Algorithms 3
  /// and 4): (y + cols[c]·ld)[0..n) += alphas[c] * S[r : r+n, j] for c in
  /// [0, ncols), generating the column once for all ncols destinations.
  /// The columns must be distinct. `v` is caller scratch of at least n
  /// elements; the batched backend with a chunk-capable distribution never
  /// touches it (its chunks go straight from the generator lanes into the
  /// update), every other sampler fills it and jams it into the columns
  /// kMaxJam at a time. Both ways run the micro-kernel table's individually
  /// rounded mul + add in the same order, so the result and
  /// samples_generated() do not depend on which one ran.
  void accumulate(index_t r, index_t j, const T* alphas, const index_t* cols,
                  index_t ncols, T* y, index_t ld, index_t n, T* v);

  Dist dist() const { return dist_; }
  RngBackend backend() const { return backend_; }
  std::uint64_t seed() const { return seed_; }

  /// Resolved micro-kernel ISA tier this sampler (and the kernels driving
  /// it) dispatch through. Never Auto.
  microkernel::Isa isa() const { return isa_; }

  /// Total samples produced since construction / reset_counter().
  std::uint64_t samples_generated() const { return count_; }
  void reset_counter() { count_ = 0; }

 private:
  void fill_xoshiro(index_t r, index_t j, T* v, index_t n);
  void fill_batch(index_t r, index_t j, T* v, index_t n);
  void fill_philox(index_t r, index_t j, T* v, index_t n);
  void fill_junk(index_t r, index_t j, T* v, index_t n);

  Dist dist_;
  RngBackend backend_;
  std::uint64_t seed_;
  Xoshiro256pp scalar_;
  XoshiroBatch batch_;
  PhiloxStream philox_;
  microkernel::Isa isa_;
  const microkernel::Ops<T>* ops_;
  std::uint64_t count_ = 0;
};

extern template class SketchSampler<float>;
extern template class SketchSampler<double>;

/// E[s^2] for entries produced under distribution `d` — needed to normalize
/// sketches (a subspace embedding wants E[s_ij^2] = 1) and by the tests.
template <typename T>
T dist_second_moment(Dist d);

}  // namespace rsketch
