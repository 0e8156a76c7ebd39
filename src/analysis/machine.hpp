// Machine characterization probes: STREAM-style bandwidth (the paper used
// STREAMBenchmark.jl), RNG throughput (to measure h, the cost of one random
// sample relative to one memory access), and cache size discovery.
#pragma once

#include <cstddef>

#include "rng/distributions.hpp"
#include "support/common.hpp"

namespace rsketch {

/// Results of the four STREAM kernels, in GB/s.
struct StreamResult {
  double copy_gbps = 0.0;
  double scale_gbps = 0.0;
  double add_gbps = 0.0;
  double triad_gbps = 0.0;
};

/// Run STREAM copy/scale/add/triad over `elems` doubles, `reps` repetitions,
/// reporting the best bandwidth (standard STREAM methodology).
StreamResult stream_benchmark(index_t elems, int reps);

/// Process-wide memoized stream_benchmark(1<<21, 2) — the probe the model
/// blocks and the block scheduler share, so calibration is paid once no
/// matter how many consumers ask.
const StreamResult& cached_stream_result();

/// Generation throughput of one (distribution, backend) pair in
/// samples/second, measured by repeatedly filling a `vec_len` buffer — the
/// short-vector regime the blocked kernels operate in (paper §V-A).
double rng_throughput(Dist dist, RngBackend backend, index_t vec_len,
                      int reps);

/// Measured h: (seconds per generated sample) / (seconds per element moved),
/// using the STREAM copy bandwidth for the denominator and 4-byte elements.
double measure_h(Dist dist, RngBackend backend, const StreamResult& stream,
                 index_t vec_len = 10000);

/// Cost of the sampler calls the blocked kernels make: one checkpointed fill
/// (or accumulate) of length L costs call_seconds + L·sample_seconds. The
/// per-call part is the reseek, paid whatever L is; the §III-A model's single
/// h cannot see it.
struct SamplerCalibration {
  double call_seconds = 0.0;    ///< c₀: fixed cost of one call
  double sample_seconds = 0.0;  ///< marginal cost of one generated sample
  double h = 0.0;               ///< §III-A h: measure_h() on the cached STREAM
};

/// Process-wide memoized calibration of one (dist, backend): c₀ and the
/// per-sample cost by a least-squares fit (relative error) of fill times
/// from rng_throughput() at lengths 64..4096, and h from measure_h() against
/// cached_stream_result(). Probed once per pair and process, so every block
/// choice and schedule in a process sees the same numbers. Thread-safe.
SamplerCalibration sampler_calibration(Dist dist, RngBackend backend);

/// Last-level data cache size in bytes (sysconf, with a 1 MiB fallback).
std::size_t detect_cache_bytes();

}  // namespace rsketch
