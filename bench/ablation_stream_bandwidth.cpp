// §V-A STREAM note: memory bandwidth (copy/scale/add/triad) and short-vector
// RNG rates, plus the measured h (RNG cost relative to a memory access) that
// drives the §III-A model and the Alg3↔Alg4 architecture dichotomy, and the
// per-call / per-sample sampler costs the default block choice reads.
#include <cstdio>

#include "analysis/machine.hpp"
#include "bench_common.hpp"

using namespace rsketch;

int main() {
  bench::print_banner(
      "ABLATION — STREAM bandwidth & measured h",
      "STREAMBenchmark.jl-style probe + length-10000 RNG fills (paper §V-A)");
  const int reps = std::max(3, bench_reps());

  const auto stream = stream_benchmark(1 << 23, reps);
  Table st("STREAM bandwidth (this machine, GB/s):");
  st.set_header({"kernel", "GB/s"});
  st.add_row({"copy", fmt_fixed(stream.copy_gbps, 2)});
  st.add_row({"scale", fmt_fixed(stream.scale_gbps, 2)});
  st.add_row({"add", fmt_fixed(stream.add_gbps, 2)});
  st.add_row({"triad", fmt_fixed(stream.triad_gbps, 2)});
  std::printf("%s\n", st.render().c_str());

  Table rt("Short-vector RNG throughput (length 10000, checkpointed fills):");
  rt.set_header({"generator", "Gsamples/s", "measured h", "c0 (ns/call)",
                 "ns/sample"});
  struct Row {
    const char* label;
    Dist dist;
    RngBackend backend;
  };
  const Row rows[] = {
      {"+-1, xoshiro x8", Dist::PmOne, RngBackend::XoshiroBatch},
      {"(-1,1), xoshiro x8", Dist::Uniform, RngBackend::XoshiroBatch},
      {"(-1,1), xoshiro scalar", Dist::Uniform, RngBackend::Xoshiro},
      {"(-1,1), philox", Dist::Uniform, RngBackend::Philox},
      {"Gaussian, xoshiro x8", Dist::Gaussian, RngBackend::XoshiroBatch},
  };
  for (const Row& r : rows) {
    const double rate = rng_throughput(r.dist, r.backend, 10000, 300);
    const double h = measure_h(r.dist, r.backend, stream);
    const SamplerCalibration cal = sampler_calibration(r.dist, r.backend);
    rt.add_row({r.label, fmt_fixed(rate / 1e9, 3), fmt_fixed(h, 3),
                fmt_fixed(cal.call_seconds * 1e9, 1),
                fmt_fixed(cal.sample_seconds * 1e9, 3)});
  }
  rt.set_footnote(
      "h < 1 means generating a sample is cheaper than moving one from "
      "DRAM — the regime where on-the-fly regeneration wins (§III-A). "
      "Philox's h is several times Xoshiro's (paper §IV-B1: ~5x). c0 and "
      "ns/sample: sampler_calibration's fit of fill time = c0 + L * "
      "ns/sample over L = 64..4096, the costs the default blocks are "
      "chosen from.");
  std::printf("%s\n", rt.render().c_str());

  std::printf("Detected cache: %.1f KiB\n",
              static_cast<double>(detect_cache_bytes()) / 1024.0);
  return 0;
}
