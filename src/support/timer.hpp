// Wall-clock stopwatch used by the benchmark harness, the solvers' phase
// timings and the sketch drivers' total and per-thread busy times.
#pragma once

#include <chrono>

namespace rsketch {

/// Monotonic wall-clock stopwatch with nanosecond resolution.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace rsketch
