// Shared machinery of the benchmark runner: span recording for the traced
// run, metric collection, summary statistics, peak-RSS probes, subprocess
// spawning and the correctness checks every workload applies to its outputs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sparse/csc.hpp"

namespace pb {

using rsketch::CscMatrix;
using rsketch::DenseMatrix;
using rsketch::index_t;
using rsketch::SketchConfig;

/// Seconds on the steady clock since the runner started.
double now_s();

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed by the runner's own
/// code around calls into the library; nothing inside the library is traced.
/// Off by default: a Scope then only measures its duration.
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;  ///< -1 for a top-level span
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  void set_enabled(bool on) { on_ = on; }
  int begin(const std::string& name);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Tracer& tracer();

/// RAII span: always measures its own duration; records a span only while
/// the tracer is enabled.
class Scope {
 public:
  explicit Scope(const std::string& name);
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Close the span (idempotent) and return its duration in seconds.
  double stop();

 private:
  int id_ = -1;
  double start_ = 0.0;
  double seconds_ = -1.0;
};

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metric list.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// A model-versus-measured ratio of the traced run's `derived` block:
/// ratio = measured / base, each with its unit and what it is.
struct Ratio {
  std::string name;
  double measured = 0.0;
  double base = 0.0;
  std::string unit;
  std::string what;
};

/// Free-form facts a traced run writes next to its spans (sizes, per-request
/// tuner decisions): key -> already-encoded JSON value.
using Facts = std::vector<std::pair<std::string, std::string>>;

std::string json_string(const std::string& s);
std::string json_number(double v);

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- process probes ---------------------------------------------------------

/// This process's peak resident set (VmHWM) in MB (1e6 bytes).
double peak_rss_mb();
/// Size of a file in bytes (0 if absent).
std::uint64_t file_bytes(const std::string& path);

struct ChildResult {
  int exit_code = -1;       ///< exit status, or -1 if it did not exit normally
  double wall_s = 0.0;      ///< spawn to reap
  double maxrss_mb = 0.0;   ///< the child's peak RSS (wait4 rusage)
  std::string out;          ///< captured standard output
};

/// Run argv[0] with `argv` (stdout captured through `stdout_path`, stderr to
/// `stderr_path`) under the current environment plus `extra_env`
/// ("NAME=value" entries), and wait for it.
ChildResult run_child(const std::vector<std::string>& argv,
                      const std::vector<std::string>& extra_env,
                      const std::string& stdout_path,
                      const std::string& stderr_path);

// ---- correctness checks -----------------------------------------------------

/// Â·x for a dense Â.
std::vector<double> dense_times(const DenseMatrix<double>& a_hat,
                                const std::vector<double>& x);

/// The linearity check of the sketch workloads: Â·x must equal S·(A·x), where
/// S·(A·x) is sketch_into on the single column A·x under the same resolved
/// config. That holds for every blocking, so changing the blocks a request
/// resolves to can never break it. References are memoized per config.
class LinearityCheck {
 public:
  static constexpr double kTolerance = 1e-10;

  LinearityCheck(const CscMatrix<double>& a, std::uint64_t seed);
  /// Relative error of a_hat_x (= Â·x) against S·(A·x) under cfg.
  double error(const SketchConfig& cfg, const std::vector<double>& a_hat_x);
  const std::vector<double>& x() const { return x_; }

 private:
  std::vector<double> x_;
  CscMatrix<double> ax_;
  std::vector<std::pair<std::string, std::vector<double>>> refs_;
};

/// 64-bit hash of the rows×cols values of a dense matrix (padding excluded),
/// for bitwise comparison against a reference without keeping it resident.
std::uint64_t content_hash(const DenseMatrix<double>& m);

/// Fill every element (padding included) with NaN so an output that a
/// request fails to overwrite cannot pass its check.
void poison(DenseMatrix<double>& m);

// ---- workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sketch_tool;  ///< path of the sketch_tool binary
  std::string workdir;      ///< scratch directory for files and traces
  /// Check outputs. Off only in set-up child processes, which report a
  /// set-up time and exit; their outputs are never used.
  bool check = true;
};

/// Outcome of one timed request.
struct Request {
  double seconds = 0.0;  ///< timed wall of the request (checks excluded)
  /// The timed wall of each fixed part of the request (one entry per sketch
  /// or solve of a pass), in the same order on every request.
  std::vector<double> parts;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};

/// One benchmark workload. The constructor generates its inputs (never
/// timed); start() holds the per-process set-up a user pays before the first
/// request; request() runs and then checks one closed-loop request.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void start() {}
  virtual Request request() = 0;
  /// Per-layer measurements of this workload's modules, in a traced run.
  /// Returns the ops it ran and how many of them failed their checks.
  virtual Request layers(Metrics& m, std::vector<Ratio>& derived,
                         Facts& facts) = 0;
  /// Peak RSS attributable to the requests (MB).
  virtual double peak_rss_mb() { return pb::peak_rss_mb(); }
  /// Human-readable lines for the run summary.
  virtual std::vector<std::string> summary() const { return {}; }
};

std::unique_ptr<Workload> make_sketch_large(const Options& o);
std::unique_ptr<Workload> make_cli_roundtrip(const Options& o);
std::unique_ptr<Workload> make_batch_small(const Options& o);
std::unique_ptr<Workload> make_sap_solve(const Options& o);

/// Count a request's ops as failed when it throws, with one stderr line.
template <typename F>
Request guarded(std::uint64_t ops, F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
    Request r;
    r.ops = ops;
    r.failed = ops;
    return r;
  }
}

}  // namespace pb
