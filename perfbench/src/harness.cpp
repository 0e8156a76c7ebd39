#include "harness.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "rng/splitmix64.hpp"
#include "sketch/sketch.hpp"
#include "sparse/coo.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"

extern char** environ;

namespace pb {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- spans ------------------------------------------------------------------

int Tracer::begin(const std::string& name) {
  if (!on_) return -1;
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.name = name;
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

Scope::Scope(const std::string& name)
    : id_(tracer().begin(name)), start_(now_s()) {}

double Scope::stop() {
  if (seconds_ < 0.0) {
    seconds_ = now_s() - start_;
    tracer().end(id_);
  }
  return seconds_;
}

// ---- metrics ----------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// ---- process probes ---------------------------------------------------------

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

std::uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

ChildResult run_child(const std::vector<std::string>& argv,
                      const std::vector<std::string>& extra_env,
                      const std::string& stdout_path,
                      const std::string& stderr_path) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) env_store.emplace_back(*e);
  for (const auto& e : extra_env) env_store.push_back(e);
  std::vector<char*> env;
  for (auto& e : env_store) env.push_back(e.data());
  env.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildResult r;
  const double t0 = now_s();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                             env.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  r.wall_s = now_s() - t0;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.maxrss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
  std::ifstream f(stdout_path);
  std::stringstream ss;
  ss << f.rdbuf();
  r.out = ss.str();
  return r;
}

// ---- correctness checks -----------------------------------------------------

namespace {

/// Seeded dense vector with entries in [-1, 1).
std::vector<double> seeded_vector(index_t n, std::uint64_t seed) {
  std::uint64_t state = seed;
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) {
    v = static_cast<double>(rsketch::splitmix64_next(state) >> 11) * 0x1.0p-52 -
        1.0;
  }
  return x;
}

/// y = A·x as an m×1 CSC matrix (zero entries dropped).
CscMatrix<double> times_vector_as_column(const CscMatrix<double>& a,
                                         const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  rsketch::spmv(a, x.data(), y.data());
  rsketch::CooMatrix<double> coo(a.rows(), 1);
  for (index_t i = 0; i < a.rows(); ++i) {
    if (y[static_cast<std::size_t>(i)] != 0.0) {
      coo.push(i, 0, y[static_cast<std::size_t>(i)]);
    }
  }
  return rsketch::coo_to_csc(coo);
}

/// Relative distance ‖u − v‖ / ‖v‖ (∞ when v is zero and u is not).
double rel_diff(const std::vector<double>& u, const std::vector<double>& v) {
  if (u.size() != v.size()) return std::numeric_limits<double>::infinity();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    num += (u[i] - v[i]) * (u[i] - v[i]);
    den += v[i] * v[i];
  }
  if (!std::isfinite(num)) return std::numeric_limits<double>::infinity();
  if (den == 0.0) {
    return num == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return std::sqrt(num / den);
}

/// Stable key of every SketchConfig field that can influence Â.
std::string config_key(const SketchConfig& c) {
  std::ostringstream k;
  k << c.d << '|' << c.seed << '|' << int(c.dist) << '|' << int(c.backend)
    << '|' << int(c.kernel) << '|' << c.block_d << '|' << c.block_n << '|'
    << int(c.parallel) << '|' << c.normalize << '|' << int(c.isa) << '|'
    << int(c.schedule);
  return k.str();
}

}  // namespace

std::vector<double> dense_times(const DenseMatrix<double>& a_hat,
                                const std::vector<double>& x) {
  const index_t rows = a_hat.rows();
  std::vector<double> y(static_cast<std::size_t>(rows), 0.0);
  // Row strips in parallel; each y[i] still sums over j in order.
  constexpr index_t kStrip = 2048;
#pragma omp parallel for schedule(static)
  for (index_t i0 = 0; i0 < rows; i0 += kStrip) {
    const index_t i1 = std::min(rows, i0 + kStrip);
    for (index_t j = 0; j < a_hat.cols(); ++j) {
      const double xj = x[static_cast<std::size_t>(j)];
      const double* col = a_hat.col(j);
      for (index_t i = i0; i < i1; ++i) {
        y[static_cast<std::size_t>(i)] += col[i] * xj;
      }
    }
  }
  return y;
}

LinearityCheck::LinearityCheck(const CscMatrix<double>& a, std::uint64_t seed)
    : x_(seeded_vector(a.cols(), seed)), ax_(times_vector_as_column(a, x_)) {}

double LinearityCheck::error(const SketchConfig& cfg,
                             const std::vector<double>& a_hat_x) {
  const std::string key = config_key(cfg);
  auto it = std::find_if(refs_.begin(), refs_.end(),
                         [&](const auto& r) { return r.first == key; });
  if (it == refs_.end()) {
    DenseMatrix<double> s_ax;
    rsketch::sketch_into(cfg, ax_, s_ax);
    std::vector<double> ref(s_ax.col(0), s_ax.col(0) + s_ax.rows());
    refs_.emplace_back(key, std::move(ref));
    it = std::prev(refs_.end());
  }
  return rel_diff(a_hat_x, it->second);
}

std::uint64_t content_hash(const DenseMatrix<double>& m) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ static_cast<std::uint64_t>(m.rows());
  for (index_t j = 0; j < m.cols(); ++j) {
    const double* col = m.col(j);
    for (index_t i = 0; i < m.rows(); ++i) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &col[i], sizeof bits);
      h ^= bits + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
  }
  return h;
}

void poison(DenseMatrix<double>& m) {
  const index_t ld = m.ld();
  double* p = m.data();
#pragma omp parallel for schedule(static) if (ld * m.cols() > (1 << 20))
  for (index_t j = 0; j < m.cols(); ++j) {
    std::fill(p + j * ld, p + (j + 1) * ld,
              std::numeric_limits<double>::quiet_NaN());
  }
}

}  // namespace pb
