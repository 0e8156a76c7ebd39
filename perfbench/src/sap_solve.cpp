// sap_solve: sketch-and-precondition least squares (paper §V-C) on the LS
// replicas rail4284 (QR factor) and specular (SVD factor), both at scale 3.
// One request solves both. It is the only workload that reaches the solvers
// and dense modules; the factor step dominates.
#include <cstdio>

#include "harness.hpp"
#include "solvers/least_squares.hpp"
#include "solvers/sap.hpp"
#include "testdata/replicas.hpp"

namespace pb {
namespace {

struct Problem {
  std::string name;
  rsketch::SapFactor factor;
  /// Bound on the paper's backward-error metric ‖Aᵀr‖/(‖A‖_F‖r‖). Measured
  /// at scale 3: rail4284 ~4e-15, specular ~1e-9 (cond(A) ~1e14).
  double tolerance;
  CscMatrix<double> a;
  std::vector<double> b;
};

class SapSolve final : public Workload {
 public:
  explicit SapSolve(const Options& o) : seed_(o.seed), check_(o.check) {
    add("rail4284", rsketch::SapFactor::QR, 1e-12);
    add("specular", rsketch::SapFactor::SVD, 1e-7);
  }

  Request request() override {
    Request r;
    for (auto& p : probs_) {
      ++r.ops;
      try {
        Scope s("solvers/sap_solve");
        const auto res = rsketch::sap_solve(p.a, p.b, options(p));
        r.parts.push_back(s.stop());
        r.seconds += r.parts.back();
        if (check_ && !check(p, res)) ++r.failed;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: sap_solve %s failed: %s\n",
                     p.name.c_str(), e.what());
        ++r.failed;
      }
    }
    return r;
  }

  Request layers(Metrics& m, std::vector<Ratio>& derived,
                 Facts& facts) override {
    Scope layer("sap_solve/layers");
    Request done;
    double sketch_s = 0, factor_s = 0, lsqr_s = 0, total_s = 0, iters = 0;
    double workspace = 0;
    std::string per = "[";
    for (auto& p : probs_) {
      Scope s("solvers/sap_solve");
      const auto res = rsketch::sap_solve(p.a, p.b, options(p));
      s.stop();
      ++done.ops;
      const double err = rsketch::ls_error_metric(p.a, res.x, p.b);
      if (!check(p, res)) ++done.failed;
      sketch_s += res.sketch_seconds;
      factor_s += res.factor_seconds;
      lsqr_s += res.lsqr_seconds;
      total_s += res.total_seconds;
      iters += double(res.iterations);
      workspace += double(res.workspace_bytes);
      per += std::string(per.size() > 1 ? "," : "") +
             "{\"matrix\":" + json_string(p.name) +
             ",\"sketch_s\":" + json_number(res.sketch_seconds) +
             ",\"factor_s\":" + json_number(res.factor_seconds) +
             ",\"lsqr_s\":" + json_number(res.lsqr_seconds) +
             ",\"iterations\":" + json_number(double(res.iterations)) +
             ",\"ls_error\":" + json_number(err) +
             ",\"workspace_mb\":" + json_number(res.workspace_bytes / 1e6) +
             "}";
    }
    facts.emplace_back("sap_solve.per_matrix", per + "]");
    m.set("solvers.sap_sketch_s", sketch_s, "s");
    m.set("solvers.sap_factor_s", factor_s, "s");
    m.set("solvers.sap_lsqr_s", lsqr_s, "s");
    m.set("solvers.lsqr_iterations", iters, "count");
    m.set("solvers.sap_workspace_mb", workspace / 1e6, "MB");
    derived.push_back({"sap_factor_share", factor_s, total_s, "s",
                       "QR/SVD factor time over total SAP time, both "
                       "matrices"});
    return done;
  }

  std::vector<std::string> summary() const override {
    std::vector<std::string> out;
    for (const auto& p : probs_) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "sap_solve %s: %lldx%lld nnz=%lld, A=%.1f MB, "
                    "tolerance %.0e",
                    p.name.c_str(), static_cast<long long>(p.a.rows()),
                    static_cast<long long>(p.a.cols()),
                    static_cast<long long>(p.a.nnz()),
                    p.a.memory_bytes() / 1e6, p.tolerance);
      out.emplace_back(buf);
    }
    return out;
  }

 private:
  void add(const std::string& name, rsketch::SapFactor f, double tol) {
    Problem p{name, f, tol, rsketch::make_ls_replica(name, 3), {}};
    p.b = rsketch::make_least_squares_rhs(p.a, seed_ * 101 + probs_.size());
    probs_.push_back(std::move(p));
  }

  rsketch::SapOptions options(const Problem& p) const {
    rsketch::SapOptions o;
    o.factor = p.factor;
    o.seed = seed_ * 977 + 11;
    return o;
  }

  bool check(const Problem& p, const rsketch::SapResult<double>& res) {
    const double err = rsketch::ls_error_metric(p.a, res.x, p.b);
    if (res.converged && err < p.tolerance) return true;
    std::fprintf(stderr,
                 "perfbench: sap_solve %s converged=%d error %.3e (bound "
                 "%.0e)\n",
                 p.name.c_str(), int(res.converged), err, p.tolerance);
    return false;
  }

  std::uint64_t seed_;
  bool check_;
  std::vector<Problem> probs_;
};

}  // namespace

std::unique_ptr<Workload> make_sap_solve(const Options& o) {
  return std::make_unique<SapSolve>(o);
}

}  // namespace pb
