// cli_roundtrip: the real `sketch_tool sketch --in A.mtx --out Ahat.mtx` as
// a subprocess with default flags, bytes in to bytes out. A is 60000×600 at
// ρ=3e-3 (a ~3.3 MB .mtx); Â is written as ~31 MB of coordinate text, so
// sparse I/O dominates and the kernel is a few percent of the wall time.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

#include "harness.hpp"
#include "sketch/autotune.hpp"
#include "sketch/sketch.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/ops.hpp"
#include "sparse/validate.hpp"

namespace pb {
namespace {

class CliRoundtrip final : public Workload {
 public:
  explicit CliRoundtrip(const Options& o)
      : tool_(o.sketch_tool),
        dir_(o.workdir),
        in_(o.workdir + "/A.mtx"),
        out_(o.workdir + "/Ahat.mtx"),
        a_(rsketch::random_sparse<double>(60000, 600, 3e-3, o.seed * 31 + 5)),
        check_(o.check),
        linearity_(a_, o.seed * 17 + 3) {
    rsketch::write_matrix_market_file(in_, a_);
  }

  Request request() override {
    return guarded(1, [&] {
      const ChildResult c = run({});
      Request r;
      r.ops = 1;
      r.seconds = c.wall_s;
      r.failed = (check_ ? check_child(c) : c.exit_code == 0) ? 0 : 1;
      return r;
    });
  }

  Request layers(Metrics& m, std::vector<Ratio>& derived,
                 Facts& facts) override {
    Scope layer("cli_roundtrip/layers");
    Request done;
    // The same request untraced and with the library's RSKETCH_PERF
    // counters on, then an in-process replay of the tool's stages.
    double wall = 0.0;
    {
      Scope s("cli/sketch_tool");
      const ChildResult c = run({});
      wall = c.wall_s;
      ++done.ops;
      if (!check_child(c)) ++done.failed;
    }
    {
      Scope s("cli/sketch_tool_perf");
      const ChildResult c =
          run({"RSKETCH_PERF=1", "RSKETCH_PERF_OUT=" + dir_ + "/perf"});
      ++done.ops;
      if (!check_child(c)) ++done.failed;
      facts.emplace_back("cli.perf_request_s", json_number(c.wall_s));
    }

    Scope replay("cli/replay");
    CscMatrix<double> a;
    double read_s = 0, validate_s = 0, tune_s = 0, sketch_s = 0, write_s = 0;
    {
      Scope s("sparse/read_matrix_market_file");
      a = rsketch::read_matrix_market_file<double>(in_);
      read_s = s.stop();
    }
    {
      Scope s("sparse/validate_csc");
      const auto rep = rsketch::validate_csc(a);
      validate_s = s.stop();
      if (!rep.ok()) throw std::runtime_error("replay: input failed validation");
    }
    SketchConfig cfg = tool_config(a.cols(), 0, 0);
    {
      Scope s("sketch/autotune_blocks");
      rsketch::autotune_blocks(cfg, a);
      tune_s = s.stop();
    }
    DenseMatrix<double> a_hat;
    {
      Scope s("sketch/sketch_into");
      rsketch::sketch_into(cfg, a, a_hat);
      sketch_s = s.stop();
    }
    const std::string replay_out = dir_ + "/Ahat_replay.mtx";
    {
      Scope s("sparse/write");
      rsketch::CooMatrix<double> coo(a_hat.rows(), a_hat.cols());
      {
        Scope c("sparse/dense_to_coo");
        coo.reserve(a_hat.rows() * a_hat.cols());
        for (index_t j = 0; j < a_hat.cols(); ++j) {
          for (index_t i = 0; i < a_hat.rows(); ++i) {
            if (a_hat(i, j) != 0.0) coo.push(i, j, a_hat(i, j));
          }
        }
      }
      CscMatrix<double> csc;
      {
        Scope c("sparse/coo_to_csc");
        csc = rsketch::coo_to_csc(coo);
      }
      Scope w("sparse/write_matrix_market_file");
      rsketch::write_matrix_market_file(replay_out, csc);
      w.stop();
      write_s = s.stop();
    }
    replay.stop();
    ++done.ops;
    if (linearity_.error(cfg, dense_times(a_hat, linearity_.x())) >
        LinearityCheck::kTolerance) {
      std::fprintf(stderr, "perfbench: cli replay linearity check failed\n");
      ++done.failed;
    }

    const double in_bytes = double(file_bytes(in_));
    const double out_bytes = double(file_bytes(replay_out));
    std::remove(replay_out.c_str());
    const double stages = read_s + validate_s + tune_s + sketch_s + write_s;
    m.set("cli.span_coverage", stages / wall, "ratio");
    m.set("cli.process_overhead_s", wall - stages, "s");
    m.set("sparse.io_read_s", read_s, "s");
    m.set("sparse.io_read_mb_per_s", in_bytes / read_s / 1e6, "MB/s");
    m.set("sparse.io_write_s", write_s, "s");
    m.set("sparse.io_write_mb_per_s", out_bytes / write_s / 1e6, "MB/s");
    m.set("sparse.io_write_bytes", out_bytes, "B");
    m.set("sparse.validate_s", validate_s, "s");
    m.set("cli.sketch_s", sketch_s, "s");
    derived.push_back({"cli_span_coverage", stages, wall, "s",
                       "sum of the in-process replay's stages (read, "
                       "validate, tune, sketch, write) over the subprocess "
                       "wall time"});
    facts.emplace_back("cli.in_mtx_bytes", json_number(in_bytes));
    facts.emplace_back("cli.out_mtx_bytes", json_number(out_bytes));
    return done;
  }

  double peak_rss_mb() override { return child_rss_mb_; }

  std::vector<std::string> summary() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "cli_roundtrip: A %lldx%lld nnz=%lld, A.mtx=%.2f MB, "
                  "Ahat.mtx=%.1f MB, Ahat dense=%.1f MB",
                  static_cast<long long>(a_.rows()),
                  static_cast<long long>(a_.cols()),
                  static_cast<long long>(a_.nnz()), file_bytes(in_) / 1e6,
                  last_out_bytes_ / 1e6, 1800.0 * 600 * 8 / 1e6);
    return {buf};
  }

 private:
  /// The tool's `sketch` defaults (examples/sketch_tool.cpp) with the blocks
  /// it reported.
  static SketchConfig tool_config(index_t n, index_t bd, index_t bn) {
    SketchConfig c;
    c.d = 3 * n;
    c.seed = 42;
    c.dist = rsketch::Dist::PmOne;
    c.kernel = rsketch::KernelVariant::Kji;
    c.normalize = true;
    c.block_d = bd > 0 ? bd : c.block_d;
    c.block_n = bn > 0 ? bn : c.block_n;
    return c;
  }

  /// y = Â·x straight from a "matrix coordinate real general" file, which
  /// must have the given shape and in-range entries. The check parses the
  /// file itself rather than through the library reader it would be checking.
  static bool coordinate_times(const std::string& path, index_t rows,
                               index_t cols, const std::vector<double>& x,
                               std::vector<double>& y) {
    std::ifstream f(path, std::ios::binary);
    if (!f) return false;
    const std::string text((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    if (text.rfind("%%MatrixMarket matrix coordinate real general", 0) != 0) {
      return false;
    }
    const char* p = std::strchr(text.c_str(), '\n');
    if (p == nullptr) return false;
    char* end = nullptr;
    const long long r = std::strtoll(p, &end, 10);
    const long long c = std::strtoll(end, &end, 10);
    const long long nnz = std::strtoll(end, &end, 10);
    if (r != rows || c != cols || nnz < 0) return false;
    y.assign(static_cast<std::size_t>(rows), 0.0);
    for (long long k = 0; k < nnz; ++k) {
      const long long i = std::strtoll(end, &end, 10);
      const long long j = std::strtoll(end, &end, 10);
      const char* before = end;
      const double v = std::strtod(before, &end);
      if (end == before || i < 1 || i > rows || j < 1 || j > cols) {
        return false;
      }
      y[static_cast<std::size_t>(i - 1)] +=
          v * x[static_cast<std::size_t>(j - 1)];
    }
    return true;
  }

  ChildResult run(const std::vector<std::string>& env) {
    std::remove(out_.c_str());
    ChildResult c = run_child({tool_, "sketch", "--in", in_, "--out", out_},
                              env, dir_ + "/tool.stdout",
                              dir_ + "/tool.stderr");
    child_rss_mb_ = std::max(child_rss_mb_, c.maxrss_mb);
    return c;
  }

  /// Exit status 0, then the linearity check on Â read back from the file
  /// under the blocks the tool reported.
  bool check_child(const ChildResult& c) {
    if (c.exit_code != 0) {
      std::fprintf(stderr, "perfbench: sketch_tool exited with %d\n",
                   c.exit_code);
      return false;
    }
    long long d = 0, bd = 0, bn = 0;
    const auto pos = c.out.find("sketching: d=");
    if (pos == std::string::npos ||
        std::sscanf(c.out.c_str() + pos, "sketching: d=%lld", &d) != 1) {
      std::fprintf(stderr, "perfbench: sketch_tool printed no config\n");
      return false;
    }
    const auto bpos = c.out.find("blocks=(", pos);
    if (bpos == std::string::npos ||
        std::sscanf(c.out.c_str() + bpos, "blocks=(%lld, %lld)", &bd, &bn) !=
            2) {
      std::fprintf(stderr, "perfbench: sketch_tool printed no blocks\n");
      return false;
    }
    const SketchConfig cfg = tool_config(a_.cols(), bd, bn);
    last_out_bytes_ = double(file_bytes(out_));
    std::vector<double> y;
    if (d != cfg.d ||
        !coordinate_times(out_, cfg.d, a_.cols(), linearity_.x(), y)) {
      std::fprintf(stderr, "perfbench: sketch_tool output is malformed\n");
      return false;
    }
    const double err = linearity_.error(cfg, y);
    if (err <= LinearityCheck::kTolerance) return true;
    std::fprintf(stderr, "perfbench: cli_roundtrip linearity error %.3e\n",
                 err);
    return false;
  }

  std::string tool_;
  std::string dir_;
  std::string in_;
  std::string out_;
  CscMatrix<double> a_;
  bool check_;
  LinearityCheck linearity_;
  double child_rss_mb_ = 0.0;
  double last_out_bytes_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_cli_roundtrip(const Options& o) {
  return std::make_unique<CliRoundtrip>(o);
}

}  // namespace pb
