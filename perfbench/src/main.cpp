// Benchmark runner: runs one workload closed loop with one client for a
// fixed time, checks every output, and prints its metrics as the last line
// of standard output. See README.md in this directory for the workloads, the
// metrics and what each one should move.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --sketch-tool PATH --workdir DIR [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with all tracing off.
// --trace 1 is the traced run: it turns on the library's RSKETCH_PERF
// counters and the runner's own spans, measures the tracing overhead on the
// named workload, then runs every workload's per-layer measurements and
// writes the spans, the derived model-versus-measured block and the facts
// behind them to FILE.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>

#include "analysis/machine.hpp"
#include "harness.hpp"
#include "perf/perf.hpp"

namespace pb {
namespace {

/// Set-up is measured this many times per run: once in the runner itself
/// and once in each of (kSetups - 1) fresh child processes, so every sample
/// pays the process-wide lazy probes. The median is reported.
constexpr int kSetups = 3;

const std::map<std::string, std::function<std::unique_ptr<Workload>(
                                const Options&)>>& registry() {
  static const std::map<std::string,
                        std::function<std::unique_ptr<Workload>(const Options&)>>
      r = {{"sketch_large", make_sketch_large},
           {"cli_roundtrip", make_cli_roundtrip},
           {"batch_small", make_batch_small},
           {"sap_solve", make_sap_solve}};
  return r;
}

/// What one request is on each workload, and the workload-specific names
/// README.md gives request_s_p50 and ops_per_s there.
struct RequestNames {
  std::string what;
  std::string p50;
  std::string rate;
};

const std::map<std::string, RequestNames>& request_names() {
  static const std::map<std::string, RequestNames> r = {
      {"sketch_large",
       {"one pass of 4 sketch requests", "sketch_pass_s_p50",
        "sketch_requests_per_s"}},
      {"cli_roundtrip",
       {"one sketch_tool subprocess", "cli_request_s_p50",
        "cli_requests_per_s"}},
      {"batch_small",
       {"one batch of 256 jobs", "batch_s_p50", "batch_jobs_per_s"}},
      {"sap_solve",
       {"one pass of 2 SAP solves", "solve_pass_s_p50", "solves_per_s"}}};
  return r;
}

struct Setup {
  double seconds = 0.0;
  Request first;
};

/// Per-process set-up: start() plus the first request (its check excluded).
Setup set_up(Workload& w) {
  Setup s;
  const double t0 = now_s();
  w.start();
  const double start_s = now_s() - t0;
  s.first = w.request();
  s.seconds = start_s + s.first.seconds;
  return s;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

void print_result(const Request& total, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += total.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(total.ops);
  out += ", \"failed\": " + std::to_string(total.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& it : m.items()) {
    out += std::string(first ? "" : ", ") + json_string(it.name) +
           ": {\"value\": " + json_number(it.value) +
           ", \"unit\": " + json_string(it.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void add(Request& total, const Request& r) {
  total.ops += r.ops;
  total.failed += r.failed;
}

int run_setup_only(Options o) {
  o.check = false;
  auto w = registry().at(o.workload)(o);
  const Setup s = set_up(*w);
  std::printf("setup_s=%.17g\n", s.seconds);
  return s.first.failed == 0 ? 0 : 1;
}

int run_untraced(const Options& o) {
  Request total;
  std::vector<double> setups;
  for (int k = 1; k < kSetups; ++k) {
    const ChildResult c = run_child(
        {self_exe(), "--workload", o.workload, "--seed",
         std::to_string(o.seed), "--sketch-tool", o.sketch_tool, "--workdir",
         o.workdir, "--setup-only"},
        {}, o.workdir + "/setup.stdout", o.workdir + "/setup.stderr");
    const auto pos = c.out.find("setup_s=");
    // Each set-up child is one op, failed when it reports no set-up time.
    ++total.ops;
    if (c.exit_code != 0 || pos == std::string::npos) {
      std::fprintf(stderr, "perfbench: set-up child failed (exit %d)\n",
                   c.exit_code);
      ++total.failed;
      continue;
    }
    setups.push_back(std::strtod(c.out.c_str() + pos + 8, nullptr));
  }

  auto w = registry().at(o.workload)(o);
  const Setup s = set_up(*w);
  setups.push_back(s.seconds);
  add(total, s.first);

  // Per-part samples: a request's median is the sum of its parts' medians,
  // which needs fewer requests to settle than the median of whole requests.
  std::vector<double> samples;
  std::vector<std::vector<double>> parts;
  std::uint64_t ops_per_request = 0;
  const double loop0 = now_s();
  while (now_s() - loop0 < o.seconds) {
    Request r = w->request();
    add(total, r);
    if (r.failed != 0) continue;
    if (r.parts.empty()) r.parts.push_back(r.seconds);
    parts.resize(r.parts.size());
    for (std::size_t k = 0; k < r.parts.size(); ++k) {
      parts[k].push_back(r.parts[k]);
    }
    samples.push_back(r.seconds);
    ops_per_request = r.ops;
  }
  double request_p50 = 0.0;
  for (const auto& p : parts) request_p50 += median(p);

  Metrics m;
  m.set("setup_s", median(setups), "s");
  m.set("request_s_p50", request_p50, "s");
  m.set("ops_per_s",
        request_p50 > 0 ? double(ops_per_request) / request_p50 : 0.0, "1/s");
  m.set("peak_rss_mb", w->peak_rss_mb(), "MB");

  const auto& rn = request_names().at(o.workload);
  std::printf("workload %s: a request is %s; %zu timed samples\n",
              o.workload.c_str(), rn.what.c_str(), samples.size());
  std::printf("  %s (request_s_p50) = %.6g s (whole requests: p50 %.6g s, "
              "p90 %.6g s, min %.6g s, max %.6g s)\n",
              rn.p50.c_str(), request_p50, median(samples),
              quantile(samples, 0.9), quantile(samples, 0.0),
              quantile(samples, 1.0));
  std::printf("  %s (ops_per_s) = %.6g 1/s\n", rn.rate.c_str(),
              m.items()[2].value);
  std::printf("  request samples:");
  for (const double v : samples) std::printf(" %.4g", v);
  std::printf("\n  setup_s samples:");
  for (const double v : setups) std::printf(" %.4g", v);
  std::printf("\n  ops=%llu ops_failed=%llu\n",
              static_cast<unsigned long long>(total.ops),
              static_cast<unsigned long long>(total.failed));
  for (const auto& line : w->summary()) std::printf("%s\n", line.c_str());
  print_result(total, m);
  return 0;
}

void write_trace(const std::string& path, const Options& o,
                 const std::vector<Ratio>& derived, const Facts& facts) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  f << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
    << ",\n \"spans\": [";
  bool first = true;
  for (const auto& s : tracer().spans()) {
    f << (first ? "\n  " : ",\n  ") << "{\"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"name\": " << json_string(s.name)
      << ", \"start_s\": " << json_number(s.start_s)
      << ", \"end_s\": " << json_number(s.end_s) << "}";
    first = false;
  }
  f << "],\n \"derived\": [";
  first = true;
  for (const auto& d : derived) {
    f << (first ? "\n  " : ",\n  ") << "{\"name\": " << json_string(d.name)
      << ", \"ratio\": " << json_number(d.measured / d.base)
      << ", \"measured\": " << json_number(d.measured)
      << ", \"base\": " << json_number(d.base)
      << ", \"unit\": " << json_string(d.unit)
      << ", \"what\": " << json_string(d.what) << "}";
    first = false;
  }
  f << "],\n \"facts\": {";
  first = true;
  for (const auto& [k, v] : facts) {
    f << (first ? "\n  " : ",\n  ") << json_string(k) << ": " << v;
    first = false;
  }
  const auto snap = rsketch::perf::snapshot();
  f << "},\n \"perf_counters\": {";
  for (int c = 0; c < rsketch::perf::kNumCounters; ++c) {
    f << (c ? ", " : "")
      << json_string(rsketch::perf::counter_name(
             static_cast<rsketch::perf::Counter>(c)))
      << ": " << snap.counters[static_cast<std::size_t>(c)];
  }
  f << "}}\n";
}

void set_tracing(bool on) {
  tracer().set_enabled(on);
  rsketch::perf::set_enabled(on);
}

int run_traced(const Options& o, const std::string& trace_out) {
  set_tracing(true);
  Metrics m;
  std::vector<Ratio> derived;
  Facts facts;
  Request total;
  {
    // The process-wide lazy probe every model-tuned request depends on.
    Scope s("analysis/probe");
    const auto& stream = rsketch::cached_stream_result();
    rsketch::measure_h(rsketch::Dist::PmOne, rsketch::RngBackend::XoshiroBatch,
                       stream);
    m.set("analysis.probe_s", s.stop(), "s");
  }

  std::unique_ptr<Workload> w;
  {
    Scope s("generate/" + o.workload);
    w = registry().at(o.workload)(o);
  }
  add(total, set_up(*w).first);

  // Tracing overhead on the named workload: untraced and traced requests
  // alternate for the run's duration.
  std::vector<double> plain, traced;
  const double loop0 = now_s();
  do {
    set_tracing(false);
    const Request a = w->request();
    set_tracing(true);
    const Request b = w->request();
    add(total, a);
    add(total, b);
    if (a.failed == 0) plain.push_back(a.seconds);
    if (b.failed == 0) traced.push_back(b.seconds);
  } while (now_s() - loop0 < o.seconds);
  // With every request failed the run is already incorrect; report 0.
  const bool timed = !plain.empty() && !traced.empty();
  m.set("trace.overhead_share",
        timed ? median(traced) / median(plain) - 1.0 : 0.0, "ratio");
  derived.push_back({"trace_overhead", median(traced), median(plain), "s",
                     "median traced request of " + o.workload +
                         " over the median untraced one"});

  for (const auto& [name, make] : registry()) {
    Scope s("layers/" + name);
    std::unique_ptr<Workload> other;
    Workload* v = w.get();
    if (name != o.workload) {
      {
        Scope g("generate/" + name);
        other = make(o);
      }
      other->start();
      v = other.get();
    }
    add(total, v->layers(m, derived, facts));
  }
  set_tracing(false);

  std::printf("derived (ratio = measured / base):\n");
  for (const auto& d : derived) {
    std::printf("  %-22s %.4g = %.6g / %.6g %s  (%s)\n", d.name.c_str(),
                d.measured / d.base, d.measured, d.base, d.unit.c_str(),
                d.what.c_str());
  }
  if (!trace_out.empty()) {
    write_trace(trace_out, o, derived, facts);
    std::printf("trace: %s\n", trace_out.c_str());
  }
  print_result(total, m);
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Options o;
  std::string trace_out;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--setup-only") {
      setup_only = true;
    } else if (k == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (k == "--sketch-tool" && has_value) {
      o.sketch_tool = argv[++i];
    } else if (k == "--workdir" && has_value) {
      o.workdir = argv[++i];
    } else if (k == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_runner: bad argument '%s'\n", k.c_str());
      return 2;
    }
  }
  if (pb::registry().count(o.workload) == 0 || o.workdir.empty() ||
      o.sketch_tool.empty() || !(o.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload sketch_large|"
                 "cli_roundtrip|batch_small|sap_solve --seed N --seconds S "
                 "--trace 0|1 --sketch-tool PATH --workdir DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  try {
    if (setup_only) return pb::run_setup_only(o);
    return o.trace ? pb::run_traced(o, trace_out) : pb::run_untraced(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
