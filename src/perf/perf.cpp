#include "perf/perf.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "perf/trace.hpp"
#include "support/env.hpp"

namespace rsketch::perf {

namespace {

bool env_toggle() {
  const char* v = std::getenv("RSKETCH_PERF");
  if (v == nullptr || *v == '\0') return false;
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "on" || s == "yes") return true;
  if (s == "0" || s == "false" || s == "off" || s == "no") return false;
  // A typo'd toggle must not silently flip telemetry on or off.
  env_warn_once("RSKETCH_PERF", v, "expected 0/1/on/off; telemetry disabled");
  return false;
}

std::atomic<bool> g_enabled{env_toggle()};

/// Live Span census backing the reset() precondition assert. Relaxed RMW per
/// armed Span construction/destruction — Spans bracket whole sketches and
/// solver phases, never per-nonzero work, so this is far off the hot path.
std::atomic<long> g_live_spans{0};

/// One thread's private accumulation state. Plain (non-atomic) fields: only
/// the owning thread writes, and snapshot()/reset() run when no instrumented
/// region is active (documented contract). Spans and busy stats are keyed by
/// interned name id (perf/trace.hpp) — snapshot() resolves ids to strings.
struct ThreadRecord {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::map<std::uint32_t, SpanStat> spans;
  std::map<std::uint32_t, BusyStat> busy;

  void merge_into(Snapshot& out) const {
    for (int i = 0; i < kNumCounters; ++i) out.counters[static_cast<std::size_t>(i)] += counters[static_cast<std::size_t>(i)];
    for (const auto& [id, st] : spans) out.spans[trace::name_of(id)].merge(st);
    for (const auto& [id, bs] : busy) out.busy[trace::name_of(id)].merge(bs);
  }

  void merge_from(const ThreadRecord& other) {
    for (int i = 0; i < kNumCounters; ++i) {
      counters[static_cast<std::size_t>(i)] +=
          other.counters[static_cast<std::size_t>(i)];
    }
    for (const auto& [id, st] : other.spans) spans[id].merge(st);
    for (const auto& [id, bs] : other.busy) busy[id].merge(bs);
  }

  void clear() {
    counters.fill(0);
    spans.clear();
    busy.clear();
  }
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadRecord*> live;
  // Counts merged from threads that have already exited.
  ThreadRecord retired;

  static Registry& instance() {
    static Registry r;
    return r;
  }
};

/// Registers the thread's record on first use; merges it into `retired` and
/// deregisters on thread exit (merge-on-join).
struct ThreadRecordHolder {
  ThreadRecord rec;

  ThreadRecordHolder() {
    Registry& reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.live.push_back(&rec);
  }

  ~ThreadRecordHolder() {
    Registry& reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.retired.merge_from(rec);
    reg.live.erase(std::remove(reg.live.begin(), reg.live.end(), &rec),
                   reg.live.end());
  }
};

ThreadRecord& local_record() {
  thread_local ThreadRecordHolder holder;
  return holder.rec;
}

/// Log-bucket index for a duration: floor(log2(ns)), clamped to the table.
inline int bucket_index(double secs) {
  const double ns = secs * 1e9;
  if (!(ns >= 1.0)) return 0;  // sub-ns, zero, and NaN all land in bucket 0
  const auto u = static_cast<std::uint64_t>(ns);
  const int idx = std::bit_width(u) - 1;
  return std::min(idx, SpanStat::kHistogramBuckets - 1);
}

}  // namespace

void SpanStat::record(double secs, std::uint64_t n) {
  if (n == 0) return;
  const double each = secs / static_cast<double>(n);
  if (count == 0 || each < min_seconds) min_seconds = each;
  if (each > max_seconds) max_seconds = each;
  count += n;
  seconds += secs;
  buckets[static_cast<std::size_t>(bucket_index(each))] += n;
}

void SpanStat::merge(const SpanStat& other) {
  if (other.count == 0) return;
  if (count == 0 || other.min_seconds < min_seconds) {
    min_seconds = other.min_seconds;
  }
  if (other.max_seconds > max_seconds) max_seconds = other.max_seconds;
  count += other.count;
  seconds += other.seconds;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    buckets[static_cast<std::size_t>(b)] +=
        other.buckets[static_cast<std::size_t>(b)];
  }
}

double SpanStat::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    const auto prev = static_cast<double>(cum);
    cum += in_bucket;
    if (static_cast<double>(cum) >= target) {
      // Linear interpolation across the bucket's [2^b, 2^(b+1)) ns range.
      const double lo = std::ldexp(1.0, b) / 1e9;
      const double hi = std::ldexp(1.0, b + 1) / 1e9;
      const double frac =
          std::min(1.0, std::max(0.0, (target - prev) /
                                          static_cast<double>(in_bucket)));
      const double est = lo + (hi - lo) * frac;
      // The histogram knows octaves; the exact envelope is tighter.
      return std::min(max_seconds, std::max(min_seconds, est));
    }
  }
  return max_seconds;
}

void BusyStat::merge(const BusyStat& other) {
  calls += other.calls;
  thread_slots += other.thread_slots;
  busy_seconds += other.busy_seconds;
  max_thread_busy += other.max_thread_busy;
  max_imbalance = std::max(max_imbalance, other.max_imbalance);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::RngSamples: return "rng_samples";
    case Counter::NnzProcessed: return "nnz_processed";
    case Counter::Flops: return "flops";
    case Counter::ElemsMoved: return "elems_moved";
    case Counter::BytesMoved: return "bytes_moved";
    case Counter::BytesGenerated: return "bytes_generated";
    case Counter::KernelBlocks: return "kernel_blocks";
    case Counter::SketchCalls: return "sketch_calls";
    case Counter::KernelDispatches: return "kernel_dispatch";
    case Counter::RunDegradations: return "run_degradations";
    case Counter::RunCancelled: return "run_cancelled";
    case Counter::RunDeadlineHits: return "run_deadline_hits";
    case Counter::RunBudgetHits: return "run_budget_hits";
    case Counter::BatchJobs: return "batch_jobs";
    case Counter::BatchSteals: return "batch_steals";
    case Counter::ScheduleBuilds: return "schedule_builds";
    case Counter::ScheduleBlocks: return "schedule_blocks";
    case Counter::ScheduleImbalanceEstMilli:
      return "schedule_imbalance_est_milli";
    case Counter::kCount: break;
  }
  return "?";
}

void add(Counter c, std::uint64_t v) {
  if (!enabled()) return;
  local_record().counters[static_cast<std::size_t>(c)] += v;
}

void add(const KernelCounters& kc) {
  if (!enabled()) return;
  auto& counters = local_record().counters;
  counters[static_cast<std::size_t>(Counter::RngSamples)] += kc.rng_samples;
  counters[static_cast<std::size_t>(Counter::NnzProcessed)] += kc.nnz_processed;
  counters[static_cast<std::size_t>(Counter::Flops)] += kc.flops;
  counters[static_cast<std::size_t>(Counter::ElemsMoved)] += kc.elems_moved;
  counters[static_cast<std::size_t>(Counter::BytesMoved)] += kc.bytes_moved;
  counters[static_cast<std::size_t>(Counter::BytesGenerated)] +=
      kc.bytes_generated;
  counters[static_cast<std::size_t>(Counter::KernelBlocks)] += kc.kernel_blocks;
}

void add_parallel_busy(const std::string& name, int nthreads,
                       const double* busy_seconds) {
  if (!enabled() || nthreads <= 0) return;
  BusyStat call;
  call.calls = 1;
  call.thread_slots = static_cast<std::uint64_t>(nthreads);
  double max_busy = 0.0;
  for (int t = 0; t < nthreads; ++t) {
    call.busy_seconds += busy_seconds[t];
    max_busy = std::max(max_busy, busy_seconds[t]);
  }
  call.max_thread_busy = max_busy;
  const double mean = call.busy_seconds / static_cast<double>(nthreads);
  call.max_imbalance = mean > 0.0 ? max_busy / mean : 1.0;
  local_record().busy[trace::intern(name)].merge(call);
}

void add_span(const std::string& name, double seconds, std::uint64_t count) {
  const bool perf_on = enabled();
  const bool trace_on = trace::armed();
  if (!perf_on && !trace_on) return;
  const std::uint32_t id = trace::intern(name);
  if (perf_on) local_record().spans[id].record(seconds, count);
  if (trace_on) trace::complete(id, seconds);
}

Span::Span(const char* name)
    : name_id_(0), armed_(enabled()), trace_armed_(trace::armed()) {
  if (!armed_ && !trace_armed_) return;
  name_id_ = trace::intern(name);
  if (armed_) {
    g_live_spans.fetch_add(1, std::memory_order_relaxed);
    start_ = std::chrono::steady_clock::now();
  }
  if (trace_armed_) trace::begin(name_id_);
}

Span::~Span() {
  if (trace_armed_) trace::end(name_id_);
  if (!armed_) return;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  local_record().spans[name_id_].record(secs);
  g_live_spans.fetch_sub(1, std::memory_order_relaxed);
}

Snapshot snapshot() {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  Snapshot out;
  reg.retired.merge_into(out);
  for (const ThreadRecord* rec : reg.live) rec->merge_into(out);
  return out;
}

void reset() {
  // Resetting under a live Span would let its destructor re-post a partial
  // duration into the "zeroed" table — a torn reset. Documented contract;
  // enforced where it's cheap.
  assert(g_live_spans.load(std::memory_order_relaxed) == 0 &&
         "perf::reset() called while a perf::Span is live");
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.retired.clear();
  for (ThreadRecord* rec : reg.live) rec->clear();
}

}  // namespace rsketch::perf
