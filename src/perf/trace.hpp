// Per-thread trace timeline recorder (RSKETCH_TRACE) with Chrome-trace export.
//
// Design: each thread records begin/end/complete/instant/counter events into a
// private fixed-capacity ring buffer — zero allocation and no atomic
// read-modify-writes on the hot path; the only shared state touched per event
// is one relaxed load of the armed flag (the same one-branch-when-off
// discipline as perf::Span). When the ring wraps, the OLDEST events are
// overwritten (newest are kept) and the overwritten count is reported as
// dropped_events. Buffers are registered in a global registry and survive
// thread exit until export or clear(), so short-lived workers still appear in
// the timeline.
//
// Names are interned once into a process-wide string table and referenced by
// id, which (a) keeps events fixed-size, and (b) makes dynamically built span
// names legal — the table owns every string, so nothing recorded can dangle.
// Hot call sites intern once through a function-local static:
//
//   static const std::uint32_t id = perf::trace::intern("kernel_jki");
//   perf::trace::Scope scope(id);   // no-op branch when tracing is off
//
// Arm with RSKETCH_TRACE=<path> (export written on normal process exit), with
// `sketch_tool --trace <path>`, or at runtime via arm()/set_output() (tests).
// The export is Chrome trace-event JSON ("JSON object format"), loadable in
// Perfetto / chrome://tracing and summarized by tools/trace_summary.py. See
// docs/OBSERVABILITY.md for the event catalog and overhead notes.
#pragma once

#include <cstdint>
#include <string>

#include "perf/json.hpp"

namespace rsketch::perf::trace {

/// Event kinds, mapped to Chrome trace-event phases on export.
enum class EventType : std::uint8_t {
  Begin,     ///< ph "B": slice opens at ts
  End,       ///< ph "E": slice closes at ts
  Complete,  ///< ph "X": slice of `value` ns ending at ts (post-hoc spans)
  Instant,   ///< ph "i": point event, `value` rides along as args.value
  Counter    ///< ph "C": sampled counter track, args.value = `value`
};

/// One ring-buffer slot. Timestamps are steady_clock nanoseconds since a
/// process-wide epoch.
struct Event {
  std::uint64_t ts_ns = 0;
  std::uint32_t name_id = 0;
  EventType type = EventType::Instant;
  double value = 0.0;
};

/// Whether tracing is armed (one relaxed atomic load; safe to call anywhere).
bool armed();

/// Arm tracing. `capacity_events` fixes the per-thread ring size (rounded up
/// to a power of two); 0 uses RSKETCH_TRACE_BUF or the 65536 default. Buffers
/// already registered keep their capacity. Idempotent.
void arm(std::size_t capacity_events = 0);

/// Stop recording. Buffered events are kept until clear() or export.
void disarm();

/// Drop every buffered event, retired buffers included, and reset thread ids
/// and drop counts. Only call when no traced region is concurrently running
/// (same contract as perf::reset()).
void clear();

/// Where the at-exit exporter writes ("" disables it). Set automatically from
/// RSKETCH_TRACE; sketch_tool --trace and tests set it explicitly.
void set_output(const std::string& path);
const std::string& output();

/// Intern `name`, returning its stable id. The table owns the string for the
/// life of the process, so callers may pass temporaries freely. Thread-safe;
/// cold path (mutex + hash lookup) — cache the id at hot call sites.
std::uint32_t intern(const std::string& name);

/// Reverse lookup; "?" for an id never handed out.
const std::string& name_of(std::uint32_t id);

/// Record one event in this thread's ring. No-ops (after one branch) when
/// tracing is not armed.
void begin(std::uint32_t name_id);
void end(std::uint32_t name_id);
/// Post-hoc slice: `seconds` long, ending now (Chrome "X" phase).
void complete(std::uint32_t name_id, double seconds);
void instant(std::uint32_t name_id, double value = 0.0);
void counter(std::uint32_t name_id, double value);

/// Label this thread in the exported timeline ("omp-worker-3"). Idempotent;
/// last call wins. No-op when tracing is not armed.
void set_thread_name(const std::string& name);

/// Like set_thread_name, but keeps an existing label. OMP regions use this:
/// an executor pool worker running a kernel sequentially must stay
/// "pool-worker-N" in the timeline, not be relabelled "omp-worker-0".
void set_thread_name_if_unset(const std::string& name);

/// Flush this thread's ring into the retired list and reset it, keeping the
/// thread_name so later events on the same thread stay labelled. Pool
/// workers call this before parking: a drained executor then holds no
/// buffered events hostage in live rings, and repeated park/unpark cycles
/// merge into ONE retired record per thread id (no duplicate thread_name
/// metadata, no per-cycle allocation of interned names). No-op when tracing
/// is not armed or the thread recorded nothing since the last flush.
void retire_current_thread();

/// Events overwritten by ring wraparound, summed over all threads.
std::uint64_t dropped_events();

/// Events successfully recorded (before any wraparound loss), all threads.
std::uint64_t recorded_events();

/// RAII begin/end pair. Captures the armed state once so a trace armed or
/// disarmed mid-scope cannot unbalance the event stream.
class Scope {
 public:
  explicit Scope(std::uint32_t name_id) : name_id_(name_id), armed_(armed()) {
    if (armed_) begin(name_id_);
  }
  ~Scope() {
    if (armed_) end(name_id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t name_id_;
  bool armed_;
};

/// Build the Chrome trace-event document from everything buffered so far:
/// {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}.
/// Includes per-thread thread_name metadata and a dropped_events counter.
Json chrome_trace_json();

/// Serialize chrome_trace_json() to `path`. Returns the path written, or ""
/// on I/O failure (with one line on stderr).
std::string write(const std::string& path);

}  // namespace rsketch::perf::trace
