// Observability subsystem (PR 4): process-wide counters/gauges and scoped
// span tracing with a fixed-capacity ring-buffer event log.
//
// Design constraints (MCU-style, see DESIGN.md §10):
//   * No allocation on the hot path. Counters are relaxed atomic adds into a
//     flat array indexed by a compile-time enum; span events are PODs written
//     into a preallocated ring buffer whose names must be static-lifetime
//     string literals. The only allocations happen in trace_reserve() and the
//     exporters.
//   * Zero-cost disable. Building with -DMN_OBS=OFF defines MN_OBS_DISABLED
//     globally and every API below collapses to an inline no-op returning
//     zeros; SpanScope becomes an empty object. Call sites never #ifdef.
//   * Observation only. Nothing here draws RNG, touches training state, or
//     leaks wall-clock into any checksummed artifact (checkpoints, journals,
//     model images stay bit-identical with tracing on or off — tests/test_obs
//     asserts this).
//
// Runtime switches (enabled builds): counters always accumulate (a few
// relaxed atomic adds per interpreter op); span recording is opt-in via
// set_tracing(true) and reads the clock only while on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mn::obs {

// Well-known counters. Monotonic sums; reset with reset_counters().
enum class Counter : uint32_t {
  // The four kernel counters are added once per op by rt::Interpreter from
  // the op's prepared record; a direct kernel call counts nothing.
  kKernelMacs = 0,       // multiply-accumulates of the ops the Interpreter ran
  kKernelBytesRead,      // their input + weight (add: both inputs) bytes
  kKernelBytesWritten,   // their output bytes
  kIm2colBytes,          // column-buffer bytes staged by gather convs
  kInterpreterInvokes,   // Interpreter inferences served
  kInterpreterOps,       // ops dispatched by Interpreter::run_op
  kPoolRegions,          // parallel regions executed (incl. serial fallback)
  kPoolChunks,           // chunks executed across all regions and threads
  kPoolStolenChunks,     // chunks claimed by a pool worker (not the caller)
  kTrainerEpochs,        // nn::fit / fit_autoencoder epochs completed
  kDnasEpochs,           // core::run_dnas epochs completed
  kTraceDropped,         // span events evicted by ring-buffer wrap
  kCounterSamples,       // counter-track samples recorded via trace_counter
  kServeAdmitted,        // requests accepted into a tenant queue
  kServeShed,            // requests shed (queue full, dropped, expired, breaker)
  kServeRetries,         // transient-failure re-executions scheduled
  kServeQuarantines,     // interpreter instances quarantined + re-planned
  kServeDegraded,        // invokes routed to a tenant's fallback variant
  kBackendFastOps,       // ops dispatched to a fast-backend kernel
  kBackendReferenceOps,  // ops run on the reference path (incl. fallbacks)
  kCompileOpsRemoved,    // graph-compiler: ops folded/fused/eliminated
  kCompileBytesFolded,   // graph-compiler: const bytes materialized into blob
  kCompilePeakBytesSaved,  // graph-compiler: peak_live_bytes reduction
  kEventsEmitted,        // flight-recorder events emitted (eventlog.hpp)
  kEventsDropped,        // flight-recorder events evicted by ring wrap
  kPostmortemDumps,      // postmortem captures taken (stall/breaker/abort)
  kCount
};

// Well-known gauges. Each tracks the maximum value ever set (high-water
// marks); reset with reset_counters().
enum class Gauge : uint32_t {
  kArenaPeakBytes = 0,   // largest planned activation arena (excl. guards)
  kScratchPeakBytes,     // largest shared im2col scratch allocation
  kPoolWorkers,          // worker threads spawned (excludes the caller)
  kPoolRegionChunksMax,  // widest region's chunk count (peak queue depth)
  kTraceHighWater,       // most events ever resident in the ring buffer
  kArenaLiveBytesPeak,   // largest per-op sum of live activation tensors
  kServeQueueDepthPeak,  // deepest single tenant queue seen by the engine
  kServeInflightPeak,    // most requests simultaneously executing
  kEventHighWater,       // most events ever resident in the flight recorder
  kCount
};

// Stable snake_case names used as JSON keys by the exporters.
const char* counter_name(Counter c);
const char* gauge_name(Gauge g);

// Span category, rendered as the chrome://tracing "cat" field.
enum class Cat : uint8_t { kKernel, kRuntime, kTrain, kSearch, kParallel, kBench };
const char* cat_name(Cat c);

// Trace event phase: a completed span (chrome "ph":"X") or one sample on a
// counter track (chrome "ph":"C"). Perfetto renders each distinct counter
// name as its own counter track alongside the span rows.
enum class Ph : uint8_t { kComplete, kCounter };

// One trace record. `name` and the arg names must outlive the buffer
// (string literals); numeric args render into the trace's "args" object.
// Counter samples use `name` as the track name and `value` as the sample;
// dur_ns and the named args are ignored for them.
struct TraceEvent {
  const char* name = nullptr;
  Cat cat = Cat::kRuntime;
  Ph ph = Ph::kComplete;
  uint32_t tid = 0;       // small per-thread ordinal, stable within a run
  int64_t start_ns = 0;   // offset from the process trace epoch
  int64_t dur_ns = 0;
  double value = 0.0;     // counter sample value (ph == kCounter)
  const char* arg_a_name = nullptr;
  int64_t arg_a = 0;
  const char* arg_b_name = nullptr;
  int64_t arg_b = 0;
};

#if !defined(MN_OBS_DISABLED)

// --- counters & gauges ------------------------------------------------------

void counter_add(Counter c, int64_t delta);
int64_t counter_value(Counter c);
void gauge_set_max(Gauge g, int64_t value);  // keeps max(current, value)
int64_t gauge_value(Gauge g);
// Zeroes every counter AND every gauge. The trace ring buffer is untouched;
// use reset_all() to also drop recorded events.
void reset_counters();
// Full registry reset: counters, gauges, the trace ring's recorded events,
// the flight-recorder event ring + fingerprint, and the stored postmortem
// capture (reserved capacities and the tracing on/off switch are kept).
// Audited against every serving-era counter/gauge so back-to-back bench
// phases start clean — the state a test fixture wants between cases.
void reset_all();

// --- span tracing -----------------------------------------------------------

// Preallocates the ring buffer (default capacity on first enable: 16384
// events). Clears any recorded events. Capacity is clamped to >= 16.
void trace_reserve(std::size_t capacity);
// Start/stop recording. Enabling with no buffer reserves the default size.
void set_tracing(bool on);
bool tracing_enabled();
// Drops all recorded events (keeps the reserved capacity).
void trace_clear();
// Events currently resident / capacity / lifetime evictions.
std::size_t trace_size();
std::size_t trace_capacity();
int64_t trace_dropped();
// The resident events, oldest first. Allocates; not for the hot path.
std::vector<TraceEvent> trace_snapshot();
// Records a completed span directly (the non-RAII form used by profilers
// that measured the interval themselves).
void trace_emit(const TraceEvent& ev);
// Records one sample on the counter track `track` (a static-lifetime string
// literal) at the current trace time. No-op while tracing is off. Samples
// share the span ring buffer, so they are subject to the same capacity and
// drop-oldest eviction.
void trace_counter(const char* track, double value, Cat cat = Cat::kRuntime);

// Monotonic nanoseconds since the process trace epoch.
int64_t now_ns();

// Small dense per-thread ordinal (0 = first thread to ask).
uint32_t thread_ordinal();

// RAII span: records [construction, destruction) into the ring buffer.
// When tracing is off at construction, neither clock read happens.
class SpanScope {
 public:
  explicit SpanScope(const char* name, Cat cat = Cat::kRuntime,
                     const char* arg_a_name = nullptr, int64_t arg_a = 0,
                     const char* arg_b_name = nullptr, int64_t arg_b = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceEvent ev_;
  bool armed_ = false;
};

#else  // MN_OBS_DISABLED: every entry point is an inline no-op.

inline void counter_add(Counter, int64_t) {}
inline int64_t counter_value(Counter) { return 0; }
inline void gauge_set_max(Gauge, int64_t) {}
inline int64_t gauge_value(Gauge) { return 0; }
inline void reset_counters() {}
inline void reset_all() {}

inline void trace_reserve(std::size_t) {}
inline void set_tracing(bool) {}
inline bool tracing_enabled() { return false; }
inline void trace_clear() {}
inline std::size_t trace_size() { return 0; }
inline std::size_t trace_capacity() { return 0; }
inline int64_t trace_dropped() { return 0; }
inline std::vector<TraceEvent> trace_snapshot() { return {}; }
inline void trace_emit(const TraceEvent&) {}
inline void trace_counter(const char*, double, Cat = Cat::kRuntime) {}
inline int64_t now_ns() { return 0; }
inline uint32_t thread_ordinal() { return 0; }

class SpanScope {
 public:
  explicit SpanScope(const char*, Cat = Cat::kRuntime, const char* = nullptr,
                     int64_t = 0, const char* = nullptr, int64_t = 0) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
};

#endif  // MN_OBS_DISABLED

}  // namespace mn::obs
