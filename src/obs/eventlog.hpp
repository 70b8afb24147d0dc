// Request-lifecycle flight recorder (PR 10, DESIGN.md §16).
//
// EventLog is a process-wide, fixed-capacity structured event ring recording
// the full lifecycle of every serving request — admit, dispatch, retry,
// terminal completion — plus the fleet-level transitions that explain them
// (breaker trips, watchdog stalls, quarantine/reimage, degradation,
// rollout-stage changes). Same MCU-style constraints as the span ring
// (obs.hpp): no allocation on the hot path (the ring is preallocated; push
// never allocates), drop-oldest eviction, and -DMN_OBS=OFF collapses every
// entry point below to an inline no-op.
//
// Determinism contract: events carry ONLY virtual-time data (tick, tenant,
// seq, kind-specific integers) — no wall-clock, no thread ids — and every
// emission site sits in a serial scheduler phase, never inside a parallel
// invoke batch. The running fingerprint folds every event in emission order
// (including ones later evicted by ring wrap), so it is bit-identical at any
// MN_THREADS and independent of ring capacity; it joins the engine and
// rollout fingerprints in the thread-invariance contract.
//
// Postmortem captures are the flight-recorder readout: on watchdog stall,
// breaker open, or rollout abort the emitting layer calls event_postmortem()
// and the last kPostmortemDepth events are snapshotted with a reason tag,
// ready to be exported as JSON (export.hpp: postmortem_json()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mn::obs {

// Lifecycle event kinds. Request-scoped kinds carry (tenant, seq); fleet-
// scoped kinds (canary, reimage, rollout) use tenant/seq = -1 where no
// request is involved.
enum class EventKind : uint8_t {
  kAdmit = 0,      // request entered a tenant queue          a=queue depth, b=deadline
  kReject,         // refused at submit (never admitted)      a=Outcome, b=queue depth
  kDispatch,       // bound to a pool replica                 a=variant, b=attempt
  kRetry,          // transient fault; re-execution scheduled a=attempt, b=not_before
  kComplete,       // terminal disposition (exactly one per   a=Outcome, b=latency ticks
                   // admitted request)
  kQuarantine,     // replica pulled from rotation            a=instance, b=rejoin tick
  kReimage,        // replica rebuilt from the golden image   a=instance, b=variant
  kCanaryDetect,   // cadence health-check caught corruption  a=instance
  kBreakerTrip,    // circuit breaker opened                  a=lifetime trips
  kWatchdogStall,  // liveness watchdog latched a stall       a=queue depth
  kDegradeEnter,   // tenant routed to fallback variant       a=queue depth, b=0
  kDegradeExit,    // tenant recovered to primary             a=queue depth, b=0
  kRolloutStage,   // rollout lifecycle stage entered         a=Stage
  kRolloutAbort,   // rollout rolled back                     a=AbortReason, b=tenants repinned
  kEventKindCount,  // sentinel, keep last
};
const char* event_kind_name(EventKind k);  // compiled in every configuration

// One flight-recorder record. POD, virtual-time only (see determinism
// contract above).
struct Event {
  EventKind kind = EventKind::kAdmit;
  int32_t tenant = -1;  // -1 = fleet-scoped
  int64_t seq = -1;     // per-tenant request sequence; -1 = not request-scoped
  int64_t tick = 0;     // virtual scheduler time of the transition
  int64_t a = 0;        // kind-specific (see EventKind comments)
  int64_t b = 0;
};

// Events retained per postmortem capture.
inline constexpr std::size_t kPostmortemDepth = 64;

// Latest postmortem capture: the reason tag (a static string literal passed
// to event_postmortem), the tick it fired at, and the trailing events.
struct PostmortemDump {
  const char* reason = nullptr;
  int64_t tick = 0;
  std::vector<Event> events;
};

#if !defined(MN_OBS_DISABLED)

// Preallocates the event ring (clamped to >= 16), clearing recorded events
// and resetting the fingerprint. Without an explicit reserve, the first
// emission allocates the default capacity (16384).
void event_reserve(std::size_t capacity);
// Drops recorded events, resets the fingerprint and drop count; keeps the
// reserved capacity. (Postmortem captures are kept; reset_all clears those
// too.)
void event_clear();
std::size_t event_size();
std::size_t event_capacity();
int64_t event_dropped();
// Records one event. Never allocates once the ring exists; evicts the
// oldest record when full. Always on in enabled builds — the flight
// recorder must already be running when the incident happens.
void event_emit(const Event& ev);
// Order-exact hash over every event ever emitted since the last clear
// (evicted ones included) — capacity-independent, thread-invariant.
uint64_t event_fingerprint();
// Resident events, oldest first. Allocates; not for the hot path.
std::vector<Event> event_snapshot();

// Snapshots the last kPostmortemDepth events under `reason` (must be a
// static string literal, like trace names). Allocates — incident path, not
// hot path. The latest capture wins; postmortem_count() counts all of them.
void event_postmortem(const char* reason, int64_t tick);
int64_t postmortem_count();
PostmortemDump postmortem_latest();
// Drops the stored capture (reset_all() calls this; the lifetime capture
// counter is a Counter and resets with the registry).
void postmortem_clear();

#else  // MN_OBS_DISABLED: every entry point is an inline no-op.

inline void event_reserve(std::size_t) {}
inline void event_clear() {}
inline std::size_t event_size() { return 0; }
inline std::size_t event_capacity() { return 0; }
inline int64_t event_dropped() { return 0; }
inline void event_emit(const Event&) {}
inline uint64_t event_fingerprint() { return 0; }
inline std::vector<Event> event_snapshot() { return {}; }
inline void event_postmortem(const char*, int64_t) {}
inline int64_t postmortem_count() { return 0; }
inline PostmortemDump postmortem_latest() { return {}; }
inline void postmortem_clear() {}

#endif  // MN_OBS_DISABLED

}  // namespace mn::obs
