// rollout:: — staged model-version lifecycle over the serving fleet
// (DESIGN.md §13): OTA-style updates with shadow validation and automatic
// rollback.
//
// A candidate model image moves through a staged state machine:
//
//   kIdle ──begin()── provenance check ──▶ kShadow
//   kShadow   mirrored traffic + golden vectors vs the incumbent, bit-exact
//   kCanary   hash-bucketed fraction of tenants pinned to the candidate
//   kRamp     cohort widens through ramp_pcts, guards watched at each step
//   kComplete candidate becomes the registry's active version
//
// Any guard breach at any stage — a shadow divergence or fault, a
// golden-vector mismatch, a candidate-replica quarantine, or a provenance
// failure at a promotion boundary — triggers automatic rollback: every
// tenant is re-pinned to the incumbent, every candidate replica is
// re-imaged from the incumbent's pristine image, and a typed AbortReport
// records what fired and when.
//
// Like the serving engine underneath it, the controller runs in virtual
// time: every promotion and abort decision depends only on integer ticks,
// deterministic engine counters, and seeded hashes — never wall-clock — so
// a rollout's stage trajectory and fingerprint are bit-identical at any
// MN_THREADS.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve.hpp"
#include "tensor/tensor.hpp"

namespace mn::rollout {

using Tick = serve::Tick;

enum class Stage : uint8_t {
  kIdle = 0,   // no rollout in flight
  kShadow,     // candidate mirrors traffic, serves nothing
  kCanary,     // first real cohort pinned to the candidate
  kRamp,       // cohort widening through RolloutConfig::ramp_pcts
  kComplete,   // candidate promoted to active
  kAborted,    // rolled back; see AbortReport
};
const char* stage_name(Stage s);

enum class AbortReason : uint8_t {
  kNone = 0,
  kProvenance,           // staged image CRC != manifest CRC
  kShadowDivergence,     // mirrored output != incumbent output
  kShadowFault,          // mirror invoke returned a typed error
  kGoldenMismatch,       // golden vector disagreed between versions
  kCandidateQuarantine,  // a candidate replica was quarantined + rebuilt
};
const char* abort_reason_name(AbortReason r);

struct RolloutConfig {
  uint64_t seed = 0x5EED0FF1CEULL;  // cohort hash-bucketing seed
  Tick shadow_ticks = 64;           // shadow-stage duration
  Tick golden_period_ticks = 8;     // golden-vector replay cadence (0 = off)
  int canary_pct = 10;              // first real-traffic cohort
  Tick canary_ticks = 64;           // canary hold before ramping
  std::vector<int> ramp_pcts = {50, 100};
  Tick ramp_step_ticks = 32;        // hold per ramp step
  Tick rollback_cooldown_ticks = 4; // re-imaged replicas sit out this long
  // Golden vectors replayed through both versions during shadow and
  // compared bit-exactly (deterministic kernels make that sound).
  std::vector<TensorF> golden_inputs;
};

struct RolloutStats {
  int64_t golden_checks = 0;
  int64_t golden_mismatches = 0;
  int64_t shadow_divergences = 0;  // engine delta attributed to this rollout
  int64_t shadow_faults = 0;
  int64_t promotions = 0;          // stage transitions taken
  int64_t cohort_size = 0;         // tenants currently pinned to candidate
  int64_t rollbacks = 0;
};

// Filled on rollback; everything a postmortem needs without logs.
struct AbortReport {
  AbortReason reason = AbortReason::kNone;
  Stage stage = Stage::kIdle;  // stage the rollout was in when it fired
  Tick at_tick = 0;            // engine tick of the rollback
  int version = -1;            // registry id of the aborted candidate
  int64_t shadow_divergences = 0;
  int64_t shadow_faults = 0;
  int64_t golden_mismatches = 0;
  int64_t candidate_quarantines = 0;
  int64_t tenants_repinned = 0;
  int64_t replicas_reimaged = 0;
  std::string detail;
};

// Deterministic chaos: corrupt the candidate at a scheduled engine tick.
// Live-replica poisoning is caught by the per-invoke weights CRC (engine
// quarantine -> kCandidateQuarantine guard); staged-image poisoning is
// caught by the registry provenance re-check at the next promotion
// boundary (kProvenance).
struct PoisonPlan {
  Tick at_tick = -1;  // engine tick to fire at (< 0 disables)
  int64_t flip_bits = 8;
  uint64_t seed = 0xBADF1A5ULL;
  bool target_staged_image = false;  // else: live candidate replicas
};

}  // namespace mn::rollout
