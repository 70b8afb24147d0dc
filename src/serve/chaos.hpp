// ChaosSchedule: the deterministic fault plan for a serving run.
//
// Every fault decision is a *stateless* hash of (per-tenant derived seed,
// request sequence, attempt) — no RNG stream is consumed, so the schedule is
// identical at any thread count and any dispatch interleaving, and a failure
// observed in a campaign replays bit-for-bit from the seed alone. Per-tenant
// seeds come from reliability::FaultInjector::derive_seed, so a chaos
// campaign and a standalone injector targeting the same tenant agree.
#pragma once

#include <cstdint>

#include "reliability/fault_injector.hpp"
#include "serve/serve.hpp"

namespace mn::serve {

enum class FaultKind : uint8_t {
  kNone = 0,
  kWeightsBitFlip,   // flash aging: flip bits in the replica's weights blob
  kArenaGuardFlip,   // SRAM soft error: clobber an arena guard-band byte
  kStall,            // wedged DMA/bus: invoke takes stall_ticks extra
  kNonFiniteInput,   // mic glitch: NaN in the request's input tensor
};

struct ChaosConfig {
  uint64_t seed = 0;
  double fault_rate = 0.0;  // per first-attempt fault probability
  Tick stall_ticks = 8;     // extra service ticks for kStall
  int64_t flip_bits = 4;    // weight bits flipped by kWeightsBitFlip
  // Background SRAM soft errors: every `period` ticks one idle replica's
  // guard band is corrupted silently — only the canary cadence can catch it
  // before a request lands on the poisoned replica (0 = off).
  Tick arena_soft_error_period = 0;
};

class ChaosSchedule {
 public:
  ChaosSchedule() = default;
  explicit ChaosSchedule(ChaosConfig cfg) : cfg_(cfg) {}

  const ChaosConfig& config() const { return cfg_; }
  bool enabled() const {
    return cfg_.fault_rate > 0.0 || cfg_.arena_soft_error_period > 0;
  }

  uint64_t tenant_seed(int64_t tenant) const {
    return reliability::FaultInjector::derive_seed(
        cfg_.seed, static_cast<uint64_t>(tenant));
  }

  // Fault decision for one execution. Retries (attempt > 0) run clean: the
  // injected faults model *transient* events, which is exactly what the
  // engine's retry/backoff policy exists to absorb.
  FaultKind fault_for(int64_t tenant, int64_t seq, int attempt) const;

  // Seed for the fault's own randomness (which bits flip), so the corruption
  // pattern is also a pure function of (tenant, seq, attempt).
  uint64_t fault_seed(int64_t tenant, int64_t seq, int attempt) const;

  // Does a background soft error fire at this tick?
  bool soft_error_at(Tick tick) const {
    return cfg_.arena_soft_error_period > 0 &&
           tick % cfg_.arena_soft_error_period == cfg_.arena_soft_error_period - 1;
  }

 private:
  ChaosConfig cfg_;
};

}  // namespace mn::serve
