#include "serve/chaos.hpp"

#include "tensor/rng.hpp"

namespace mn::serve {

uint64_t ChaosSchedule::fault_seed(int64_t tenant, int64_t seq,
                                   int attempt) const {
  return hash_combine(
      hash_combine(tenant_seed(tenant), static_cast<uint64_t>(seq)),
      static_cast<uint64_t>(attempt));
}

FaultKind ChaosSchedule::fault_for(int64_t tenant, int64_t seq,
                                   int attempt) const {
  if (attempt > 0 || cfg_.fault_rate <= 0.0) return FaultKind::kNone;
  const uint64_t key = fault_seed(tenant, seq, attempt);
  if (hash_unit(key) >= cfg_.fault_rate) return FaultKind::kNone;
  // Second independent hash picks the fault class, uniform over the four.
  const uint64_t kind = hash_combine(key, 0x5EEDFA17ULL);
  switch (hash_unit(kind) < 0.25   ? 0
          : hash_unit(kind) < 0.50 ? 1
          : hash_unit(kind) < 0.75 ? 2
                                   : 3) {
    case 0: return FaultKind::kWeightsBitFlip;
    case 1: return FaultKind::kArenaGuardFlip;
    case 2: return FaultKind::kStall;
    default: return FaultKind::kNonFiniteInput;
  }
}

}  // namespace mn::serve
