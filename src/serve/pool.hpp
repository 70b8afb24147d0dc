// InterpreterPool: per-model arena pools of prepared rt::Interpreter
// replicas, with instance health checking and quarantine + re-plan.
//
// Each registered variant is compiled, planned, packed and prepared exactly
// once into a golden interpreter that never serves; every replica is a copy
// of it, so adding instances costs a flash-image and arena copy but no
// re-planning, re-packing or re-preparing (the copies alias the golden's
// packed panels). A replica whose live memory drifts from the golden image —
// weights-CRC mismatch or a clobbered arena guard band — is quarantined:
// re-copied from the golden interpreter and held out of rotation for a
// cooldown before it serves again.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "runtime/interpreter.hpp"
#include "serve/serve.hpp"

namespace mn::serve {

class InterpreterPool {
 public:
  struct Instance {
    std::unique_ptr<rt::Interpreter> interp;
    int variant = -1;
    Tick busy_until = 0;   // virtual tick at which the replica frees up
    int64_t rebuilds = 0;  // quarantine + re-plan events
  };

  // Registers a variant and builds `spec.instances` replicas (>= 1). Every
  // replica verifies its weights CRC on each invoke, so a poisoned flash
  // image is caught at the next request rather than producing garbage.
  // Returns the variant id.
  int add_variant(VariantSpec spec);

  int num_variants() const { return static_cast<int>(variants_.size()); }
  int num_instances() const { return static_cast<int>(instances_.size()); }
  Tick service_ticks(int variant) const {
    return variants_[static_cast<size_t>(variant)].service_ticks;
  }
  // Replicas serving one variant (0 after all its replicas were re-imaged
  // onto another variant during a rollback).
  int instances_of(int variant) const;

  // The golden flash image a variant's replicas are copied from.
  const rt::ModelDef& pristine(int variant) const {
    return variants_[static_cast<size_t>(variant)].golden.model();
  }
  // A fresh replica of `variant`: a copy of its golden interpreter (shared
  // panels, per-invoke CRC verification armed). The pool builds its own
  // instances and quarantine/reimage rebuilds through it; returned
  // standalone it is NOT entered into the pool — used for shadow mirrors and
  // bit-equivalence checks.
  std::unique_ptr<rt::Interpreter> make_replica(int variant) const;

  // Lowest-index healthy replica of `variant` free at `now`, or -1. Does not
  // mark it busy — the engine stamps busy_until with the completion tick.
  int acquire(int variant, Tick now) const;

  Instance& instance(int idx) { return instances_[static_cast<size_t>(idx)]; }
  const Instance& instance(int idx) const {
    return instances_[static_cast<size_t>(idx)];
  }
  rt::Interpreter& interp(int idx) {
    return *instances_[static_cast<size_t>(idx)].interp;
  }

  // Canary + integrity scan of an (idle) replica: arena guard bands intact
  // and live weights CRC equal to the golden image's (the replica's own
  // check_canaries() and check_weights()).
  std::optional<rt::RtError> health_check(int idx) const;

  // Quarantine + re-plan: re-copy the replica from its variant's golden
  // interpreter, and hold it out of rotation until `until`.
  void quarantine(int idx, Tick until);

  // Re-image: re-copy the replica from *another* variant's golden
  // interpreter — the OTA flash-rollback analog. The replica leaves its
  // old variant's rotation entirely (instances_of drops) and serves the
  // target variant after the cooldown. quarantine() is re-image onto the
  // replica's own variant.
  void reimage(int idx, int variant, Tick until);

  // True when every replica's live state matches its golden image (used by
  // tests/benches to prove quarantined instances recovered).
  bool all_healthy() const;

  // Kernel backend a variant's replicas execute on.
  kernels::BackendKind variant_backend(int variant) const {
    return variants_[static_cast<size_t>(variant)].golden.backend();
  }

  // Graph-compiler report for a variant (enabled == false when the variant
  // was registered with compilation off). Compilation runs once per variant
  // at add_variant; replicas are copies of the compiled golden interpreter.
  const compile::CompileReport& compile_report(int variant) const {
    return variants_[static_cast<size_t>(variant)].compile_report;
  }

 private:
  struct Variant {
    // Prepared once, never invoked: the source of every replica copy.
    rt::Interpreter golden;
    compile::CompileReport compile_report;
    Tick service_ticks = 1;
  };

  std::vector<Variant> variants_;
  std::vector<Instance> instances_;
};

}  // namespace mn::serve
