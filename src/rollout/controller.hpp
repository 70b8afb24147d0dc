// RolloutController: drives one candidate version through the staged state
// machine described in rollout.hpp, on top of a live ServingEngine.
//
// Usage:
//   VersionRegistry reg;
//   int v0 = reg.add_version("v0", incumbent, ...).value();
//   RolloutController ctl(engine, reg, cfg);
//   ctl.deploy_initial(v0);                 // stage + activate the incumbent
//   ... register tenants on ctl.active_variant(), run traffic ...
//   int v1 = reg.add_version("v1", candidate, ...).value();
//   ctl.begin(v1);                          // provenance check -> kShadow
//   while (...) { engine.step(); ctl.tick(); }   // tick after every step
//
// tick() must be called exactly once after each engine.step(); all state
// the controller reads (stats deltas, pool rebuild counts) is settled at
// that point, and nothing is executing, so poking replica memory
// (PoisonPlan) cannot race with kernel threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rollout/registry.hpp"
#include "rollout/rollout.hpp"
#include "runtime/rt_error.hpp"
#include "serve/engine.hpp"

namespace mn::rollout {

class RolloutController {
 public:
  RolloutController(serve::ServingEngine& engine, VersionRegistry& registry,
                    RolloutConfig cfg);

  // Stages `version` into the pool and marks it active — the fleet's first
  // deployment, before any staged rollout. Returns the pool variant id.
  int deploy_initial(int version);

  // Starts a staged rollout of `version` against the current active
  // (incumbent) version. Verifies staged-image provenance first: a poisoned
  // image never reaches the pool, the rollout lands in kAborted with a
  // kProvenance report, and the error is returned. On success the rollout
  // enters kShadow and the candidate's pool variant id is returned.
  rt::Expected<int> begin(int version);

  // Arms the chaos plan (fires inside a later tick()); replaces any
  // previously armed plan.
  void schedule_poison(PoisonPlan plan);

  // Advances the rollout one engine tick (call after engine.step()).
  void tick();

  Stage stage() const { return stage_; }
  // Pool variant the fleet is serving on.
  int active_variant() const;
  // Tick at which the rollout completed / aborted (-1 while in flight).
  Tick completion_tick() const { return completion_tick_; }
  Tick abort_tick() const { return report_.at_tick; }

  const RolloutStats& stats() const { return stats_; }
  const AbortReport& abort_report() const { return report_; }

  // Rollout-trajectory fingerprint: the engine's completion-order hash
  // folded with every stage transition (stage, tick) — the determinism
  // witness for the whole staged lifecycle.
  uint64_t fingerprint() const;

 private:
  void maybe_fire_poison();
  // Returns the first breached guard (kNone when healthy). Guards are
  // zero-tolerance: any shadow divergence, shadow fault, golden mismatch or
  // candidate quarantine aborts the rollout.
  AbortReason check_guards() const;
  void promote();
  void assign_cohort(int pct);
  void rollback(AbortReason reason, std::string detail);
  void enter(Stage s);
  int64_t candidate_rebuilds() const;
  Tick stage_duration() const;

  serve::ServingEngine& engine_;
  VersionRegistry& registry_;
  RolloutConfig cfg_;

  Stage stage_ = Stage::kIdle;
  Tick stage_entered_ = 0;
  Tick completion_tick_ = -1;
  int candidate_version_ = -1;
  int candidate_variant_ = -1;
  int incumbent_version_ = -1;
  int incumbent_variant_ = -1;
  int ramp_idx_ = -1;
  std::vector<int> participants_;  // tenant ids in this rollout's fleet

  // Rollout-start snapshots for the shadow guard deltas.
  int64_t base_shadow_div_ = 0;
  int64_t base_shadow_faults_ = 0;

  // Golden-vector mirrors (standalone replicas; never in rotation).
  std::unique_ptr<rt::Interpreter> golden_incumbent_;
  std::unique_ptr<rt::Interpreter> golden_candidate_;

  PoisonPlan poison_;
  bool poison_fired_ = false;

  RolloutStats stats_;
  AbortReport report_;
  uint64_t trajectory_ = 0x0A117ULL;  // folded stage transitions
};

}  // namespace mn::rollout
