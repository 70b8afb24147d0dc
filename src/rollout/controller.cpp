#include "rollout/controller.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/eventlog.hpp"
#include "reliability/fault_injector.hpp"
#include "tensor/rng.hpp"

namespace mn::rollout {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kIdle: return "idle";
    case Stage::kShadow: return "shadow";
    case Stage::kCanary: return "canary";
    case Stage::kRamp: return "ramp";
    case Stage::kComplete: return "complete";
    case Stage::kAborted: return "aborted";
  }
  return "unknown";
}

const char* abort_reason_name(AbortReason r) {
  switch (r) {
    case AbortReason::kNone: return "none";
    case AbortReason::kProvenance: return "provenance";
    case AbortReason::kShadowDivergence: return "shadow_divergence";
    case AbortReason::kShadowFault: return "shadow_fault";
    case AbortReason::kGoldenMismatch: return "golden_mismatch";
    case AbortReason::kCandidateQuarantine: return "candidate_quarantine";
  }
  return "unknown";
}

RolloutController::RolloutController(serve::ServingEngine& engine,
                                     VersionRegistry& registry,
                                     RolloutConfig cfg)
    : engine_(engine), registry_(registry), cfg_(std::move(cfg)) {}

int RolloutController::deploy_initial(int version) {
  const VersionRegistry::Version& v = registry_.version(version);
  serve::VariantSpec spec;
  spec.model = v.image;
  spec.service_ticks = v.service_ticks;
  spec.instances = v.instances;
  spec.compile = v.compile_cfg;
  const int variant = engine_.stage_variant(std::move(spec));
  registry_.set_variant(version, variant);
  registry_.set_active(version);
  return variant;
}

int RolloutController::active_variant() const {
  const int v = registry_.active();
  return v < 0 ? -1 : registry_.version(v).variant;
}

rt::Expected<int> RolloutController::begin(int version) {
  if (stage_ == Stage::kShadow || stage_ == Stage::kCanary ||
      stage_ == Stage::kRamp)
    throw std::logic_error("RolloutController: a rollout is already in flight");
  stats_ = RolloutStats{};
  report_ = AbortReport{};
  poison_fired_ = false;
  completion_tick_ = -1;
  ramp_idx_ = -1;

  incumbent_version_ = registry_.active();
  if (incumbent_version_ < 0 ||
      registry_.version(incumbent_version_).variant < 0)
    return rt::RtError{rt::ErrorCode::kGraphInvalid,
                       "RolloutController: no active incumbent deployed"};
  incumbent_variant_ = registry_.version(incumbent_version_).variant;
  candidate_version_ = version;

  // OTA manifest verification before any replica is flashed: a staged image
  // that drifted from its manifest CRC never enters the pool.
  if (auto err = registry_.verify(version)) {
    report_.reason = AbortReason::kProvenance;
    report_.stage = Stage::kIdle;
    report_.at_tick = engine_.now();
    report_.version = version;
    report_.detail = err->message;
    ++stats_.rollbacks;
    enter(Stage::kAborted);
    return *err;
  }

  const VersionRegistry::Version& v = registry_.version(version);
  serve::VariantSpec spec;
  spec.model = v.image;
  spec.service_ticks = v.service_ticks;
  spec.instances = v.instances;
  spec.compile = v.compile_cfg;
  candidate_variant_ = engine_.stage_variant(std::move(spec));
  registry_.set_variant(version, candidate_variant_);

  // The rollout's fleet: every tenant currently serving on the incumbent.
  participants_.clear();
  for (int t = 0; t < engine_.num_tenants(); ++t)
    if (engine_.primary_variant(t) == incumbent_variant_)
      participants_.push_back(t);

  base_shadow_div_ = engine_.stats().shadow_divergences;
  base_shadow_faults_ = engine_.stats().shadow_faults;
  for (int t : participants_) engine_.enable_shadow(t, candidate_variant_);
  if (!cfg_.golden_inputs.empty() && cfg_.golden_period_ticks > 0) {
    golden_incumbent_ = engine_.pool().make_replica(incumbent_variant_);
    golden_candidate_ = engine_.pool().make_replica(candidate_variant_);
  }
  enter(Stage::kShadow);
  return candidate_variant_;
}

void RolloutController::schedule_poison(PoisonPlan plan) { poison_ = plan; }

uint64_t RolloutController::fingerprint() const {
  return hash_combine(engine_.fingerprint(), trajectory_);
}

void RolloutController::tick() {
  if (stage_ != Stage::kShadow && stage_ != Stage::kCanary &&
      stage_ != Stage::kRamp)
    return;
  maybe_fire_poison();

  if (stage_ == Stage::kShadow && cfg_.golden_period_ticks > 0 &&
      golden_incumbent_ && golden_candidate_ &&
      engine_.now() % cfg_.golden_period_ticks == 0) {
    for (const TensorF& in : cfg_.golden_inputs) {
      ++stats_.golden_checks;
      rt::Expected<TensorF> a = golden_incumbent_->try_invoke(in);
      rt::Expected<TensorF> b = golden_candidate_->try_invoke(in);
      bool mismatch = !a.ok() || !b.ok();
      if (!mismatch) {
        const TensorF& x = a.value();
        const TensorF& y = b.value();
        mismatch = x.size() != y.size();
        if (!mismatch)
          for (int64_t i = 0; i < x.size(); ++i)
            if (x[i] != y[i]) { mismatch = true; break; }
      }
      if (mismatch) ++stats_.golden_mismatches;
    }
  }

  stats_.shadow_divergences =
      engine_.stats().shadow_divergences - base_shadow_div_;
  stats_.shadow_faults = engine_.stats().shadow_faults - base_shadow_faults_;

  const AbortReason breach = check_guards();
  if (breach != AbortReason::kNone) {
    rollback(breach, std::string("guard breached: ") +
                         abort_reason_name(breach));
    return;
  }
  if (engine_.now() - stage_entered_ >= stage_duration()) promote();
}

void RolloutController::maybe_fire_poison() {
  if (poison_.at_tick < 0 || poison_fired_ ||
      engine_.now() < poison_.at_tick)
    return;
  poison_fired_ = true;
  if (poison_.target_staged_image) {
    reliability::FaultInjector::flip_bits_once(
        poison_.seed,
        registry_.mutable_image(candidate_version_).weights_blob,
        poison_.flip_bits);
    return;
  }
  // Live-replica poisoning: corrupt every candidate replica's flash image.
  // tick() runs between engine steps, so no kernel threads are executing.
  serve::InterpreterPool& pool = engine_.pool();
  for (int i = 0; i < pool.num_instances(); ++i) {
    if (pool.instance(i).variant != candidate_variant_) continue;
    reliability::FaultInjector::flip_bits_once(
        hash_combine(poison_.seed, static_cast<uint64_t>(i)),
        pool.interp(i).mutable_weights(), poison_.flip_bits);
  }
}

AbortReason RolloutController::check_guards() const {
  if (stats_.shadow_divergences > 0) return AbortReason::kShadowDivergence;
  if (stats_.shadow_faults > 0) return AbortReason::kShadowFault;
  if (stats_.golden_mismatches > 0) return AbortReason::kGoldenMismatch;
  if (candidate_rebuilds() > 0) return AbortReason::kCandidateQuarantine;
  return AbortReason::kNone;
}

void RolloutController::promote() {
  // Provenance gate at every promotion boundary: a staged image poisoned
  // after begin() is caught before the rollout widens.
  if (auto err = registry_.verify(candidate_version_)) {
    rollback(AbortReason::kProvenance, err->message);
    return;
  }
  ++stats_.promotions;
  switch (stage_) {
    case Stage::kShadow:
      for (int t : participants_) engine_.disable_shadow(t);
      golden_incumbent_.reset();
      golden_candidate_.reset();
      assign_cohort(cfg_.canary_pct);
      enter(Stage::kCanary);
      break;
    case Stage::kCanary:
      if (cfg_.ramp_pcts.empty()) {
        assign_cohort(100);
        registry_.set_active(candidate_version_);
        completion_tick_ = engine_.now();
        enter(Stage::kComplete);
      } else {
        ramp_idx_ = 0;
        assign_cohort(cfg_.ramp_pcts[0]);
        enter(Stage::kRamp);
      }
      break;
    case Stage::kRamp:
      if (ramp_idx_ + 1 < static_cast<int>(cfg_.ramp_pcts.size())) {
        ++ramp_idx_;
        assign_cohort(cfg_.ramp_pcts[static_cast<size_t>(ramp_idx_)]);
        enter(Stage::kRamp);
      } else {
        assign_cohort(100);
        registry_.set_active(candidate_version_);
        completion_tick_ = engine_.now();
        enter(Stage::kComplete);
      }
      break;
    case Stage::kIdle:
    case Stage::kComplete:
    case Stage::kAborted:
      break;
  }
}

void RolloutController::assign_cohort(int pct) {
  // Rank-based hash bucketing: participants ordered by a seeded hash of
  // (version, tenant), cohort = the first k. Widening the percentage only
  // *adds* tenants (the prefix property), so a tenant moved to the
  // candidate never flaps back while the rollout is healthy — and the
  // assignment depends only on (seed, version, tenant id), never on timing.
  std::vector<std::pair<uint64_t, int>> ranked;
  ranked.reserve(participants_.size());
  for (int t : participants_)
    ranked.emplace_back(
        hash_combine(cfg_.seed,
                     hash_combine(static_cast<uint64_t>(candidate_version_),
                                  static_cast<uint64_t>(t))),
        t);
  std::sort(ranked.begin(), ranked.end());
  const int n = static_cast<int>(ranked.size());
  int k = 0;
  if (pct >= 100) k = n;
  else if (pct > 0) k = std::max(1, n * pct / 100);
  for (int i = 0; i < n; ++i)
    engine_.pin_primary(ranked[static_cast<size_t>(i)].second,
                        i < k ? candidate_variant_ : incumbent_variant_);
  stats_.cohort_size = k;
}

void RolloutController::rollback(AbortReason reason, std::string detail) {
  report_.reason = reason;
  report_.stage = stage_;
  report_.at_tick = engine_.now();
  report_.version = candidate_version_;
  report_.shadow_divergences = stats_.shadow_divergences;
  report_.shadow_faults = stats_.shadow_faults;
  report_.golden_mismatches = stats_.golden_mismatches;
  report_.candidate_quarantines = candidate_rebuilds();
  report_.detail = std::move(detail);

  for (int t : participants_) {
    engine_.disable_shadow(t);
    if (engine_.primary_variant(t) == candidate_variant_) {
      engine_.pin_primary(t, incumbent_variant_);
      ++report_.tenants_repinned;
    }
  }
  golden_incumbent_.reset();
  golden_candidate_.reset();

  // Flash rollback: every candidate replica is re-imaged from the
  // incumbent's pristine image, so the candidate variant ends with zero
  // instances — the pool can never again dispatch to it.
  serve::InterpreterPool& pool = engine_.pool();
  const Tick until = engine_.now() + cfg_.rollback_cooldown_ticks;
  for (int i = 0; i < pool.num_instances(); ++i) {
    if (pool.instance(i).variant != candidate_variant_) continue;
    pool.reimage(i, incumbent_variant_, until);
    ++report_.replicas_reimaged;
  }

  ++stats_.rollbacks;
  stats_.cohort_size = 0;
  completion_tick_ = engine_.now();
  obs::event_emit({obs::EventKind::kRolloutAbort, /*tenant=*/-1, /*seq=*/-1,
                   engine_.now(), static_cast<int64_t>(reason),
                   report_.tenants_repinned});
  enter(Stage::kAborted);
  // Captured after kAborted is entered so the dump's trailing events show
  // the complete incident: guard breach, repins, reimages, stage change.
  obs::event_postmortem("rollout_abort", engine_.now());
}

void RolloutController::enter(Stage s) {
  stage_ = s;
  stage_entered_ = engine_.now();
  obs::event_emit({obs::EventKind::kRolloutStage, /*tenant=*/-1, /*seq=*/-1,
                   engine_.now(), static_cast<int64_t>(s),
                   static_cast<int64_t>(stats_.cohort_size)});
  trajectory_ = hash_combine(
      trajectory_, hash_combine(static_cast<uint64_t>(s) << 8,
                                static_cast<uint64_t>(engine_.now())));
}

int64_t RolloutController::candidate_rebuilds() const {
  if (candidate_variant_ < 0) return 0;
  const serve::InterpreterPool& pool = engine_.pool();
  int64_t n = 0;
  for (int i = 0; i < pool.num_instances(); ++i)
    if (pool.instance(i).variant == candidate_variant_)
      n += pool.instance(i).rebuilds;
  return n;
}

Tick RolloutController::stage_duration() const {
  switch (stage_) {
    case Stage::kShadow: return cfg_.shadow_ticks;
    case Stage::kCanary: return cfg_.canary_ticks;
    case Stage::kRamp: return cfg_.ramp_step_ticks;
    default: return std::numeric_limits<Tick>::max();
  }
}

}  // namespace mn::rollout
