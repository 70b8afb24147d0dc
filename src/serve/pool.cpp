#include "serve/pool.hpp"

#include <stdexcept>

#include "obs/eventlog.hpp"

namespace mn::serve {

int InterpreterPool::add_variant(VariantSpec spec) {
  if (spec.instances < 1)
    throw std::invalid_argument("InterpreterPool: variant needs >= 1 instance");
  if (spec.service_ticks < 1)
    throw std::invalid_argument("InterpreterPool: service_ticks must be >= 1");
  spec.model.validate();
  // Compile once per variant: the compiled graph becomes the golden flash
  // image, so the CRC baseline, the plan and the packed panels all describe
  // the *compiled* model. Disabled configs are a guaranteed no-op.
  compile::CompileReport report = compile::Pipeline(spec.compile).run(spec.model);
  rt::Interpreter golden(std::move(spec.model), {}, spec.backend);
  golden.set_verify_weights_each_invoke(true);
  const int id = static_cast<int>(variants_.size());
  variants_.push_back(
      Variant{std::move(golden), std::move(report), spec.service_ticks});
  for (int i = 0; i < spec.instances; ++i) {
    Instance inst;
    inst.interp = make_replica(id);
    inst.variant = id;
    instances_.push_back(std::move(inst));
  }
  return id;
}

int InterpreterPool::acquire(int variant, Tick now) const {
  for (size_t i = 0; i < instances_.size(); ++i)
    if (instances_[i].variant == variant && instances_[i].busy_until <= now)
      return static_cast<int>(i);
  return -1;
}

int InterpreterPool::instances_of(int variant) const {
  int n = 0;
  for (const Instance& inst : instances_)
    if (inst.variant == variant) ++n;
  return n;
}

std::unique_ptr<rt::Interpreter> InterpreterPool::make_replica(
    int variant) const {
  return std::make_unique<rt::Interpreter>(
      variants_[static_cast<size_t>(variant)].golden);
}

std::optional<rt::RtError> InterpreterPool::health_check(int idx) const {
  const rt::Interpreter& interp = *instances_[static_cast<size_t>(idx)].interp;
  if (auto err = interp.check_canaries()) return err;
  return interp.check_weights();
}

void InterpreterPool::quarantine(int idx, Tick until) {
  reimage(idx, instances_[static_cast<size_t>(idx)].variant, until);
}

void InterpreterPool::reimage(int idx, int variant, Tick until) {
  Instance& inst = instances_[static_cast<size_t>(idx)];
  // Re-plan: a copy of the golden interpreter reuses its plan, prepared ops
  // and packed panels, so recovery costs one flash-image and arena copy —
  // neither a planner run nor a re-pack.
  inst.interp = make_replica(variant);
  inst.variant = variant;
  inst.busy_until = until;
  ++inst.rebuilds;
  // Fleet-scoped flight-recorder record; `tick` is the tick the rebuilt
  // replica rejoins rotation (the only virtual time the pool is handed).
  obs::event_emit({obs::EventKind::kReimage, /*tenant=*/-1, /*seq=*/-1, until,
                   idx, variant});
}

bool InterpreterPool::all_healthy() const {
  for (size_t i = 0; i < instances_.size(); ++i)
    if (health_check(static_cast<int>(i))) return false;
  return true;
}

}  // namespace mn::serve
