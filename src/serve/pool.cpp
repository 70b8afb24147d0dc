#include "serve/pool.hpp"

#include <stdexcept>

#include "obs/eventlog.hpp"
#include "runtime/planner.hpp"

namespace mn::serve {

int InterpreterPool::add_variant(VariantSpec spec) {
  if (spec.instances < 1)
    throw std::invalid_argument("InterpreterPool: variant needs >= 1 instance");
  if (spec.service_ticks < 1)
    throw std::invalid_argument("InterpreterPool: service_ticks must be >= 1");
  Variant v;
  v.pristine = std::move(spec.model);
  v.pristine.validate();
  // Compile once per variant (like planning and panel packing): the compiled
  // graph becomes the golden flash image all replicas are built from, so the
  // CRC baseline, the shared plan and the packed panels all describe the
  // *compiled* model. Disabled configs are a guaranteed no-op.
  v.compile_report = compile::Pipeline(spec.compile).run(v.pristine);
  v.plan = rt::plan_memory(v.pristine);  // planned once, shared by replicas
  v.backend = spec.backend;
  // Packed once like the plan: replicas alias the same immutable panels, so
  // adding instances costs arena allocation, not re-packing.
  v.packed = rt::pack_model_weights(v.pristine, v.backend);
  v.service_ticks = spec.service_ticks;
  v.weights_crc = v.pristine.weights_crc();
  const int id = static_cast<int>(variants_.size());
  variants_.push_back(std::move(v));
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

int InterpreterPool::free_instances(int variant, Tick now) const {
  int n = 0;
  for (const Instance& inst : instances_)
    if (inst.variant == variant && inst.busy_until <= now) ++n;
  return n;
}

int InterpreterPool::instances_of(int variant) const {
  int n = 0;
  for (const Instance& inst : instances_)
    if (inst.variant == variant) ++n;
  return n;
}

int64_t InterpreterPool::variant_served(int variant) const {
  int64_t n = 0;
  for (const Instance& inst : instances_)
    if (inst.variant == variant) n += inst.served;
  return n;
}

std::unique_ptr<rt::Interpreter> InterpreterPool::make_replica(
    int variant) const {
  const Variant& v = variants_[static_cast<size_t>(variant)];
  auto interp =
      std::make_unique<rt::Interpreter>(v.pristine, v.plan, v.backend, v.packed);
  interp->set_verify_weights_each_invoke(true);
  return interp;
}

std::optional<rt::RtError> InterpreterPool::health_check(int idx) const {
  const Instance& inst = instances_[static_cast<size_t>(idx)];
  if (auto err = inst.interp->check_canaries()) return err;
  const Variant& v = variants_[static_cast<size_t>(inst.variant)];
  if (inst.interp->model().weights_crc() != v.weights_crc)
    return rt::RtError{rt::ErrorCode::kCrcMismatch,
                       "InterpreterPool: replica weights drifted from the "
                       "golden image"};
  return std::nullopt;
}

void InterpreterPool::quarantine(int idx, Tick until) {
  reimage(idx, instances_[static_cast<size_t>(idx)].variant, until);
}

void InterpreterPool::reimage(int idx, int variant, Tick until) {
  Instance& inst = instances_[static_cast<size_t>(idx)];
  // Re-plan: a fresh replica from the pristine model reuses the shared plan
  // and packed panels, so recovery costs one arena allocation — neither a
  // planner run nor a re-pack.
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
