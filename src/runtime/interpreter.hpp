// Interpreter: executes a ModelDef using the integer kernels, with all
// activations placed in a single planned arena — the TFLM execution model.
// Construction is TFLM's Prepare/AllocateTensors: every per-op decision
// (kernel, operand offsets, requant and geometry, MACs, scratch, live arena
// bytes) is made once, into one PreparedOp record per op; invoke runs the
// kernels and accounts for each op once from its record (the kernels count
// nothing themselves). Also provides the memory-recording report (TFLM
// RecordingMicroInterpreter analog) that the paper uses to obtain SRAM
// numbers.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/kernels.hpp"
#include "runtime/model.hpp"
#include "runtime/planner.hpp"
#include "runtime/profile.hpp"
#include "runtime/rt_error.hpp"
#include "tensor/tensor.hpp"

namespace mn::rt {

struct MemoryReport {
  int64_t arena_bytes = 0;        // planned activation arena (SRAM)
  int64_t persistent_bytes = 0;   // per-op/tensor runtime structures (SRAM)
  int64_t runtime_sram_bytes = 0; // interpreter fixed overhead (SRAM)
  int64_t weights_bytes = 0;      // weight blob (eFlash)
  int64_t graph_def_bytes = 0;    // serialized graph structure (eFlash)
  int64_t code_flash_bytes = 0;   // TFLM runtime code (eFlash)

  int64_t total_sram() const {
    return arena_bytes + persistent_bytes + runtime_sram_bytes;
  }
  int64_t total_flash() const {
    return weights_bytes + graph_def_bytes + code_flash_bytes;
  }
  // Model-attributable footprints (exclude fixed runtime code/overhead);
  // these match the paper's "SRAM" and "Flash" per-model columns.
  int64_t model_sram() const { return arena_bytes + persistent_bytes; }
  int64_t model_flash() const { return weights_bytes + graph_def_bytes; }
};

// Weight panels for every op a fast backend claims, packed once per model
// (DESIGN.md §14). Immutable after construction and shared — copies of an
// Interpreter (an InterpreterPool's replicas, including quarantine/reimage
// rebuilds) alias the same panels. Index-aligned with ModelDef::ops; ops the
// backend does not claim hold nullptr.
struct PackedModel {
  kernels::BackendKind kind = kernels::BackendKind::kReference;
  std::vector<std::shared_ptr<const kernels::PackedOpWeights>> per_op;

  int64_t bytes() const {
    int64_t b = 0;
    for (const auto& p : per_op)
      if (p) b += p->bytes();
    return b;
  }
};

// Packs the weights of every op `config.kind` claims (fast: int8 conv2d,
// depthwise and fully-connected). Returns an empty-per_op PackedModel for
// kReference.
std::shared_ptr<const PackedModel> pack_model_weights(
    const ModelDef& model, kernels::BackendConfig config);

class Interpreter {
 public:
  // The interpreter stores a copy of the model ("flash contents") and
  // allocates its arena up front (AllocateTensors analog).
  //
  // `plan`: an empty plan is computed here; a caller building several
  // interpreters of one model may pass one MemoryPlan computed once. An
  // injected plan must have been produced by plan_memory() for an identical
  // graph; a mismatched plan is rejected.
  //
  // `config`: the kernel backend (default fast). Ops the backend claims
  // dispatch to its kernels; everything else falls back to reference per-op.
  //
  // `packed`: weight panels shared across instances. One whose kind does
  // not match `config` is rejected; nullptr packs privately here.
  //
  // A model with an op the kernels cannot run (e.g. int4 max pool, mixed-
  // precision conv) still constructs; every try_invoke* then fails with
  // kUnsupportedOp naming the first such op.
  //
  // Copying is how replicas are made (serve::InterpreterPool): the copy owns
  // its own flash image, arena, scratch and profile, and aliases only the
  // immutable packed panels — the prepared per-op records hold offsets, not
  // pointers, so they stay valid in the copy.
  explicit Interpreter(ModelDef model, MemoryPlan plan = {},
                       kernels::BackendConfig config = {},
                       std::shared_ptr<const PackedModel> packed = nullptr);

  // Float convenience path: quantizes the input with the model's input
  // tensor params, runs integer inference, dequantizes the output.
  TensorF invoke(const TensorF& input_image);

  // Raw int8 path. Int4 models take one int8 value per element here; the
  // interpreter packs values into nibbles internally.
  TensorI8 invoke_quantized(const TensorI8& input);

  // --- hardened no-throw path ---------------------------------------------
  // Same execution as invoke/invoke_quantized but returns typed errors
  // (input mismatch, NaN/Inf input or output, weights CRC drift, arena
  // canary overrun, unsupported op) instead of throwing. The throwing API
  // above is a thin wrapper over these.
  Expected<TensorF> try_invoke(const TensorF& input_image);
  Expected<TensorI8> try_invoke_quantized(const TensorI8& input);

  // When enabled, every try_invoke* recomputes the weights-blob CRC32 and
  // fails with kCrcMismatch if it drifted since load — a flash-aging /
  // fault-injection detector (costs one pass over the blob per inference).
  void set_verify_weights_each_invoke(bool on) { verify_weights_crc_ = on; }
  // Accept the current weights blob as the new integrity baseline (e.g.
  // after an intentional in-place update).
  void rearm_weights_crc();
  // kCrcMismatch when the live weights blob no longer matches the baseline
  // (the check every verifying try_invoke* runs).
  std::optional<RtError> check_weights() const;

  // Guard-band canaries: the arena is bracketed by kArenaGuardBytes of a
  // fixed pattern; a kernel overrun past either end is detected instead of
  // silently corrupting neighbouring memory. Checked after every try_invoke*.
  static constexpr int64_t kArenaGuardBytes = 32;
  std::optional<RtError> check_canaries() const;

  // Fault-injection / testing access: the live weights blob ("flash") and
  // the activation arena including both guard bands ("SRAM"). Mutating
  // these simulates bit faults in the corresponding physical memory.
  // Handing out the weights marks the packed panels stale: the next
  // try_invoke* that passes the weights-CRC check repacks them privately
  // from the live blob, so a fault lands on the bytes claimed ops execute.
  std::span<uint8_t> mutable_weights() {
    panels_stale_ = true;
    return model_.weights_blob;
  }
  std::span<uint8_t> mutable_arena() { return arena_; }

  const ModelDef& model() const { return model_; }
  const MemoryPlan& memory_plan() const { return plan_; }
  MemoryReport memory_report() const;

  // --- backend introspection ----------------------------------------------
  // The requested backend, the backend that actually serves each op after
  // per-op claim-or-fall-back, and the shared packed panels (nullptr-free;
  // reference configs get an empty PackedModel).
  kernels::BackendKind backend() const { return backend_.kind; }
  kernels::BackendKind op_backend(size_t op_index) const;
  const std::shared_ptr<const PackedModel>& packed_model() const {
    return packed_;
  }

  // Number of invocations served (used by examples/benches).
  int64_t invocation_count() const { return invocations_; }

  // --- per-op profiling ----------------------------------------------------
  // When on, every invoke accumulates host wall-clock per op (std::chrono;
  // independent of MN_OBS). profile_report() snapshots the accumulated
  // timings; hand the snapshot to mcu::annotate_profile() to fill in the
  // analytical predicted latencies side-by-side.
  void set_profiling(bool on);
  bool profiling() const { return profiling_; }
  void reset_profile();
  ProfileReport profile_report() const;

  // --- memory & energy counter tracks --------------------------------------
  // While obs tracing is on, every invoke emits per-op samples on the
  // "arena_bytes" (live activation bytes), "scratch_bytes" (im2col column
  // buffer in use) and "cumulative_macs" counter tracks — the arena
  // fill/drain curve of the paper's Fig. 2 rendered over the trace timeline.
  // Installing a per-op energy table (from mcu::per_op_energy_uj; one entry
  // per op, microjoules) adds the "op_energy_uj" track. The runtime cannot
  // depend on mcu, so the table is injected rather than computed here.
  // The arena_bytes samples replay memory_plan().occupancy_timeline().
  void set_op_energy_uj(std::vector<double> energy_uj);

 private:
  // The kernel an op runs, chosen at construction from the backend's claim
  // and the operand bit widths.
  enum class Kernel : uint8_t {
    kUnsupported,  // never dispatched: try_invoke* fails first
    kConvPw, kConvFast, kConvIm2col, kConvS4,  // kConvPw: direct 1x1
    kDwFast, kDwS8, kDwS4,
    kFcFast, kFcS8, kFcS4,
    kAvgPoolS8, kAvgPoolS4, kMaxPoolS8, kAddS8, kSoftmaxS8,
  };
  // Where a tensor's bytes live: the weights blob or the arena (offset past
  // the leading guard band). bytes == 0 marks an absent optional input.
  struct Operand {
    bool in_blob = false;
    int64_t offset = 0;
    int64_t bytes = 0;
  };
  // Everything one op needs at invoke, resolved once — and the op's only
  // record: the backend, obs counters and counter tracks all read it.
  struct PreparedOp {
    Kernel kernel = Kernel::kUnsupported;
    Operand in[3];  // OpDef::inputs order: {input, weights, bias} / {a, b}
    Operand out;
    kernels::RequantParams rq;      // conv/dw/fc; pools use its clamp
    kernels::AddParams add;         // add
    kernels::ConvGeometry conv;     // conv/dw
    kernels::PoolGeometry pool;     // pools
    int32_t fc_in = 0, fc_out = 0;  // fully connected
    int32_t softmax_cols = 0;
    float softmax_scale = 0.f;
    int64_t macs = 0;
    int64_t scratch_bytes = 0;      // conv scratch the kernel uses
    int64_t live_bytes = 0;         // activation bytes live while it runs
  };

  void prepare();
  void run_op(size_t op_index);
  void fill_guards();
  Operand operand(int tensor_id) const;
  std::span<uint8_t> bytes(const Operand& o);

  ModelDef model_;
  MemoryPlan plan_;
  kernels::BackendConfig backend_;
  kernels::Isa isa_;
  std::shared_ptr<const PackedModel> packed_;
  std::vector<PreparedOp> ops_;  // index-aligned with model_.ops
  Operand input_, output_;       // the model's input and output tensors
  // First op (in execution order) the kernels cannot run, if any.
  std::optional<RtError> unsupported_;
  // Layout: [guard band | planned tensors (plan_.arena_bytes) | guard band].
  std::vector<uint8_t> arena_;
  // Conv scratch shared by all conv ops (CMSIS-NN scratch analog).
  std::vector<int8_t> scratch_;
  int64_t invocations_ = 0;
  uint32_t expected_weights_crc_ = 0;
  bool verify_weights_crc_ = false;
  bool panels_stale_ = false;  // see mutable_weights()
  // Profiling state: accumulated wall-clock per op and the number of
  // invokes captured while profiling was on.
  bool profiling_ = false;
  std::vector<int64_t> op_wall_ns_;
  int64_t profiled_invocations_ = 0;
  std::vector<double> op_energy_uj_;  // optional injected energy table
};

}  // namespace mn::rt
