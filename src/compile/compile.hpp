// Graph compiler pass pipeline (DESIGN.md §15): a deterministic rewrite
// stage between deserialization and memory planning.
//
// compile::Pipeline takes an rt::ModelDef and applies five passes:
//
//   1. fold_constants     — ops whose every input is const are evaluated at
//                           compile time (through a single-op reference
//                           Interpreter, i.e. with the *real* kernel
//                           arithmetic) and their results materialized into
//                           the weights blob.
//   2. fold_affine        — const 1x1/stride-1 depthwise ops (the quantized
//                           residue of a BN/affine layer) are folded into
//                           the producing op when an exhaustive per-channel
//                           transfer LUT proves the rewrite bit-exact.
//   3. fuse_activations   — standalone relu-like clamp ops (1x1/stride-1
//                           pools with a fused activation, the shape naive
//                           front-ends emit) are folded into the producer's
//                           OpDef::act, with fusion metadata recorded so the
//                           fast backend runs conv→activation in one kernel
//                           invocation.
//   4. eliminate_dead     — ops/tensors that cannot reach the model output
//                           are dropped and the weights blob is compacted.
//                           (The planner refuses graphs with unread tensors,
//                           so this pass is what makes a deserialized graph
//                           with dead ops runnable at all.)
//   5. reorder_memory     — memory-plan-aware topological reordering:
//                           greedily reschedules ops to minimize
//                           rt::MemoryPlan::peak_live_bytes, applied only
//                           when the planner's occupancy timeline confirms a
//                           strict improvement.
//
// The contract every pass obeys: the compiled model produces BYTE-IDENTICAL
// outputs to the original for every input, at every thread count and on
// every backend. Passes 1–3 prove legality with the interpreter itself
// (evaluate-through-the-kernels, never re-derived arithmetic), pass 4 only
// removes work that cannot affect the output, and pass 5 only permutes
// data-independent ops. verify_bit_identical() is the differential harness
// that enforces the contract in tests and benches.
//
// Pipeline::run is deterministic: same model + same config → same compiled
// graph, same report, byte-for-byte (serialize() equality). It is also
// idempotent: compile(compile(m)) == compile(m).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/model.hpp"

namespace mn::compile {

// Which passes run. The default is the shipped configuration, every pass
// on; CompileConfig::none() is the explicitly named uncompiled choice.
struct CompileConfig {
  bool enabled = true;
  bool fold_constants = true;
  bool fold_affine = true;
  bool fuse_activations = true;
  bool eliminate_dead = true;
  bool reorder_memory = true;

  static CompileConfig all() { return CompileConfig{}; }
  static CompileConfig none() {
    CompileConfig c;
    c.enabled = false;
    return c;
  }
};

// Per-pass accounting, accumulated across pipeline iterations.
struct PassStats {
  std::string pass;
  int64_t ops_removed = 0;
  int64_t tensors_removed = 0;
  int64_t bytes_folded = 0;          // const bytes materialized into the blob
  int64_t blob_bytes_reclaimed = 0;  // compaction savings
  int64_t activations_fused = 0;
  int64_t peak_bytes_saved = 0;      // reorder: peak_live_bytes reduction
};

struct CompileReport {
  bool enabled = false;
  std::vector<PassStats> passes;

  int64_t ops_before = 0, ops_after = 0;
  int64_t tensors_before = 0, tensors_after = 0;
  int64_t blob_bytes_before = 0, blob_bytes_after = 0;
  // -1 when the graph is unplannable (e.g. dead tensors before DCE).
  int64_t peak_live_bytes_before = -1, peak_live_bytes_after = -1;
  int64_t arena_bytes_before = -1, arena_bytes_after = -1;

  int64_t ops_removed() const { return ops_before - ops_after; }
  int64_t peak_bytes_saved() const {
    if (peak_live_bytes_before < 0 || peak_live_bytes_after < 0) return 0;
    return peak_live_bytes_before - peak_live_bytes_after;
  }
  // Human-readable multi-line summary for logs/benches.
  std::string summary() const;
};

// The pass manager. run() rewrites `model` in place and returns the report;
// with cfg.enabled == false it is a guaranteed no-op (report.enabled false,
// model untouched). Throws only on an invalid input model.
class Pipeline {
 public:
  explicit Pipeline(CompileConfig cfg) : cfg_(cfg) {}

  CompileReport run(rt::ModelDef& model) const;
  const CompileConfig& config() const { return cfg_; }

 private:
  CompileConfig cfg_;
};

struct CompiledModel {
  rt::ModelDef model;
  CompileReport report;
};

// Convenience: compile a copy.
CompiledModel compile_model(rt::ModelDef model, const CompileConfig& cfg);

// Differential harness enforcing the bit-identity contract: runs `trials`
// randomized int8 inputs (seeded, deterministic) through both models at each
// thread count and byte-compares the quantized outputs. Returns the number
// of invocations compared; throws std::runtime_error on the first
// divergence. Both models must share input/output shapes.
int64_t verify_bit_identical(const rt::ModelDef& reference,
                             const rt::ModelDef& compiled, uint64_t seed,
                             int trials,
                             const std::vector<int>& thread_counts = {1, 2, 8});

}  // namespace mn::compile
