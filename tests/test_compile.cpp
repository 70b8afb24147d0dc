// Graph compiler pass pipeline (src/compile/, DESIGN.md §15): per-pass
// golden graphs, the randomized differential bit-identity harness at
// MN_THREADS 1/2/8, idempotence (compile(compile(m)) == compile(m)),
// serve/rollout wiring, and the fusion-metadata contract. Run standalone
// with: ctest -L compile (or `check-compile`).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "compile/compile.hpp"
#include "models/backbones.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "rollout/registry.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/planner.hpp"
#include "serve/pool.hpp"
#include "tensor/rng.hpp"

namespace mn::compile {
namespace {

using rt::Activation;
using rt::ModelDef;
using rt::OpDef;
using rt::OpType;
using rt::TensorDef;

// ---------------------------------------------------------------------------
// Model builders
// ---------------------------------------------------------------------------

// Small DS-CNN through the converter. fuse=false emits the naive form
// (activations as standalone unit-window clamp ops) that passes 3/4 exist to
// clean up; fuse=true is the reference the compiled naive model must match.
ModelDef kws_model(uint64_t seed, bool fuse, int weight_bits = 8,
                   int act_bits = 8) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = 8;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = {{8, 1}, {12, 1}};
  models::BuildOptions opt;
  opt.seed = seed;
  opt.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  Rng rng(seed + 1);
  TensorF batch(Shape{2, 12, 8, 1});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const rt::RangeMap ranges = rt::calibrate_ranges(g, batch);
  rt::ConvertOptions co;
  co.name = "kws";
  co.weight_bits = weight_bits;
  co.act_bits = act_bits;
  co.fuse_activations = fuse;
  return rt::convert(g, co, &ranges);
}

TensorDef arena_tensor(const std::string& name, Shape shape, float scale,
                       int32_t zp) {
  TensorDef t;
  t.name = name;
  t.shape = shape;
  t.qp = {scale, zp};
  t.bits = 8;
  return t;
}

TensorDef const_tensor(const std::string& name, Shape shape, float scale,
                       int32_t zp, int64_t offset) {
  TensorDef t = arena_tensor(name, shape, scale, zp);
  t.is_const = true;
  t.blob_offset = offset;
  return t;
}

OpDef make_op(OpType type, std::vector<int> inputs, int output,
              Activation act = Activation::kNone, int32_t kh = 0,
              int32_t kw = 0, int32_t stride = 1) {
  OpDef op;
  op.type = type;
  op.act = act;
  op.inputs = std::move(inputs);
  op.output = output;
  op.kh = kh;
  op.kw = kw;
  op.stride = stride;
  return op;
}

// Golden graph for pass 1: Add(const, const) feeding Add(input, ·). The
// first Add is a const-input subgraph the folder must evaluate through the
// real Add kernel and materialize into the blob.
ModelDef const_fold_model() {
  ModelDef m;
  m.name = "const_fold";
  const Shape s{1, 1, 4};
  m.tensors.push_back(arena_tensor("in", s, 0.05f, 0));
  m.tensors.push_back(const_tensor("c_a", s, 0.05f, 0, 0));
  m.tensors.push_back(const_tensor("c_b", s, 0.05f, 0, 4));
  m.tensors.push_back(arena_tensor("mid", s, 0.05f, 0));
  m.tensors.push_back(arena_tensor("out", s, 0.05f, 0));
  m.weights_blob = {1, 2, 3, 4, 250, 6, 7, 8};  // 250 == int8 -6
  m.ops.push_back(make_op(OpType::kAdd, {1, 2}, 3));
  m.ops.push_back(make_op(OpType::kAdd, {0, 3}, 4));
  m.input_tensor = 0;
  m.output_tensor = 4;
  m.validate();
  return m;
}

// Golden graph for pass 2: maxpool → identity 1x1 depthwise (weight 2 at
// scale 0.5, matching zero points, no bias — the quantized residue of a
// no-op affine; the even accumulator makes the 0.5 requant multiplier
// bit-exact). The exhaustive transfer LUT must prove it equals
// clamp-to-range(kNone) and fold it away.
ModelDef affine_fold_model() {
  ModelDef m;
  m.name = "affine_fold";
  m.tensors.push_back(arena_tensor("in", Shape{4, 4, 2}, 0.1f, 3));
  m.tensors.push_back(arena_tensor("mid", Shape{2, 2, 2}, 0.1f, 3));
  m.tensors.push_back(const_tensor("w_dw", Shape{1, 1, 1, 2}, 0.5f, 0, 0));
  m.tensors.push_back(arena_tensor("out", Shape{2, 2, 2}, 0.1f, 3));
  m.weights_blob = {2, 2};
  m.ops.push_back(make_op(OpType::kMaxPool2D, {0}, 1, Activation::kNone,
                          /*kh=*/2, /*kw=*/2, /*stride=*/2));
  m.ops.push_back(make_op(OpType::kDepthwiseConv2D, {1, 2, -1}, 3));
  m.input_tensor = 0;
  m.output_tensor = 3;
  m.validate();
  return m;
}

// Golden graph for pass 5, deliberately scheduled badly: two 256-byte
// branch heads back-to-back keep three big tensors live at once; running
// each branch to its 4-byte tail before starting the next drops the peak.
ModelDef reorder_model() {
  ModelDef m;
  m.name = "reorder";
  const Shape big{8, 8, 4};
  const Shape tiny{1, 1, 4};
  m.tensors.push_back(arena_tensor("t0", big, 0.1f, 0));
  m.tensors.push_back(arena_tensor("t1", big, 0.1f, 0));
  m.tensors.push_back(arena_tensor("s", big, 0.1f, 0));
  m.tensors.push_back(arena_tensor("t2", tiny, 0.1f, 0));
  m.tensors.push_back(arena_tensor("t3", tiny, 0.1f, 0));
  m.tensors.push_back(arena_tensor("out", tiny, 0.1f, 0));
  m.ops.push_back(make_op(OpType::kMaxPool2D, {0}, 1, Activation::kNone, 1, 1));
  m.ops.push_back(make_op(OpType::kMaxPool2D, {0}, 2, Activation::kNone, 1, 1));
  m.ops.push_back(make_op(OpType::kAvgPool2D, {1}, 3, Activation::kNone, 8, 8,
                          /*stride=*/8));
  m.ops.push_back(make_op(OpType::kAvgPool2D, {2}, 4, Activation::kNone, 8, 8,
                          /*stride=*/8));
  m.ops.push_back(make_op(OpType::kAdd, {3, 4}, 5));
  m.input_tensor = 0;
  m.output_tensor = 5;
  m.validate();
  return m;
}

CompileConfig only(bool CompileConfig::* pass) {
  CompileConfig c;
  c.fold_constants = false;
  c.fold_affine = false;
  c.fuse_activations = false;
  c.eliminate_dead = false;
  c.reorder_memory = false;
  c.*pass = true;
  return c;
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

TEST(CompilePipeline, DisabledConfigIsGuaranteedNoOp) {
  ModelDef m = kws_model(1, /*fuse=*/false);
  const std::vector<uint8_t> before = m.serialize();
  const CompileReport r = Pipeline(CompileConfig::none()).run(m);
  EXPECT_FALSE(r.enabled);
  EXPECT_EQ(r.ops_removed(), 0);
  EXPECT_EQ(m.serialize(), before);
}

// ---------------------------------------------------------------------------
// Per-pass goldens
// ---------------------------------------------------------------------------

TEST(CompilePasses, ConstantFoldingEvaluatesConstSubgraph) {
  const ModelDef ref = const_fold_model();
  ModelDef m = ref;
  const CompileReport r = Pipeline(only(&CompileConfig::fold_constants)).run(m);
  ASSERT_EQ(m.ops.size(), 1u);
  EXPECT_EQ(m.ops[0].type, OpType::kAdd);
  // The folded intermediate is now a blob-backed const input of the
  // surviving Add; its values came from the real Add kernel.
  const TensorDef& folded = m.tensors[static_cast<size_t>(m.ops[0].inputs[1])];
  EXPECT_TRUE(folded.is_const);
  EXPECT_EQ(folded.name, "mid");
  ASSERT_EQ(r.passes.size(), 1u);
  EXPECT_EQ(r.passes[0].pass, "fold_constants");
  EXPECT_EQ(r.passes[0].ops_removed, 1);
  EXPECT_GT(r.passes[0].bytes_folded, 0);
  verify_bit_identical(ref, m, /*seed=*/11, /*trials=*/8);
}

TEST(CompilePasses, AffineFoldRemovesIdentityDepthwise) {
  const ModelDef ref = affine_fold_model();
  ModelDef m = ref;
  const CompileReport r = Pipeline(only(&CompileConfig::fold_affine)).run(m);
  ASSERT_EQ(m.ops.size(), 1u);
  EXPECT_EQ(m.ops[0].type, OpType::kMaxPool2D);
  // The pool now writes straight into the old depthwise output.
  EXPECT_EQ(m.ops[0].output, m.output_tensor);
  EXPECT_EQ(m.tensors[static_cast<size_t>(m.output_tensor)].name, "out");
  ASSERT_EQ(r.passes.size(), 1u);
  EXPECT_EQ(r.passes[0].pass, "fold_affine");
  EXPECT_EQ(r.passes[0].ops_removed, 1);
  verify_bit_identical(ref, m, /*seed=*/12, /*trials=*/8);
}

TEST(CompilePasses, AffineFoldRefusesNonIdentityTransfer) {
  ModelDef m = affine_fold_model();
  m.weights_blob[0] = 4;  // channel 0 doubles: LUT != clamp, must not fold
  m.validate();
  const ModelDef ref = m;
  Pipeline(only(&CompileConfig::fold_affine)).run(m);
  EXPECT_EQ(m.serialize(), ref.serialize());
}

TEST(CompilePasses, ActivationFusionRecoversConverterFusedForm) {
  const ModelDef naive = kws_model(2, /*fuse=*/false);
  const ModelDef fused = kws_model(2, /*fuse=*/true);
  ASSERT_GT(naive.ops.size(), fused.ops.size());
  ModelDef m = naive;
  const CompileReport r =
      Pipeline(only(&CompileConfig::fuse_activations)).run(m);
  // Every standalone clamp the naive converter emitted is folded back into
  // its producer's OpDef::act — the compiled graph matches the fused
  // converter's op count and behaves byte-identically.
  EXPECT_EQ(m.ops.size(), fused.ops.size());
  ASSERT_EQ(r.passes.size(), 1u);
  EXPECT_EQ(r.passes[0].pass, "fuse_activations");
  EXPECT_EQ(r.passes[0].activations_fused,
            static_cast<int64_t>(naive.ops.size() - fused.ops.size()));
  verify_bit_identical(naive, m, /*seed=*/13, /*trials=*/4);
}

TEST(CompilePasses, DeadEliminationMakesUnplannableGraphRunnable) {
  const ModelDef base = kws_model(3, /*fuse=*/true);
  ModelDef dead = base;
  // A dangling unit pool off the stem output: its result is never read, so
  // the planner refuses the graph outright — DCE is what makes a
  // deserialized image with dead ops runnable at all.
  const int src = dead.ops[0].output;
  TensorDef t = dead.tensors[static_cast<size_t>(src)];
  t.name = "dangling";
  dead.tensors.push_back(t);
  dead.ops.push_back(make_op(OpType::kMaxPool2D, {src},
                             static_cast<int>(dead.tensors.size()) - 1,
                             Activation::kNone, 1, 1));
  dead.validate();
  EXPECT_THROW(rt::plan_memory(dead), std::exception);
  const CompileReport r =
      Pipeline(only(&CompileConfig::eliminate_dead)).run(dead);
  EXPECT_EQ(dead.serialize(), base.serialize());
  ASSERT_EQ(r.passes.size(), 1u);
  EXPECT_EQ(r.passes[0].pass, "eliminate_dead");
  EXPECT_EQ(r.passes[0].ops_removed, 1);
  EXPECT_EQ(r.passes[0].tensors_removed, 1);
}

TEST(CompilePasses, ReorderLowersPlannedPeakOnBranchyGraph) {
  const ModelDef ref = reorder_model();
  const int64_t peak_before =
      rt::plan_memory(ref).peak_live_bytes(static_cast<int>(ref.ops.size()));
  ModelDef m = ref;
  const CompileReport r = Pipeline(only(&CompileConfig::reorder_memory)).run(m);
  const int64_t peak_after =
      rt::plan_memory(m).peak_live_bytes(static_cast<int>(m.ops.size()));
  EXPECT_LT(peak_after, peak_before);
  EXPECT_EQ(r.peak_live_bytes_before, peak_before);
  EXPECT_EQ(r.peak_live_bytes_after, peak_after);
  ASSERT_EQ(r.passes.size(), 1u);
  EXPECT_EQ(r.passes[0].pass, "reorder_memory");
  EXPECT_EQ(r.passes[0].peak_bytes_saved, peak_before - peak_after);
  EXPECT_EQ(m.ops.size(), ref.ops.size());
  verify_bit_identical(ref, m, /*seed=*/14, /*trials=*/8);
}

TEST(CompilePasses, FullPipelineCompactsBlobAfterFolding) {
  // After const folding, the two original const inputs are dead weight; the
  // full pipeline's DCE + compaction leaves exactly the 4 folded bytes.
  ModelDef m = const_fold_model();
  const CompileReport r = Pipeline(CompileConfig::all()).run(m);
  EXPECT_EQ(m.ops.size(), 1u);
  EXPECT_EQ(static_cast<int64_t>(m.weights_blob.size()), 4);
  EXPECT_LT(r.blob_bytes_after, r.blob_bytes_before);
  m.validate();
  verify_bit_identical(const_fold_model(), m, /*seed=*/15, /*trials=*/8);
}

// ---------------------------------------------------------------------------
// Pipeline contracts
// ---------------------------------------------------------------------------

TEST(CompilePipeline, IdempotentAndDeterministic) {
  for (const uint64_t seed : {4u, 5u}) {
    const ModelDef naive = kws_model(seed, /*fuse=*/false);
    const CompiledModel once = compile_model(naive, CompileConfig::all());
    const CompiledModel again =
        compile_model(naive, CompileConfig::all());  // determinism
    EXPECT_EQ(once.model.serialize(), again.model.serialize());
    const CompiledModel twice =
        compile_model(once.model, CompileConfig::all());  // idempotence
    EXPECT_EQ(twice.model.serialize(), once.model.serialize());
    EXPECT_EQ(twice.report.ops_removed(), 0);
    EXPECT_EQ(twice.report.peak_bytes_saved(), 0);
  }
}

TEST(CompilePipeline, DifferentialSweepAtThreads128) {
  // The bit-identity contract on converter-built models, int8 and int4,
  // naive and pre-fused, at MN_THREADS 1/2/8: the compiled model on the
  // fast backend against the uncompiled one on the reference kernels.
  for (const bool fuse : {false, true}) {
    const ModelDef ref = kws_model(6, fuse);
    const CompiledModel c = compile_model(ref, CompileConfig::all());
    const int64_t runs = verify_bit_identical(ref, c.model, /*seed=*/16,
                                              /*trials=*/3, {1, 2, 8});
    EXPECT_EQ(runs, 3 * 3);
  }
  const ModelDef ref4 = kws_model(7, /*fuse=*/false, /*weight_bits=*/4,
                                  /*act_bits=*/4);
  const CompiledModel c4 = compile_model(ref4, CompileConfig::all());
  verify_bit_identical(ref4, c4.model, /*seed=*/17, /*trials=*/3, {1, 2, 8});
}

TEST(CompilePipeline, ReportAndObsCountersAccount) {
  obs::reset_counters();
  const ModelDef naive = kws_model(8, /*fuse=*/false);
  const CompiledModel c = compile_model(naive, CompileConfig::all());
  EXPECT_TRUE(c.report.enabled);
  EXPECT_GT(c.report.ops_removed(), 0);
  EXPECT_EQ(c.report.ops_before, static_cast<int64_t>(naive.ops.size()));
  EXPECT_EQ(c.report.ops_after, static_cast<int64_t>(c.model.ops.size()));
  EXPECT_GE(c.report.peak_live_bytes_before, c.report.peak_live_bytes_after);
#if !defined(MN_OBS_DISABLED)
  EXPECT_EQ(obs::counter_value(obs::Counter::kCompileOpsRemoved),
            c.report.ops_removed());
  EXPECT_EQ(obs::counter_value(obs::Counter::kCompilePeakBytesSaved),
            c.report.peak_bytes_saved());
#else
  // -DMN_OBS=OFF compiles every counter to a no-op; the report itself
  // (asserted above) is the only accounting that survives.
  EXPECT_EQ(obs::counter_value(obs::Counter::kCompileOpsRemoved), 0);
#endif
  const std::string s = c.report.summary();
  EXPECT_NE(s.find("fuse_activations"), std::string::npos);
  EXPECT_NE(s.find("ops"), std::string::npos);
}

TEST(CompilePipeline, CompiledInterpreterMatchesReferenceOutputs) {
  const ModelDef ref = kws_model(9, /*fuse=*/false);
  CompiledModel c = compile_model(ref, CompileConfig::all());
  EXPECT_TRUE(c.report.enabled);
  rt::Interpreter compiled(c.model, rt::plan_memory(c.model),
                           kernels::BackendConfig::reference());
  rt::Interpreter plain(ref, rt::plan_memory(ref),
                        kernels::BackendConfig::reference());
  Rng rng(99);
  TensorI8 in(Shape{12, 8, 1});
  for (int64_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<int8_t>(rng.uniform_int(-128, 127));
  EXPECT_TRUE(compiled.invoke_quantized(in) == plain.invoke_quantized(in));
}

// ---------------------------------------------------------------------------
// Serving + rollout wiring
// ---------------------------------------------------------------------------

TEST(CompileServe, PoolCompilesOncePerVariantAndStaysThreadInvariant) {
  const ModelDef naive = kws_model(10, /*fuse=*/false);
  serve::InterpreterPool pool;
  serve::VariantSpec spec;
  spec.model = naive;
  spec.compile = CompileConfig::all();
  spec.instances = 2;
  const int v = pool.add_variant(std::move(spec));
  const CompileReport& r = pool.compile_report(v);
  EXPECT_TRUE(r.enabled);
  EXPECT_GT(r.ops_removed(), 0);
  // The golden flash image replicas are built from IS the compiled model.
  EXPECT_EQ(pool.pristine(v).ops.size(), static_cast<size_t>(r.ops_after));
  // Serving fingerprint thread-invariance: the same replica must produce
  // byte-identical outputs at MN_THREADS 1/2/8.
  auto replica = pool.make_replica(v);
  Rng rng(1234);
  TensorI8 in(Shape{12, 8, 1});
  for (int64_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<int8_t>(rng.uniform_int(-128, 127));
  parallel::set_threads(1);
  const TensorI8 golden = replica->invoke_quantized(in);
  for (const int tc : {2, 8}) {
    parallel::set_threads(tc);
    EXPECT_TRUE(replica->invoke_quantized(in) == golden)
        << "fingerprint diverged at " << tc << " threads";
  }
  parallel::set_threads(0);
}

TEST(CompileRollout, RegistryPinsCompiledImageProvenance) {
  const ModelDef image = kws_model(11, /*fuse=*/false);
  rollout::VersionRegistry reg;
  const auto id = reg.add_version("v1", image, /*service_ticks=*/1,
                                  /*instances=*/1, std::nullopt,
                                  CompileConfig::all());
  ASSERT_TRUE(id.ok());
  EXPECT_NE(reg.version(id.value()).compiled_crc, 0u);
  EXPECT_FALSE(reg.verify(id.value()).has_value());
  // A poisoned staged image fails verification before any replica flashes.
  reg.mutable_image(id.value()).weights_blob[0] ^= 0x5A;
  const auto err = reg.verify(id.value());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, rt::ErrorCode::kCrcMismatch);
}

}  // namespace
}  // namespace mn::compile
