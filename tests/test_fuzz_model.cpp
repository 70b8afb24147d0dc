// Deserializer fuzz suite: thousands of seeded mutations of valid model
// images must all come back from ModelDef::try_deserialize as typed errors
// (or as a successful parse when the mutation happened to be benign) — never
// an uncaught exception, crash, hang, or giant allocation. Runs under
// -DMN_SANITIZE=ON via `ctest -L reliability`.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "models/backbones.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/model.hpp"
#include "tensor/rng.hpp"

namespace mn::rt {
namespace {

// Uniform integer in [0, n) — mutation-site picker.
size_t pick(Rng& rng, size_t n) {
  return n == 0 ? 0 : static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n) - 1));
}

ModelDef tiny_model(uint64_t seed = 1) {
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
  const RangeMap ranges = calibrate_ranges(g, batch);
  return convert(g, {.name = "fuzz"}, &ranges);
}

// One fuzz iteration: mutate, parse, demand a typed verdict. Returns true if
// the parse succeeded (only legitimate when the mutation was a no-op or hit
// genuinely-unchecked padding, which the caller may disallow).
bool mutate_and_parse(const std::vector<uint8_t>& base, Rng& rng,
                      std::vector<uint8_t>& scratch) {
  scratch = base;
  const int strategy = static_cast<int>(pick(rng, 6));
  switch (strategy) {
    case 0: {  // random single/multi bit flips
      const int flips = 1 + static_cast<int>(pick(rng, 8));
      for (int i = 0; i < flips; ++i) {
        const size_t pos = pick(rng, scratch.size());
        scratch[pos] ^= static_cast<uint8_t>(1u << pick(rng, 8));
      }
      break;
    }
    case 1: {  // byte splat over a random range
      const size_t start = pick(rng, scratch.size());
      const size_t len = 1 + pick(rng, 64);
      const uint8_t v = static_cast<uint8_t>(pick(rng, 256));
      for (size_t i = start; i < std::min(start + len, scratch.size()); ++i)
        scratch[i] = v;
      break;
    }
    case 2: {  // truncation (including empty and header-only prefixes)
      scratch.resize(pick(rng, scratch.size()));
      break;
    }
    case 3: {  // extension with random trailing garbage
      const size_t extra = 1 + pick(rng, 256);
      for (size_t i = 0; i < extra; ++i)
        scratch.push_back(static_cast<uint8_t>(pick(rng, 256)));
      break;
    }
    case 4: {  // overwrite a 4-byte little-endian field with an extreme value
      const uint32_t extremes[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 0x80000000u,
                                   0x40000000u, 0u};
      const uint32_t v = extremes[pick(rng, 5)];
      if (scratch.size() >= 4) {
        const size_t pos = pick(rng, scratch.size() - 3);
        std::memcpy(scratch.data() + pos, &v, 4);
      }
      break;
    }
    default: {  // random garbage of random length (no valid structure at all)
      scratch.assign(pick(rng, 512),
                     static_cast<uint8_t>(pick(rng, 256)));
      for (auto& b : scratch) b = static_cast<uint8_t>(pick(rng, 256));
      break;
    }
  }

  const Expected<ModelDef> r = ModelDef::try_deserialize(scratch);
  if (!r.ok()) {
    // A typed verdict: real code and a human-readable message.
    EXPECT_NE(r.error().code, ErrorCode::kOk);
    EXPECT_FALSE(r.error().message.empty());
  }
  return r.ok();
}

TEST(FuzzModel, V2MutationsNeverEscapeAsExceptions) {
  const std::vector<uint8_t> base = tiny_model().serialize();
  Rng rng(0xF00DF00Du);
  std::vector<uint8_t> scratch;
  int accepted_identical = 0;
  for (int iter = 0; iter < 800; ++iter) {
    bool ok = false;
    ASSERT_NO_THROW(ok = mutate_and_parse(base, rng, scratch))
        << "iteration " << iter << " leaked an exception";
    if (ok) {
      // V2 is fully CRC-covered: a successful parse is only legitimate when
      // the mutation reconstructed the original image bit-for-bit.
      EXPECT_EQ(scratch, base) << "iteration " << iter
                               << " accepted a mutated V2 image";
      ++accepted_identical;
    }
  }
  // A handful of no-op mutations (e.g. splatting 0 over already-zero bias
  // bytes) may slip through as identical images; anything more means the
  // campaign was rubber-stamping instead of rejecting.
  EXPECT_LT(accepted_identical, 80);
}

TEST(FuzzModel, V1MutationsExerciseParserHardening) {
  // V1 images carry no CRC, so mutations reach the structural bounds checks
  // directly instead of being short-circuited by a checksum mismatch.
  const std::vector<uint8_t> base = tiny_model(2).serialize_legacy_v1();
  Rng rng(0xBEEF1234u);
  std::vector<uint8_t> scratch;
  for (int iter = 0; iter < 400; ++iter) {
    ASSERT_NO_THROW(mutate_and_parse(base, rng, scratch))
        << "iteration " << iter << " leaked an exception";
  }
}

TEST(FuzzModel, AbsurdCountFieldsRejectedBeforeAllocation) {
  // Craft V1 images whose early count/length fields claim gigabytes. The
  // parser must reject them from the *remaining byte budget* without ever
  // attempting the allocation (a hang/OOM here fails the test run).
  const std::vector<uint8_t> base = tiny_model(3).serialize_legacy_v1();
  const uint32_t extremes[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 0x10000000u,
                               0x01000000u};
  // Hit every 4-byte-aligned offset in the header/metadata region.
  for (size_t pos = 4; pos + 4 <= std::min<size_t>(base.size(), 256);
       pos += 4) {
    for (const uint32_t v : extremes) {
      std::vector<uint8_t> img = base;
      std::memcpy(img.data() + pos, &v, 4);
      Expected<ModelDef> r{RtError{}};
      ASSERT_NO_THROW(r = ModelDef::try_deserialize(img))
          << "offset " << pos << " value " << v;
      if (!r.ok()) {
        EXPECT_NE(r.error().code, ErrorCode::kOk);
      }
    }
  }
}

TEST(FuzzModel, EmptyAndTinyInputs) {
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 11u, 12u, 15u, 16u}) {
    std::vector<uint8_t> img(n, 0xAB);
    const auto r = ModelDef::try_deserialize(img);
    ASSERT_FALSE(r.ok()) << n << "-byte image parsed";
    EXPECT_TRUE(r.code() == ErrorCode::kBadMagic ||
                r.code() == ErrorCode::kTruncated)
        << error_code_name(r.code());
  }
}

TEST(FuzzModel, ModelWithoutConstTensorsRoundTrips) {
  // A lone pool op has no weights: the image carries an empty blob, which
  // the parser must read as zero bytes (no copy into a null buffer).
  ModelDef m;
  m.name = "lone_pool";
  TensorDef t;
  t.shape = Shape{4, 4, 2};
  t.qp = {0.05f, 3};
  t.name = "in";
  m.tensors.push_back(t);
  t.name = "out";
  m.tensors.push_back(t);
  OpDef op;
  op.type = OpType::kMaxPool2D;
  op.inputs = {0};
  op.output = 1;
  op.kh = op.kw = 2;
  op.pad_h = op.pad_w = 1;
  m.ops.push_back(op);
  m.input_tensor = 0;
  m.output_tensor = 1;
  const std::vector<uint8_t> bytes = m.serialize();
  const auto r = ModelDef::try_deserialize(bytes);
  ASSERT_TRUE(r.ok()) << r.error().message;
  const ModelDef& back = r.value();
  EXPECT_TRUE(back.weights_blob.empty());
  EXPECT_EQ(back.serialize(), bytes);
  const TensorF img(Shape{4, 4, 2}, 0.3f);
  EXPECT_TRUE(Interpreter(back).invoke(img) == Interpreter(m).invoke(img));
}

TEST(FuzzModel, StructuralSeedsForHardenedCheck) {
  // Deterministic seeds for the hardened ModelDef::check(): each mutates a
  // valid model *in memory* and round-trips through serialize(), so the V2
  // CRCs cover the mutated content and the image reaches the structural
  // checks instead of being short-circuited by a checksum mismatch.
  const ModelDef base = tiny_model(5);
  ASSERT_GE(base.ops.size(), 2u);

  {  // op input id one past the end of the tensor table
    ModelDef m = base;
    m.ops[1].inputs[0] = static_cast<int>(m.tensors.size());
    const auto r = ModelDef::try_deserialize(m.serialize());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kBadTensorId);
  }
  {  // negative input id other than the -1 "absent bias" marker
    ModelDef m = base;
    m.ops[1].inputs[0] = -2;
    const auto r = ModelDef::try_deserialize(m.serialize());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kBadTensorId);
  }
  {  // op output id out of range
    ModelDef m = base;
    m.ops[0].output = static_cast<int>(m.tensors.size()) + 7;
    const auto r = ModelDef::try_deserialize(m.serialize());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kBadTensorId);
  }
  {  // op output colliding with a const (blob-backed) tensor
    ModelDef m = base;
    int const_id = -1;
    for (size_t i = 0; i < m.tensors.size(); ++i)
      if (m.tensors[i].is_const) const_id = static_cast<int>(i);
    ASSERT_GE(const_id, 0);
    m.ops[0].output = const_id;
    const auto r = ModelDef::try_deserialize(m.serialize());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kGraphInvalid);
    EXPECT_NE(r.error().message.find("writes const tensor"), std::string::npos);
  }
  {  // op type past the kOpTypeCount sentinel — rejected at parse time
    ModelDef m = base;
    m.ops[0].type = OpType::kOpTypeCount;
    const auto r = ModelDef::try_deserialize(m.serialize());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kBadOpType);
  }
  {  // activation past the kActivationCount sentinel
    ModelDef m = base;
    m.ops[0].act = Activation::kActivationCount;
    const auto r = ModelDef::try_deserialize(m.serialize());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kBadOpType);
  }
}

TEST(FuzzModel, OutOfRangeZeroPointIsGraphInvalid) {
  const ModelDef base = tiny_model(6);
  const size_t in = static_cast<size_t>(base.input_tensor);
  ASSERT_EQ(base.tensors[in].bits, 8);
  ASSERT_EQ(base.ops[0].inputs[0], base.input_tensor);
  ASSERT_NE(pack_model_weights(base, kernels::BackendConfig::fast())->per_op[0],
            nullptr);
  for (const int32_t zp : {128, -129, 1 << 20}) {
    SCOPED_TRACE(zp);
    ModelDef m = base;
    m.tensors[in].qp.zero_point = zp;
    const auto r = ModelDef::try_deserialize(m.serialize());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kGraphInvalid);
    EXPECT_NE(r.error().message.find("zero point"), std::string::npos);
    const auto direct = m.check();
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(direct->code, ErrorCode::kGraphInvalid);
    // An unvalidated in-memory model gets no fast panel for the op reading
    // that tensor: it would run on the reference kernel, not in an int16
    // lane the zero point overflows.
    EXPECT_EQ(pack_model_weights(m, kernels::BackendConfig::fast())->per_op[0],
              nullptr);
  }
  for (const int32_t zp : {-128, 127}) {
    ModelDef m = base;
    m.tensors[in].qp.zero_point = zp;
    EXPECT_TRUE(ModelDef::try_deserialize(m.serialize()).ok()) << zp;
  }
}

namespace {

// One int8 FC op over `fan_in` inputs with a single output and a one-entry
// bias, built by hand so the test sets the worst-case accumulator exactly:
// fan_in * 255 * 128 + |bias|.
ModelDef fc_model(int32_t fan_in, int32_t bias) {
  ModelDef m;
  m.name = "acc_bound";
  TensorDef x;
  x.name = "x";
  x.shape = Shape{fan_in};
  TensorDef w;
  w.name = "w";
  w.shape = Shape{1, fan_in};
  w.is_const = true;
  w.blob_offset = 0;
  TensorDef b;
  b.name = "b";
  b.shape = Shape{1};
  b.bits = 32;
  b.is_const = true;
  b.blob_offset = fan_in;
  TensorDef y;
  y.name = "y";
  y.shape = Shape{1};
  m.tensors = {x, w, b, y};
  m.weights_blob.assign(static_cast<size_t>(fan_in) + 4, 1);
  std::memcpy(m.weights_blob.data() + fan_in, &bias, 4);
  OpDef fc;
  fc.type = OpType::kFullyConnected;
  fc.inputs = {0, 1, 2};
  fc.output = 3;
  m.ops = {fc};
  m.input_tensor = 0;
  m.output_tensor = 3;
  return m;
}

}  // namespace

TEST(FuzzModel, AccumulatorOverflowIsGraphInvalid) {
  // 65793 * 255 * 128 = INT32_MAX - 127: fan-in 65793 fits with a bias up
  // to 127 in magnitude, 65794 does not fit at all.
  const struct {
    int32_t fan_in, bias;
    bool loads;
  } cases[] = {
      {65793, 0, true},
      {65793, -127, true},
      {65794, 0, false},
      {65793, 128, false},
      {65793, -128, false},
      {1, -2147483647, false},
      {1, 2147450000, true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "fan_in " << c.fan_in << " bias "
                                    << c.bias);
    const ModelDef m = fc_model(c.fan_in, c.bias);
    const auto r = ModelDef::try_deserialize(m.serialize());
    EXPECT_EQ(r.ok(), c.loads);
    EXPECT_EQ(!m.check().has_value(), c.loads);
    if (!c.loads) {
      EXPECT_EQ(r.code(), ErrorCode::kGraphInvalid);
      EXPECT_NE(r.error().message.find("accumulator"), std::string::npos);
    }
  }
}

// Requant multipliers are in_scale * w_scale / out_scale: a zero or negative
// scale has none, so load rejects it with a typed error instead of the
// Interpreter constructor throwing an untyped one.
TEST(FuzzModel, NonPositiveScaleIsGraphInvalid) {
  const ModelDef base = tiny_model(8);
  const size_t out = static_cast<size_t>(base.ops[0].output);
  const size_t w = static_cast<size_t>(base.ops[0].inputs[1]);
  ASSERT_FALSE(base.tensors[w].channel_scales.empty());
  for (const float scale : {0.f, -0.f, -0.25f}) {
    SCOPED_TRACE(scale);
    ModelDef per_tensor = base;
    per_tensor.tensors[out].qp.scale = scale;
    ModelDef per_channel = base;
    per_channel.tensors[w].channel_scales.back() = scale;
    for (const ModelDef* m : {&per_tensor, &per_channel}) {
      const auto r = ModelDef::try_deserialize(m->serialize());
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.code(), ErrorCode::kGraphInvalid);
      EXPECT_NE(r.error().message.find("positive"), std::string::npos);
    }
  }
}

// A finite but extreme scale ratio gives a requant shift far past 31 (left
// or right). It loads, and every kernel saturates by sign without an
// out-of-range shift: under -DMN_SANITIZE=ON a UBSan report aborts here.
// The fast and reference backends agree byte for byte.
TEST(FuzzModel, ExtremeScaleRatioSaturatesWithoutUndefinedShift) {
  const ModelDef base = tiny_model(9);
  const size_t out = static_cast<size_t>(base.ops[0].output);
  for (const float scale : {1e-38f, 1e38f}) {
    SCOPED_TRACE(scale);
    ModelDef m = base;
    m.tensors[out].qp.scale = scale;
    const auto r = ModelDef::try_deserialize(m.serialize());
    ASSERT_TRUE(r.ok()) << r.error().message;
    Interpreter fast(r.value(), {}, kernels::BackendConfig::fast());
    Interpreter ref(r.value(), {}, kernels::BackendConfig::reference());
    const TensorDef& in_t = m.tensors[static_cast<size_t>(m.input_tensor)];
    TensorI8 x(in_t.shape);
    Rng rng(5);
    for (int64_t i = 0; i < x.size(); ++i)
      x[i] = static_cast<int8_t>(rng.uniform_int(-128, 127));
    EXPECT_TRUE(fast.invoke_quantized(x) == ref.invoke_quantized(x));
  }
  // The primitive itself: shifts of 32..63 and >= 64 saturate by sign.
  for (const int shift : {32, 40, 63, 64, 283}) {
    SCOPED_TRACE(shift);
    const quant::FixedMultiplier m{1 << 30, shift};
    EXPECT_EQ(quant::multiply_by_quantized_multiplier(3, m),
              std::numeric_limits<int32_t>::max());
    EXPECT_EQ(quant::multiply_by_quantized_multiplier(-3, m),
              std::numeric_limits<int32_t>::min());
    EXPECT_EQ(quant::multiply_by_quantized_multiplier(0, m), 0);
  }
}

TEST(FuzzModel, WrongMagicIsBadMagicNotTruncated) {
  std::vector<uint8_t> img = tiny_model(4).serialize();
  img[0] ^= 0xFF;
  const auto r = ModelDef::try_deserialize(img);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kBadMagic);
}

}  // namespace
}  // namespace mn::rt
