#include "runtime/interpreter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"

namespace mn::rt {

// activation_range (the fused-activation clamp in the quantized domain)
// lives in model.cpp now, shared with the compile:: passes.

namespace {
constexpr uint8_t kCanaryByte = 0xA5;

// Claim predicate for the fast backend: int8 conv2d / depthwise /
// fully-connected with a constant int8 weight tensor (panels are packed once
// at load time, so mutable weights cannot be claimed) and an int8 input zero
// point (the fast kernels assume one; a deserialized model is checked at
// load, an in-memory ModelDef may not be). Everything else falls back.
bool fast_claims(const ModelDef& m, const OpDef& op) {
  if (op.type != OpType::kConv2D && op.type != OpType::kDepthwiseConv2D &&
      op.type != OpType::kFullyConnected)
    return false;
  const TensorDef& in = m.tensors[static_cast<size_t>(op.inputs[0])];
  const TensorDef& w = m.tensors[static_cast<size_t>(op.inputs[1])];
  const TensorDef& out = m.tensors[static_cast<size_t>(op.output)];
  if (op.type == OpType::kDepthwiseConv2D && w.shape.dim(0) != 1) return false;
  return in.bits == 8 && w.bits == 8 && out.bits == 8 && w.is_const &&
         w.elements() > 0 && in.qp.zero_point >= -128 && in.qp.zero_point <= 127;
}

}  // namespace

std::shared_ptr<const PackedModel> pack_model_weights(
    const ModelDef& model, kernels::BackendConfig config) {
  auto pm = std::make_shared<PackedModel>();
  pm->kind = config.kind;
  pm->per_op.assign(model.ops.size(), nullptr);
  if (config.kind == kernels::BackendKind::kReference) return pm;
  for (size_t i = 0; i < model.ops.size(); ++i) {
    const OpDef& op = model.ops[i];
    if (!fast_claims(model, op)) continue;
    const TensorDef& w = model.tensors[static_cast<size_t>(op.inputs[1])];
    const std::span<const int8_t> w_bytes{
        reinterpret_cast<const int8_t*>(model.weights_blob.data() +
                                        w.blob_offset),
        static_cast<size_t>(w.storage_bytes())};
    // Conv weights: [out_ch][kh][kw][in_ch]; FC weights: [out][in]. Both are
    // row-major with one row per output channel/feature. Depthwise weights
    // [1][kh][kw][ch] pack one row per kernel tap.
    const bool dw = op.type == OpType::kDepthwiseConv2D;
    const int64_t rows = dw ? w.shape.dim(1) * w.shape.dim(2) : w.shape.dim(0);
    const int64_t row_len = w.elements() / rows;
    pm->per_op[i] = std::make_shared<const kernels::PackedOpWeights>(
        kernels::pack_rows_s8(w_bytes, rows, row_len));
  }
  return pm;
}

Interpreter::Interpreter(ModelDef model, MemoryPlan plan,
                         kernels::BackendConfig config,
                         std::shared_ptr<const PackedModel> packed)
    : model_(std::move(model)), backend_(config), isa_(kernels::host_isa()) {
  model_.validate();
  if (plan.allocations.empty() && plan.arena_bytes == 0) {
    plan_ = plan_memory(model_);
  } else {
    // Cheap structural compatibility check on the injected plan: every
    // non-const tensor must have an in-bounds allocation of the right size.
    for (size_t t = 0; t < model_.tensors.size(); ++t) {
      const TensorDef& td = model_.tensors[t];
      if (td.is_const) continue;
      const TensorAllocation* a = plan.find(static_cast<int>(t));
      if (a == nullptr || a->bytes != td.storage_bytes() ||
          a->offset < 0 || a->offset + a->bytes > plan.arena_bytes)
        throw std::runtime_error(
            "Interpreter: injected MemoryPlan does not match the model");
    }
    plan_ = std::move(plan);
  }
  arena_.assign(static_cast<size_t>(plan_.arena_bytes + 2 * kArenaGuardBytes), 0);
  fill_guards();
  // Backend resolution: pack weight panels (or adopt the shared set). An op
  // with panels runs on the requested backend, the rest fall back to
  // reference.
  if (packed == nullptr) {
    packed_ = pack_model_weights(model_, backend_);
  } else {
    if (packed->kind != backend_.kind ||
        packed->per_op.size() != model_.ops.size())
      throw std::runtime_error(
          "Interpreter: shared PackedModel does not match the backend config");
    packed_ = std::move(packed);
  }
  prepare();
  int64_t scratch = 0;
  for (const PreparedOp& p : ops_) scratch = std::max(scratch, p.scratch_bytes);
  scratch_.assign(static_cast<size_t>(scratch), 0);
  expected_weights_crc_ = model_.weights_crc();
  op_wall_ns_.assign(model_.ops.size(), 0);
  op_live_bytes_ = plan_.occupancy_timeline(static_cast<int>(model_.ops.size()));
  obs::gauge_set_max(obs::Gauge::kArenaPeakBytes, plan_.arena_bytes);
  obs::gauge_set_max(obs::Gauge::kScratchPeakBytes, scratch);
  obs::gauge_set_max(obs::Gauge::kArenaLiveBytesPeak,
                     plan_.peak_live_bytes(static_cast<int>(model_.ops.size())));
}

void Interpreter::set_op_energy_uj(std::vector<double> energy_uj) {
  if (energy_uj.size() != model_.ops.size())
    throw std::runtime_error(
        "Interpreter: energy table must have one entry per op");
  op_energy_uj_ = std::move(energy_uj);
}

void Interpreter::fill_guards() {
  std::memset(arena_.data(), kCanaryByte, static_cast<size_t>(kArenaGuardBytes));
  std::memset(arena_.data() + arena_.size() - kArenaGuardBytes, kCanaryByte,
              static_cast<size_t>(kArenaGuardBytes));
}

std::optional<RtError> Interpreter::check_canaries() const {
  auto scan = [&](size_t from, const char* which) -> std::optional<RtError> {
    for (size_t i = 0; i < static_cast<size_t>(kArenaGuardBytes); ++i)
      if (arena_[from + i] != kCanaryByte)
        return RtError{ErrorCode::kArenaOverrun,
                       std::string("Interpreter: ") + which +
                           " arena guard band clobbered at byte " + std::to_string(i)};
    return std::nullopt;
  };
  if (auto e = scan(0, "leading")) return e;
  return scan(arena_.size() - kArenaGuardBytes, "trailing");
}

void Interpreter::rearm_weights_crc() { expected_weights_crc_ = model_.weights_crc(); }

std::optional<RtError> Interpreter::check_weights() const {
  if (model_.weights_crc() == expected_weights_crc_) return std::nullopt;
  return RtError{ErrorCode::kCrcMismatch,
                 "Interpreter: weights blob CRC drifted since load "
                 "(flash fault or unannounced update)"};
}

namespace {

// in_scale * w_scale / out_scale per tensor or per output channel, and the
// fused-activation clamp: the requant shared by conv, depthwise and FC.
kernels::RequantParams requant(const TensorDef& in, const TensorDef& w,
                               const TensorDef& out, Activation act) {
  kernels::RequantParams rq;
  rq.input_zp = in.qp.zero_point;
  rq.output_zp = out.qp.zero_point;
  if (w.channel_scales.empty()) {
    rq.mult = quant::quantize_multiplier(static_cast<double>(in.qp.scale) *
                                         w.qp.scale / out.qp.scale);
  } else {
    rq.per_channel.reserve(w.channel_scales.size());
    for (float ws : w.channel_scales)
      rq.per_channel.push_back(quant::quantize_multiplier(
          static_cast<double>(in.qp.scale) * ws / out.qp.scale));
  }
  activation_range(act, out.qp, out.bits, &rq.act_min, &rq.act_max);
  return rq;
}

}  // namespace

Interpreter::Operand Interpreter::operand(int tensor_id) const {
  const TensorDef& t = model_.tensors[static_cast<size_t>(tensor_id)];
  if (t.is_const) return {true, t.blob_offset, t.storage_bytes()};
  // plan_memory allocates every non-const tensor, and an injected plan is
  // checked for exactly that in the constructor.
  const TensorAllocation* a = plan_.find(tensor_id);
  return {false, a->offset, a->bytes};
}

std::span<uint8_t> Interpreter::bytes(const Operand& o) {
  uint8_t* base = o.in_blob ? model_.weights_blob.data()
                            : arena_.data() + kArenaGuardBytes;
  return {base + o.offset, static_cast<size_t>(o.bytes)};
}

// Resolves every op into its PreparedOp and serving backend, and records the
// first op the kernels cannot run (in the order an invoke would reach it).
void Interpreter::prepare() {
  auto unsupported = [&](const char* why) {
    if (!unsupported_)
      unsupported_ = RtError{ErrorCode::kUnsupportedOp,
                             std::string("Interpreter: ") + why};
  };
  input_ = operand(model_.input_tensor);
  output_ = operand(model_.output_tensor);
  if (input_.in_blob) unsupported("not an arena tensor");
  ops_.resize(model_.ops.size());
  op_backend_.resize(model_.ops.size());
  for (size_t i = 0; i < model_.ops.size(); ++i) {
    const OpDef& op = model_.ops[i];
    PreparedOp& p = ops_[i];
    for (size_t k = 0; k < std::min<size_t>(3, op.inputs.size()); ++k)
      if (op.inputs[k] >= 0) p.in[k] = operand(op.inputs[k]);
    p.out = operand(op.output);
    p.macs = op.macs(model_.tensors);
    const TensorDef& in = model_.tensors[static_cast<size_t>(op.inputs[0])];
    const TensorDef& out = model_.tensors[static_cast<size_t>(op.output)];
    const int bits = in.bits;
    const bool fast = packed_->per_op[i] != nullptr;
    op_backend_[i] = fast ? backend_.kind : kernels::BackendKind::kReference;
    const bool bits_ok = bits == 8 || bits == 4;
    if (!bits_ok) unsupported("unsupported activation bits");
    switch (op.type) {
      case OpType::kConv2D:
      case OpType::kDepthwiseConv2D: {
        const bool dw = op.type == OpType::kDepthwiseConv2D;
        const TensorDef& w = model_.tensors[static_cast<size_t>(op.inputs[1])];
        p.conv.in_h = static_cast<int32_t>(in.shape.dim(0));
        p.conv.in_w = static_cast<int32_t>(in.shape.dim(1));
        p.conv.in_ch = static_cast<int32_t>(in.shape.dim(2));
        p.conv.out_h = static_cast<int32_t>(out.shape.dim(0));
        p.conv.out_w = static_cast<int32_t>(out.shape.dim(1));
        p.conv.out_ch = static_cast<int32_t>(out.shape.dim(2));
        p.conv.kh = static_cast<int32_t>(w.shape.dim(1));
        p.conv.kw = static_cast<int32_t>(w.shape.dim(2));
        p.conv.stride = op.stride;
        p.conv.pad_h = op.pad_h;
        p.conv.pad_w = op.pad_w;
        p.rq = requant(in, w, out, op.act);
        if (w.bits != bits || out.bits != bits) {
          unsupported(dw ? "mixed-precision dwconv unsupported"
                         : "mixed-precision conv unsupported");
        } else if (dw) {
          p.kernel = fast ? Kernel::kDwFast
                     : bits == 8 ? Kernel::kDwS8 : Kernel::kDwS4;
        } else if (fast && isa_ == kernels::Isa::kAvx2 &&
                   kernels::is_pointwise(p.conv)) {
          // The direct 1x1 path pays off with the AVX2 tile; the baseline
          // variant's per-(pixel, channel) SSE2 dot runs as fast or faster
          // over the gather path's zero-padded 16-byte stride.
          p.kernel = Kernel::kConvPw;
        } else if (fast) {
          p.kernel = Kernel::kConvFast;
          p.scratch_bytes = kernels::conv2d_fast_scratch_bytes(p.conv);
        } else if (bits == 8) {
          p.kernel = Kernel::kConvIm2col;
          p.scratch_bytes = kernels::conv2d_scratch_bytes(p.conv);
        } else {
          p.kernel = Kernel::kConvS4;
        }
        break;
      }
      case OpType::kFullyConnected: {
        const TensorDef& w = model_.tensors[static_cast<size_t>(op.inputs[1])];
        p.fc_in = static_cast<int32_t>(w.shape.dim(1));
        p.fc_out = static_cast<int32_t>(w.shape.dim(0));
        if (in.elements() != p.fc_in)
          throw std::runtime_error("Interpreter: FC input size mismatch");
        p.rq = requant(in, w, out, op.act);
        p.kernel = fast ? Kernel::kFcFast
                   : bits == 8 ? Kernel::kFcS8 : Kernel::kFcS4;
        break;
      }
      case OpType::kAvgPool2D:
      case OpType::kMaxPool2D: {
        p.pool.in_h = static_cast<int32_t>(in.shape.dim(0));
        p.pool.in_w = static_cast<int32_t>(in.shape.dim(1));
        p.pool.ch = static_cast<int32_t>(in.shape.dim(2));
        p.pool.out_h = static_cast<int32_t>(out.shape.dim(0));
        p.pool.out_w = static_cast<int32_t>(out.shape.dim(1));
        p.pool.kh = op.kh;
        p.pool.kw = op.kw;
        p.pool.stride = op.stride;
        p.pool.pad_h = op.pad_h;
        p.pool.pad_w = op.pad_w;
        activation_range(op.act, out.qp, out.bits, &p.rq.act_min, &p.rq.act_max);
        if (op.type == OpType::kAvgPool2D)
          p.kernel = bits == 8 ? Kernel::kAvgPoolS8 : Kernel::kAvgPoolS4;
        else if (bits == 8)
          p.kernel = Kernel::kMaxPoolS8;
        else
          unsupported("int4 max pool unsupported");
        break;
      }
      case OpType::kAdd: {
        const TensorDef& a = in;
        const TensorDef& b = model_.tensors[static_cast<size_t>(op.inputs[1])];
        const double twice_max = 2.0 * std::max(a.qp.scale, b.qp.scale);
        p.add.a_zp = a.qp.zero_point;
        p.add.b_zp = b.qp.zero_point;
        p.add.out_zp = out.qp.zero_point;
        p.add.left_shift = 20;
        p.add.a_mult = quant::quantize_multiplier(a.qp.scale / twice_max);
        p.add.b_mult = quant::quantize_multiplier(b.qp.scale / twice_max);
        p.add.out_mult = quant::quantize_multiplier(
            twice_max / ((1 << p.add.left_shift) * static_cast<double>(out.qp.scale)));
        activation_range(op.act, out.qp, out.bits, &p.add.act_min, &p.add.act_max);
        if (bits == 8) p.kernel = Kernel::kAddS8;
        else unsupported("int4 add unsupported");
        break;
      }
      case OpType::kSoftmax:
        p.softmax_cols = static_cast<int32_t>(in.elements());
        p.softmax_scale = in.qp.scale;
        if (bits == 8) p.kernel = Kernel::kSoftmaxS8;
        else unsupported("int4 softmax unsupported");
        break;
      case OpType::kOpTypeCount:
        throw std::runtime_error("Interpreter: invalid op type");
    }
    if (!bits_ok) p.kernel = Kernel::kUnsupported;
  }
}

namespace {
std::span<const int8_t> as_s8(std::span<const uint8_t> b) {
  return {reinterpret_cast<const int8_t*>(b.data()), b.size()};
}
std::span<int8_t> as_s8(std::span<uint8_t> b) {
  return {reinterpret_cast<int8_t*>(b.data()), b.size()};
}
std::span<const int32_t> as_s32(std::span<const uint8_t> b) {
  return {reinterpret_cast<const int32_t*>(b.data()), b.size() / 4};
}
}  // namespace

void Interpreter::run_op(size_t i) {
  const PreparedOp& p = ops_[i];
  const bool fast = op_backend_[i] == kernels::BackendKind::kFast;
  obs::counter_add(fast ? obs::Counter::kBackendFastOps
                        : obs::Counter::kBackendReferenceOps,
                   1);
  // Fast-served ops get a nested span so traces show which backend executed
  // them; the reference path keeps its historical trace shape.
  std::optional<obs::SpanScope> backend_span;
  if (fast)
    backend_span.emplace("backend_fast", obs::Cat::kKernel, "op",
                         static_cast<int64_t>(i));
  const std::span<const uint8_t> in = bytes(p.in[0]);
  const std::span<const uint8_t> w = bytes(p.in[1]);
  const std::span<const int32_t> bias = as_s32(bytes(p.in[2]));
  const std::span<uint8_t> out = bytes(p.out);
  switch (p.kernel) {
    case Kernel::kConvPw:
      kernels::conv2d_s8_1x1_fast(as_s8(in), *packed_->per_op[i], bias,
                                  as_s8(out), p.conv, p.rq, isa_);
      break;
    case Kernel::kConvFast:
      kernels::conv2d_s8_fast(as_s8(in), *packed_->per_op[i], bias, as_s8(out),
                              scratch_, p.conv, p.rq, isa_);
      break;
    case Kernel::kConvIm2col:
      kernels::conv2d_s8_im2col(as_s8(in), as_s8(w), bias, as_s8(out), scratch_,
                                p.conv, p.rq);
      break;
    case Kernel::kConvS4:
      kernels::conv2d_s4(in, w, bias, out, p.conv, p.rq);
      break;
    case Kernel::kDwFast:
      kernels::depthwise_conv2d_s8_fast(as_s8(in), *packed_->per_op[i], bias,
                                        as_s8(out), p.conv, p.rq, isa_);
      break;
    case Kernel::kDwS8:
      kernels::depthwise_conv2d_s8(as_s8(in), as_s8(w), bias, as_s8(out),
                                   p.conv, p.rq);
      break;
    case Kernel::kDwS4:
      kernels::depthwise_conv2d_s4(in, w, bias, out, p.conv, p.rq);
      break;
    case Kernel::kFcFast:
      kernels::fully_connected_s8_fast(as_s8(in), *packed_->per_op[i], bias,
                                       as_s8(out), p.fc_in, p.fc_out, p.rq, isa_);
      break;
    case Kernel::kFcS8:
      kernels::fully_connected_s8(as_s8(in), as_s8(w), bias, as_s8(out),
                                  p.fc_in, p.fc_out, p.rq);
      break;
    case Kernel::kFcS4:
      kernels::fully_connected_s4(in, w, bias, out, p.fc_in, p.fc_out, p.rq);
      break;
    case Kernel::kAvgPoolS8:
      kernels::avg_pool_s8(as_s8(in), as_s8(out), p.pool, p.rq.act_min,
                           p.rq.act_max);
      break;
    case Kernel::kAvgPoolS4:
      kernels::avg_pool_s4(in, out, p.pool, p.rq.act_min, p.rq.act_max);
      break;
    case Kernel::kMaxPoolS8:
      kernels::max_pool_s8(as_s8(in), as_s8(out), p.pool, p.rq.act_min,
                           p.rq.act_max);
      break;
    case Kernel::kAddS8:
      kernels::add_s8(as_s8(in), as_s8(w), as_s8(out), p.add);
      break;
    case Kernel::kSoftmaxS8:
      kernels::softmax_s8(as_s8(in), as_s8(out), 1, p.softmax_cols,
                          p.softmax_scale);
      break;
    case Kernel::kUnsupported:
      break;
  }
}

Expected<TensorI8> Interpreter::try_invoke_quantized(const TensorI8& input) {
  const TensorDef& in_t = model_.tensors[static_cast<size_t>(model_.input_tensor)];
  if (input.size() != in_t.elements())
    return RtError{ErrorCode::kInputMismatch,
                   "Interpreter: input element count mismatch: got " +
                       std::to_string(input.size()) + ", model wants " +
                       std::to_string(in_t.elements())};
  if (verify_weights_crc_)
    if (auto err = check_weights()) return *err;
  if (unsupported_) return *unsupported_;
  if (panels_stale_) {
    packed_ = pack_model_weights(model_, backend_);
    panels_stale_ = false;
  }
  try {
    auto in_b = bytes(input_);
    if (in_t.bits == 8) {
      std::memcpy(in_b.data(), input.data(), static_cast<size_t>(input.size()));
    } else {
      for (int64_t i = 0; i < input.size(); ++i)
        kernels::store_s4(in_b, i, input[i]);
    }
    {
      obs::SpanScope invoke_span("invoke", obs::Cat::kRuntime, "ops",
                                 static_cast<int64_t>(model_.ops.size()));
      obs::counter_add(obs::Counter::kInterpreterInvokes, 1);
      obs::counter_add(obs::Counter::kInterpreterOps,
                       static_cast<int64_t>(model_.ops.size()));
      for (size_t i = 0; i < model_.ops.size(); ++i) {
        obs::SpanScope op_span(op_type_name(model_.ops[i].type),
                               obs::Cat::kKernel, "op",
                               static_cast<int64_t>(i), "macs", ops_[i].macs);
        if (profiling_) {
          const auto t0 = std::chrono::steady_clock::now();
          run_op(i);
          op_wall_ns_[i] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        } else {
          run_op(i);
        }
        // Per-op counter-track samples: the arena fill/drain curve (Fig. 2
        // over the trace timeline), scratch in use, the global MAC counter,
        // and — when a table was injected — the op's predicted energy.
        if (obs::tracing_enabled()) {
          obs::trace_counter("arena_bytes",
                             static_cast<double>(op_live_bytes_[i]));
          obs::trace_counter("scratch_bytes",
                             static_cast<double>(ops_[i].scratch_bytes));
          obs::trace_counter(
              "cumulative_macs",
              static_cast<double>(
                  obs::counter_value(obs::Counter::kKernelMacs)));
          if (!op_energy_uj_.empty())
            obs::trace_counter("op_energy_uj", op_energy_uj_[i]);
        }
      }
      if (profiling_) ++profiled_invocations_;
    }
    ++invocations_;
    if (auto err = check_canaries()) return *err;
    const TensorDef& out_t = model_.tensors[static_cast<size_t>(model_.output_tensor)];
    auto out_b = bytes(output_);
    TensorI8 out(out_t.shape);
    if (out_t.bits == 8) {
      std::memcpy(out.data(), out_b.data(), static_cast<size_t>(out.size()));
    } else {
      for (int64_t i = 0; i < out.size(); ++i) out[i] = kernels::load_s4(out_b, i);
    }
    return out;
  } catch (const std::exception& e) {
    // A kernel's own argument checks reject a malformed image.
    return RtError{ErrorCode::kUnsupportedOp, e.what()};
  }
}

Expected<TensorF> Interpreter::try_invoke(const TensorF& input_image) {
  for (int64_t i = 0; i < input_image.size(); ++i)
    if (!std::isfinite(input_image[i]))
      return RtError{ErrorCode::kNonFiniteInput,
                     "Interpreter: NaN/Inf in input at element " + std::to_string(i)};
  const TensorDef& in_t = model_.tensors[static_cast<size_t>(model_.input_tensor)];
  const TensorI8 q = quant::quantize(input_image, in_t.qp, in_t.bits);
  Expected<TensorI8> out_q = try_invoke_quantized(q);
  if (!out_q.ok()) return out_q.error();
  const TensorDef& out_t = model_.tensors[static_cast<size_t>(model_.output_tensor)];
  TensorF out = quant::dequantize(out_q.value(), out_t.qp);
  for (int64_t i = 0; i < out.size(); ++i)
    if (!std::isfinite(out[i]))
      return RtError{ErrorCode::kNonFiniteOutput,
                     "Interpreter: NaN/Inf in dequantized output at element " +
                         std::to_string(i)};
  return out;
}

TensorI8 Interpreter::invoke_quantized(const TensorI8& input) {
  return try_invoke_quantized(input).take_or_throw();
}

TensorF Interpreter::invoke(const TensorF& input_image) {
  return try_invoke(input_image).take_or_throw();
}

void Interpreter::set_profiling(bool on) { profiling_ = on; }

void Interpreter::reset_profile() {
  std::fill(op_wall_ns_.begin(), op_wall_ns_.end(), int64_t{0});
  profiled_invocations_ = 0;
}

ProfileReport Interpreter::profile_report() const {
  ProfileReport r;
  r.model_name = model_.name;
  r.invocations = profiled_invocations_;
  r.ops.resize(model_.ops.size());
  for (size_t i = 0; i < model_.ops.size(); ++i) {
    OpProfile& op = r.ops[i];
    op.op_index = static_cast<int>(i);
    op.type = model_.ops[i].type;
    op.output_name =
        model_.tensors[static_cast<size_t>(model_.ops[i].output)].name;
    op.backend = kernels::backend_name(op_backend_[i]);
    op.macs = ops_[i].macs;
    op.invocations = profiled_invocations_;
    op.wall_ns = op_wall_ns_[i];
  }
  return r;
}

MemoryReport Interpreter::memory_report() const {
  MemoryReport r;
  r.arena_bytes = plan_.arena_bytes;
  r.persistent_bytes = TflmOverheads::persistent_sram_bytes(model_);
  r.runtime_sram_bytes = TflmOverheads::kRuntimeSramBytes;
  r.weights_bytes = model_.weights_bytes();
  r.graph_def_bytes = model_.graph_def_bytes();
  r.code_flash_bytes = TflmOverheads::kCodeFlashBytes;
  return r;
}

}  // namespace mn::rt
