// Integer inference kernels (CMSIS-NN analog): int8 and packed-int4 variants
// with fixed-point requantization. Kernels operate on single images (no batch
// dimension), NHWC layout, exactly like the TFLM/CMSIS-NN reference kernels.
//
// Each int8/int4 pair is one loop nest (kernels_ref.cpp) that unpacks int4
// nibbles as it loads and repacks them as it stores, around the same int32
// multiply-accumulate — the paper's custom CMSIS-NN extension (§5.1.3); the
// pack/unpack latency is modeled (as negligible) by mcu::, not here.
//
// Every kernel checks its spans against the geometry it is given and throws
// std::invalid_argument when one is too short. Kernels are pure compute: they
// count nothing. rt::Interpreter accounts for each op it runs (MACs, bytes,
// im2col churn) from its prepared record (DESIGN.md §10), so a direct kernel
// call moves no obs counter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "quant/quant.hpp"

namespace mn::kernels {

struct ConvGeometry {
  int32_t in_h = 0, in_w = 0, in_ch = 0;
  int32_t out_h = 0, out_w = 0, out_ch = 0;
  int32_t kh = 0, kw = 0;
  int32_t stride = 1;
  int32_t pad_h = 0, pad_w = 0;

  int64_t input_elements() const { return int64_t{in_h} * in_w * in_ch; }
  int64_t output_elements() const { return int64_t{out_h} * out_w * out_ch; }
  // Multiply-accumulates; 1 MAC = 2 ops per the paper's convention.
  int64_t macs(bool depthwise) const {
    const int64_t per_out = int64_t{kh} * kw * (depthwise ? 1 : in_ch);
    return output_elements() * per_out;
  }
};

struct RequantParams {
  int32_t input_zp = 0;   // input zero point (subtracted)
  int32_t output_zp = 0;  // output zero point (added)
  quant::FixedMultiplier mult;  // in_scale * w_scale / out_scale (per-tensor)
  // Per-output-channel multipliers (TFLite per-channel conv semantics);
  // when non-empty this overrides `mult`.
  std::vector<quant::FixedMultiplier> per_channel;
  int32_t act_min = -128;  // fused activation clamp, quantized domain
  int32_t act_max = 127;

  const quant::FixedMultiplier& channel_mult(int32_t oc) const {
    return per_channel.empty() ? mult : per_channel[static_cast<size_t>(oc)];
  }
  // requant(acc) + output_zp clamped to [lo, hi]. Clamping before adding
  // the zero point gives the same value and keeps a saturated multiplier
  // output from overflowing the add.
  int32_t requantize(int32_t acc, int32_t oc, int32_t lo, int32_t hi) const {
    return std::clamp(quant::multiply_by_quantized_multiplier(acc, channel_mult(oc)),
                      lo - output_zp, hi - output_zp) +
           output_zp;
  }
};

// a + b with two's-complement wrap-around, where int32 `+` would be UB.
inline int32_t wrap_add(int32_t a, int32_t b) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) + static_cast<uint32_t>(b));
}

// acc + bias[oc] (bias may be empty), wrapping. A loaded model's MAC sums and
// biases cannot overflow (ModelDef::check bounds them), but a flash fault can
// set a bias to any value after load; wrapping keeps every kernel defined and
// equal to the SIMD paths, which wrap natively.
inline int32_t add_bias(int32_t acc, std::span<const int32_t> bias, int32_t oc) {
  return bias.empty() ? acc : wrap_add(acc, bias[static_cast<size_t>(oc)]);
}

// Standard conv2d: weights [out_ch, kh, kw, in_ch], bias int32 (or empty).
void conv2d_s8(std::span<const int8_t> input, std::span<const int8_t> weights,
               std::span<const int32_t> bias, std::span<int8_t> output,
               const ConvGeometry& g, const RequantParams& rq);

// Depthwise conv2d (multiplier 1): weights [kh, kw, ch].
void depthwise_conv2d_s8(std::span<const int8_t> input,
                         std::span<const int8_t> weights,
                         std::span<const int32_t> bias, std::span<int8_t> output,
                         const ConvGeometry& g, const RequantParams& rq);

// Fully connected: weights [out, in].
void fully_connected_s8(std::span<const int8_t> input,
                        std::span<const int8_t> weights,
                        std::span<const int32_t> bias, std::span<int8_t> output,
                        int32_t in_features, int32_t out_features,
                        const RequantParams& rq);

struct PoolGeometry {
  int32_t in_h = 0, in_w = 0, ch = 0;
  int32_t out_h = 0, out_w = 0;
  int32_t kh = 0, kw = 0;
  int32_t stride = 1;
  int32_t pad_h = 0, pad_w = 0;
};

// Pooling: input and output share scale/zero-point (TFLite semantics).
void avg_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max);
void max_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max);

// Elementwise add with per-input rescaling (TFLite ADD semantics).
struct AddParams {
  int32_t a_zp = 0, b_zp = 0, out_zp = 0;
  int32_t left_shift = 20;
  quant::FixedMultiplier a_mult, b_mult, out_mult;
  int32_t act_min = -128, act_max = 127;
};
void add_s8(std::span<const int8_t> a, std::span<const int8_t> b,
            std::span<int8_t> output, const AddParams& p);

// Softmax over the final dim; output fixed at scale 1/256, zero point -128.
void softmax_s8(std::span<const int8_t> input, std::span<int8_t> output,
                int32_t rows, int32_t cols, float input_scale);

// Optimized conv2d: IM2COL into `scratch` (>= conv2d_scratch_bytes(g)), then
// GEMM-style dense dot products — the CMSIS-NN strategy. Bit-identical to
// conv2d_s8.
void conv2d_s8_im2col(std::span<const int8_t> input,
                      std::span<const int8_t> weights,
                      std::span<const int32_t> bias, std::span<int8_t> output,
                      std::span<int8_t> scratch, const ConvGeometry& g,
                      const RequantParams& rq);
int64_t conv2d_scratch_bytes(const ConvGeometry& g);

// --- Packed int4 variants ---------------------------------------------------
// Activations and weights are packed two nibbles per byte (see
// quant::pack_int4). Geometry counts are in *elements*, not bytes.

void conv2d_s4(std::span<const uint8_t> input, std::span<const uint8_t> weights,
               std::span<const int32_t> bias, std::span<uint8_t> output,
               const ConvGeometry& g, const RequantParams& rq);

void depthwise_conv2d_s4(std::span<const uint8_t> input,
                         std::span<const uint8_t> weights,
                         std::span<const int32_t> bias, std::span<uint8_t> output,
                         const ConvGeometry& g, const RequantParams& rq);

void fully_connected_s4(std::span<const uint8_t> input,
                        std::span<const uint8_t> weights,
                        std::span<const int32_t> bias, std::span<uint8_t> output,
                        int32_t in_features, int32_t out_features,
                        const RequantParams& rq);

void avg_pool_s4(std::span<const uint8_t> input, std::span<uint8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max);

// Packed-element accessors shared with the interpreter.
int8_t load_s4(std::span<const uint8_t> packed, int64_t index);
void store_s4(std::span<uint8_t> packed, int64_t index, int8_t value);

// Bytes needed to store n int4 elements.
inline int64_t packed_size_s4(int64_t n) { return (n + 1) / 2; }

}  // namespace mn::kernels
