// Pluggable kernel backends (DESIGN.md §14).
//
// A Backend names one execution strategy for the integer kernels. Selection
// follows the TFLite-delegate claim-or-fall-back pattern: a requested backend
// *claims* the ops it can execute and everything else falls back to
// kReference per-op, so a model never fails to run because a backend lacks a
// kernel — it just runs that op on the reference path.
//
//   kReference — the single-strategy loops in kernels_s8/s4/opt.cpp. The
//     semantic ground truth: every other backend must match it byte-for-byte.
//   kFast — GEMM over weight panels packed once at model-load time (16-byte
//     row stride, zero-point correction sums; kernels_fast.cpp):
//       * 1x1 conv (stride 1, no padding) runs a direct pointwise kernel that
//         reads the input pixels in place — no gather, no scratch — over a
//         pixel range (the unit a banded dw->pw path can reuse); the
//         Interpreter picks it on the AVX2 variant only (see below);
//       * every other conv gathers a block of im2col columns and runs the
//         same pointwise kernel over the block;
//       * depthwise runs channel-vectorised over per-tap weight rows (SSE2
//         over 8 channels, exact int16 products, taps clamped once per
//         output pixel);
//       * FC dots each packed row against the input.
//     Every kernel leaves int32 dot sums in a row and hands the row to one
//     requant epilogue that adds the zero-point/bias initializer,
//     requantizes, clamps and narrows. Claims int8 conv2d, depthwise and
//     fully-connected with const weights and an int8 input zero point;
//     pool/add/softmax and all int4 ops fall back.
//
// Instruction-set variants (Isa). The pointwise kernel and the epilogue have
// an AVX2 variant: a register tile of 4 output channels x 3 pixels of
// vpmaddwd accumulators reduced once per tile, and a requant over 8 lanes
// with 64-bit vpmuldq products. kBaseline is the SSE2 path (x86-64's build
// baseline; scalar elsewhere) with the scalar epilogue, and stays as the
// fallback; its SSE2 dot runs faster over the gather path's zero-padded
// stride than over unpadded pixels in place, so on kBaseline the Interpreter
// runs 1x1 convs through conv2d_s8_fast. The Interpreter picks the variant
// once at construction from the CPU (host_isa()); there is no knob.
//
// The contract that makes a second backend safe at all: for every geometry,
// every Isa and every MN_THREADS, a claimed op's output is BYTE-IDENTICAL to
// the reference kernel's (tests/test_backends.cpp). Integer accumulation is
// order-free (no rounding), so tiling/SIMD reassociation cannot change
// results, and the vector requant reproduces
// quant::multiply_by_quantized_multiplier lane for lane — which is why
// golden vectors, resume equivalence and serving fingerprints carry over
// unchanged whichever backend and variant served the op.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/kernels.hpp"

namespace mn::kernels {

enum class BackendKind : uint8_t {
  kReference = 0,
  kFast,
};

// Stable lowercase names ("reference", "fast") used by obs output and bench
// JSON.
const char* backend_name(BackendKind k);

// Per-interpreter backend request. The default is the shipped configuration,
// kFast; BackendConfig::reference() names the oracle that differential
// tests, fig3 and the benchmarks compare against.
struct BackendConfig {
  BackendKind kind = BackendKind::kFast;

  static BackendConfig reference() { return {BackendKind::kReference}; }
  static BackendConfig fast() { return {BackendKind::kFast}; }
};

// Instruction-set variant of the fast kernels (see the header comment).
enum class Isa : uint8_t {
  kBaseline = 0,  // SSE2 on x86-64, scalar elsewhere
  kAvx2,
};

// "baseline" / "avx2".
const char* isa_name(Isa isa);
// True when this build has the variant and this CPU can run it.
bool isa_supported(Isa isa);
// The fastest supported variant (__builtin_cpu_supports): what an
// Interpreter records at construction.
Isa host_isa();

// --- packed weight panels (fast backend, built once at model load) ----------

// Row stride granule: SSE2 register width. Rows padded to a multiple of this
// never need a scalar tail when the right-hand side is also padded.
inline constexpr int64_t kPackAlign = 16;

// One conv/FC weight matrix repacked for the fast GEMM: `num_rows` rows
// (output channels / features) of `row_len` int8 values, each stored at a
// 16-byte-aligned stride with a zero tail, plus the per-row weight sums that
// fold the input zero point out of the inner loop:
//   sum((x - zp) * w) == sum(x * w) - zp * sum(w)
// (exact in integer arithmetic, so bit-exactness is preserved). Depthwise
// weights use the same layout with one row per kernel tap; the depthwise
// kernel subtracts the zero point per tap and leaves sum_w unused.
struct PackedOpWeights {
  std::vector<int8_t> rows;    // [num_rows][row_stride], tails zeroed
  std::vector<int32_t> sum_w;  // per-row sum of weights
  int64_t row_len = 0;
  int64_t row_stride = 0;      // row_len rounded up to kPackAlign
  int32_t num_rows = 0;

  int64_t bytes() const {
    return static_cast<int64_t>(rows.size() + 4 * sum_w.size());
  }
};

// Packs `num_rows` x `row_len` row-major int8 weights (conv: rows = out_ch,
// row_len = kh*kw*in_ch; depthwise: rows = kh*kw taps, row_len = ch;
// FC: rows = out_features, row_len = in_features).
PackedOpWeights pack_rows_s8(std::span<const int8_t> weights, int64_t num_rows,
                             int64_t row_len);

// --- fast-backend kernels ---------------------------------------------------
// Every entry point takes the Isa variant to run and throws
// std::invalid_argument for one isa_supported() rejects.

// The requant epilogue: for k < acc.size(),
//   out[k] = requantize(acc[k] - input_zp * sum_w[c0 + k] + bias[c0 + k])
// with wrapping adds, clamped to [act_min, act_max] and narrowed to int8
// (sum_w and bias may be empty: no such term). Bit-identical to
// RequantParams::requantize on every lane for every Isa; the multipliers and
// shifts are read from `rq` (per_channel, or mult broadcast).
void requant_row_s8(std::span<const int32_t> acc, int32_t c0,
                    std::span<const int32_t> sum_w,
                    std::span<const int32_t> bias, const RequantParams& rq,
                    std::span<int8_t> out, Isa isa);

// Output-pixel columns gathered per GEMM call (the cache block): each packed
// weight row is read once per block instead of once per pixel.
inline constexpr int32_t kConvPixelBlock = 8;

// Scratch for the blocked conv: kConvPixelBlock padded im2col columns.
int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g);

// Cache-blocked conv2d, bit-identical to conv2d_s8. `packed` must come from
// pack_rows_s8(weights, out_ch, kh*kw*in_ch); `scratch` must hold at least
// conv2d_fast_scratch_bytes(g) (the serial path; parallel chunks gather into
// their own blocks). Row-parallel with the same deterministic chunking as
// the reference kernels.
void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantParams& rq, Isa isa);

// True for the geometries conv2d_s8_1x1_fast runs: a 1x1 kernel at stride 1
// without padding, so output pixel p reads exactly input pixel p.
bool is_pointwise(const ConvGeometry& g);

// Direct 1x1 conv, bit-identical to conv2d_s8 for is_pointwise(g). Reads
// the input in place and needs no scratch; row-parallel with the reference
// kernels' chunking, each chunk one call of the pointwise kernel over its
// pixel range.
void conv2d_s8_1x1_fast(std::span<const int8_t> input,
                        const PackedOpWeights& packed,
                        std::span<const int32_t> bias, std::span<int8_t> output,
                        const ConvGeometry& g, const RequantParams& rq, Isa isa);

// Depthwise conv2d (multiplier 1), bit-identical to depthwise_conv2d_s8.
// `packed` must come from pack_rows_s8(weights, kh*kw, ch) and
// rq.input_zp must lie in [-128, 127]. Needs no scratch; row-parallel with
// the reference kernel's chunking.
void depthwise_conv2d_s8_fast(std::span<const int8_t> input,
                              const PackedOpWeights& packed,
                              std::span<const int32_t> bias,
                              std::span<int8_t> output, const ConvGeometry& g,
                              const RequantParams& rq, Isa isa);

// Fully connected on a packed panel, bit-identical to fully_connected_s8.
void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output, int32_t in_features,
                             int32_t out_features, const RequantParams& rq,
                             Isa isa);

}  // namespace mn::kernels
