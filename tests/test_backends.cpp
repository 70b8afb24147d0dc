// Kernel-backend suite (ctest label "backends"): the cross-backend
// differential contract. The fast backend (packed panels + cache-blocked
// SIMD GEMM) must produce BYTE-IDENTICAL outputs to the reference kernels
// over randomized conv/depthwise/FC geometries — odd sizes, stride 2,
// symmetric and asymmetric padding, per-channel requant, channel counts that
// are not multiples of the pack/tile width — and at MN_THREADS 1/2/8. Plus:
// the fixed shipped defaults, panel-packing invariants, a seeded
// >=500-case geometry fuzzer cross-checking ConvGeometry::macs() against a
// per-output-pixel counting oracle, an asymmetric-padding golden vector
// computed by an independent naive loop, and the interpreter/pool-facing
// claim-or-fall-back behavior, including faults landing on executed bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"
#include "serve/serve.hpp"
#include "models/backbones.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

using namespace mn;

namespace {

kernels::ConvGeometry make_geom(int32_t in_h, int32_t in_w, int32_t in_ch,
                                int32_t out_ch, int32_t kh, int32_t kw,
                                int32_t stride, int32_t pad_h, int32_t pad_w) {
  kernels::ConvGeometry g;
  g.in_h = in_h;
  g.in_w = in_w;
  g.in_ch = in_ch;
  g.out_ch = out_ch;
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad_h = pad_h;
  g.pad_w = pad_w;
  g.out_h = (in_h + 2 * pad_h - kh) / stride + 1;
  g.out_w = (in_w + 2 * pad_w - kw) / stride + 1;
  return g;
}

kernels::RequantParams random_rq(Rng& rng, int32_t out_ch, bool per_channel) {
  kernels::RequantParams rq;
  rq.input_zp = static_cast<int32_t>(rng.uniform_int(-20, 20));
  rq.output_zp = static_cast<int32_t>(rng.uniform_int(-20, 20));
  if (per_channel) {
    for (int32_t oc = 0; oc < out_ch; ++oc)
      rq.per_channel.push_back(
          quant::quantize_multiplier(0.002 + 0.01 * rng.uniform()));
    // One deliberately different channel so a kernel that applies channel
    // 0's multiplier everywhere cannot pass by luck.
    rq.per_channel.back() = quant::quantize_multiplier(0.05);
  } else {
    rq.mult = quant::quantize_multiplier(0.002 + 0.01 * rng.uniform());
  }
  rq.act_min = -128;
  rq.act_max = 127;
  if (rng.uniform() < 0.5) rq.act_min = rq.output_zp;  // fused relu
  return rq;
}

std::vector<int8_t> random_s8(Rng& rng, int64_t n) {
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int8_t>(rng.uniform_int(-127, 127));
  return v;
}

// Every Isa variant this host runs: the baseline always, AVX2 when the CPU
// has it (tests that need AVX2 itself skip with the reason).
std::vector<kernels::Isa> host_isas() {
  std::vector<kernels::Isa> isas{kernels::Isa::kBaseline};
  if (kernels::isa_supported(kernels::Isa::kAvx2))
    isas.push_back(kernels::Isa::kAvx2);
  return isas;
}

std::vector<int32_t> random_bias(Rng& rng, int64_t n) {
  std::vector<int32_t> v(static_cast<size_t>(n));
  for (auto& b : v) b = static_cast<int32_t>(rng.uniform_int(-8192, 8192));
  return v;
}

// Runs conv2d_s8 (ground truth), conv2d_s8_im2col, and conv2d_s8_fast (and
// conv2d_s8_1x1_fast on pointwise geometries) in every Isa variant on the
// same inputs and asserts all agree on every byte.
void check_conv_all_backends(const kernels::ConvGeometry& g,
                             const kernels::RequantParams& rq, Rng& rng,
                             bool with_bias) {
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  std::vector<int32_t> bias;
  if (with_bias) bias = random_bias(rng, g.out_ch);
  std::vector<int8_t> y_ref(static_cast<size_t>(g.output_elements()));
  std::vector<int8_t> y_im2col(y_ref.size());
  kernels::conv2d_s8(x, w, bias, y_ref, g, rq);
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_scratch_bytes(g)));
  kernels::conv2d_s8_im2col(x, w, bias, y_im2col, scratch, g, rq);
  ASSERT_EQ(y_im2col, y_ref) << "im2col diverged from reference";
  const kernels::PackedOpWeights packed = kernels::pack_rows_s8(
      w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch);
  std::vector<int8_t> fast_scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  for (const kernels::Isa isa : host_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    std::vector<int8_t> y_fast(y_ref.size());
    kernels::conv2d_s8_fast(x, packed, bias, y_fast, fast_scratch, g, rq, isa);
    ASSERT_EQ(y_fast, y_ref) << "fast backend diverged from reference";
    if (!kernels::is_pointwise(g)) continue;
    std::vector<int8_t> y_pw(y_ref.size());
    kernels::conv2d_s8_1x1_fast(x, packed, bias, y_pw, g, rq, isa);
    ASSERT_EQ(y_pw, y_ref) << "direct 1x1 diverged from reference";
  }
}

}  // namespace

// --- registry ----------------------------------------------------------------

TEST(BackendRegistry, NamesRoundTrip) {
  EXPECT_STREQ(kernels::backend_name(kernels::BackendKind::kReference),
               "reference");
  EXPECT_STREQ(kernels::backend_name(kernels::BackendKind::kFast), "fast");
  EXPECT_EQ(kernels::BackendConfig::reference().kind,
            kernels::BackendKind::kReference);
  EXPECT_EQ(kernels::BackendConfig::fast().kind, kernels::BackendKind::kFast);
}

// --- panel packing -----------------------------------------------------------

TEST(BackendPacking, RowsPadToAlignWithZeroTailsAndSums) {
  Rng rng(7);
  const int64_t rows = 5, row_len = 19;  // deliberately not a multiple of 16
  const auto w = random_s8(rng, rows * row_len);
  const kernels::PackedOpWeights p = kernels::pack_rows_s8(w, rows, row_len);
  EXPECT_EQ(p.num_rows, rows);
  EXPECT_EQ(p.row_len, row_len);
  EXPECT_EQ(p.row_stride, 32);  // 19 rounded up to kPackAlign
  EXPECT_EQ(p.row_stride % kernels::kPackAlign, 0);
  ASSERT_EQ(static_cast<int64_t>(p.rows.size()), rows * p.row_stride);
  for (int64_t r = 0; r < rows; ++r) {
    int32_t sum = 0;
    for (int64_t k = 0; k < row_len; ++k) {
      EXPECT_EQ(p.rows[static_cast<size_t>(r * p.row_stride + k)],
                w[static_cast<size_t>(r * row_len + k)]);
      sum += w[static_cast<size_t>(r * row_len + k)];
    }
    EXPECT_EQ(p.sum_w[static_cast<size_t>(r)], sum);
    for (int64_t k = row_len; k < p.row_stride; ++k)
      EXPECT_EQ(p.rows[static_cast<size_t>(r * p.row_stride + k)], 0)
          << "tail byte not zeroed";
  }
  EXPECT_EQ(p.bytes(),
            static_cast<int64_t>(p.rows.size()) + 4 * rows);
}

TEST(BackendPacking, AlignedRowLenGetsNoPadding) {
  Rng rng(8);
  const auto w = random_s8(rng, 3 * 32);
  const kernels::PackedOpWeights p = kernels::pack_rows_s8(w, 3, 32);
  EXPECT_EQ(p.row_stride, 32);
}

// --- differential sweeps -----------------------------------------------------

TEST(BackendDifferential, ConvGeometrySweep) {
  // Odd sizes, stride 2, no/symmetric/asymmetric padding, 1x1 pointwise,
  // non-square kernels, channel counts straddling the 16-byte pack width and
  // the 8-pixel block width (out_w 5, 7, 8, 9, 13).
  const struct {
    int32_t in_h, in_w, in_ch, out_ch, kh, kw, stride, pad_h, pad_w;
  } cases[] = {
      {7, 7, 3, 5, 3, 3, 1, 1, 1},     {9, 13, 8, 16, 3, 3, 2, 1, 1},
      {8, 8, 16, 16, 1, 1, 1, 0, 0},   {11, 5, 17, 9, 3, 3, 1, 1, 1},
      {10, 10, 4, 12, 5, 5, 2, 2, 2},  {12, 9, 6, 10, 3, 5, 1, 1, 2},
      {25, 5, 64, 64, 3, 3, 1, 1, 1},  {13, 13, 1, 8, 7, 7, 2, 3, 3},
      {49, 10, 1, 8, 10, 4, 2, 4, 1},  {6, 21, 2, 3, 3, 1, 1, 1, 0},
  };
  uint64_t seed = 100;
  for (const auto& c : cases) {
    for (const bool per_channel : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "in " << c.in_h << "x" << c.in_w << "x" << c.in_ch
                   << " k " << c.kh << "x" << c.kw << " stride " << c.stride
                   << " pad " << c.pad_h << "/" << c.pad_w << " out_ch "
                   << c.out_ch << " per_channel " << per_channel);
      Rng rng(seed++);
      const auto g = make_geom(c.in_h, c.in_w, c.in_ch, c.out_ch, c.kh, c.kw,
                               c.stride, c.pad_h, c.pad_w);
      const auto rq = random_rq(rng, g.out_ch, per_channel);
      check_conv_all_backends(g, rq, rng, /*with_bias=*/per_channel);
    }
  }
}

TEST(BackendDifferential, RandomizedConvFuzz) {
  Rng meta(42);
  for (int it = 0; it < 60; ++it) {
    kernels::ConvGeometry g = make_geom(
        static_cast<int32_t>(meta.uniform_int(3, 18)),
        static_cast<int32_t>(meta.uniform_int(3, 18)),
        static_cast<int32_t>(meta.uniform_int(1, 24)),
        static_cast<int32_t>(meta.uniform_int(1, 24)),
        static_cast<int32_t>(meta.uniform_int(1, 5)),
        static_cast<int32_t>(meta.uniform_int(1, 5)),
        static_cast<int32_t>(meta.uniform_int(1, 2)),
        static_cast<int32_t>(meta.uniform_int(0, 3)),
        static_cast<int32_t>(meta.uniform_int(0, 3)));
    if (g.kh > g.in_h + 2 * g.pad_h || g.kw > g.in_w + 2 * g.pad_w) continue;
    if (g.out_h < 1 || g.out_w < 1) continue;
    SCOPED_TRACE(testing::Message() << "fuzz case " << it);
    Rng rng(static_cast<uint64_t>(1000 + it));
    const auto rq = random_rq(rng, g.out_ch, it % 3 == 0);
    check_conv_all_backends(g, rq, rng, /*with_bias=*/it % 2 == 0);
  }
}

TEST(BackendDifferential, FullyConnectedSweep) {
  // in_features straddling the 16-wide SIMD chunk (scalar tail coverage).
  const struct {
    int32_t in_f, out_f;
  } cases[] = {{1, 1}, {15, 3}, {16, 8}, {17, 5}, {130, 9}, {256, 64}};
  uint64_t seed = 500;
  for (const auto& c : cases) {
    for (const bool per_channel : {false, true}) {
      SCOPED_TRACE(testing::Message() << "fc " << c.in_f << "->" << c.out_f
                                      << " per_channel " << per_channel);
      Rng rng(seed++);
      const auto rq = random_rq(rng, c.out_f, per_channel);
      const auto x = random_s8(rng, c.in_f);
      const auto w = random_s8(rng, int64_t{c.in_f} * c.out_f);
      const auto bias = random_bias(rng, c.out_f);
      std::vector<int8_t> y_ref(static_cast<size_t>(c.out_f));
      std::vector<int8_t> y_fast(y_ref.size());
      kernels::fully_connected_s8(x, w, bias, y_ref, c.in_f, c.out_f, rq);
      const auto packed = kernels::pack_rows_s8(w, c.out_f, c.in_f);
      for (const kernels::Isa isa : host_isas()) {
        kernels::fully_connected_s8_fast(x, packed, bias, y_fast, c.in_f,
                                         c.out_f, rq, isa);
        ASSERT_EQ(y_fast, y_ref) << kernels::isa_name(isa);
      }
    }
  }
}

// >= 500 seeded depthwise geometries: stride 1-3, pad 0-3, kernels 1-5,
// channel counts on both sides of the 8-lane SIMD width, the full int8
// range of input zero points (|x - zp| reaches 255, the int16 lane's
// limit), per-tensor and per-channel requant, bias or none, and random
// activation clamps. The fast kernel must match the reference on every byte.
TEST(BackendDifferential, FastDepthwiseMatchesReference) {
  Rng meta(20261017);
  int checked = 0;
  while (checked < 500) {
    const auto in_h = static_cast<int32_t>(meta.uniform_int(1, 12));
    const auto in_w = static_cast<int32_t>(meta.uniform_int(1, 12));
    const auto ch = static_cast<int32_t>(meta.uniform_int(1, 40));
    const auto dw = make_geom(in_h, in_w, ch, ch,
                              static_cast<int32_t>(meta.uniform_int(1, 5)),
                              static_cast<int32_t>(meta.uniform_int(1, 5)),
                              static_cast<int32_t>(meta.uniform_int(1, 3)),
                              static_cast<int32_t>(meta.uniform_int(0, 3)),
                              static_cast<int32_t>(meta.uniform_int(0, 3)));
    if (dw.kh > dw.in_h + 2 * dw.pad_h || dw.kw > dw.in_w + 2 * dw.pad_w)
      continue;
    SCOPED_TRACE(testing::Message()
                 << "case " << checked << ": in " << dw.in_h << "x" << dw.in_w
                 << "x" << dw.in_ch << " k " << dw.kh << "x" << dw.kw
                 << " stride " << dw.stride << " pad " << dw.pad_h << "/"
                 << dw.pad_w);
    Rng rng(static_cast<uint64_t>(5000 + checked));
    kernels::RequantParams rq = random_rq(rng, dw.in_ch, checked % 2 == 0);
    rq.input_zp = static_cast<int32_t>(rng.uniform_int(-128, 127));
    const int32_t lo = static_cast<int32_t>(rng.uniform_int(-128, 127));
    const int32_t hi = static_cast<int32_t>(rng.uniform_int(-128, 127));
    rq.act_min = std::min(lo, hi);
    rq.act_max = std::max(lo, hi);
    std::vector<int8_t> x(static_cast<size_t>(dw.input_elements()));
    for (auto& v : x) v = static_cast<int8_t>(rng.uniform_int(-128, 127));
    std::vector<int8_t> w(static_cast<size_t>(int64_t{dw.kh} * dw.kw * dw.in_ch));
    for (auto& v : w) v = static_cast<int8_t>(rng.uniform_int(-128, 127));
    std::vector<int32_t> bias;
    if (checked % 3 != 0) bias = random_bias(rng, dw.in_ch);
    std::vector<int8_t> y_ref(static_cast<size_t>(dw.output_elements()));
    std::vector<int8_t> y_fast(y_ref.size());
    kernels::depthwise_conv2d_s8(x, w, bias, y_ref, dw, rq);
    const auto packed =
        kernels::pack_rows_s8(w, int64_t{dw.kh} * dw.kw, dw.in_ch);
    for (const kernels::Isa isa : host_isas()) {
      kernels::depthwise_conv2d_s8_fast(x, packed, bias, y_fast, dw, rq, isa);
      ASSERT_EQ(y_fast, y_ref) << "fast depthwise diverged from reference ("
                               << kernels::isa_name(isa) << ")";
    }
    ++checked;
  }
}

// --- instruction-set variants -----------------------------------------------

namespace {

// Bias modes the variant sweeps rotate through: none, random, and extreme
// values whose adds wrap.
std::vector<int32_t> sweep_bias(Rng& rng, int32_t n, int mode) {
  if (mode == 0) return {};
  if (mode == 1) return random_bias(rng, n);
  std::vector<int32_t> b(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i)
    b[static_cast<size_t>(i)] = i % 2 == 0 ? std::numeric_limits<int32_t>::max()
                                           : std::numeric_limits<int32_t>::min();
  return b;
}

std::vector<int8_t> full_range_s8(Rng& rng, int64_t n) {
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int8_t>(rng.uniform_int(-128, 127));
  return v;
}

}  // namespace

// The direct 1x1 kernel and the gather conv, in every variant, against
// conv2d_s8: K on both sides of the 16-byte step and its tail, out_ch on
// both sides of the 4-channel tile and the 8-lane epilogue, pixel counts
// (25, 7, 2, 4) that leave 1 or 2 pixels past the last 3-pixel tile,
// per-tensor and per-channel scales, no/random/extreme bias, input zero
// points at both int8 ends, at 1, 2 and 8 threads.
TEST(BackendIsa, PointwiseMatchesReferenceInEveryVariant) {
  const int32_t ks[] = {1, 8, 15, 16, 17, 132, 152};
  const int32_t ns[] = {1, 3, 4, 5, 8, 9, 132};
  const struct {
    int32_t h, w;
  } grids[] = {{5, 5}, {1, 7}, {2, 1}, {4, 1}};
  int combo = 0;
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    for (const int32_t k : ks) {
      for (const int32_t n : ns) {
        const auto grid = grids[combo % 4];
        const auto g = make_geom(grid.h, grid.w, k, n, 1, 1, 1, 0, 0);
        ASSERT_TRUE(kernels::is_pointwise(g));
        SCOPED_TRACE(testing::Message() << "K " << k << " out_ch " << n
                                        << " pixels " << grid.h * grid.w
                                        << " threads " << threads);
        Rng rng(static_cast<uint64_t>(7000 + combo));
        kernels::RequantParams rq = random_rq(rng, n, combo % 2 == 0);
        rq.input_zp = combo % 3 == 0   ? -128
                      : combo % 3 == 1 ? 127
                                       : static_cast<int32_t>(rng.uniform_int(-128, 127));
        const auto x = full_range_s8(rng, g.input_elements());
        const auto w = full_range_s8(rng, int64_t{n} * k);
        const auto bias = sweep_bias(rng, n, combo % 3);
        std::vector<int8_t> y_ref(static_cast<size_t>(g.output_elements()));
        kernels::conv2d_s8(x, w, bias, y_ref, g, rq);
        const auto packed = kernels::pack_rows_s8(w, n, k);
        std::vector<int8_t> scratch(
            static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
        for (const kernels::Isa isa : host_isas()) {
          SCOPED_TRACE(kernels::isa_name(isa));
          std::vector<int8_t> y(y_ref.size());
          kernels::conv2d_s8_1x1_fast(x, packed, bias, y, g, rq, isa);
          ASSERT_EQ(y, y_ref) << "direct 1x1";
          std::fill(y.begin(), y.end(), int8_t{0});
          kernels::conv2d_s8_fast(x, packed, bias, y, scratch, g, rq, isa);
          ASSERT_EQ(y, y_ref) << "gather conv";
        }
        ++combo;
      }
    }
  }
  parallel::set_threads(0);
}

// Depthwise at KWS widths (the epilogue's 8-lane groups, its scalar tail and
// the 64-channel row), stride 1 and 2, in every variant.
TEST(BackendIsa, DepthwiseMatchesReferenceInEveryVariant) {
  int combo = 0;
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    for (const int32_t ch : {1, 8, 9, 15, 17, 64, 65, 132, 152}) {
      for (const int32_t stride : {1, 2}) {
        const auto g = make_geom(7, 5, ch, ch, 3, 3, stride, 1, 1);
        SCOPED_TRACE(testing::Message() << "ch " << ch << " stride " << stride
                                        << " threads " << threads);
        Rng rng(static_cast<uint64_t>(8000 + combo));
        kernels::RequantParams rq = random_rq(rng, ch, combo % 2 == 0);
        rq.input_zp = combo % 3 == 0 ? -128 : combo % 3 == 1 ? 127 : 0;
        const auto x = full_range_s8(rng, g.input_elements());
        const auto w = full_range_s8(rng, int64_t{g.kh} * g.kw * ch);
        const auto bias = sweep_bias(rng, ch, combo % 3);
        std::vector<int8_t> y_ref(static_cast<size_t>(g.output_elements()));
        kernels::depthwise_conv2d_s8(x, w, bias, y_ref, g, rq);
        const auto packed = kernels::pack_rows_s8(w, int64_t{g.kh} * g.kw, ch);
        for (const kernels::Isa isa : host_isas()) {
          std::vector<int8_t> y(y_ref.size());
          kernels::depthwise_conv2d_s8_fast(x, packed, bias, y, g, rq, isa);
          ASSERT_EQ(y, y_ref) << kernels::isa_name(isa);
        }
        ++combo;
      }
    }
  }
  parallel::set_threads(0);
}

// The AVX2 requant against RequantParams::requantize lane by lane: random
// accumulators (INT32_MIN/MAX included), multipliers (INT32_MIN included),
// shifts over [-63, 63], zero points and clamps, with and without the
// sum_w/bias initializer. Half the lanes aim their product at the int8
// window so a wrong rounding or shift cannot hide behind the clamp, and
// power-of-two multipliers hit the high multiply's rounding ties.
TEST(BackendIsa, VectorRequantMatchesScalarLaneForLane) {
  if (!kernels::isa_supported(kernels::Isa::kAvx2))
    GTEST_SKIP() << "this CPU has no AVX2: the vector requant cannot run here";
  constexpr int32_t kLanes = 4096;
  Rng rng(20261019);
  auto any_i32 = [&] {
    const int64_t r = rng.uniform_int(0, 15);
    if (r == 0) return std::numeric_limits<int32_t>::min();
    if (r == 1) return std::numeric_limits<int32_t>::max();
    return static_cast<int32_t>(rng.uniform_int(std::numeric_limits<int32_t>::min(),
                                                 std::numeric_limits<int32_t>::max()));
  };
  int64_t checked = 0;
  for (int row = 0; row < 256; ++row) {
    kernels::RequantParams rq;
    rq.input_zp = static_cast<int32_t>(rng.uniform_int(-128, 127));
    rq.output_zp = static_cast<int32_t>(rng.uniform_int(-128, 127));
    const int32_t lo = static_cast<int32_t>(rng.uniform_int(-128, 127));
    const int32_t hi = static_cast<int32_t>(rng.uniform_int(-128, 127));
    rq.act_min = std::min(lo, hi);
    rq.act_max = std::max(lo, hi);
    std::vector<int32_t> acc(kLanes), sum_w, bias;
    for (int32_t c = 0; c < kLanes; ++c) {
      quant::FixedMultiplier m{any_i32(), static_cast<int>(rng.uniform_int(-63, 63))};
      acc[static_cast<size_t>(c)] = any_i32();
      if (c % 8 == 1) {
        // Power-of-two multipliers put odd accumulators exactly on the
        // rounding tie of the high multiply.
        const int32_t ties[] = {1 << 30, -(1 << 30), 1 << 29, 3 << 28, 1 << 16};
        m.multiplier = ties[rng.uniform_int(0, 4)];
      }
      if (c % 2 == 0 && m.multiplier != 0) {
        // Aim at the window: acc * m / 2^(31 - shift) ~ t.
        m.shift = static_cast<int>(rng.uniform_int(-40, 0));
        const double t = static_cast<double>(rng.uniform_int(-300, 300));
        const double a = t * std::ldexp(1.0, 31 - m.shift) / m.multiplier;
        if (std::abs(a) < 2147483647.0) acc[static_cast<size_t>(c)] = static_cast<int32_t>(a);
      }
      rq.per_channel.push_back(m);
    }
    if (row % 4 == 1) {
      rq.mult = rq.per_channel[0];
      rq.per_channel.clear();
    }
    if (row % 2 == 0) {
      for (int32_t c = 0; c < kLanes; ++c) {
        sum_w.push_back(static_cast<int32_t>(rng.uniform_int(-40000, 40000)));
        bias.push_back(row % 8 == 0 ? any_i32()
                                    : static_cast<int32_t>(rng.uniform_int(-8192, 8192)));
      }
    }
    std::vector<int8_t> want(kLanes), got(kLanes), baseline(kLanes);
    for (int32_t c = 0; c < kLanes; ++c) {
      int32_t v = acc[static_cast<size_t>(c)];
      if (!sum_w.empty())
        v = kernels::wrap_add(
            v, static_cast<int32_t>(static_cast<uint32_t>(-rq.input_zp) *
                                    static_cast<uint32_t>(sum_w[static_cast<size_t>(c)])));
      v = kernels::add_bias(v, bias, c);
      want[static_cast<size_t>(c)] =
          static_cast<int8_t>(rq.requantize(v, c, rq.act_min, rq.act_max));
    }
    kernels::requant_row_s8(acc, 0, sum_w, bias, rq, got, kernels::Isa::kAvx2);
    kernels::requant_row_s8(acc, 0, sum_w, bias, rq, baseline,
                            kernels::Isa::kBaseline);
    for (int32_t c = 0; c < kLanes; ++c) {
      ASSERT_EQ(got[static_cast<size_t>(c)], want[static_cast<size_t>(c)])
          << "row " << row << " lane " << c << " acc " << acc[static_cast<size_t>(c)]
          << " mult " << rq.channel_mult(c).multiplier << " shift "
          << rq.channel_mult(c).shift;
      ASSERT_EQ(baseline[static_cast<size_t>(c)], want[static_cast<size_t>(c)]);
    }
    checked += kLanes;
  }
  EXPECT_EQ(checked, 256 * kLanes);
}

// --- asymmetric-padding golden vector ---------------------------------------

// Independent per-output-pixel oracle: the naive direct convolution written
// from the definition, sharing no code with kernels_ref/opt/fast. Guards the
// pad_h != pad_w regression the im2col family is prone to (transposed pads).
TEST(BackendGolden, AsymmetricPaddingOracle) {
  const auto g = make_geom(5, 4, 3, 4, 3, 3, 1, 2, 1);  // pad_h=2, pad_w=1
  Rng rng(11);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  const auto bias = random_bias(rng, g.out_ch);
  kernels::RequantParams rq = random_rq(rng, g.out_ch, true);

  std::vector<int8_t> oracle(static_cast<size_t>(g.output_elements()));
  for (int32_t oy = 0; oy < g.out_h; ++oy)
    for (int32_t ox = 0; ox < g.out_w; ++ox)
      for (int32_t oc = 0; oc < g.out_ch; ++oc) {
        int32_t acc = bias[static_cast<size_t>(oc)];
        for (int32_t ky = 0; ky < g.kh; ++ky)
          for (int32_t kx = 0; kx < g.kw; ++kx)
            for (int32_t c = 0; c < g.in_ch; ++c) {
              const int32_t iy = oy * g.stride - g.pad_h + ky;
              const int32_t ix = ox * g.stride - g.pad_w + kx;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
              const int32_t xv =
                  x[static_cast<size_t>((int64_t{iy} * g.in_w + ix) * g.in_ch + c)];
              const int32_t wv = w[static_cast<size_t>(
                  ((int64_t{oc} * g.kh + ky) * g.kw + kx) * g.in_ch + c)];
              acc += (xv - rq.input_zp) * wv;
            }
        int32_t v = quant::multiply_by_quantized_multiplier(
                        acc, rq.channel_mult(oc)) +
                    rq.output_zp;
        v = std::clamp(v, rq.act_min, rq.act_max);
        oracle[static_cast<size_t>((int64_t{oy} * g.out_w + ox) * g.out_ch +
                                   oc)] = static_cast<int8_t>(v);
      }

  std::vector<int8_t> y(oracle.size());
  kernels::conv2d_s8(x, w, bias, y, g, rq);
  EXPECT_EQ(y, oracle) << "reference conv disagrees with the naive oracle";
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_scratch_bytes(g)));
  std::fill(y.begin(), y.end(), int8_t{0});
  kernels::conv2d_s8_im2col(x, w, bias, y, scratch, g, rq);
  EXPECT_EQ(y, oracle) << "im2col conv disagrees with the naive oracle";
  const auto packed = kernels::pack_rows_s8(
      w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch);
  std::vector<int8_t> fast_scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  for (const kernels::Isa isa : host_isas()) {
    std::fill(y.begin(), y.end(), int8_t{0});
    kernels::conv2d_s8_fast(x, packed, bias, y, fast_scratch, g, rq, isa);
    EXPECT_EQ(y, oracle) << "fast conv disagrees with the naive oracle ("
                         << kernels::isa_name(isa) << ")";
  }
}

// --- geometry fuzzer ---------------------------------------------------------

TEST(BackendGeometryFuzz, MacsMatchPerPixelCountingOracle) {
  // >= 500 seeded random geometries: macs() must equal the count produced by
  // walking every output pixel and summing its kernel taps — the oracle a
  // tile-boundary over/under-compute in a blocked kernel would disagree
  // with. Also pins the out_h/out_w closed form to the walk.
  Rng rng(20260808);
  int checked = 0;
  while (checked < 500) {
    kernels::ConvGeometry g;
    g.in_h = static_cast<int32_t>(rng.uniform_int(1, 40));
    g.in_w = static_cast<int32_t>(rng.uniform_int(1, 40));
    g.in_ch = static_cast<int32_t>(rng.uniform_int(1, 64));
    g.out_ch = static_cast<int32_t>(rng.uniform_int(1, 64));
    g.kh = static_cast<int32_t>(rng.uniform_int(1, 7));
    g.kw = static_cast<int32_t>(rng.uniform_int(1, 7));
    g.stride = static_cast<int32_t>(rng.uniform_int(1, 3));
    g.pad_h = static_cast<int32_t>(rng.uniform_int(0, 4));
    g.pad_w = static_cast<int32_t>(rng.uniform_int(0, 4));
    if (g.in_h + 2 * g.pad_h < g.kh || g.in_w + 2 * g.pad_w < g.kw) continue;
    g.out_h = (g.in_h + 2 * g.pad_h - g.kh) / g.stride + 1;
    g.out_w = (g.in_w + 2 * g.pad_w - g.kw) / g.stride + 1;
    ASSERT_GE(g.out_h, 1);
    ASSERT_GE(g.out_w, 1);
    int64_t oracle_conv = 0, oracle_dw = 0, pixels = 0;
    for (int32_t oy = 0; oy < g.out_h; ++oy) {
      // When padding is smaller than the kernel (the only case real layers
      // use), every window overlaps the input; with pad >= kernel the closed
      // form legitimately emits all-padding windows, so don't assert there.
      if (g.pad_h < g.kh) {
        ASSERT_LT(oy * g.stride - g.pad_h, g.in_h);
      }
      for (int32_t ox = 0; ox < g.out_w; ++ox) {
        if (g.pad_w < g.kw) {
          ASSERT_LT(ox * g.stride - g.pad_w, g.in_w);
        }
        ++pixels;
        oracle_conv += int64_t{g.out_ch} * g.kh * g.kw * g.in_ch;
        oracle_dw += int64_t{g.in_ch} * g.kh * g.kw;
      }
    }
    EXPECT_EQ(g.macs(false), oracle_conv);
    g.out_ch = g.in_ch;  // depthwise convention: out_ch == in_ch
    EXPECT_EQ(g.macs(true), oracle_dw);
    EXPECT_EQ(pixels, int64_t{g.out_h} * g.out_w);
    ++checked;
  }
  EXPECT_GE(checked, 500);
}

// --- thread invariance -------------------------------------------------------

TEST(BackendThreads, FastConvBitIdenticalAcrossThreadCounts) {
  const auto g = make_geom(23, 9, 13, 21, 3, 3, 1, 1, 2);
  Rng rng(55);
  const auto rq = random_rq(rng, g.out_ch, true);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  const auto bias = random_bias(rng, g.out_ch);
  const auto packed = kernels::pack_rows_s8(
      w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch);
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  std::vector<int8_t> baseline;
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    for (const kernels::Isa isa : host_isas()) {
      std::vector<int8_t> y(static_cast<size_t>(g.output_elements()));
      kernels::conv2d_s8_fast(x, packed, bias, y, scratch, g, rq, isa);
      if (baseline.empty())
        baseline = y;
      else
        EXPECT_EQ(y, baseline) << "fast conv output moved at " << threads
                               << " threads (" << kernels::isa_name(isa) << ")";
    }
  }
  parallel::set_threads(0);
}

TEST(BackendThreads, FastDepthwiseBitIdenticalAcrossThreadCounts) {
  const auto g = make_geom(25, 5, 36, 36, 3, 3, 1, 1, 1);
  Rng rng(56);
  const auto rq = random_rq(rng, g.out_ch, true);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.kh} * g.kw * g.in_ch);
  const auto bias = random_bias(rng, g.out_ch);
  const auto packed = kernels::pack_rows_s8(w, int64_t{g.kh} * g.kw, g.in_ch);
  std::vector<int8_t> baseline;
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    for (const kernels::Isa isa : host_isas()) {
      std::vector<int8_t> y(static_cast<size_t>(g.output_elements()));
      kernels::depthwise_conv2d_s8_fast(x, packed, bias, y, g, rq, isa);
      if (baseline.empty())
        baseline = y;
      else
        EXPECT_EQ(y, baseline) << "fast depthwise output moved at " << threads
                               << " threads (" << kernels::isa_name(isa) << ")";
    }
  }
  parallel::set_threads(0);
}

// --- interpreter integration -------------------------------------------------

namespace {

rt::ModelDef tiny_model(uint64_t seed = 1) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = 8;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = {{8, 1}};
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
  co.name = "backend_tiny";
  return rt::convert(g, co, &ranges);
}

TensorI8 random_input(const rt::ModelDef& m, uint64_t seed) {
  const rt::TensorDef& in =
      m.tensors[static_cast<size_t>(m.input_tensor)];
  TensorI8 t(in.shape);
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<int8_t>(rng.uniform_int(-127, 127));
  return t;
}

}  // namespace

TEST(BackendInterpreter, FastInvokeIsByteIdenticalToReference) {
  const rt::ModelDef m = tiny_model(3);
  const rt::MemoryPlan plan = rt::plan_memory(m);
  rt::Interpreter ref(m, plan, kernels::BackendConfig::reference());
  rt::Interpreter fast(m, plan, kernels::BackendConfig::fast());
  EXPECT_EQ(ref.backend(), kernels::BackendKind::kReference);
  EXPECT_EQ(fast.backend(), kernels::BackendKind::kFast);
  // Claim-or-fall-back: the DS-CNN has conv + depthwise + FC (claimed) and
  // pool / softmax (reference fallback) — both kinds must appear.
  int fast_ops = 0, ref_ops = 0;
  for (size_t i = 0; i < m.ops.size(); ++i)
    (fast.op_backend(i) == kernels::BackendKind::kFast ? fast_ops : ref_ops)++;
  EXPECT_GT(fast_ops, 0);
  EXPECT_GT(ref_ops, 0);
  for (const auto kind : ref.op_backends())
    EXPECT_EQ(kind, kernels::BackendKind::kReference);
  for (int trial = 0; trial < 4; ++trial) {
    const TensorI8 in = random_input(m, 700 + static_cast<uint64_t>(trial));
    const TensorI8 out_ref = ref.invoke_quantized(in);
    const TensorI8 out_fast = fast.invoke_quantized(in);
    ASSERT_EQ(out_ref.size(), out_fast.size());
    for (int64_t i = 0; i < out_ref.size(); ++i)
      ASSERT_EQ(out_ref[i], out_fast[i]) << "output byte " << i << " differs";
  }
}

TEST(BackendInterpreter, FastInvokeThreadInvariant) {
  const rt::ModelDef m = tiny_model(4);
  rt::Interpreter fast(m, rt::plan_memory(m), kernels::BackendConfig::fast());
  const TensorI8 in = random_input(m, 900);
  TensorI8 baseline;
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    const TensorI8 out = fast.invoke_quantized(in);
    if (baseline.size() == 0) {
      baseline = out;
    } else {
      ASSERT_EQ(out.size(), baseline.size());
      for (int64_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], baseline[i]) << "thread count " << threads;
    }
  }
  parallel::set_threads(0);
}

TEST(BackendInterpreter, DispatchCountersAndProfileReportBackend) {
  obs::reset_all();
  const rt::ModelDef m = tiny_model(5);
  rt::Interpreter fast(m, rt::plan_memory(m), kernels::BackendConfig::fast());
  fast.set_profiling(true);
  fast.invoke_quantized(random_input(m, 42));
  const int64_t fast_ops =
      obs::counter_value(obs::Counter::kBackendFastOps);
  const int64_t ref_ops =
      obs::counter_value(obs::Counter::kBackendReferenceOps);
#if !defined(MN_OBS_DISABLED)
  // Conv, depthwise and FC count as fast; pool and softmax as reference.
  EXPECT_GT(fast_ops, 0);
  EXPECT_GT(ref_ops, 0);
  EXPECT_EQ(fast_ops + ref_ops, static_cast<int64_t>(m.ops.size()));
#else
  EXPECT_EQ(fast_ops, 0);
  EXPECT_EQ(ref_ops, 0);
#endif
  const rt::ProfileReport rep = fast.profile_report();
  bool saw_fast = false, saw_ref = false;
  for (size_t i = 0; i < rep.ops.size(); ++i) {
    EXPECT_STREQ(rep.ops[i].backend,
                 kernels::backend_name(fast.op_backend(i)));
    if (std::string(rep.ops[i].backend) == "fast") saw_fast = true;
    if (std::string(rep.ops[i].backend) == "reference") saw_ref = true;
  }
  EXPECT_TRUE(saw_fast);
  EXPECT_TRUE(saw_ref);
  EXPECT_NE(rep.table().find("backend"), std::string::npos);
}

TEST(BackendInterpreter, SharedPackedModelIsReusedAndValidated) {
  const rt::ModelDef m = tiny_model(6);
  const rt::MemoryPlan plan = rt::plan_memory(m);
  const auto packed =
      rt::pack_model_weights(m, kernels::BackendConfig::fast());
  EXPECT_EQ(packed->kind, kernels::BackendKind::kFast);
  EXPECT_EQ(packed->per_op.size(), m.ops.size());
  EXPECT_GT(packed->bytes(), 0);
  // Pool and softmax carry no panel; conv, depthwise and FC do.
  bool any_claimed = false, any_fallback = false;
  for (const auto& p : packed->per_op) (p ? any_claimed : any_fallback) = true;
  EXPECT_TRUE(any_claimed);
  EXPECT_TRUE(any_fallback);
  // Two replicas over the same panels alias the exact objects (no re-pack).
  rt::Interpreter a(m, plan, kernels::BackendConfig::fast(), packed);
  rt::Interpreter b(m, plan, kernels::BackendConfig::fast(), packed);
  EXPECT_EQ(a.packed_model().get(), packed.get());
  EXPECT_EQ(b.packed_model().get(), packed.get());
  const TensorI8 in = random_input(m, 31);
  const TensorI8 oa = a.invoke_quantized(in);
  const TensorI8 ob = b.invoke_quantized(in);
  for (int64_t i = 0; i < oa.size(); ++i) ASSERT_EQ(oa[i], ob[i]);
  // A reference-kind panel set under a fast config is a hard error, not a
  // silent re-pack.
  const auto ref_packed =
      rt::pack_model_weights(m, kernels::BackendConfig::reference());
  EXPECT_EQ(ref_packed->bytes(), 0);
  EXPECT_THROW(
      rt::Interpreter(m, plan, kernels::BackendConfig::fast(), ref_packed),
      std::runtime_error);
}

// A flip in a fast-claimed conv's or depthwise op's weights that the CRC
// does not catch (per-invoke verification off, the default) must reach
// compute: the fast output follows the flipped bytes exactly as the
// reference output does.
TEST(BackendInterpreter, UndetectedWeightFlipReachesFastCompute) {
  const rt::ModelDef m = tiny_model(7);
  const rt::MemoryPlan plan = rt::plan_memory(m);
  for (const rt::OpType type :
       {rt::OpType::kConv2D, rt::OpType::kDepthwiseConv2D}) {
    SCOPED_TRACE(rt::op_type_name(type));
    const auto packed =
        rt::pack_model_weights(m, kernels::BackendConfig::fast());
    rt::Interpreter ref(m, plan, kernels::BackendConfig::reference());
    rt::Interpreter fast(m, plan, kernels::BackendConfig::fast(), packed);
    rt::Interpreter guarded(m, plan, kernels::BackendConfig::fast(), packed);
    guarded.set_verify_weights_each_invoke(true);
    size_t op = m.ops.size();
    for (size_t i = 0; i < m.ops.size() && op == m.ops.size(); ++i)
      if (m.ops[i].type == type &&
          fast.op_backend(i) == kernels::BackendKind::kFast)
        op = i;
    ASSERT_LT(op, m.ops.size());
    const rt::TensorDef& w =
        m.tensors[static_cast<size_t>(m.ops[op].inputs[1])];
    const TensorI8 in = random_input(m, 77);
    const TensorI8 clean = fast.invoke_quantized(in);
    for (rt::Interpreter* interp : {&ref, &fast, &guarded}) {
      std::span<uint8_t> blob = interp->mutable_weights();
      for (int64_t k = 0; k < w.storage_bytes(); ++k)
        blob[static_cast<size_t>(w.blob_offset + k)] ^= 0x40;
    }
    const TensorI8 out_ref = ref.invoke_quantized(in);
    const TensorI8 out_fast = fast.invoke_quantized(in);
    EXPECT_TRUE(out_fast == out_ref)
        << "fast output ignored the flipped weights";
    EXPECT_FALSE(out_fast == clean) << "the flip did not change the output";
    EXPECT_NE(fast.packed_model().get(), packed.get());
    // A flip the CRC catches fails the invoke before any repack, so the
    // replica keeps aliasing the shared panels.
    const auto caught = guarded.try_invoke_quantized(in);
    ASSERT_FALSE(caught.ok());
    EXPECT_EQ(caught.error().code, rt::ErrorCode::kCrcMismatch);
    EXPECT_EQ(guarded.packed_model().get(), packed.get());
  }
}

// The same for the direct 1x1 path: a weight flip and a bias flip in a
// pointwise conv (the DS-CNN block's 1x1) reach the fast output exactly as
// they reach the reference output.
TEST(BackendInterpreter, PointwiseWeightAndBiasFlipsReachFastCompute) {
  const rt::ModelDef m = tiny_model(9);
  const rt::MemoryPlan plan = rt::plan_memory(m);
  rt::Interpreter probe(m, plan, kernels::BackendConfig::fast());
  size_t op = m.ops.size();
  for (size_t i = 0; i < m.ops.size() && op == m.ops.size(); ++i) {
    const rt::OpDef& o = m.ops[i];
    if (o.type != rt::OpType::kConv2D || o.stride != 1 || o.pad_h != 0 ||
        o.pad_w != 0 || probe.op_backend(i) != kernels::BackendKind::kFast)
      continue;
    const rt::TensorDef& w = m.tensors[static_cast<size_t>(o.inputs[1])];
    if (w.shape.dim(1) == 1 && w.shape.dim(2) == 1) op = i;
  }
  ASSERT_LT(op, m.ops.size()) << "tiny model has no fast 1x1 conv";
  ASSERT_GE(m.ops[op].inputs.size(), 3u);
  ASSERT_GE(m.ops[op].inputs[2], 0);
  const TensorI8 in = random_input(m, 78);
  const TensorI8 clean = probe.invoke_quantized(in);
  for (const int operand : {1, 2}) {
    SCOPED_TRACE(operand == 1 ? "weights" : "bias");
    const rt::TensorDef& t =
        m.tensors[static_cast<size_t>(m.ops[op].inputs[static_cast<size_t>(operand)])];
    rt::Interpreter ref(m, plan, kernels::BackendConfig::reference());
    rt::Interpreter fast(m, plan, kernels::BackendConfig::fast());
    for (rt::Interpreter* interp : {&ref, &fast}) {
      std::span<uint8_t> blob = interp->mutable_weights();
      // Weights: bit 6 of every byte. Bias: bit 22 of every int32 (byte 2,
      // bit 6), large enough to move the requantized output.
      for (int64_t k = operand == 1 ? 0 : 2; k < t.storage_bytes();
           k += operand == 1 ? 1 : 4)
        blob[static_cast<size_t>(t.blob_offset + k)] ^= 0x40;
    }
    const TensorI8 out_ref = ref.invoke_quantized(in);
    EXPECT_TRUE(fast.invoke_quantized(in) == out_ref)
        << "fast output ignored the flip";
    EXPECT_FALSE(out_ref == clean) << "the flip did not change the output";
  }
}

// A flash fault can set a bias to any value after load, past the bound
// ModelDef::check proved. Accumulation then wraps (defined behaviour, and
// what the SIMD paths do natively), so fast and reference still agree byte
// for byte; under -DMN_SANITIZE=ON this test aborts on any signed overflow.
TEST(BackendInterpreter, ExtremeBiasIsDefinedAndBackendsAgree) {
  const rt::ModelDef m = tiny_model(7);
  rt::Interpreter ref(m, {}, kernels::BackendConfig::reference());
  rt::Interpreter fast(m, {}, kernels::BackendConfig::fast());
  const int32_t extremes[] = {std::numeric_limits<int32_t>::max(),
                              std::numeric_limits<int32_t>::min(),
                              std::numeric_limits<int32_t>::max() - 3};
  int biased = 0;
  for (rt::Interpreter* interp : {&ref, &fast}) {
    std::span<uint8_t> blob = interp->mutable_weights();
    for (const rt::OpDef& op : m.ops) {
      if (op.inputs.size() < 3 || op.inputs[2] < 0) continue;
      const rt::TensorDef& b = m.tensors[static_cast<size_t>(op.inputs[2])];
      for (int64_t k = 0; k < b.elements(); ++k)
        std::memcpy(blob.data() + b.blob_offset + 4 * k, &extremes[k % 3], 4);
      ++biased;
    }
  }
  ASSERT_GT(biased, 0);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const TensorI8 in = random_input(m, 90 + seed);
    EXPECT_TRUE(fast.invoke_quantized(in) == ref.invoke_quantized(in))
        << "seed " << seed;
  }
}

// The shipped configuration is fixed in code: MN_BACKEND, MN_COMPILE and
// MN_OBS_RING in the environment change nothing.
TEST(BackendDefaults, FastAndCompiledWhateverTheEnvironment) {
  ASSERT_EQ(::setenv("MN_BACKEND", "reference", 1), 0);
  ASSERT_EQ(::setenv("MN_COMPILE", "off", 1), 0);
  ASSERT_EQ(::setenv("MN_OBS_RING", "128", 1), 0);
  EXPECT_EQ(kernels::BackendConfig{}.kind, kernels::BackendKind::kFast);
  EXPECT_TRUE(serve::VariantSpec{}.compile.enabled);
  const rt::ModelDef m = tiny_model(8);
  const rt::Interpreter interp(m);
  EXPECT_EQ(interp.backend(), kernels::BackendKind::kFast);
  int convs = 0;
  for (size_t i = 0; i < m.ops.size(); ++i) {
    if (m.ops[i].type != rt::OpType::kConv2D) continue;
    ++convs;
    EXPECT_EQ(interp.op_backend(i), kernels::BackendKind::kFast) << "op " << i;
  }
  EXPECT_GT(convs, 0);
#if !defined(MN_OBS_DISABLED)
  obs::set_tracing(true);
  EXPECT_EQ(obs::trace_capacity(), 16384u);
  obs::set_tracing(false);
#endif
  ::unsetenv("MN_BACKEND");
  ::unsetenv("MN_COMPILE");
  ::unsetenv("MN_OBS_RING");
}

// --- hardened im2col validation ---------------------------------------------

TEST(BackendValidation, KernelsRejectUndersizedBuffers) {
  const auto g = make_geom(6, 6, 4, 4, 3, 3, 1, 1, 1);
  Rng rng(13);
  const auto rq = random_rq(rng, g.out_ch, false);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  std::vector<int8_t> y(static_cast<size_t>(g.output_elements()));
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_scratch_bytes(g)));
  std::vector<int8_t> small_out(y.size() - 1);
  std::vector<int8_t> small_scratch(scratch.size() - 1);
  EXPECT_THROW(
      kernels::conv2d_s8_im2col(x, w, {}, small_out, scratch, g, rq),
      std::invalid_argument);
  EXPECT_THROW(kernels::conv2d_s8_im2col(x, w, {}, y, small_scratch, g, rq),
               std::invalid_argument);
  EXPECT_THROW(
      kernels::conv2d_s8_im2col(std::span<const int8_t>(x.data(), x.size() - 1),
                                w, {}, y, scratch, g, rq),
      std::invalid_argument);
  const auto packed = kernels::pack_rows_s8(
      w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch);
  std::vector<int8_t> fast_scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  std::vector<int8_t> small_fast_scratch(fast_scratch.size() - 1);
  const kernels::Isa isa = kernels::host_isa();
  EXPECT_THROW(
      kernels::conv2d_s8_fast(x, packed, {}, y, small_fast_scratch, g, rq, isa),
      std::invalid_argument);
  EXPECT_THROW(
      kernels::conv2d_s8_fast(x, packed, {}, small_out, fast_scratch, g, rq, isa),
      std::invalid_argument);
  // A panel packed for a different geometry is rejected up front.
  const auto wrong = kernels::pack_rows_s8(w, g.out_ch * 2,
                                           int64_t{g.kh} * g.kw * g.in_ch / 2);
  EXPECT_THROW(
      kernels::conv2d_s8_fast(x, wrong, {}, y, fast_scratch, g, rq, isa),
      std::invalid_argument);
  // The direct 1x1 path takes only pointwise geometries, and no kernel runs
  // a variant the host lacks.
  EXPECT_THROW(kernels::conv2d_s8_1x1_fast(x, packed, {}, y, g, rq, isa),
               std::invalid_argument);
  if (!kernels::isa_supported(kernels::Isa::kAvx2)) {
    EXPECT_THROW(kernels::conv2d_s8_fast(x, packed, {}, y, fast_scratch, g, rq,
                                         kernels::Isa::kAvx2),
                 std::invalid_argument);
  }
}

// The packed-int4 reference kernels run the int8 loop nests with nibble
// load/store: each must equal its int8 counterpart run on the unpacked values
// (activation range narrowed to int4's [-8, 7]), byte for byte once packed.
// Shapes are odd, strided and padded, with odd output rows so that every
// other row starts mid-byte; bias, zero points and per-channel multipliers
// vary; threads 1, 2 and 8 split the row-pair chunks differently.
namespace {

std::vector<int8_t> random_s4(Rng& rng, int64_t n) {
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int8_t>(rng.uniform_int(-8, 7));
  return v;
}

std::vector<uint8_t> pack4(const std::vector<int8_t>& v) {
  TensorI8 t(Shape{static_cast<int64_t>(v.size())});
  std::copy(v.begin(), v.end(), t.data());
  return quant::pack_int4(t);
}

std::vector<uint8_t> zeros4(int64_t n) {
  return std::vector<uint8_t>(static_cast<size_t>(kernels::packed_size_s4(n)), 0);
}

// int4 zero points; an activation range inside [-8, 7], or the int8 default
// that the int4 format must narrow itself.
kernels::RequantParams random_rq4(Rng& rng, int32_t out_ch, bool per_channel) {
  kernels::RequantParams rq = random_rq(rng, out_ch, per_channel);
  rq.input_zp = static_cast<int32_t>(rng.uniform_int(-8, 7));
  rq.output_zp = static_cast<int32_t>(rng.uniform_int(-8, 7));
  rq.act_min = -128;
  rq.act_max = 127;
  if (rng.uniform() < 0.5) {
    const auto a = static_cast<int32_t>(rng.uniform_int(-8, 7));
    const auto b = static_cast<int32_t>(rng.uniform_int(-8, 7));
    rq.act_min = std::min(a, b);
    rq.act_max = std::max(a, b);
  }
  return rq;
}

// The same parameters with the activation range int4 can hold.
kernels::RequantParams narrowed(kernels::RequantParams rq) {
  rq.act_min = std::max(rq.act_min, -8);
  rq.act_max = std::min(rq.act_max, 7);
  return rq;
}

}  // namespace

TEST(ReferenceInt4, EqualsInt8OnUnpackedValues) {
  // in_h, in_w, in_ch, out_ch, kh, kw, stride, pad_h, pad_w
  const int32_t conv_cases[][9] = {
      {7, 5, 3, 5, 3, 3, 1, 1, 1},   // out 7x5x5: odd rows, odd row size
      {9, 9, 5, 3, 3, 3, 2, 1, 1},   // stride 2, out 5x5x3
      {6, 11, 4, 7, 3, 1, 2, 0, 1},  // asymmetric kernel and padding, out 2x7x7
      {5, 3, 1, 1, 1, 1, 1, 0, 0},   // pointwise, one channel, out 5x3x1
      {10, 4, 3, 1, 5, 3, 1, 2, 1},  // out 10x4x1
      {3, 3, 7, 9, 3, 3, 2, 1, 1},   // odd in_ch: weight rows start mid-byte
  };
  const int32_t fc_cases[][2] = {{37, 11}, {64, 33}, {1, 1}, {17, 4}, {100, 65}};
  int64_t checked = 0;
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    Rng rng(static_cast<uint64_t>(9100 + threads));
    for (const auto& c : conv_cases) {
      const auto g = make_geom(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], c[8]);
      // The same geometry as a depthwise conv over in_ch channels.
      auto dw = g;
      dw.out_ch = dw.in_ch;
      for (const bool per_channel : {false, true}) {
        for (const bool with_bias : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "threads " << threads << " geometry " << c[0] << "x"
                       << c[1] << "x" << c[2] << "->" << c[3] << " k" << c[4]
                       << "x" << c[5] << " s" << c[6] << " per_channel "
                       << per_channel << " bias " << with_bias);
          const auto x = random_s4(rng, g.input_elements());
          const auto w = random_s4(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
          const auto bias = with_bias ? random_bias(rng, g.out_ch) : std::vector<int32_t>{};
          const auto rq = random_rq4(rng, g.out_ch, per_channel);
          std::vector<int8_t> y8(static_cast<size_t>(g.output_elements()));
          kernels::conv2d_s8(x, w, bias, y8, g, narrowed(rq));
          auto y4 = zeros4(g.output_elements());
          kernels::conv2d_s4(pack4(x), pack4(w), bias, y4, g, rq);
          EXPECT_EQ(y4, pack4(y8)) << "conv2d_s4";

          const auto wd = random_s4(rng, int64_t{dw.kh} * dw.kw * dw.in_ch);
          const auto bd = with_bias ? random_bias(rng, dw.out_ch) : std::vector<int32_t>{};
          const auto rqd = random_rq4(rng, dw.out_ch, per_channel);
          std::vector<int8_t> d8(static_cast<size_t>(dw.output_elements()));
          kernels::depthwise_conv2d_s8(x, wd, bd, d8, dw, narrowed(rqd));
          auto d4 = zeros4(dw.output_elements());
          kernels::depthwise_conv2d_s4(pack4(x), pack4(wd), bd, d4, dw, rqd);
          EXPECT_EQ(d4, pack4(d8)) << "depthwise_conv2d_s4";

          kernels::PoolGeometry pg;
          pg.in_h = g.in_h;
          pg.in_w = g.in_w;
          pg.ch = g.in_ch;
          pg.out_h = g.out_h;
          pg.out_w = g.out_w;
          pg.kh = g.kh;
          pg.kw = g.kw;
          pg.stride = g.stride;
          pg.pad_h = g.pad_h;
          pg.pad_w = g.pad_w;
          const int64_t pooled = int64_t{pg.out_h} * pg.out_w * pg.ch;
          std::vector<int8_t> p8(static_cast<size_t>(pooled));
          kernels::avg_pool_s8(x, p8, pg, std::max(rq.act_min, -8),
                               std::min(rq.act_max, 7));
          auto p4 = zeros4(pooled);
          kernels::avg_pool_s4(pack4(x), p4, pg, rq.act_min, rq.act_max);
          EXPECT_EQ(p4, pack4(p8)) << "avg_pool_s4";
          checked += 3;
        }
      }
    }
    for (const auto& [in_f, out_f] : fc_cases) {
      for (const bool per_channel : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads << " fc "
                                          << in_f << "->" << out_f);
        const auto x = random_s4(rng, in_f);
        const auto w = random_s4(rng, int64_t{in_f} * out_f);
        const auto bias = random_bias(rng, out_f);
        const auto rq = random_rq4(rng, out_f, per_channel);
        std::vector<int8_t> y8(static_cast<size_t>(out_f));
        kernels::fully_connected_s8(x, w, bias, y8, in_f, out_f, narrowed(rq));
        auto y4 = zeros4(out_f);
        kernels::fully_connected_s4(pack4(x), pack4(w), bias, y4, in_f, out_f, rq);
        EXPECT_EQ(y4, pack4(y8)) << "fully_connected_s4";
        ++checked;
      }
    }
  }
  parallel::set_threads(0);
  EXPECT_EQ(checked, 3 * (6 * 2 * 2 * 3 + 5 * 2));
}
