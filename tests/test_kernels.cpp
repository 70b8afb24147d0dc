// Unit tests: integer kernels vs float reference implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "kernels/kernels.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace mn::kernels {
namespace {

struct QuantSetup {
  quant::QuantParams in_qp, out_qp;
  quant::QuantParams w_qp;
  RequantParams rq;
};

QuantSetup make_setup(float in_range, float w_range, float out_range) {
  QuantSetup s;
  s.in_qp = quant::choose_asymmetric(-in_range, in_range, 8);
  s.w_qp = quant::choose_symmetric(w_range, 8);
  s.out_qp = quant::choose_asymmetric(-out_range, out_range, 8);
  s.rq.input_zp = s.in_qp.zero_point;
  s.rq.output_zp = s.out_qp.zero_point;
  s.rq.mult = quant::quantize_multiplier(
      static_cast<double>(s.in_qp.scale) * s.w_qp.scale / s.out_qp.scale);
  return s;
}

// Float reference conv (VALID padding handled via pad params).
void ref_conv(const TensorF& x, const TensorF& w, const std::vector<float>& bias,
              TensorF& y, const ConvGeometry& g, bool depthwise) {
  for (int32_t oy = 0; oy < g.out_h; ++oy)
    for (int32_t ox = 0; ox < g.out_w; ++ox)
      for (int32_t oc = 0; oc < g.out_ch; ++oc) {
        double acc = bias.empty() ? 0.0 : bias[static_cast<size_t>(oc)];
        for (int32_t ky = 0; ky < g.kh; ++ky)
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t iy = oy * g.stride - g.pad_h + ky;
            const int32_t ix = ox * g.stride - g.pad_w + kx;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
            if (depthwise) {
              acc += x[(int64_t{iy} * g.in_w + ix) * g.in_ch + oc] *
                     w[(int64_t{ky} * g.kw + kx) * g.in_ch + oc];
            } else {
              for (int32_t ic = 0; ic < g.in_ch; ++ic)
                acc += x[(int64_t{iy} * g.in_w + ix) * g.in_ch + ic] *
                       w[((int64_t{oc} * g.kh + ky) * g.kw + kx) * g.in_ch + ic];
            }
          }
        y[(int64_t{oy} * g.out_w + ox) * g.out_ch + oc] = static_cast<float>(acc);
      }
}

TEST(KernelsS8, Conv2DMatchesFloatReference) {
  Rng rng(1);
  ConvGeometry g;
  g.in_h = 8;
  g.in_w = 8;
  g.in_ch = 6;
  g.out_ch = 5;
  g.kh = g.kw = 3;
  g.stride = 1;
  g.pad_h = g.pad_w = 1;
  g.out_h = 8;
  g.out_w = 8;
  TensorF x(Shape{g.in_h, g.in_w, g.in_ch});
  TensorF w(Shape{g.out_ch, g.kh, g.kw, g.in_ch});
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.uniform(-1, 1));
  for (int64_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(rng.uniform(-0.4, 0.4));
  std::vector<float> bias(static_cast<size_t>(g.out_ch));
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.3, 0.3));

  QuantSetup s = make_setup(1.f, 0.4f, 8.f);
  const TensorI8 xq = quant::quantize(x, s.in_qp, 8);
  const TensorI8 wq = quant::quantize(w, s.w_qp, 8);
  std::vector<int32_t> bq(bias.size());
  for (size_t i = 0; i < bias.size(); ++i)
    bq[i] = static_cast<int32_t>(std::lround(bias[i] / (s.in_qp.scale * s.w_qp.scale)));

  TensorF y_ref(Shape{g.out_h, g.out_w, g.out_ch});
  ref_conv(x, w, bias, y_ref, g, false);
  TensorI8 y_q(Shape{g.out_h, g.out_w, g.out_ch});
  conv2d_s8(xq.span(), wq.span(), bq, y_q.span(), g, s.rq);

  for (int64_t i = 0; i < y_ref.size(); ++i) {
    const float got = s.out_qp.dequantize(y_q[i]);
    EXPECT_NEAR(got, y_ref[i], 3.0f * s.out_qp.scale) << "i=" << i;
  }
}

TEST(KernelsS8, Conv2DFusedReluClampsNegative) {
  Rng rng(2);
  ConvGeometry g;
  g.in_h = g.in_w = 4;
  g.in_ch = 3;
  g.out_ch = 4;
  g.kh = g.kw = 1;
  g.stride = 1;
  g.out_h = g.out_w = 4;
  TensorF x(Shape{4, 4, 3});
  TensorF w(Shape{4, 1, 1, 3});
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.uniform(-1, 1));
  for (int64_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(rng.uniform(-1, 1));
  QuantSetup s = make_setup(1.f, 1.f, 4.f);
  s.rq.act_min = s.out_qp.zero_point;  // fused ReLU
  const TensorI8 xq = quant::quantize(x, s.in_qp, 8);
  const TensorI8 wq = quant::quantize(w, s.w_qp, 8);
  TensorI8 y(Shape{4, 4, 4});
  conv2d_s8(xq.span(), wq.span(), {}, y.span(), g, s.rq);
  for (int64_t i = 0; i < y.size(); ++i)
    EXPECT_GE(s.out_qp.dequantize(y[i]), 0.f);
}

TEST(KernelsS8, DepthwiseConvMatchesFloatReference) {
  Rng rng(3);
  ConvGeometry g;
  g.in_h = 7;
  g.in_w = 5;
  g.in_ch = g.out_ch = 8;
  g.kh = g.kw = 3;
  g.stride = 2;
  g.pad_h = g.pad_w = 1;
  g.out_h = 4;
  g.out_w = 3;
  TensorF x(Shape{g.in_h, g.in_w, g.in_ch});
  TensorF w(Shape{1, 3, 3, g.in_ch});
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.uniform(-1, 1));
  for (int64_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  QuantSetup s = make_setup(1.f, 0.5f, 4.f);
  const TensorI8 xq = quant::quantize(x, s.in_qp, 8);
  const TensorI8 wq = quant::quantize(w, s.w_qp, 8);
  TensorF y_ref(Shape{g.out_h, g.out_w, g.out_ch});
  ref_conv(x, w.reshaped(Shape{3, 3, g.in_ch}), {}, y_ref, g, true);
  TensorI8 y_q(Shape{g.out_h, g.out_w, g.out_ch});
  depthwise_conv2d_s8(xq.span(), TensorI8(wq.reshaped(Shape{3, 3, g.in_ch})).span(),
                      {}, y_q.span(), g, s.rq);
  for (int64_t i = 0; i < y_ref.size(); ++i)
    EXPECT_NEAR(s.out_qp.dequantize(y_q[i]), y_ref[i], 3.0f * s.out_qp.scale);
}

TEST(KernelsS8, FullyConnectedMatchesFloat) {
  Rng rng(4);
  const int32_t in_f = 32, out_f = 10;
  TensorF x(Shape{in_f}), w(Shape{out_f, in_f});
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.uniform(-1, 1));
  for (int64_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(rng.uniform(-0.3, 0.3));
  QuantSetup s = make_setup(1.f, 0.3f, 6.f);
  const TensorI8 xq = quant::quantize(x, s.in_qp, 8);
  const TensorI8 wq = quant::quantize(w, s.w_qp, 8);
  TensorI8 y(Shape{out_f});
  fully_connected_s8(xq.span(), wq.span(), {}, y.span(), in_f, out_f, s.rq);
  for (int32_t o = 0; o < out_f; ++o) {
    double ref = 0;
    for (int32_t i = 0; i < in_f; ++i) ref += x[i] * w.at2(o, i);
    EXPECT_NEAR(s.out_qp.dequantize(y[o]), ref, 3.0f * s.out_qp.scale);
  }
}

TEST(KernelsS8, PerChannelRequantization) {
  // Two output channels with very different weight magnitudes: per-channel
  // multipliers must keep both accurate.
  const int32_t in_f = 16;
  TensorF x(Shape{in_f});
  Rng rng(5);
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.uniform(-1, 1));
  TensorF w(Shape{2, in_f});
  for (int32_t i = 0; i < in_f; ++i) {
    w.at2(0, i) = 0.001f;  // tiny weights
    w.at2(1, i) = 0.9f;    // large weights
  }
  const quant::QuantParams in_qp = quant::choose_asymmetric(-1.f, 1.f, 8);
  const quant::QuantParams out_qp = quant::choose_asymmetric(-16.f, 16.f, 8);
  // Quantize each row with its own scale.
  TensorI8 wq(w.shape());
  std::vector<float> w_scales{0.001f / 127.f, 0.9f / 127.f};
  for (int32_t r = 0; r < 2; ++r)
    for (int32_t i = 0; i < in_f; ++i)
      wq.at2(r, i) = static_cast<int8_t>(std::lround(w.at2(r, i) / w_scales[static_cast<size_t>(r)]));
  RequantParams rq;
  rq.input_zp = in_qp.zero_point;
  rq.output_zp = out_qp.zero_point;
  for (float ws : w_scales)
    rq.per_channel.push_back(quant::quantize_multiplier(
        static_cast<double>(in_qp.scale) * ws / out_qp.scale));
  const TensorI8 xq = quant::quantize(x, in_qp, 8);
  TensorI8 y(Shape{2});
  fully_connected_s8(xq.span(), wq.span(), {}, y.span(), in_f, 2, rq);
  for (int32_t r = 0; r < 2; ++r) {
    double ref = 0;
    for (int32_t i = 0; i < in_f; ++i) ref += x[i] * w.at2(r, i);
    EXPECT_NEAR(out_qp.dequantize(y[r]), ref, 4.0 * out_qp.scale);
  }
}

TEST(KernelsS8, AvgPoolAveragesWindow) {
  PoolGeometry g;
  g.in_h = g.in_w = 4;
  g.ch = 2;
  g.out_h = g.out_w = 2;
  g.kh = g.kw = 2;
  g.stride = 2;
  TensorI8 x(Shape{4, 4, 2});
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<int8_t>(i % 7);
  TensorI8 y(Shape{2, 2, 2});
  avg_pool_s8(x.span(), y.span(), g, -128, 127);
  // Manual check of the first output channel: average of the 2x2 window.
  const int32_t manual =
      (x[(0 * 4 + 0) * 2] + x[(0 * 4 + 1) * 2] + x[(1 * 4 + 0) * 2] + x[(1 * 4 + 1) * 2]);
  EXPECT_EQ(y[0], static_cast<int8_t>((manual + 2) / 4));
}

TEST(KernelsS8, MaxPoolTakesMaximum) {
  PoolGeometry g;
  g.in_h = g.in_w = 2;
  g.ch = 1;
  g.out_h = g.out_w = 1;
  g.kh = g.kw = 2;
  g.stride = 2;
  TensorI8 x(Shape{2, 2, 1});
  x[0] = -5;
  x[1] = 30;
  x[2] = 7;
  x[3] = -120;
  TensorI8 y(Shape{1, 1, 1});
  max_pool_s8(x.span(), y.span(), g, -128, 127);
  EXPECT_EQ(y[0], 30);
}

TEST(KernelsS8, AddRescalesInputs) {
  // a has scale 0.1, b has scale 0.02, output scale 0.1.
  AddParams p;
  const quant::QuantParams a_qp{0.1f, 0}, b_qp{0.02f, 10}, out_qp{0.1f, -5};
  p.a_zp = a_qp.zero_point;
  p.b_zp = b_qp.zero_point;
  p.out_zp = out_qp.zero_point;
  const double twice_max = 2.0 * 0.1;
  p.a_mult = quant::quantize_multiplier(0.1 / twice_max);
  p.b_mult = quant::quantize_multiplier(0.02 / twice_max);
  p.out_mult = quant::quantize_multiplier(twice_max / ((1 << 20) * 0.1));
  std::vector<int8_t> a{50, -20}, b{40, 60}, out(2);
  add_s8(a, b, out, p);
  for (int i = 0; i < 2; ++i) {
    const float expect = a_qp.dequantize(a[static_cast<size_t>(i)]) +
                         b_qp.dequantize(b[static_cast<size_t>(i)]);
    EXPECT_NEAR(out_qp.dequantize(out[static_cast<size_t>(i)]), expect, 0.15f);
  }
}

TEST(KernelsS8, SoftmaxSumsToOneAndOrders) {
  std::vector<int8_t> in{10, 60, -40, 0};
  std::vector<int8_t> out(4);
  softmax_s8(in, out, 1, 4, 0.1f);
  int32_t sum = 0;
  for (int8_t v : out) sum += static_cast<int32_t>(v) + 128;
  EXPECT_NEAR(sum, 256, 4);  // probabilities sum to ~1 at scale 1/256
  EXPECT_GT(out[1], out[0]);
  EXPECT_GT(out[0], out[3]);
  EXPECT_GT(out[3], out[2]);
}

TEST(KernelsS4, PackedAccessors) {
  std::vector<uint8_t> buf(4, 0);
  for (int64_t i = 0; i < 8; ++i)
    store_s4(buf, i, static_cast<int8_t>(i - 4));
  for (int64_t i = 0; i < 8; ++i)
    EXPECT_EQ(load_s4(buf, i), static_cast<int8_t>(i - 4));
  EXPECT_EQ(packed_size_s4(7), 4);
  EXPECT_EQ(packed_size_s4(8), 4);
}

// int4 conv against an int-domain reference using the same quantized values.
TEST(KernelsS4, Conv2DMatchesIntReference) {
  Rng rng(6);
  ConvGeometry g;
  g.in_h = g.in_w = 5;
  g.in_ch = 4;
  g.out_ch = 3;
  g.kh = g.kw = 3;
  g.stride = 1;
  g.pad_h = g.pad_w = 1;
  g.out_h = g.out_w = 5;
  TensorI8 xq(Shape{5, 5, 4}), wq(Shape{3, 3, 3, 4});
  for (int64_t i = 0; i < xq.size(); ++i)
    xq[i] = static_cast<int8_t>(rng.uniform_int(-8, 7));
  for (int64_t i = 0; i < wq.size(); ++i)
    wq[i] = static_cast<int8_t>(rng.uniform_int(-8, 7));
  RequantParams rq;
  rq.input_zp = -2;
  rq.output_zp = 0;
  rq.mult = quant::quantize_multiplier(0.01);
  rq.act_min = -8;
  rq.act_max = 7;
  const auto xp = quant::pack_int4(xq);
  const auto wp = quant::pack_int4(wq);
  std::vector<uint8_t> yp(static_cast<size_t>(packed_size_s4(5 * 5 * 3)), 0);
  conv2d_s4(xp, wp, {}, yp, g, rq);
  // Reference: integer accumulate then same requant.
  for (int32_t oy = 0; oy < 5; ++oy)
    for (int32_t ox = 0; ox < 5; ++ox)
      for (int32_t oc = 0; oc < 3; ++oc) {
        int32_t acc = 0;
        for (int32_t ky = 0; ky < 3; ++ky)
          for (int32_t kx = 0; kx < 3; ++kx) {
            const int32_t iy = oy - 1 + ky, ix = ox - 1 + kx;
            if (iy < 0 || iy >= 5 || ix < 0 || ix >= 5) continue;
            for (int32_t ic = 0; ic < 4; ++ic)
              acc += (xq[(int64_t{iy} * 5 + ix) * 4 + ic] - rq.input_zp) *
                     wq[((int64_t{oc} * 3 + ky) * 3 + kx) * 4 + ic];
          }
        int32_t v = quant::multiply_by_quantized_multiplier(acc, rq.mult);
        v = std::clamp(v, -8, 7);
        EXPECT_EQ(load_s4(yp, (int64_t{oy} * 5 + ox) * 3 + oc), v);
      }
}

TEST(KernelsS4, FullyConnectedMatchesUnpackedMath) {
  Rng rng(8);
  const int32_t in_f = 20, out_f = 6;
  TensorI8 xq(Shape{in_f}), wq(Shape{out_f, in_f});
  for (int64_t i = 0; i < xq.size(); ++i) xq[i] = static_cast<int8_t>(rng.uniform_int(-8, 7));
  for (int64_t i = 0; i < wq.size(); ++i) wq[i] = static_cast<int8_t>(rng.uniform_int(-8, 7));
  RequantParams rq;
  rq.mult = quant::quantize_multiplier(0.02);
  rq.act_min = -8;
  rq.act_max = 7;
  const auto xp = quant::pack_int4(xq);
  const auto wp = quant::pack_int4(wq);
  std::vector<uint8_t> yp(static_cast<size_t>(packed_size_s4(out_f)), 0);
  fully_connected_s4(xp, wp, {}, yp, in_f, out_f, rq);
  for (int32_t o = 0; o < out_f; ++o) {
    int32_t acc = 0;
    for (int32_t i = 0; i < in_f; ++i) acc += xq[i] * wq.at2(o, i);
    int32_t v = quant::multiply_by_quantized_multiplier(acc, rq.mult);
    v = std::clamp(v, -8, 7);
    EXPECT_EQ(load_s4(yp, o), v);
  }
}

TEST(KernelsS4, AvgPoolStaysInRange) {
  PoolGeometry g;
  g.in_h = g.in_w = 4;
  g.ch = 2;
  g.out_h = g.out_w = 2;
  g.kh = g.kw = 2;
  g.stride = 2;
  TensorI8 xq(Shape{4, 4, 2});
  Rng rng(9);
  for (int64_t i = 0; i < xq.size(); ++i) xq[i] = static_cast<int8_t>(rng.uniform_int(-8, 7));
  const auto xp = quant::pack_int4(xq);
  std::vector<uint8_t> yp(static_cast<size_t>(packed_size_s4(2 * 2 * 2)), 0);
  avg_pool_s4(xp, yp, g, -8, 7);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_GE(load_s4(yp, i), -8);
    EXPECT_LE(load_s4(yp, i), 7);
  }
}


// Every int4 entry point rejects an input, weight or output buffer too short
// for its geometry, as the int8 ones do (the int8-only max pool and softmax
// included), instead of reading or writing past its end; depthwise also
// rejects in_ch != out_ch in both formats.
TEST(KernelsS4, ShortBuffersThrowLikeInt8) {
  ConvGeometry g;
  g.in_h = g.in_w = 5;
  g.in_ch = g.out_ch = 3;
  g.kh = g.kw = 3;
  g.pad_h = g.pad_w = 1;
  g.out_h = g.out_w = 5;
  RequantParams rq;
  rq.mult = quant::quantize_multiplier(0.01);
  const int64_t n_in = g.input_elements(), n_out = g.output_elements();
  const int64_t n_w = int64_t{g.out_ch} * g.kh * g.kw * g.in_ch;
  const int64_t n_dw = int64_t{g.kh} * g.kw * g.in_ch;
  const int32_t in_f = 9, out_f = 5;
  PoolGeometry pg;
  pg.in_h = pg.in_w = 5;
  pg.ch = 3;
  pg.out_h = pg.out_w = 2;
  pg.kh = pg.kw = 2;
  pg.stride = 2;
  const int64_t n_pool_in = 5 * 5 * 3, n_pool_out = 2 * 2 * 3;
  // n elements of each format, minus `cut` bytes.
  const auto s4 = [](int64_t n, int64_t cut) {
    return std::vector<uint8_t>(static_cast<size_t>(packed_size_s4(n) - cut));
  };
  const auto s8 = [](int64_t n, int64_t cut) {
    return std::vector<int8_t>(static_cast<size_t>(n - cut));
  };
  for (int cut_in = 0; cut_in <= 1; ++cut_in)
    for (int cut_w = 0; cut_w <= 1; ++cut_w)
      for (int cut_out = 0; cut_out <= 1; ++cut_out) {
        SCOPED_TRACE(::testing::Message() << "short input " << cut_in << " weights "
                                          << cut_w << " output " << cut_out);
        const bool any = cut_in + cut_w + cut_out > 0;
        auto x4 = s4(n_in, cut_in), y4 = s4(n_out, cut_out);
        auto x8 = s8(n_in, cut_in), y8 = s8(n_out, cut_out);
        auto w4 = s4(n_w, cut_w), dw4 = s4(n_dw, cut_w);
        auto w8 = s8(n_w, cut_w), dw8 = s8(n_dw, cut_w);
        auto f4 = s4(in_f, cut_in), fw4 = s4(int64_t{in_f} * out_f, cut_w);
        auto fo4 = s4(out_f, cut_out);
        auto f8 = s8(in_f, cut_in), fw8 = s8(int64_t{in_f} * out_f, cut_w);
        auto fo8 = s8(out_f, cut_out);
        if (any) {
          EXPECT_THROW(conv2d_s4(x4, w4, {}, y4, g, rq), std::invalid_argument);
          EXPECT_THROW(conv2d_s8(x8, w8, {}, y8, g, rq), std::invalid_argument);
          EXPECT_THROW(depthwise_conv2d_s4(x4, dw4, {}, y4, g, rq), std::invalid_argument);
          EXPECT_THROW(depthwise_conv2d_s8(x8, dw8, {}, y8, g, rq), std::invalid_argument);
          EXPECT_THROW(fully_connected_s4(f4, fw4, {}, fo4, in_f, out_f, rq),
                       std::invalid_argument);
          EXPECT_THROW(fully_connected_s8(f8, fw8, {}, fo8, in_f, out_f, rq),
                       std::invalid_argument);
        } else {
          EXPECT_NO_THROW(conv2d_s4(x4, w4, {}, y4, g, rq));
          EXPECT_NO_THROW(conv2d_s8(x8, w8, {}, y8, g, rq));
          EXPECT_NO_THROW(depthwise_conv2d_s4(x4, dw4, {}, y4, g, rq));
          EXPECT_NO_THROW(depthwise_conv2d_s8(x8, dw8, {}, y8, g, rq));
          EXPECT_NO_THROW(fully_connected_s4(f4, fw4, {}, fo4, in_f, out_f, rq));
          EXPECT_NO_THROW(fully_connected_s8(f8, fw8, {}, fo8, in_f, out_f, rq));
        }
        if (cut_w != 0) continue;  // pooling and softmax read no weights
        auto p4 = s4(n_pool_in, cut_in), q4 = s4(n_pool_out, cut_out);
        auto p8 = s8(n_pool_in, cut_in), q8 = s8(n_pool_out, cut_out);
        // Softmax over 3 rows of 5 (int8 only).
        auto sm_in = s8(15, cut_in), sm_out = s8(15, cut_out);
        if (any) {
          EXPECT_THROW(avg_pool_s4(p4, q4, pg, -8, 7), std::invalid_argument);
          EXPECT_THROW(avg_pool_s8(p8, q8, pg, -128, 127), std::invalid_argument);
          EXPECT_THROW(max_pool_s8(p8, q8, pg, -128, 127), std::invalid_argument);
          EXPECT_THROW(softmax_s8(sm_in, sm_out, 3, 5, 0.1f), std::invalid_argument);
        } else {
          EXPECT_NO_THROW(avg_pool_s4(p4, q4, pg, -8, 7));
          EXPECT_NO_THROW(avg_pool_s8(p8, q8, pg, -128, 127));
          EXPECT_NO_THROW(max_pool_s8(p8, q8, pg, -128, 127));
          EXPECT_NO_THROW(softmax_s8(sm_in, sm_out, 3, 5, 0.1f));
        }
      }
  ConvGeometry mixed = g;
  mixed.out_ch = 4;
  std::vector<uint8_t> x4(static_cast<size_t>(packed_size_s4(n_in)));
  std::vector<uint8_t> dw4(static_cast<size_t>(packed_size_s4(n_dw)));
  std::vector<uint8_t> y4(static_cast<size_t>(packed_size_s4(mixed.output_elements())));
  EXPECT_THROW(depthwise_conv2d_s4(x4, dw4, {}, y4, mixed, rq), std::invalid_argument);
  std::vector<int8_t> x8(static_cast<size_t>(n_in)), dw8(static_cast<size_t>(n_dw));
  std::vector<int8_t> y8(static_cast<size_t>(mixed.output_elements()));
  EXPECT_THROW(depthwise_conv2d_s8(x8, dw8, {}, y8, mixed, rq), std::invalid_argument);
  // A softmax row needs at least one element to take its max from.
  EXPECT_THROW(softmax_s8({}, {}, 1, 0, 0.1f), std::invalid_argument);
}

}  // namespace
}  // namespace mn::kernels
