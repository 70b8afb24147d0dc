// Reference kernels (kReference): the semantic ground truth every other
// backend must match byte for byte. Conv2d, depthwise, fully-connected and
// avg pool are each one loop nest, templated over the element format, that
// serves both int8 and packed int4. The int4 format is the paper's custom
// CMSIS-NN extension (§5.1.3): nibbles are unpacked around the same int32
// multiply-accumulate and repacked on store.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"

namespace mn::kernels {

namespace {

// int8: one element per byte.
struct S8 {
  using Byte = int8_t;
  static constexpr int32_t kMin = -128, kMax = 127;
  // Output rows (FC: features) per unit of parallel work.
  static constexpr int64_t kGranule = 1;
  static int64_t bytes(int64_t elements) { return elements; }
  static int32_t load(const int8_t* p, int64_t i) { return p[i]; }
  static void store(int8_t* p, int64_t i, int32_t v) { p[i] = static_cast<int8_t>(v); }
};

// Packed int4: two elements per byte, the even index in the low nibble
// (quant::pack_int4).
struct S4 {
  using Byte = uint8_t;
  static constexpr int32_t kMin = -8, kMax = 7;
  // store() read-modify-writes a byte holding two elements, so parallel
  // chunks own pairs of output rows (FC: features). A pair starts at an even
  // element offset whatever the row size, so no byte spans two chunks.
  static constexpr int64_t kGranule = 2;
  static int64_t bytes(int64_t elements) { return packed_size_s4(elements); }
  // Moves the nibble to the top of a byte, then shifts it back down
  // arithmetically, which sign-extends it.
  static int32_t load(const uint8_t* p, int64_t i) {
    return static_cast<int8_t>(p[i >> 1] << ((i & 1) ? 0 : 4)) >> 4;
  }
  static void store(uint8_t* p, int64_t i, int32_t v) {
    uint8_t& byte = p[i >> 1];
    const auto nib = static_cast<uint8_t>(v & 0x0F);
    byte = (i & 1) ? static_cast<uint8_t>((byte & 0x0F) | (nib << 4))
                   : static_cast<uint8_t>((byte & 0xF0) | nib);
  }
};

[[noreturn]] void invalid(const char* kernel, const char* what) {
  throw std::invalid_argument(std::string(kernel) + ": " + what);
}

// Throws unless `size` bytes hold `elements` elements of format F.
template <class F>
void require(size_t size, int64_t elements, const char* kernel) {
  if (static_cast<int64_t>(size) < F::bytes(elements))
    invalid(kernel, "buffer too small");
}

// body(lo, hi) over [0, n) in parallel chunks of whole format granules.
template <class F, class Body>
void parallel_granules(int64_t n, int64_t grain, const Body& body) {
  parallel::parallel_for(
      0, (n + F::kGranule - 1) / F::kGranule,
      [&](int64_t lo, int64_t hi) {
        body(lo * F::kGranule, std::min(n, hi * F::kGranule));
      },
      grain);
}

template <class F>
void conv2d(std::span<const typename F::Byte> input,
            std::span<const typename F::Byte> weights,
            std::span<const int32_t> bias, std::span<typename F::Byte> output,
            const ConvGeometry& g, const RequantParams& rq, const char* kernel) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  require<F>(input.size(), g.input_elements(), kernel);
  require<F>(weights.size(), g.out_ch * ksize, kernel);
  require<F>(output.size(), g.output_elements(), kernel);
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/false));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   F::bytes(g.input_elements()) + F::bytes(g.out_ch * ksize));
  obs::counter_add(obs::Counter::kKernelBytesWritten, F::bytes(g.output_elements()));
  const int32_t lo = std::max(rq.act_min, F::kMin), hi = std::min(rq.act_max, F::kMax);
  const auto* x = input.data();
  const auto* w = weights.data();
  auto* y = output.data();
  // Output rows are disjoint (and integer arithmetic is order-free), so the
  // row loop parallelizes with exact-match results at any thread count.
  parallel_granules<F>(g.out_h, /*grain=*/1, [&](int64_t oy_lo, int64_t oy_hi) {
  for (int32_t oy = static_cast<int32_t>(oy_lo); oy < oy_hi; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const int32_t ix0 = ox * g.stride - g.pad_w;
      const int64_t out_px = (int64_t{oy} * g.out_w + ox) * g.out_ch;
      for (int32_t oc = 0; oc < g.out_ch; ++oc) {
        int32_t acc = 0;
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = iy0 + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ix0 + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const int64_t xo = (int64_t{iy} * g.in_w + ix) * g.in_ch;
            const int64_t wo = oc * ksize + (int64_t{ky} * g.kw + kx) * g.in_ch;
            for (int32_t ic = 0; ic < g.in_ch; ++ic)
              acc += (F::load(x, xo + ic) - rq.input_zp) * F::load(w, wo + ic);
          }
        }
        F::store(y, out_px + oc, rq.requantize(add_bias(acc, bias, oc), oc, lo, hi));
      }
    }
  }
  });
}

template <class F>
void depthwise_conv2d(std::span<const typename F::Byte> input,
                      std::span<const typename F::Byte> weights,
                      std::span<const int32_t> bias,
                      std::span<typename F::Byte> output, const ConvGeometry& g,
                      const RequantParams& rq, const char* kernel) {
  if (g.in_ch != g.out_ch) invalid(kernel, "in_ch != out_ch");
  const int64_t wsize = int64_t{g.kh} * g.kw * g.in_ch;
  require<F>(input.size(), g.input_elements(), kernel);
  require<F>(weights.size(), wsize, kernel);
  require<F>(output.size(), g.output_elements(), kernel);
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/true));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   F::bytes(g.input_elements()) + F::bytes(wsize));
  obs::counter_add(obs::Counter::kKernelBytesWritten, F::bytes(g.output_elements()));
  const int32_t lo = std::max(rq.act_min, F::kMin), hi = std::min(rq.act_max, F::kMax);
  const auto* x = input.data();
  const auto* w = weights.data();
  auto* y = output.data();
  parallel_granules<F>(g.out_h, /*grain=*/1, [&](int64_t oy_lo, int64_t oy_hi) {
  for (int32_t oy = static_cast<int32_t>(oy_lo); oy < oy_hi; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const int32_t ix0 = ox * g.stride - g.pad_w;
      const int64_t out_px = (int64_t{oy} * g.out_w + ox) * g.out_ch;
      for (int32_t c = 0; c < g.out_ch; ++c) {
        int32_t acc = 0;
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = iy0 + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ix0 + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            acc += (F::load(x, (int64_t{iy} * g.in_w + ix) * g.in_ch + c) - rq.input_zp) *
                   F::load(w, (int64_t{ky} * g.kw + kx) * g.in_ch + c);
          }
        }
        F::store(y, out_px + c, rq.requantize(add_bias(acc, bias, c), c, lo, hi));
      }
    }
  }
  });
}

template <class F>
void fully_connected(std::span<const typename F::Byte> input,
                     std::span<const typename F::Byte> weights,
                     std::span<const int32_t> bias,
                     std::span<typename F::Byte> output, int32_t in_features,
                     int32_t out_features, const RequantParams& rq,
                     const char* kernel) {
  const int64_t wsize = int64_t{in_features} * out_features;
  require<F>(input.size(), in_features, kernel);
  require<F>(weights.size(), wsize, kernel);
  require<F>(output.size(), out_features, kernel);
  obs::counter_add(obs::Counter::kKernelMacs, wsize);
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   F::bytes(in_features) + F::bytes(wsize));
  obs::counter_add(obs::Counter::kKernelBytesWritten, F::bytes(out_features));
  const int32_t lo = std::max(rq.act_min, F::kMin), hi = std::min(rq.act_max, F::kMax);
  const auto* x = input.data();
  const auto* w = weights.data();
  auto* y = output.data();
  // Each output feature is an independent dot product; grain keeps tiny
  // classifier heads from paying dispatch overhead per feature.
  parallel_granules<F>(out_features, /*grain=*/16 / F::kGranule,
                       [&](int64_t o_lo, int64_t o_hi) {
    for (int32_t o = static_cast<int32_t>(o_lo); o < o_hi; ++o) {
      const int64_t wo = int64_t{o} * in_features;
      int32_t acc = 0;
      for (int32_t i = 0; i < in_features; ++i)
        acc += (F::load(x, i) - rq.input_zp) * F::load(w, wo + i);
      F::store(y, o, rq.requantize(add_bias(acc, bias, o), o, lo, hi));
    }
  });
}

template <class F>
void avg_pool(std::span<const typename F::Byte> input,
              std::span<typename F::Byte> output, const PoolGeometry& g,
              int32_t act_min, int32_t act_max, const char* kernel) {
  const int64_t in_elements = int64_t{g.in_h} * g.in_w * g.ch;
  const int64_t out_elements = int64_t{g.out_h} * g.out_w * g.ch;
  require<F>(input.size(), in_elements, kernel);
  require<F>(output.size(), out_elements, kernel);
  obs::counter_add(obs::Counter::kKernelBytesRead, F::bytes(in_elements));
  obs::counter_add(obs::Counter::kKernelBytesWritten, F::bytes(out_elements));
  const int32_t lo = std::max(act_min, F::kMin), hi = std::min(act_max, F::kMax);
  const auto* x = input.data();
  auto* y = output.data();
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    // The window's taps inside the input, clamped once per output row/pixel.
    const int32_t iy0 = oy * g.stride - g.pad_h;
    const int32_t ky_lo = std::max(0, -iy0), ky_hi = std::min(g.kh, g.in_h - iy0);
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t ix0 = ox * g.stride - g.pad_w;
      const int32_t kx_lo = std::max(0, -ix0), kx_hi = std::min(g.kw, g.in_w - ix0);
      const int32_t count =
          ky_hi > ky_lo && kx_hi > kx_lo ? (ky_hi - ky_lo) * (kx_hi - kx_lo) : 0;
      const int64_t out_px = (int64_t{oy} * g.out_w + ox) * g.ch;
      for (int32_t c = 0; c < g.ch; ++c) {
        int32_t acc = 0;
        for (int32_t ky = ky_lo; ky < ky_hi; ++ky)
          for (int32_t kx = kx_lo; kx < kx_hi; ++kx)
            acc += F::load(x, (int64_t{iy0 + ky} * g.in_w + ix0 + kx) * g.ch + c);
        const int32_t v = count > 0
                        ? (acc > 0 ? (acc + count / 2) / count : (acc - count / 2) / count)
                        : 0;
        F::store(y, out_px + c, std::clamp(v, lo, hi));
      }
    }
  }
}

}  // namespace

void conv2d_s8(std::span<const int8_t> input, std::span<const int8_t> weights,
               std::span<const int32_t> bias, std::span<int8_t> output,
               const ConvGeometry& g, const RequantParams& rq) {
  conv2d<S8>(input, weights, bias, output, g, rq, "conv2d_s8");
}

void conv2d_s4(std::span<const uint8_t> input, std::span<const uint8_t> weights,
               std::span<const int32_t> bias, std::span<uint8_t> output,
               const ConvGeometry& g, const RequantParams& rq) {
  conv2d<S4>(input, weights, bias, output, g, rq, "conv2d_s4");
}

void depthwise_conv2d_s8(std::span<const int8_t> input,
                         std::span<const int8_t> weights,
                         std::span<const int32_t> bias, std::span<int8_t> output,
                         const ConvGeometry& g, const RequantParams& rq) {
  depthwise_conv2d<S8>(input, weights, bias, output, g, rq, "depthwise_conv2d_s8");
}

void depthwise_conv2d_s4(std::span<const uint8_t> input,
                         std::span<const uint8_t> weights,
                         std::span<const int32_t> bias, std::span<uint8_t> output,
                         const ConvGeometry& g, const RequantParams& rq) {
  depthwise_conv2d<S4>(input, weights, bias, output, g, rq, "depthwise_conv2d_s4");
}

void fully_connected_s8(std::span<const int8_t> input,
                        std::span<const int8_t> weights,
                        std::span<const int32_t> bias, std::span<int8_t> output,
                        int32_t in_features, int32_t out_features,
                        const RequantParams& rq) {
  fully_connected<S8>(input, weights, bias, output, in_features, out_features, rq,
                      "fully_connected_s8");
}

void fully_connected_s4(std::span<const uint8_t> input,
                        std::span<const uint8_t> weights,
                        std::span<const int32_t> bias, std::span<uint8_t> output,
                        int32_t in_features, int32_t out_features,
                        const RequantParams& rq) {
  fully_connected<S4>(input, weights, bias, output, in_features, out_features, rq,
                      "fully_connected_s4");
}

void avg_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max) {
  avg_pool<S8>(input, output, g, act_min, act_max, "avg_pool_s8");
}

void avg_pool_s4(std::span<const uint8_t> input, std::span<uint8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max) {
  avg_pool<S4>(input, output, g, act_min, act_max, "avg_pool_s4");
}

int8_t load_s4(std::span<const uint8_t> packed, int64_t index) {
  return static_cast<int8_t>(S4::load(packed.data(), index));
}

void store_s4(std::span<uint8_t> packed, int64_t index, int8_t value) {
  if (value < S4::kMin || value > S4::kMax) throw std::invalid_argument("store_s4: range");
  S4::store(packed.data(), index, value);
}

void max_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max) {
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   int64_t{g.in_h} * g.in_w * g.ch);
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   int64_t{g.out_h} * g.out_w * g.ch);
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      int8_t* out_px = output.data() + (int64_t{oy} * g.out_w + ox) * g.ch;
      for (int32_t c = 0; c < g.ch; ++c) {
        int32_t best = -128;
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = oy * g.stride - g.pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ox * g.stride - g.pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            best = std::max<int32_t>(best, input[(int64_t{iy} * g.in_w + ix) * g.ch + c]);
          }
        }
        out_px[c] = static_cast<int8_t>(std::clamp(best, act_min, act_max));
      }
    }
  }
}

void add_s8(std::span<const int8_t> a, std::span<const int8_t> b,
            std::span<int8_t> output, const AddParams& p) {
  if (a.size() != b.size() || a.size() != output.size())
    throw std::invalid_argument("add_s8: size mismatch");
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   static_cast<int64_t>(a.size() + b.size()));
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   static_cast<int64_t>(output.size()));
  for (size_t i = 0; i < a.size(); ++i) {
    const int32_t sa = (static_cast<int32_t>(a[i]) - p.a_zp) << p.left_shift;
    const int32_t sb = (static_cast<int32_t>(b[i]) - p.b_zp) << p.left_shift;
    const int32_t ra = quant::multiply_by_quantized_multiplier(sa, p.a_mult);
    const int32_t rb = quant::multiply_by_quantized_multiplier(sb, p.b_mult);
    int32_t v = quant::multiply_by_quantized_multiplier(ra + rb, p.out_mult) + p.out_zp;
    v = std::clamp(v, p.act_min, p.act_max);
    output[i] = static_cast<int8_t>(v);
  }
}

void softmax_s8(std::span<const int8_t> input, std::span<int8_t> output,
                int32_t rows, int32_t cols, float input_scale) {
  // Float-internal softmax quantized to the TFLite convention
  // (scale 1/256, zero point -128).
  obs::counter_add(obs::Counter::kKernelBytesRead, int64_t{rows} * cols);
  obs::counter_add(obs::Counter::kKernelBytesWritten, int64_t{rows} * cols);
  for (int32_t r = 0; r < rows; ++r) {
    const int8_t* in = input.data() + int64_t{r} * cols;
    int8_t* out = output.data() + int64_t{r} * cols;
    int8_t mx = in[0];
    for (int32_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (int32_t c = 0; c < cols; ++c)
      sum += std::exp(static_cast<double>(input_scale) * (in[c] - mx));
    for (int32_t c = 0; c < cols; ++c) {
      const double pv = std::exp(static_cast<double>(input_scale) * (in[c] - mx)) / sum;
      const int32_t q = static_cast<int32_t>(std::lround(pv * 256.0)) - 128;
      out[c] = static_cast<int8_t>(std::clamp(q, -128, 127));
    }
  }
}

}  // namespace mn::kernels
