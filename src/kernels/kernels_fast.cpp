// Fast-backend kernels: cache-blocked im2col-GEMM over weight panels packed
// at model-load time, and a channel-vectorised depthwise conv over per-tap
// weight rows (see backend.hpp for the layout and the bit-exactness
// contract).
//
// Three GEMM ingredients, each exact in integer arithmetic:
//   1. Zero-point folding. The reference inner loop computes
//      sum((x - zp) * w); the packed panel carries sum(w) per row, so the
//      loop runs the plain dot sum(x * w) and the initializer absorbs
//      -zp * sum(w). Same int32 value, one subtraction fewer per MAC.
//   2. Pixel-block cache blocking. A block of kConvPixelBlock im2col columns
//      is gathered once, then every weight row is streamed once *per block*
//      instead of once per output pixel — an out_ch x block GEMM tile.
//   3. SSE2 pmaddwd dot products on x86-64 (sign-extend int8 lanes to
//      int16, multiply-accumulate pairs into int32). Integer SIMD wraps
//      exactly like scalar int32 arithmetic, so reassociating the
//      accumulation order cannot change the result. Non-x86 hosts take the
//      unrolled scalar path below — slower, still byte-identical.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernels/backend.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"

namespace mn::kernels {

namespace {

// Exact dot product of two int8 rows. `n` may exceed the logically valid
// prefix only when both tails are zero-padded (packed rows / padded columns).
inline int32_t dot_s8(const int8_t* x, const int8_t* w, int64_t n) {
#if defined(__SSE2__)
  __m128i acc = _mm_setzero_si128();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i xv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i wv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    // Sign-extend bytes to 16-bit lanes (unpack-with-self + arithmetic
    // shift: SSE2 has no pmovsxbw). Products fit int16 pairs in int32.
    const __m128i xlo = _mm_srai_epi16(_mm_unpacklo_epi8(xv, xv), 8);
    const __m128i xhi = _mm_srai_epi16(_mm_unpackhi_epi8(xv, xv), 8);
    const __m128i wlo = _mm_srai_epi16(_mm_unpacklo_epi8(wv, wv), 8);
    const __m128i whi = _mm_srai_epi16(_mm_unpackhi_epi8(wv, wv), 8);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(xlo, wlo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(xhi, whi));
  }
  alignas(16) int32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  int32_t s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) s += static_cast<int32_t>(x[i]) * w[i];
  return s;
#else
  int32_t s = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s += static_cast<int32_t>(x[i]) * w[i];
    s += static_cast<int32_t>(x[i + 1]) * w[i + 1];
    s += static_cast<int32_t>(x[i + 2]) * w[i + 2];
    s += static_cast<int32_t>(x[i + 3]) * w[i + 3];
  }
  for (; i < n; ++i) s += static_cast<int32_t>(x[i]) * w[i];
  return s;
#endif
}

inline int8_t requant_store(int32_t acc, const RequantParams& rq, int32_t oc) {
  return static_cast<int8_t>(rq.requantize(acc, oc, rq.act_min, rq.act_max));
}

}  // namespace

int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  const int64_t stride = (ksize + kPackAlign - 1) / kPackAlign * kPackAlign;
  return int64_t{kConvPixelBlock} * stride;
}

void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantParams& rq) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  if (packed.row_len != ksize || packed.num_rows != g.out_ch)
    throw std::invalid_argument("conv2d_s8_fast: packed panel/geometry mismatch");
  if (static_cast<int64_t>(input.size()) < g.input_elements() ||
      static_cast<int64_t>(output.size()) < g.output_elements())
    throw std::invalid_argument("conv2d_s8_fast: buffer too small");
  if (static_cast<int64_t>(scratch.size()) < conv2d_fast_scratch_bytes(g))
    throw std::invalid_argument("conv2d_s8_fast: scratch too small");
  const int64_t row_stride = packed.row_stride;
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/false));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   g.input_elements() + int64_t{g.out_ch} * ksize);
  obs::counter_add(obs::Counter::kKernelBytesWritten, g.output_elements());
  obs::counter_add(obs::Counter::kIm2colBytes,
                   int64_t{g.out_h} * g.out_w * ksize);
  // Padding slots hold the raw zero point (the loop dots x*w directly; the
  // -zp*sum_w initializer turns that contribution into exactly zero).
  const int8_t pad_value =
      static_cast<int8_t>(std::clamp<int32_t>(rq.input_zp, -128, 127));
  const int64_t chunks = parallel::num_chunks(g.out_h, /*grain=*/1);
  parallel::for_chunks(chunks, [&](int64_t chunk) {
    const parallel::Range rows = parallel::chunk_range(g.out_h, chunks, chunk);
    std::vector<int8_t> local;
    int8_t* block = scratch.data();
    if (chunks > 1) {
      local.resize(static_cast<size_t>(conv2d_fast_scratch_bytes(g)));
      block = local.data();
    }
    for (int32_t oy = static_cast<int32_t>(rows.begin);
         oy < static_cast<int32_t>(rows.end); ++oy) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      for (int32_t ox0 = 0; ox0 < g.out_w; ox0 += kConvPixelBlock) {
        const int32_t np = std::min<int32_t>(kConvPixelBlock, g.out_w - ox0);
        // Gather np im2col columns into the block; zero each column's pad
        // tail so the SIMD loop can run over the full padded stride (zero
        // weights times anything is zero, but a shared scratch may hold
        // another op's bytes there).
        for (int32_t p = 0; p < np; ++p) {
          int8_t* col = block + int64_t{p} * row_stride;
          const int32_t ix0 = (ox0 + p) * g.stride - g.pad_w;
          for (int32_t ky = 0; ky < g.kh; ++ky) {
            const int32_t iy = iy0 + ky;
            for (int32_t kx = 0; kx < g.kw; ++kx) {
              const int32_t ix = ix0 + kx;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
                std::memset(col, pad_value, static_cast<size_t>(g.in_ch));
              } else {
                std::memcpy(
                    col, input.data() + (int64_t{iy} * g.in_w + ix) * g.in_ch,
                    static_cast<size_t>(g.in_ch));
              }
              col += g.in_ch;
            }
          }
          std::memset(col, 0, static_cast<size_t>(row_stride - ksize));
        }
        // GEMM tile: stream each packed weight row once across the block.
        int8_t* out_base =
            output.data() + (int64_t{oy} * g.out_w + ox0) * g.out_ch;
        for (int32_t oc = 0; oc < g.out_ch; ++oc) {
          const int8_t* wr = packed.rows.data() + int64_t{oc} * row_stride;
          const int32_t init = add_bias(
              -rq.input_zp * packed.sum_w[static_cast<size_t>(oc)], bias, oc);
          for (int32_t p = 0; p < np; ++p) {
            const int32_t acc = wrap_add(
                init, dot_s8(block + int64_t{p} * row_stride, wr, row_stride));
            out_base[int64_t{p} * g.out_ch + oc] = requant_store(acc, rq, oc);
          }
        }
      }
    }
  });
}

void depthwise_conv2d_s8_fast(std::span<const int8_t> input,
                              const PackedOpWeights& packed,
                              std::span<const int32_t> bias,
                              std::span<int8_t> output, const ConvGeometry& g,
                              const RequantParams& rq) {
  const int32_t ch = g.in_ch;
  if (g.out_ch != ch)
    throw std::invalid_argument("depthwise_conv2d_s8_fast: in_ch != out_ch");
  if (packed.num_rows != int64_t{g.kh} * g.kw || packed.row_len != ch)
    throw std::invalid_argument(
        "depthwise_conv2d_s8_fast: packed panel/geometry mismatch");
  if (static_cast<int64_t>(input.size()) < g.input_elements() ||
      static_cast<int64_t>(output.size()) < g.output_elements())
    throw std::invalid_argument("depthwise_conv2d_s8_fast: buffer too small");
  // x - zp must fit an int16 lane: |x - zp| <= 255 only for an int8 zp.
  if (rq.input_zp < -128 || rq.input_zp > 127)
    throw std::invalid_argument(
        "depthwise_conv2d_s8_fast: input zero point outside int8");
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/true));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   g.input_elements() + int64_t{g.kh} * g.kw * ch);
  obs::counter_add(obs::Counter::kKernelBytesWritten, g.output_elements());
  const int64_t row_stride = packed.row_stride;
  const int8_t* x = input.data();
  const int8_t* w = packed.rows.data();
#if defined(__SSE2__)
  const int32_t simd_ch = ch / 8 * 8;
  const __m128i zp16 = _mm_set1_epi16(static_cast<int16_t>(rq.input_zp));
#else
  const int32_t simd_ch = 0;
#endif
  parallel::parallel_for(0, g.out_h, [&](int64_t oy_lo, int64_t oy_hi) {
    for (int32_t oy = static_cast<int32_t>(oy_lo); oy < oy_hi; ++oy) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const int32_t ky0 = std::max(0, -iy0);
      const int32_t ky1 = std::min(g.kh, g.in_h - iy0);
      for (int32_t ox = 0; ox < g.out_w; ++ox) {
        // The taps that land inside the input, clamped once per pixel: the
        // inner loops carry no bounds check, and a padded tap is skipped
        // exactly as the reference skips it.
        const int32_t ix0 = ox * g.stride - g.pad_w;
        const int32_t kx0 = std::max(0, -ix0);
        const int32_t kx1 = std::min(g.kw, g.in_w - ix0);
        int8_t* out_px = output.data() + (int64_t{oy} * g.out_w + ox) * ch;
        int32_t c = 0;
#if defined(__SSE2__)
        for (; c < simd_ch; c += 8) {
          __m128i acc_lo = _mm_setzero_si128();
          __m128i acc_hi = _mm_setzero_si128();
          if (!bias.empty()) {
            acc_lo = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(bias.data() + c));
            acc_hi = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(bias.data() + c + 4));
          }
          for (int32_t ky = ky0; ky < ky1; ++ky) {
            const int64_t x_row = (int64_t{iy0 + ky} * g.in_w + ix0) * ch + c;
            const int64_t w_row = int64_t{ky} * g.kw * row_stride + c;
            for (int32_t kx = kx0; kx < kx1; ++kx) {
              // x_row alone may index before the input (left padding);
              // with kx >= kx0 the sum never does.
              const __m128i xv = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
                  x + (x_row + int64_t{kx} * ch)));
              const __m128i wv = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
                  w + (w_row + kx * row_stride)));
              // Sign-extend to int16; |x - zp| <= 255 and |w| <= 128, so
              // pmullw's low half is the exact product (|p| <= 32640).
              const __m128i x16 = _mm_sub_epi16(
                  _mm_srai_epi16(_mm_unpacklo_epi8(xv, xv), 8), zp16);
              const __m128i w16 = _mm_srai_epi16(_mm_unpacklo_epi8(wv, wv), 8);
              const __m128i p = _mm_mullo_epi16(x16, w16);
              acc_lo = _mm_add_epi32(
                  acc_lo, _mm_srai_epi32(_mm_unpacklo_epi16(p, p), 16));
              acc_hi = _mm_add_epi32(
                  acc_hi, _mm_srai_epi32(_mm_unpackhi_epi16(p, p), 16));
            }
          }
          alignas(16) int32_t acc[8];
          _mm_store_si128(reinterpret_cast<__m128i*>(acc), acc_lo);
          _mm_store_si128(reinterpret_cast<__m128i*>(acc + 4), acc_hi);
          for (int32_t k = 0; k < 8; ++k)
            out_px[c + k] = requant_store(acc[k], rq, c + k);
        }
#endif
        for (; c < ch; ++c) {
          int32_t acc = 0;
          for (int32_t ky = ky0; ky < ky1; ++ky) {
            const int64_t x_row = (int64_t{iy0 + ky} * g.in_w + ix0) * ch + c;
            const int64_t w_row = int64_t{ky} * g.kw * row_stride + c;
            for (int32_t kx = kx0; kx < kx1; ++kx)
              acc += (static_cast<int32_t>(x[x_row + int64_t{kx} * ch]) -
                      rq.input_zp) *
                     static_cast<int32_t>(w[w_row + kx * row_stride]);
          }
          out_px[c] = requant_store(add_bias(acc, bias, c), rq, c);
        }
      }
    }
  });
}

void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output, int32_t in_features,
                             int32_t out_features, const RequantParams& rq) {
  if (packed.row_len != in_features || packed.num_rows != out_features)
    throw std::invalid_argument(
        "fully_connected_s8_fast: packed panel/geometry mismatch");
  obs::counter_add(obs::Counter::kKernelMacs,
                   int64_t{in_features} * out_features);
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   in_features + int64_t{in_features} * out_features);
  obs::counter_add(obs::Counter::kKernelBytesWritten, out_features);
  // The input is the caller's span (no padded copy), so the dot runs over
  // in_features and takes the scalar tail; packed rows store the real
  // weights in their first row_len bytes.
  parallel::parallel_for(
      0, out_features,
      [&](int64_t o_lo, int64_t o_hi) {
        for (int32_t o = static_cast<int32_t>(o_lo); o < o_hi; ++o) {
          const int8_t* wr =
              packed.rows.data() + int64_t{o} * packed.row_stride;
          const int32_t acc = dot_s8(input.data(), wr, in_features) -
                              rq.input_zp * packed.sum_w[static_cast<size_t>(o)];
          output[static_cast<size_t>(o)] = requant_store(add_bias(acc, bias, o), rq, o);
        }
      },
      /*grain=*/16);
}

}  // namespace mn::kernels
