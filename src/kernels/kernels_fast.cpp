// Fast-backend kernels: GEMM over weight panels packed at model-load time,
// a channel-vectorised depthwise conv over per-tap weight rows, and one
// requant epilogue they all end in (see backend.hpp for the layout, the
// Isa variants and the bit-exactness contract).
//
// The GEMM ingredients, each exact in integer arithmetic:
//   1. Zero-point folding. The reference inner loop computes
//      sum((x - zp) * w); the packed panel carries sum(w) per row, so the
//      loop runs the plain dot sum(x * w) and the epilogue's initializer
//      adds -zp * sum(w). Same int32 value, one subtraction fewer per MAC.
//   2. Direct pointwise. A 1x1 conv at stride 1 without padding reads each
//      input pixel in place as its GEMM column; other convs gather a block
//      of kConvPixelBlock im2col columns and run the same kernel over it,
//      so every weight row is streamed once per block, not once per pixel.
//   3. SIMD dot products: SSE2 pmaddwd per (pixel, channel) in the baseline
//      variant; in the AVX2 variant a register tile of 4 channels x 3
//      pixels of vpmaddwd accumulators, reduced once per tile. Integer SIMD
//      wraps exactly like scalar int32 arithmetic, so reassociating the
//      accumulation order cannot change the result.
//   4. Vector requant (AVX2): multiply_by_quantized_multiplier over 8 lanes
//      with 64-bit vpmuldq products, reproducing the scalar rounding, shift
//      and saturation lane for lane.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MN_HAVE_AVX2_VARIANT 1
#define MN_AVX2 __attribute__((target("avx2")))
#endif

#include "kernels/backend.hpp"
#include "parallel/pool.hpp"

namespace mn::kernels {

namespace {

void check_isa(Isa isa, const char* who) {
  if (!isa_supported(isa))
    throw std::invalid_argument(std::string(who) + ": " + isa_name(isa) +
                                " variant not supported on this host");
}

const int32_t* bias_ptr(std::span<const int32_t> bias, int32_t channels,
                        const char* who) {
  if (bias.empty()) return nullptr;
  if (static_cast<int64_t>(bias.size()) < channels)
    throw std::invalid_argument(std::string(who) + ": bias shorter than channels");
  return bias.data();
}

// Exact dot product of two int8 rows. Reads exactly n bytes of each row.
inline int32_t dot_s8(const int8_t* x, const int8_t* w, int64_t n) {
  int64_t i = 0;
  int32_t s = 0;
#if defined(__SSE2__)
  __m128i acc = _mm_setzero_si128();
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
  s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
#endif
  for (; i < n; ++i) s += static_cast<int32_t>(x[i]) * w[i];
  return s;
}

// -input_zp * sum_w[c] + bias[c], wrapping; either term may be absent.
inline int32_t row_init(const int32_t* sum_w, const int32_t* bias,
                        int32_t input_zp, int32_t c) {
  uint32_t init = 0;
  if (sum_w != nullptr)
    init = static_cast<uint32_t>(-input_zp) * static_cast<uint32_t>(sum_w[c]);
  if (bias != nullptr) init += static_cast<uint32_t>(bias[c]);
  return static_cast<int32_t>(init);
}

inline void requant_row_scalar(const int32_t* acc, int32_t c0, int32_t n,
                               const int32_t* sum_w, const int32_t* bias,
                               const RequantParams& rq, int8_t* out) {
  for (int32_t k = 0; k < n; ++k) {
    const int32_t c = c0 + k;
    out[k] = static_cast<int8_t>(
        rq.requantize(wrap_add(acc[k], row_init(sum_w, bias, rq.input_zp, c)),
                      c, rq.act_min, rq.act_max));
  }
}

// Baseline pointwise GEMM: `pixels` columns of k_len bytes at x_stride, one
// dot per (channel, pixel), channels in groups of 8 so a group's weight rows
// stay in L1 across the pixels.
void pointwise_baseline(const int8_t* x, int64_t x_stride, int64_t k_len,
                        int64_t pixels, const PackedOpWeights& pk,
                        const int32_t* bias, const RequantParams& rq,
                        int8_t* out) {
  const int32_t n = pk.num_rows;
  const int32_t* sum_w = pk.sum_w.data();
  for (int32_t oc = 0; oc < n; oc += 8) {
    const int32_t nc = std::min(8, n - oc);
    for (int64_t p = 0; p < pixels; ++p) {
      int32_t acc[8];
      for (int32_t c = 0; c < nc; ++c)
        acc[c] = dot_s8(x + p * x_stride,
                        pk.rows.data() + int64_t{oc + c} * pk.row_stride, k_len);
      requant_row_scalar(acc, oc, nc, sum_w, bias, rq, out + p * n + oc);
    }
  }
}

#if defined(MN_HAVE_AVX2_VARIANT)

static_assert(sizeof(quant::FixedMultiplier) == 8 &&
                  offsetof(quant::FixedMultiplier, shift) == 4,
              "the AVX2 epilogue loads FixedMultiplier {multiplier, shift} "
              "pairs as int32 lanes");

// Per-call constants of the vector requant.
struct Avx2Rq {
  __m256i neg_zp, lo, hi, out_zp;  // lo/hi: clamp bounds minus out_zp
  __m256i mult, shift;             // per-tensor broadcast (unused per channel)
};

MN_AVX2 inline Avx2Rq avx2_rq(const RequantParams& rq) {
  Avx2Rq r;
  r.neg_zp = _mm256_set1_epi32(-rq.input_zp);
  r.lo = _mm256_set1_epi32(rq.act_min - rq.output_zp);
  r.hi = _mm256_set1_epi32(rq.act_max - rq.output_zp);
  r.out_zp = _mm256_set1_epi32(rq.output_zp);
  r.mult = _mm256_set1_epi32(rq.mult.multiplier);
  r.shift = _mm256_set1_epi32(rq.mult.shift);
  return r;
}

// quant::multiply_by_quantized_multiplier on 8 lanes, bit for bit.
MN_AVX2 inline __m256i mbqm8(__m256i x, __m256i m, __m256i shift) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i int_max = _mm256_set1_epi32(0x7fffffff);
  const __m256i int_min = _mm256_set1_epi32(static_cast<int32_t>(0x80000000u));
  // Rounding doubling high multiply. The scalar truncates (p + nudge) / 2^31
  // with nudge = p >= 0 ? 2^30 : 1 - 2^30, which equals floor((p + 2^30) /
  // 2^31) for either sign, i.e. bits 31..62 of p + 2^30. Logical and
  // arithmetic 64-bit shifts agree on those bits (AVX2 has no 64-bit
  // arithmetic shift). Even lanes come from vpmuldq directly, odd lanes
  // after moving them down; their bits 31..62 land in the high dword.
  const __m256i nudge = _mm256_set1_epi64x(int64_t{1} << 30);
  const __m256i p_even = _mm256_add_epi64(_mm256_mul_epi32(x, m), nudge);
  const __m256i p_odd = _mm256_add_epi64(
      _mm256_mul_epi32(_mm256_srli_epi64(x, 32), _mm256_srli_epi64(m, 32)),
      nudge);
  __m256i high = _mm256_blend_epi32(_mm256_srli_epi64(p_even, 31),
                                    _mm256_slli_epi64(p_odd, 1), 0xAA);
  // The one product whose quotient leaves int32: INT32_MIN * INT32_MIN.
  const __m256i overflow = _mm256_and_si256(_mm256_cmpeq_epi32(x, int_min),
                                            _mm256_cmpeq_epi32(m, int_min));
  high = _mm256_blendv_epi8(high, int_max, overflow);
  // Left shift (shift > 0), saturating by sign: the shift lost bits iff
  // shifting back differs. vpsllvd/vpsravd take counts >= 32 as "all out",
  // which the same test turns into saturation for any nonzero value.
  const __m256i left = _mm256_max_epi32(shift, zero);
  const __m256i shl = _mm256_sllv_epi32(high, left);
  const __m256i kept =
      _mm256_cmpeq_epi32(_mm256_srav_epi32(shl, left), high);
  const __m256i sat = _mm256_xor_si256(_mm256_srai_epi32(high, 31), int_max);
  __m256i r = _mm256_blendv_epi8(sat, shl, kept);
  // Rounding right shift (shift < 0): round half away from zero via the
  // remainder/threshold test. For counts past 31 the scalar returns the sign
  // (0 or -1): vpsravd gives exactly that, and a zero mask drops the
  // rounding increment.
  const __m256i right = _mm256_max_epi32(_mm256_sub_epi32(zero, shift), zero);
  const __m256i mask = _mm256_andnot_si256(
      _mm256_cmpgt_epi32(right, _mm256_set1_epi32(31)),
      _mm256_sub_epi32(_mm256_sllv_epi32(one, right), one));
  const __m256i rem = _mm256_and_si256(r, mask);
  const __m256i thr = _mm256_sub_epi32(_mm256_srai_epi32(mask, 1),
                                       _mm256_srai_epi32(r, 31));
  r = _mm256_sub_epi32(_mm256_srav_epi32(r, right), _mm256_cmpgt_epi32(rem, thr));
  return r;
}

// Requantizes acc (channels c..c+7, dot sums without the initializer) and
// stores 8 int8 outputs: RequantParams::requantize per lane, then the low
// byte of each lane (the scalar path's static_cast<int8_t>).
MN_AVX2 inline void requant8(__m256i acc, int32_t c, const int32_t* sum_w,
                             const int32_t* bias, const RequantParams& rq,
                             const Avx2Rq& k, int8_t* out) {
  if (sum_w != nullptr)
    acc = _mm256_add_epi32(
        acc, _mm256_mullo_epi32(
                 k.neg_zp, _mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(sum_w + c))));
  if (bias != nullptr)
    acc = _mm256_add_epi32(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias + c)));
  __m256i mult = k.mult, shift = k.shift;
  if (!rq.per_channel.empty()) {
    // 8 {multiplier, shift} pairs -> two lanes of each, deinterleaved.
    const int32_t* pairs =
        reinterpret_cast<const int32_t*>(rq.per_channel.data() + c);
    const __m256i split = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    const __m256i a = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pairs)), split);
    const __m256i b = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pairs + 8)), split);
    mult = _mm256_permute2x128_si256(a, b, 0x20);
    shift = _mm256_permute2x128_si256(a, b, 0x31);
  }
  __m256i v = mbqm8(acc, mult, shift);
  v = _mm256_add_epi32(_mm256_min_epi32(_mm256_max_epi32(v, k.lo), k.hi),
                       k.out_zp);
  const __m256i low_bytes = _mm256_shuffle_epi8(
      v, _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                          -1, -1, 0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1,
                          -1, -1, -1, -1));
  const __m128i packed =
      _mm_unpacklo_epi32(_mm256_castsi256_si128(low_bytes),
                         _mm256_extracti128_si256(low_bytes, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out), packed);
}

MN_AVX2 void requant_row_avx2(const int32_t* acc, int32_t c0, int32_t n,
                              const int32_t* sum_w, const int32_t* bias,
                              const RequantParams& rq, int8_t* out) {
  const Avx2Rq k = avx2_rq(rq);
  int32_t i = 0;
  for (; i + 8 <= n; i += 8)
    requant8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)),
             c0 + i, sum_w, bias, rq, k, out + i);
  requant_row_scalar(acc + i, c0 + i, n - i, sum_w, bias, rq, out + i);
}

// Int8 row bytes [k, k+16) sign-extended to 16 int16 lanes.
MN_AVX2 inline __m256i load16_s16(const int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// Register tile: dot sums of P pixel columns with C packed rows, C in
// {1, 4}. xs[p] is pixel p's column; the K loop reads it in 16-byte steps
// up to k_main, then (has_tail) one step from tails[p], a zero-padded copy
// of the bytes past k_main. The packed rows are zero-padded to a 16-byte
// stride, so their tail step stays inside the row. The sums land in
// sums[p * 8 + c].
template <int P, int C>
MN_AVX2 inline void dot_tile(const int8_t* const* xs, const int8_t (*tails)[16],
                             int64_t k_main, bool has_tail, const int8_t* w,
                             int64_t row_stride, int32_t* sums) {
  __m256i acc[P][C];
#pragma GCC unroll 4
  for (int p = 0; p < P; ++p)
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) acc[p][c] = _mm256_setzero_si256();
  for (int64_t k = 0; k < k_main; k += 16) {
    __m256i xv[P];
#pragma GCC unroll 4
    for (int p = 0; p < P; ++p) xv[p] = load16_s16(xs[p] + k);
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) {
      const __m256i wv = load16_s16(w + c * row_stride + k);
#pragma GCC unroll 4
      for (int p = 0; p < P; ++p)
        acc[p][c] = _mm256_add_epi32(acc[p][c], _mm256_madd_epi16(xv[p], wv));
    }
  }
  if (has_tail) {
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) {
      const __m256i wv = load16_s16(w + c * row_stride + k_main);
#pragma GCC unroll 4
      for (int p = 0; p < P; ++p)
        acc[p][c] = _mm256_add_epi32(acc[p][c],
                                     _mm256_madd_epi16(load16_s16(tails[p]), wv));
    }
  }
#pragma GCC unroll 4
  for (int p = 0; p < P; ++p) {
    if constexpr (C == 4) {
      // Three hadds leave each row's partial sums side by side per 128-bit
      // half; adding the halves gives the 4 channel sums in order.
      const __m256i s = _mm256_hadd_epi32(_mm256_hadd_epi32(acc[p][0], acc[p][1]),
                                          _mm256_hadd_epi32(acc[p][2], acc[p][3]));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(sums + p * 8),
                       _mm_add_epi32(_mm256_castsi256_si128(s),
                                     _mm256_extracti128_si256(s, 1)));
    } else {
      __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc[p][0]),
                                _mm256_extracti128_si256(acc[p][0], 1));
      s = _mm_hadd_epi32(s, s);
      s = _mm_hadd_epi32(s, s);
      sums[p * 8] = _mm_cvtsi128_si32(s);
    }
  }
}

// P pixels (P <= 3) against every packed row, 8 channels at a time, each
// group requantized straight from the tile sums.
template <int P>
MN_AVX2 void pointwise_tile_avx2(const int8_t* x, int64_t x_stride,
                                 int64_t k_len, const PackedOpWeights& pk,
                                 const int32_t* bias, const RequantParams& rq,
                                 const Avx2Rq& k, int8_t* out) {
  const int32_t n = pk.num_rows;
  const int64_t rs = pk.row_stride;
  const int8_t* rows = pk.rows.data();
  const int32_t* sum_w = pk.sum_w.data();
  const int64_t k_main = k_len / 16 * 16;
  const bool has_tail = k_main < k_len;
  const int8_t* xs[P];
  alignas(16) int8_t tails[P][16] = {};
  for (int p = 0; p < P; ++p) {
    xs[p] = x + p * x_stride;
    if (has_tail)
      std::memcpy(tails[p], xs[p] + k_main, static_cast<size_t>(k_len - k_main));
  }
  alignas(32) int32_t sums[P][8];
  int32_t oc = 0;
  for (; oc + 8 <= n; oc += 8) {
    dot_tile<P, 4>(xs, tails, k_main, has_tail, rows + oc * rs, rs, &sums[0][0]);
    dot_tile<P, 4>(xs, tails, k_main, has_tail, rows + (oc + 4) * rs, rs,
                   &sums[0][4]);
    for (int p = 0; p < P; ++p)
      requant8(_mm256_load_si256(reinterpret_cast<const __m256i*>(sums[p])), oc,
               sum_w, bias, rq, k, out + p * n + oc);
  }
  if (oc == n) return;
  int32_t c = oc;
  if (c + 4 <= n) {
    dot_tile<P, 4>(xs, tails, k_main, has_tail, rows + c * rs, rs, &sums[0][0]);
    c += 4;
  }
  for (; c < n; ++c)
    dot_tile<P, 1>(xs, tails, k_main, has_tail, rows + c * rs, rs,
                   &sums[0][c - oc]);
  for (int p = 0; p < P; ++p)
    requant_row_scalar(sums[p], oc, n - oc, sum_w, bias, rq, out + p * n + oc);
}

MN_AVX2 void pointwise_avx2(const int8_t* x, int64_t x_stride, int64_t k_len,
                            int64_t pixels, const PackedOpWeights& pk,
                            const int32_t* bias, const RequantParams& rq,
                            int8_t* out) {
  const Avx2Rq k = avx2_rq(rq);
  const int64_t n = pk.num_rows;
  int64_t p = 0;
  for (; p + 3 <= pixels; p += 3)
    pointwise_tile_avx2<3>(x + p * x_stride, x_stride, k_len, pk, bias, rq, k,
                           out + p * n);
  if (pixels - p == 2)
    pointwise_tile_avx2<2>(x + p * x_stride, x_stride, k_len, pk, bias, rq, k,
                           out + p * n);
  else if (pixels - p == 1)
    pointwise_tile_avx2<1>(x + p * x_stride, x_stride, k_len, pk, bias, rq, k,
                           out + p * n);
}

#endif  // MN_HAVE_AVX2_VARIANT

// The epilogue over channels [c0, c0 + n) (see requant_row_s8).
inline void requant_row(Isa isa, const int32_t* acc, int32_t c0, int32_t n,
                        const int32_t* sum_w, const int32_t* bias,
                        const RequantParams& rq, int8_t* out) {
#if defined(MN_HAVE_AVX2_VARIANT)
  if (isa == Isa::kAvx2)
    return requant_row_avx2(acc, c0, n, sum_w, bias, rq, out);
#endif
  requant_row_scalar(acc, c0, n, sum_w, bias, rq, out);
}

void pointwise(Isa isa, const int8_t* x, int64_t x_stride, int64_t k_len,
               int64_t pixels, const PackedOpWeights& pk, const int32_t* bias,
               const RequantParams& rq, int8_t* out) {
#if defined(MN_HAVE_AVX2_VARIANT)
  if (isa == Isa::kAvx2)
    return pointwise_avx2(x, x_stride, k_len, pixels, pk, bias, rq, out);
#endif
  pointwise_baseline(x, x_stride, k_len, pixels, pk, bias, rq, out);
}

void check_requant(const RequantParams& rq, int32_t channels, const char* who) {
  if (!rq.per_channel.empty() &&
      static_cast<int64_t>(rq.per_channel.size()) < channels)
    throw std::invalid_argument(std::string(who) +
                                ": fewer per-channel multipliers than channels");
}

}  // namespace

void requant_row_s8(std::span<const int32_t> acc, int32_t c0,
                    std::span<const int32_t> sum_w,
                    std::span<const int32_t> bias, const RequantParams& rq,
                    std::span<int8_t> out, Isa isa) {
  check_isa(isa, "requant_row_s8");
  const int64_t end = c0 + static_cast<int64_t>(acc.size());
  if (out.size() < acc.size() || c0 < 0 ||
      (!sum_w.empty() && static_cast<int64_t>(sum_w.size()) < end) ||
      (!bias.empty() && static_cast<int64_t>(bias.size()) < end) ||
      (!rq.per_channel.empty() &&
       static_cast<int64_t>(rq.per_channel.size()) < end))
    throw std::invalid_argument("requant_row_s8: span too small");
  requant_row(isa, acc.data(), c0, static_cast<int32_t>(acc.size()),
              sum_w.empty() ? nullptr : sum_w.data(),
              bias.empty() ? nullptr : bias.data(), rq, out.data());
}

int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  const int64_t stride = (ksize + kPackAlign - 1) / kPackAlign * kPackAlign;
  return int64_t{kConvPixelBlock} * stride;
}

void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantParams& rq, Isa isa) {
  check_isa(isa, "conv2d_s8_fast");
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  if (packed.row_len != ksize || packed.num_rows != g.out_ch)
    throw std::invalid_argument("conv2d_s8_fast: packed panel/geometry mismatch");
  if (static_cast<int64_t>(input.size()) < g.input_elements() ||
      static_cast<int64_t>(output.size()) < g.output_elements())
    throw std::invalid_argument("conv2d_s8_fast: buffer too small");
  if (static_cast<int64_t>(scratch.size()) < conv2d_fast_scratch_bytes(g))
    throw std::invalid_argument("conv2d_s8_fast: scratch too small");
  const int32_t* b = bias_ptr(bias, g.out_ch, "conv2d_s8_fast");
  check_requant(rq, g.out_ch, "conv2d_s8_fast");
  const int64_t row_stride = packed.row_stride;
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
        // tail so the GEMM can run over the full padded stride (zero
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
        pointwise(isa, block, row_stride, row_stride, np, packed, b, rq,
                  output.data() + (int64_t{oy} * g.out_w + ox0) * g.out_ch);
      }
    }
  });
}

bool is_pointwise(const ConvGeometry& g) {
  return g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad_h == 0 &&
         g.pad_w == 0 && g.out_h == g.in_h && g.out_w == g.in_w;
}

void conv2d_s8_1x1_fast(std::span<const int8_t> input,
                        const PackedOpWeights& packed,
                        std::span<const int32_t> bias, std::span<int8_t> output,
                        const ConvGeometry& g, const RequantParams& rq, Isa isa) {
  check_isa(isa, "conv2d_s8_1x1_fast");
  if (!is_pointwise(g))
    throw std::invalid_argument("conv2d_s8_1x1_fast: not a 1x1/stride-1/unpadded conv");
  if (packed.row_len != g.in_ch || packed.num_rows != g.out_ch)
    throw std::invalid_argument(
        "conv2d_s8_1x1_fast: packed panel/geometry mismatch");
  if (static_cast<int64_t>(input.size()) < g.input_elements() ||
      static_cast<int64_t>(output.size()) < g.output_elements())
    throw std::invalid_argument("conv2d_s8_1x1_fast: buffer too small");
  const int32_t* b = bias_ptr(bias, g.out_ch, "conv2d_s8_1x1_fast");
  check_requant(rq, g.out_ch, "conv2d_s8_1x1_fast");
  const int64_t row_pixels = g.out_w;
  parallel::parallel_for(0, g.out_h, [&](int64_t oy_lo, int64_t oy_hi) {
    const int64_t p0 = oy_lo * row_pixels;
    pointwise(isa, input.data() + p0 * g.in_ch, g.in_ch, g.in_ch,
              (oy_hi - oy_lo) * row_pixels, packed, b, rq,
              output.data() + p0 * g.out_ch);
  });
}

void depthwise_conv2d_s8_fast(std::span<const int8_t> input,
                              const PackedOpWeights& packed,
                              std::span<const int32_t> bias,
                              std::span<int8_t> output, const ConvGeometry& g,
                              const RequantParams& rq, Isa isa) {
  check_isa(isa, "depthwise_conv2d_s8_fast");
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
  const int32_t* b = bias_ptr(bias, ch, "depthwise_conv2d_s8_fast");
  check_requant(rq, ch, "depthwise_conv2d_s8_fast");
  const int64_t row_stride = packed.row_stride;
  const int8_t* x = input.data();
  const int8_t* w = packed.rows.data();
  // Channels per epilogue call: the pixel's sums wait in a stack row.
  constexpr int32_t kRow = 64;
#if defined(__SSE2__)
  const __m128i zp16 = _mm_set1_epi16(static_cast<int16_t>(rq.input_zp));
#endif
  parallel::parallel_for(0, g.out_h, [&](int64_t oy_lo, int64_t oy_hi) {
    alignas(16) int32_t acc[kRow];
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
        for (int32_t c0 = 0; c0 < ch; c0 += kRow) {
          const int32_t c1 = std::min(ch, c0 + kRow);
          int32_t c = c0;
#if defined(__SSE2__)
          for (; c + 8 <= c1; c += 8) {
            __m128i acc_lo = _mm_setzero_si128();
            __m128i acc_hi = _mm_setzero_si128();
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
            _mm_store_si128(reinterpret_cast<__m128i*>(acc + (c - c0)), acc_lo);
            _mm_store_si128(reinterpret_cast<__m128i*>(acc + (c - c0) + 4),
                            acc_hi);
          }
#endif
          for (; c < c1; ++c) {
            int32_t s = 0;
            for (int32_t ky = ky0; ky < ky1; ++ky) {
              const int64_t x_row = (int64_t{iy0 + ky} * g.in_w + ix0) * ch + c;
              const int64_t w_row = int64_t{ky} * g.kw * row_stride + c;
              for (int32_t kx = kx0; kx < kx1; ++kx)
                s += (static_cast<int32_t>(x[x_row + int64_t{kx} * ch]) -
                      rq.input_zp) *
                     static_cast<int32_t>(w[w_row + kx * row_stride]);
            }
            acc[c - c0] = s;
          }
          requant_row(isa, acc, c0, c1 - c0, nullptr, b, rq, out_px + c0);
        }
      }
    }
  });
}

void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output, int32_t in_features,
                             int32_t out_features, const RequantParams& rq,
                             Isa isa) {
  check_isa(isa, "fully_connected_s8_fast");
  if (packed.row_len != in_features || packed.num_rows != out_features)
    throw std::invalid_argument(
        "fully_connected_s8_fast: packed panel/geometry mismatch");
  if (static_cast<int64_t>(input.size()) < in_features ||
      static_cast<int64_t>(output.size()) < out_features)
    throw std::invalid_argument("fully_connected_s8_fast: buffer too small");
  const int32_t* b = bias_ptr(bias, out_features, "fully_connected_s8_fast");
  check_requant(rq, out_features, "fully_connected_s8_fast");
  // The input is the caller's span (no padded copy), so the dot runs over
  // in_features and takes the scalar tail; packed rows store the real
  // weights in their first row_len bytes.
  parallel::parallel_for(
      0, out_features,
      [&](int64_t o_lo, int64_t o_hi) {
        constexpr int64_t kRow = 64;
        int32_t acc[kRow];
        for (int64_t o0 = o_lo; o0 < o_hi; o0 += kRow) {
          const int64_t n = std::min(kRow, o_hi - o0);
          for (int64_t j = 0; j < n; ++j)
            acc[j] = dot_s8(input.data(),
                            packed.rows.data() + (o0 + j) * packed.row_stride,
                            in_features);
          requant_row(isa, acc, static_cast<int32_t>(o0), static_cast<int32_t>(n),
                      packed.sum_w.data(), b, rq, output.data() + o0);
        }
      },
      /*grain=*/16);
}

}  // namespace mn::kernels
