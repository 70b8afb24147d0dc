#include "quant/quant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mn::quant {

QRange qrange(int bits) {
  if (bits < 2 || bits > 8) throw std::invalid_argument("qrange: bits");
  return {-(1 << (bits - 1)), (1 << (bits - 1)) - 1};
}

QuantParams choose_asymmetric(float rmin, float rmax, int bits) {
  rmin = std::min(rmin, 0.f);
  rmax = std::max(rmax, 0.f);
  const QRange r = qrange(bits);
  float scale = (rmax - rmin) / static_cast<float>(r.qmax - r.qmin);
  if (scale <= 0.f) scale = 1e-8f;
  // Nudge zero point to an exact integer in range.
  const double zp_real = static_cast<double>(r.qmin) - static_cast<double>(rmin) / scale;
  int32_t zp = static_cast<int32_t>(std::lround(zp_real));
  zp = std::clamp(zp, r.qmin, r.qmax);
  return {scale, zp};
}

QuantParams choose_symmetric(float maxabs, int bits) {
  const QRange r = qrange(bits);
  float scale = maxabs / static_cast<float>(r.qmax);
  if (scale <= 0.f) scale = 1e-8f;
  return {scale, 0};
}

TensorI8 quantize(const TensorF& x, const QuantParams& qp, int bits) {
  const QRange r = qrange(bits);
  TensorI8 q(x.shape());
  for (int64_t i = 0; i < x.size(); ++i) {
    const int32_t v = static_cast<int32_t>(std::lround(x[i] / qp.scale)) + qp.zero_point;
    q[i] = static_cast<int8_t>(std::clamp(v, r.qmin, r.qmax));
  }
  return q;
}

TensorF dequantize(const TensorI8& q, const QuantParams& qp) {
  TensorF x(q.shape());
  for (int64_t i = 0; i < q.size(); ++i) x[i] = qp.dequantize(q[i]);
  return x;
}

QuantizedWeights quantize_weights_symmetric(const TensorF& w, int bits) {
  float maxabs = 0.f;
  for (int64_t i = 0; i < w.size(); ++i) maxabs = std::max(maxabs, std::abs(w[i]));
  QuantizedWeights out;
  out.params = choose_symmetric(std::max(maxabs, 1e-8f), bits);
  out.values = quantize(w, out.params, bits);
  return out;
}

FixedMultiplier quantize_multiplier(double m) {
  if (m <= 0.0) throw std::invalid_argument("quantize_multiplier: m <= 0");
  FixedMultiplier f;
  int exp = 0;
  const double frac = std::frexp(m, &exp);  // m = frac * 2^exp, frac in [0.5, 1)
  int64_t q = static_cast<int64_t>(std::llround(frac * (1ll << 31)));
  if (q == (1ll << 31)) {  // rounding overflow: frac was ~1.0
    q /= 2;
    ++exp;
  }
  f.multiplier = static_cast<int32_t>(q);
  f.shift = exp;
  return f;
}

int32_t multiply_by_quantized_multiplier(int32_t x, FixedMultiplier m) {
  // Saturating rounding doubling high multiply.
  const bool overflow = (x == m.multiplier && x == std::numeric_limits<int32_t>::min());
  const int64_t prod = static_cast<int64_t>(x) * static_cast<int64_t>(m.multiplier);
  // gemmlowp SRDHM truncates (prod + nudge) / 2^31 with nudge = 2^30 for
  // prod >= 0 and 1 - 2^30 below. That is exactly floor((prod + 2^30) / 2^31)
  // for either sign (for prod < 0, trunc rounds up: ceil(q / 2^31) =
  // floor((q + 2^31 - 1) / 2^31) with q = prod + 1 - 2^30), so one add and
  // an arithmetic shift compute it with no branch on the product's sign.
  int32_t high = overflow ? std::numeric_limits<int32_t>::max()
                          : static_cast<int32_t>((prod + (int64_t{1} << 30)) >> 31);
  // Apply shift: left shifts scale up, right shifts round to nearest
  // (matching gemmlowp's RoundingDivideByPOT).
  if (m.shift > 0) {
    // Any nonzero value shifted by 32 already leaves int32, so a larger
    // shift saturates the same way: capping it at 32 keeps the int64 shift
    // defined (no shift by >= 64) and exact (no wrap into the sign bit).
    const int64_t shifted = static_cast<int64_t>(high) << std::min(m.shift, 32);
    if (shifted > std::numeric_limits<int32_t>::max())
      return std::numeric_limits<int32_t>::max();
    if (shifted < std::numeric_limits<int32_t>::min())
      return std::numeric_limits<int32_t>::min();
    return static_cast<int32_t>(shifted);
  }
  const int right = -m.shift;
  if (right == 0) return high;
  if (right > 31) return high >= 0 ? 0 : -1;
  const int32_t mask = static_cast<int32_t>((1ll << right) - 1);
  const int32_t remainder = high & mask;
  int32_t threshold = mask >> 1;
  if (high < 0) ++threshold;
  int32_t result = high >> right;
  if (remainder > threshold) ++result;
  return result;
}

std::vector<uint8_t> pack_int4(const TensorI8& values) {
  const int64_t n = values.size();
  std::vector<uint8_t> out(static_cast<size_t>((n + 1) / 2), 0);
  for (int64_t i = 0; i < n; ++i) {
    const int8_t v = values[i];
    if (v < -8 || v > 7) throw std::invalid_argument("pack_int4: value out of range");
    const uint8_t nib = static_cast<uint8_t>(v & 0x0F);
    if (i % 2 == 0)
      out[static_cast<size_t>(i / 2)] |= nib;
    else
      out[static_cast<size_t>(i / 2)] |= static_cast<uint8_t>(nib << 4);
  }
  return out;
}

TensorI8 unpack_int4(const std::vector<uint8_t>& packed, Shape shape) {
  const int64_t n = shape.elements();
  if (static_cast<int64_t>(packed.size()) < (n + 1) / 2)
    throw std::invalid_argument("unpack_int4: too few bytes");
  TensorI8 out(shape);
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t byte = packed[static_cast<size_t>(i / 2)];
    uint8_t nib = (i % 2 == 0) ? (byte & 0x0F) : (byte >> 4);
    // Sign extend from 4 bits.
    out[i] = static_cast<int8_t>(nib >= 8 ? static_cast<int>(nib) - 16
                                          : static_cast<int>(nib));
  }
  return out;
}

}  // namespace mn::quant
