// Optimized int8 convolution via IM2COL + GEMM-style inner loops — the
// strategy CMSIS-NN's arm_convolve_* kernels use (gather the receptive field
// into a contiguous column buffer, then run dense dot products). On the host
// this removes the bounds checks and strided reads from the inner loop.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "kernels/kernels.hpp"
#include "parallel/pool.hpp"

namespace mn::kernels {

int64_t conv2d_scratch_bytes(const ConvGeometry& g) {
  return int64_t{g.kh} * g.kw * g.in_ch;
}

void conv2d_s8_im2col(std::span<const int8_t> input,
                      std::span<const int8_t> weights,
                      std::span<const int32_t> bias, std::span<int8_t> output,
                      std::span<int8_t> scratch, const ConvGeometry& g,
                      const RequantParams& rq) {
  const int64_t ksize = conv2d_scratch_bytes(g);
  if (static_cast<int64_t>(scratch.size()) < ksize)
    throw std::invalid_argument("conv2d_s8_im2col: scratch too small");
  if (static_cast<int64_t>(input.size()) < g.input_elements() ||
      static_cast<int64_t>(weights.size()) < int64_t{g.out_ch} * ksize ||
      static_cast<int64_t>(output.size()) < g.output_elements())
    throw std::invalid_argument("conv2d_s8_im2col: buffer too small");
  // The zero-point-adjusted zero patch value: kernels accumulate
  // (x - input_zp) * w, so padded positions must contribute 0, i.e. the
  // column buffer stores x and the loop subtracts input_zp — padding slots
  // are filled with input_zp itself.
  const int8_t pad_value = static_cast<int8_t>(
      std::clamp<int32_t>(rq.input_zp, -128, 127));
  // Row-parallel: the caller's scratch serves the single-chunk (serial)
  // case; concurrent chunks gather into their own column buffers.
  const int64_t chunks = parallel::num_chunks(g.out_h, /*grain=*/1);
  parallel::for_chunks(chunks, [&](int64_t chunk) {
    const parallel::Range rows = parallel::chunk_range(g.out_h, chunks, chunk);
    std::vector<int8_t> local;
    int8_t* colbuf = scratch.data();
    if (chunks > 1) {
      local.resize(static_cast<size_t>(ksize));
      colbuf = local.data();
    }
  for (int32_t oy = static_cast<int32_t>(rows.begin);
       oy < static_cast<int32_t>(rows.end); ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      // IM2COL: gather one receptive field contiguously.
      int8_t* col = colbuf;
      for (int32_t ky = 0; ky < g.kh; ++ky) {
        const int32_t iy = oy * g.stride - g.pad_h + ky;
        for (int32_t kx = 0; kx < g.kw; ++kx) {
          const int32_t ix = ox * g.stride - g.pad_w + kx;
          if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
            std::memset(col, pad_value, static_cast<size_t>(g.in_ch));
          } else {
            std::memcpy(col, input.data() + (int64_t{iy} * g.in_w + ix) * g.in_ch,
                        static_cast<size_t>(g.in_ch));
          }
          col += g.in_ch;
        }
      }
      // GEMM row: one dense dot product per output channel.
      int8_t* out_px = output.data() + (int64_t{oy} * g.out_w + ox) * g.out_ch;
      for (int32_t oc = 0; oc < g.out_ch; ++oc) {
        const int8_t* wr = weights.data() + int64_t{oc} * ksize;
        const int8_t* xr = colbuf;
        int32_t acc = 0;
        int64_t i = 0;
        // Unrolled by 4: the scalar stand-in for the SMLAD dual-MAC path.
        for (; i + 4 <= ksize; i += 4) {
          acc += (static_cast<int32_t>(xr[i]) - rq.input_zp) * wr[i];
          acc += (static_cast<int32_t>(xr[i + 1]) - rq.input_zp) * wr[i + 1];
          acc += (static_cast<int32_t>(xr[i + 2]) - rq.input_zp) * wr[i + 2];
          acc += (static_cast<int32_t>(xr[i + 3]) - rq.input_zp) * wr[i + 3];
        }
        for (; i < ksize; ++i)
          acc += (static_cast<int32_t>(xr[i]) - rq.input_zp) * wr[i];
        out_px[oc] = static_cast<int8_t>(rq.requantize(
            add_bias(acc, bias, oc), oc, rq.act_min, rq.act_max));
      }
    }
  }
  });
}

}  // namespace mn::kernels
