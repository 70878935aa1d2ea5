// NEON kernel tier: 2 packed words (64 cells) per vector op. Compiled only
// on AArch64, where NEON (Advanced SIMD) is architecturally mandatory, so
// compiled implies runnable — no runtime CPUID gate needed. Counts are
// exact popcounts, bit-identical to the scalar tier: the vector body
// computes the same per-word mismatch flags, and the odd tail word falls
// through to the shared scalar row helpers.

#include "align/kernels/kernel_impl.h"

#if defined(__ARM_NEON) || defined(__aarch64__)

#include <arm_neon.h>

namespace asmcap::detail {

namespace {

/// Per-lane equality of two packed words at once (vector lane_eq).
inline uint64x2_t lane_eq2(uint64x2_t a, uint64x2_t b, uint64x2_t lanes) {
  const uint64x2_t x = veorq_u64(a, b);
  return vbicq_u64(lanes, vorrq_u64(x, vshrq_n_u64(x, 1)));
}

/// Per-128-bit popcount accumulated into a uint64x2_t of per-word counts.
inline uint64x2_t popcount2(uint64x2_t v) {
  return vpaddlq_u32(
      vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

inline std::uint32_t horizontal_sum2(uint64x2_t acc) {
  return static_cast<std::uint32_t>(vgetq_lane_u64(acc, 0) +
                                    vgetq_lane_u64(acc, 1));
}

}  // namespace

void ed_star_block_neon(const std::uint64_t* rows, std::size_t n_rows,
                        const PackedReadView& read, std::uint32_t* counts) {
  const std::size_t W = read.words;
  const std::size_t W2 = W & ~std::size_t{1};
  const uint64x2_t lanes = vdupq_n_u64(kLaneFlags);
  for (std::size_t g = 0; g < n_rows; ++g) {
    const std::uint64_t* row = rows + g * W;
    uint64x2_t acc = vdupq_n_u64(0);
    for (std::size_t w = 0; w < W2; w += 2) {
      const uint64x2_t q = vld1q_u64(row + w);
      const uint64x2_t r = vld1q_u64(read.r.data() + w);
      const uint64x2_t rp = vld1q_u64(read.r_prev.data() + w);
      const uint64x2_t rn = vld1q_u64(read.r_next.data() + w);
      const uint64x2_t lok = vld1q_u64(read.left_ok.data() + w);
      const uint64x2_t rok = vld1q_u64(read.right_ok.data() + w);
      const uint64x2_t val = vld1q_u64(read.valid.data() + w);
      const uint64x2_t match = vorrq_u64(
          lane_eq2(q, r, lanes),
          vorrq_u64(vandq_u64(lane_eq2(q, rp, lanes), lok),
                    vandq_u64(lane_eq2(q, rn, lanes), rok)));
      acc = vaddq_u64(acc, popcount2(vbicq_u64(val, match)));
    }
    counts[g] = horizontal_sum2(acc) + ed_star_row_scalar(row, read, W2, W);
  }
}

void hamming_block_neon(const std::uint64_t* rows, std::size_t n_rows,
                        const PackedReadView& read, std::uint32_t* counts) {
  const std::size_t W = read.words;
  const std::size_t W2 = W & ~std::size_t{1};
  const uint64x2_t lanes = vdupq_n_u64(kLaneFlags);
  for (std::size_t g = 0; g < n_rows; ++g) {
    const std::uint64_t* row = rows + g * W;
    uint64x2_t acc = vdupq_n_u64(0);
    for (std::size_t w = 0; w < W2; w += 2) {
      const uint64x2_t q = vld1q_u64(row + w);
      const uint64x2_t r = vld1q_u64(read.r.data() + w);
      const uint64x2_t x = veorq_u64(q, r);
      const uint64x2_t mis =
          vandq_u64(vorrq_u64(x, vshrq_n_u64(x, 1)), lanes);
      acc = vaddq_u64(acc, popcount2(mis));
    }
    counts[g] = horizontal_sum2(acc) + hamming_row_scalar(row, read, W2, W);
  }
}

}  // namespace asmcap::detail

#else
#error "kernels_neon.cpp must be compiled for an Advanced-SIMD target"
#endif  // __ARM_NEON || __aarch64__
