// AVX2 kernel tier: 4 packed words (128 cells) per vector op. Compiled in
// its own object library with -mavx2 -mpopcnt (see CMakeLists.txt); only
// executed after __builtin_cpu_supports says the CPU has both. Counts are
// exact popcounts, bit-identical to the scalar tier: the vector body
// computes the same per-word mismatch flags, and sub-vector tail words fall
// through to the shared scalar row helpers.
//
// Loop order: rows are swept in blocks of kBlockRows. For each 4-word
// column chunk the read view's operands are loaded into registers once per
// block, then every row of the block is compared against them. The first
// chunk stores each row's count; later chunks and the scalar tail add to
// it while the block's rows are still in L1.

#include "align/kernels/kernel_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace asmcap::detail {

namespace {

constexpr std::size_t kBlockRows = 64;

inline __m256i load4(const std::uint64_t* words) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words));
}

/// Per-lane inequality of four packed words at once: low lane bit set iff
/// the 2-bit codes differ. The odd bits are left unmasked; every caller
/// ANDs the result with a lane mask.
inline __m256i lane_ne4(__m256i a, __m256i b) {
  const __m256i x = _mm256_xor_si256(a, b);
  return _mm256_or_si256(x, _mm256_srli_epi64(x, 1));
}

/// Exact number of set flags in four words that hold them only in the low
/// bit of each 2-bit lane: each word's partner in its 128-bit half is
/// shifted into the free odd bits and ORed in, so two POPCNTs count all.
inline std::uint32_t count_lane_flags4(__m256i flags) {
  const __m256i folded = _mm256_or_si256(
      flags, _mm256_slli_epi64(_mm256_shuffle_epi32(flags, 0x4E), 1));
  const auto lo = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm256_castsi256_si128(folded)));
  const auto hi = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm256_extracti128_si256(folded, 1)));
  return static_cast<std::uint32_t>(std::popcount(lo) + std::popcount(hi));
}

/// The block/chunk sweep shared by both kernels. `chunk(w)` loads the read
/// view's operands for words [w, w + 4) and returns a callable mapping one
/// row's four words there to their mismatch flags; `row_tail(row, w)`
/// counts words [w, W) of one row with the scalar helpers.
template <typename Chunk, typename RowTail>
inline void sweep_blocks(const std::uint64_t* rows, std::size_t n_rows,
                         std::size_t W, std::uint32_t* counts, Chunk chunk,
                         RowTail row_tail) {
  const std::size_t W4 = W & ~std::size_t{3};
  if (W4 == 0) {  // Narrower than one chunk, width 0 included.
    for (std::size_t g = 0; g < n_rows; ++g)
      counts[g] = row_tail(rows + g * W, 0);
    return;
  }
  for (std::size_t g0 = 0; g0 < n_rows; g0 += kBlockRows) {
    const std::size_t g1 = std::min(n_rows, g0 + kBlockRows);
    for (std::size_t w = 0; w < W4; w += 4) {
      const auto flags = chunk(w);
      for (std::size_t g = g0; g < g1; ++g) {
        const std::uint32_t c =
            count_lane_flags4(flags(load4(rows + g * W + w)));
        counts[g] = w == 0 ? c : counts[g] + c;
      }
    }
    if (W4 != W)
      for (std::size_t g = g0; g < g1; ++g)
        counts[g] += row_tail(rows + g * W, W4);
  }
}

}  // namespace

void ed_star_block_avx2(const std::uint64_t* rows, std::size_t n_rows,
                        const PackedReadView& read, std::uint32_t* counts) {
  sweep_blocks(
      rows, n_rows, read.words, counts,
      [&](std::size_t w) {
        const __m256i r = load4(read.r.data() + w);
        const __m256i rp = load4(read.r_prev.data() + w);
        const __m256i rn = load4(read.r_next.data() + w);
        const __m256i lok = load4(read.left_ok.data() + w);
        const __m256i rok = load4(read.right_ok.data() + w);
        const __m256i val = load4(read.valid.data() + w);
        return [=](__m256i q) {
          // A cell mismatches when it differs from R[i] and from each
          // neighbour it has: the complement of ed_star_mismatch_word's
          // match form, with no separate lane mask.
          const __m256i near_match = _mm256_or_si256(
              _mm256_andnot_si256(lane_ne4(q, rp), lok),
              _mm256_andnot_si256(lane_ne4(q, rn), rok));
          return _mm256_andnot_si256(near_match,
                                     _mm256_and_si256(lane_ne4(q, r), val));
        };
      },
      [&](const std::uint64_t* row, std::size_t w) {
        return ed_star_row_scalar(row, read, w, read.words);
      });
}

void hamming_block_avx2(const std::uint64_t* rows, std::size_t n_rows,
                        const PackedReadView& read, std::uint32_t* counts) {
  const __m256i lanes = _mm256_set1_epi64x(static_cast<long long>(kLaneFlags));
  sweep_blocks(
      rows, n_rows, read.words, counts,
      [&](std::size_t w) {
        const __m256i r = load4(read.r.data() + w);
        return [=](__m256i q) {
          return _mm256_and_si256(lane_ne4(q, r), lanes);
        };
      },
      [&](const std::uint64_t* row, std::size_t w) {
        return hamming_row_scalar(row, read, w, read.words);
      });
}

}  // namespace asmcap::detail

#else
#error "kernels_avx2.cpp must be compiled with -mavx2 (CMake object library)"
#endif  // __AVX2__
