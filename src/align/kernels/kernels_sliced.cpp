// The bit-sliced kernel tier: one portable source (GCC/Clang vector
// extensions) built once per SIMD target with that target's flags — with
// -mavx2 as the AVX2 tier, for AArch64 as the NEON tier — into the
// namespace ASMCAP_KERNEL_NS names (see CMakeLists.txt). A Plane holds one
// 256-bit plane of a row-store block (align/row_store.h), so every
// operation below evaluates one column for all 256 rows of the block at
// once, the way the array does.
//
// Per column, the read's truth table (PackedReadView::columns) maps the
// rows' code-bit planes to the column's mismatch plane in 6 bitwise ops.
// The mismatch planes accumulate in Harley–Seal carry-save counters (Muła,
// Kurz, Lemire, https://arxiv.org/abs/1611.07612): a carry-save tree per 16
// columns whose weight-16 output ripples into a binary counter of high
// planes, so that at the end plane k holds bit k of every row's count. A
// bit-sliced comparator on those planes gives the below-bound words, and
// an 8×8 byte transpose and an 8×8 bit transpose per 64-row lane turn the
// low eight planes into per-row count bytes. Counts are exact, so they
// equal the scalar tier's bit for bit. window_alive ANDs the complement of
// the same mismatch planes into one alive plane per block instead.

#include <algorithm>
#include <bit>
#include <cstring>

#include "align/kernels/kernel_impl.h"

#ifndef ASMCAP_KERNEL_NS
#error "kernels_sliced.cpp is built per tier with -DASMCAP_KERNEL_NS=<tier>"
#endif
#if !defined(__AVX2__) && !defined(__ARM_NEON)
#error "kernels_sliced.cpp must be compiled for a SIMD target (-mavx2, AArch64)"
#endif

static_assert(std::endian::native == std::endian::little,
              "count bytes are read back in little-endian order");

namespace asmcap::detail::ASMCAP_KERNEL_NS {

namespace {

typedef std::uint64_t Plane __attribute__((vector_size(32)));

constexpr std::size_t kRows = SlicedRowStore::kBlockRows;
constexpr std::size_t kLanes = 4;  // 64-row words per plane
/// Count planes of weight 16 and up; with the four carry-save planes they
/// hold any 16-bit count.
constexpr std::size_t kHighPlanes = 12;

inline Plane load(const std::uint64_t* words) {
  Plane v;
  std::memcpy(&v, words, sizeof v);
  return v;
}

inline Plane splat(std::uint64_t x) { return Plane{x, x, x, x}; }

inline bool any(const Plane& p) { return (p[0] | p[1] | p[2] | p[3]) != 0; }

/// Column j's mismatch plane of a block's `planes` under the read's truth
/// `table`: code = 2·hi + lo selects t_code. With x01 = t_lo (t0 or t1)
/// and x23 = t_{2+lo}, it is x01 ^ ((x01 ^ x23) & hi), and
/// x01 ^ x23 = (t0^t2) ^ ((t0^t1^t2^t3) & lo).
inline Plane mismatch_plane(const std::uint64_t* planes,
                            const std::uint64_t* table, std::size_t j) {
  const Plane lo = load(planes + SlicedRowStore::kColumnWords * j);
  const Plane hi = load(planes + SlicedRowStore::kColumnWords * j + 4);
  const std::uint64_t* t = table + 4 * j;
  const Plane x01 = splat(t[0]) ^ (splat(t[1]) & lo);
  return x01 ^ ((splat(t[2]) ^ (splat(t[3]) & lo)) & hi);
}

/// Carry-save adder: high:low = a + b + c at every bit position.
inline void csa(Plane& high, Plane& low, const Plane& a, const Plane& b,
                const Plane& c) {
  const Plane u = a ^ b;
  const Plane h = (a & b) | (u & c);
  low = u ^ c;
  high = h;
}

/// Swaps the `mask`-selected fields of a with the fields `shift` bits
/// higher in b: one round of a block transpose.
inline void swap_fields(Plane& a, Plane& b, int shift, std::uint64_t mask) {
  const Plane t = ((a >> shift) ^ b) & splat(mask);
  a ^= t << shift;
  b ^= t;
}

}  // namespace

void count_block(const SlicedRowStore& rows, std::size_t block,
                 const PackedReadView& read, std::size_t bound,
                 BlockCounts& out) {
  const std::uint64_t* planes = rows.block(block);
  const std::uint64_t* table = read.columns.data();
  const std::size_t n = read.n;
  const auto mismatch = [&](std::size_t j) {
    return mismatch_plane(planes, table, j);
  };

  Plane ones{}, twos{}, fours{}, eights{};
  Plane high[kHighPlanes] = {};
  // Counts reach n, so the weight-16 counter needs bit_width(n / 16) planes.
  const std::size_t high_planes = std::bit_width(n >> 4);
  const auto add_high = [&](Plane carry) {
    for (std::size_t k = 0; k < high_planes; ++k) {
      const Plane next = high[k] & carry;
      high[k] ^= carry;
      carry = next;
    }
  };

  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    Plane twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    csa(twos_a, ones, ones, mismatch(j), mismatch(j + 1));
    csa(twos_b, ones, ones, mismatch(j + 2), mismatch(j + 3));
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, mismatch(j + 4), mismatch(j + 5));
    csa(twos_b, ones, ones, mismatch(j + 6), mismatch(j + 7));
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_a, fours, fours, fours_a, fours_b);
    csa(twos_a, ones, ones, mismatch(j + 8), mismatch(j + 9));
    csa(twos_b, ones, ones, mismatch(j + 10), mismatch(j + 11));
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, mismatch(j + 12), mismatch(j + 13));
    csa(twos_b, ones, ones, mismatch(j + 14), mismatch(j + 15));
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_b, fours, fours, fours_a, fours_b);
    csa(sixteens, eights, eights, eights_a, eights_b);
    add_high(sixteens);
  }
  for (; j < n; ++j) {  // the last n % 16 columns: a half-adder chain each
    Plane carry = mismatch(j);
    for (Plane* plane : {&ones, &twos, &fours, &eights}) {
      const Plane next = *plane & carry;
      *plane ^= carry;
      carry = next;
    }
    add_high(carry);
  }

  // count[k] holds bit k of every row's count; planes past `levels` are
  // zero.
  const std::size_t levels = 4 + high_planes;
  Plane count[4 + kHighPlanes] = {ones, twos, fours, eights};
  for (std::size_t k = 0; k < high_planes; ++k) count[4 + k] = high[k];

  // count < bound, most significant plane first. Every count is below
  // 2^levels, so a bound at or past it holds for every row.
  Plane lt{};
  if ((bound >> levels) != 0) {
    lt = ~lt;
  } else {
    Plane eq = ~Plane{};
    for (std::size_t k = levels; k > 0; --k) {
      const Plane& plane = count[k - 1];
      if ((bound >> (k - 1)) & 1) {
        lt |= eq & ~plane;
        eq &= plane;
      } else {
        eq &= ~plane;
      }
    }
  }
  for (std::size_t w = 0; w < kLanes; ++w) out.below[w] = lt[w];

  // Byte B of lane w of count[k] holds bit k of the counts of rows
  // 64w + 8B .. 64w + 8B + 7. Transposing, in place, the 8×8 byte matrix
  // (plane, byte) of count[0..7] and then each 8×8 bit matrix (byte, bit)
  // leaves in byte b of lane w of count[B] the low count byte of row
  // 64w + 8B + b.
  for (std::size_t k = 0; k < 4; ++k)
    swap_fields(count[k], count[k + 4], 32, 0x0000'0000'FFFF'FFFFULL);
  for (const std::size_t k : {0, 1, 4, 5})
    swap_fields(count[k], count[k + 2], 16, 0x0000'FFFF'0000'FFFFULL);
  for (const std::size_t k : {0, 2, 4, 6})
    swap_fields(count[k], count[k + 1], 8, 0x00FF'00FF'00FF'00FFULL);
  std::uint64_t low[kRows / 8];
  for (std::size_t b = 0; b < 8; ++b) {
    Plane x = count[b];
    Plane t = (x ^ (x >> 7)) & splat(0x00AA'00AA'00AA'00AAULL);
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & splat(0x0000'CCCC'0000'CCCCULL);
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & splat(0x0000'0000'F0F0'F0F0ULL);
    x ^= t ^ (t << 28);
    for (std::size_t w = 0; w < kLanes; ++w) low[8 * w + b] = x[w];
  }
  std::uint8_t bytes[kRows];
  std::memcpy(bytes, low, sizeof bytes);
  for (std::size_t r = 0; r < kRows; ++r) out.counts[r] = bytes[r];
  // Count bits 8 and up: only rows with 256 or more mismatches.
  for (std::size_t k = 8; k < levels; ++k)
    for (std::size_t w = 0; w < kLanes; ++w)
      for (std::uint64_t x = count[k][w]; x != 0; x &= x - 1)
        out.counts[64 * w + static_cast<std::size_t>(std::countr_zero(x))] |=
            static_cast<std::uint16_t>(1u << k);
}

bool window_alive(const SlicedRowStore& rows, const PackedReadView& read,
                  const std::uint64_t* live, std::size_t lo, std::size_t hi) {
  const std::uint64_t* table = read.columns.data();
  for (std::size_t b = 0; b < rows.blocks(); ++b) {
    const std::uint64_t* planes = rows.block(b);
    std::uint64_t words[kLanes];
    for (std::size_t w = 0; w < kLanes; ++w)
      words[w] = live_group_word(live, rows.rows(), kLanes * b + w);
    Plane alive = load(words);
    // The block's exit test costs more than a column step, so it runs
    // once per 4 columns.
    for (std::size_t j = lo; j < hi && any(alive);) {
      const std::size_t end = std::min(hi, j + 4);
      for (; j < end; ++j) alive &= ~mismatch_plane(planes, table, j);
    }
    if (any(alive)) return true;
  }
  return false;
}

}  // namespace asmcap::detail::ASMCAP_KERNEL_NS
