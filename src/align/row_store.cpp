#include "align/row_store.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace asmcap {

namespace {

constexpr std::size_t kPlaneWords = 4;
constexpr std::size_t kGroupsPerBlock =
    SlicedRowStore::kBlockRows / SlicedRowStore::kGroupRows;

/// One round of the block transpose: swaps the J×J blocks above the
/// diagonal of every 2J×2J block with those below it. `m` selects the bit
/// columns whose index has bit J clear.
template <std::size_t J>
void transpose_round(std::uint64_t* a, std::uint64_t m) {
  for (std::size_t base = 0; base < 64; base += 2 * J)
    for (std::size_t k = base; k < base + J; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & m;
      a[k] ^= t << J;
      a[k + J] ^= t;
    }
}

/// In-place transpose of a 64×64 bit matrix, bit c of a[r] <-> bit r of
/// a[c] (Hacker's Delight §7-3): six rounds of block swaps, each round's
/// stride a constant so the compiler unrolls and vectorizes it.
void transpose64(std::uint64_t* a) {
  transpose_round<32>(a, 0x0000'0000'FFFF'FFFFULL);
  transpose_round<16>(a, 0x0000'FFFF'0000'FFFFULL);
  transpose_round<8>(a, 0x00FF'00FF'00FF'00FFULL);
  transpose_round<4>(a, 0x0F0F'0F0F'0F0F'0F0FULL);
  transpose_round<2>(a, 0x3333'3333'3333'3333ULL);
  transpose_round<1>(a, 0x5555'5555'5555'5555ULL);
}

}  // namespace

SlicedRowStore::SlicedRowStore(std::size_t cols) : cols_(cols) {
  if (cols > std::numeric_limits<std::uint16_t>::max())
    throw std::invalid_argument("SlicedRowStore: row width exceeds 65535");
  group_.resize(kGroupRows * words_per_row());
}

SlicedRowStore::SlicedRowStore(const std::vector<Sequence>& rows,
                               std::size_t cols)
    : SlicedRowStore(cols) {
  write_rows(0, rows);
}

void SlicedRowStore::write_rows(std::size_t first,
                                std::span<const Sequence> rows) {
  for (const Sequence& row : rows)
    if (row.size() != cols_)
      throw std::invalid_argument("SlicedRowStore: row width mismatch");
  if (rows.empty()) return;
  const std::size_t end = first + rows.size();
  const std::size_t words = words_per_row();
  if (end > rows_) {
    // The room is made before anything changes, so a throwing allocation
    // leaves the store as it was; the resize after it cannot throw.
    reserve(end);
    words_.resize(words_for(end), 0);
    rows_ = end;
  }
  for (std::size_t g = first / kGroupRows; g * kGroupRows < end; ++g) {
    const std::size_t lo = std::max(first, g * kGroupRows);
    const std::size_t hi = std::min(end, (g + 1) * kGroupRows);
    // A partly covered group keeps its other rows.
    if (hi - lo < kGroupRows) gather_group(g, group_.data());
    for (std::size_t slot = lo; slot < hi; ++slot)
      rows[slot - first].pack_words(group_.data() +
                                    (slot % kGroupRows) * words);
    scatter_group(g, group_.data());
  }
}

void SlicedRowStore::reserve(std::size_t rows) {
  const std::size_t words = words_for(rows);
  if (words > words_.capacity())
    words_.reserve(std::max(words, 2 * words_.capacity()));
}

// Chunk c of a group is the 64×64 bit matrix whose row p is plane 64c + p
// (column 32c + p/2, code bit p%2) and whose column r is group row r: its
// transpose is word c of every row in packed_words layout, where base i's
// code bits sit at bits 2(i%32) and 2(i%32)+1 of word i/32. Planes past
// the last column read as zero and are never written.

void SlicedRowStore::gather_group(std::size_t group,
                                  std::uint64_t* out) const {
  const std::uint64_t* planes =
      block(group / kGroupsPerBlock) + group % kGroupsPerBlock;
  const std::size_t words = words_per_row();
  std::uint64_t a[64];
  for (std::size_t c = 0; c < words; ++c) {
    for (std::size_t p = 0; p < 64; ++p) {
      const std::size_t plane = 64 * c + p;
      a[p] = plane < 2 * cols_ ? planes[plane * kPlaneWords] : 0;
    }
    transpose64(a);
    for (std::size_t r = 0; r < kGroupRows; ++r) out[r * words + c] = a[r];
  }
}

void SlicedRowStore::scatter_group(std::size_t group,
                                   const std::uint64_t* in) {
  std::uint64_t* planes = words_.data() +
                          group / kGroupsPerBlock * cols_ * kColumnWords +
                          group % kGroupsPerBlock;
  const std::size_t words = words_per_row();
  std::uint64_t a[64];
  for (std::size_t c = 0; c < words; ++c) {
    for (std::size_t r = 0; r < kGroupRows; ++r) a[r] = in[r * words + c];
    transpose64(a);
    for (std::size_t p = 0; p < 64 && 64 * c + p < 2 * cols_; ++p)
      planes[(64 * c + p) * kPlaneWords] = a[p];
  }
}

void SlicedRowStore::gather_row(std::size_t slot, std::uint64_t* out) const {
  const std::size_t r = slot % kBlockRows;
  const std::uint64_t* planes = block(slot / kBlockRows) + r / kGroupRows;
  const std::size_t bit = r % kGroupRows;
  for (std::size_t c = 0; c < words_per_row(); ++c) {
    std::uint64_t word = 0;
    for (std::size_t p = 0; p < 64 && 64 * c + p < 2 * cols_; ++p)
      word |= ((planes[(64 * c + p) * kPlaneWords] >> bit) & 1) << p;
    out[c] = word;
  }
}

}  // namespace asmcap
