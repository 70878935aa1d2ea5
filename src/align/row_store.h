#pragma once
// The bit-sliced row store: the search passes' resident reference
// database, laid out the way the ASMCap array evaluates a search — one
// column at a time across all of its rows (paper Fig. 4). Rows live in
// blocks of 256. Each column of a block holds two 256-bit planes, the low
// and the high bit of every row's 2-bit base code, and bit r of a block's
// plane is slot 256·b + r: the layout of the passes' decision words. The
// kernels (align/kernels.h) count a whole block per column step.
//
// Rows enter and leave in 64-row groups through 64×64 bit-matrix
// transposes (Hacker's Delight §7-3), never bit by bit: write_rows packs
// each row straight into the store's one group buffer
// (Sequence::pack_words, no per-row allocation) and transposes whole
// groups, gathering a partly covered group first, and gather_group
// returns a group in Sequence::packed_words layout — the form the
// lane-word consumers (align/kernels.h) read. gather_row serves a lone
// row. Rows past the last written slot are zero (all 'A') padding.
// reserve() makes room ahead of a write, growing geometrically, so that a
// bank can allocate everything an append needs before it writes anything.
//
// Ownership: the store owns its plane words and its group buffer.
// Thread-safety: the const members are pure reads, safe to call
// concurrently; write_rows mutates and must not overlap any other call on
// the same store (a bank writes its store on the control plane only, see
// asmcap/accelerator.h).
// Reentrancy: nothing here blocks or dispatches to a pool.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

class SlicedRowStore {
 public:
  static constexpr std::size_t kBlockRows = 256;
  static constexpr std::size_t kGroupRows = 64;
  /// Words per column of a block: the low-bit plane, then the high-bit
  /// plane, 4 words each; word q of a plane holds the block's group q.
  static constexpr std::size_t kColumnWords = 8;

  SlicedRowStore() = default;
  /// Empty store of `cols`-wide rows. Throws std::invalid_argument when a
  /// count could overflow the kernels' 16-bit per-row counts.
  explicit SlicedRowStore(std::size_t cols);
  /// Rows [0, rows.size()) from `rows`, each `cols` wide.
  SlicedRowStore(const std::vector<Sequence>& rows, std::size_t cols);

  /// (Re)writes slots [first, first + rows.size()) from `rows`, growing the
  /// store as needed. Throws std::invalid_argument on a width mismatch,
  /// and whatever growing the plane words throws (std::length_error,
  /// std::bad_alloc), before anything changes. A write that ends within
  /// reserved room allocates nothing, so it cannot throw on rows of the
  /// store's width.
  void write_rows(std::size_t first, std::span<const Sequence> rows);
  /// Makes room for slots [0, rows) without changing any row: the plane
  /// words' capacity grows to at least double when it grows at all (as
  /// std::vector's push_back does), so a run of appends stays amortised
  /// O(rows written). Throws what that allocation throws
  /// (std::length_error, std::bad_alloc), with the store unchanged.
  void reserve(std::size_t rows);

  /// Writes the 64 rows of group `group` (slots 64·group ..) to `out`,
  /// words_per_row() words per row in Sequence::packed_words layout.
  void gather_group(std::size_t group, std::uint64_t* out) const;
  /// Writes one row's words_per_row() packed words to `out`.
  void gather_row(std::size_t slot, std::uint64_t* out) const;

  /// Slots written so far (the highest written slot + 1).
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t words_per_row() const { return (cols_ + 31) / 32; }
  std::size_t blocks() const { return (rows_ + kBlockRows - 1) / kBlockRows; }
  /// Block b's planes: column j's low-bit plane at word 8j, its high-bit
  /// plane at word 8j + 4.
  const std::uint64_t* block(std::size_t b) const {
    return words_.data() + b * cols_ * kColumnWords;
  }

 private:
  void scatter_group(std::size_t group, const std::uint64_t* in);
  /// Plane words holding slots [0, rows).
  std::size_t words_for(std::size_t rows) const {
    return (rows + kBlockRows - 1) / kBlockRows * cols_ * kColumnWords;
  }

  std::vector<std::uint64_t> words_;
  /// write_rows' group buffer: kGroupRows rows of words_per_row() words.
  std::vector<std::uint64_t> group_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

}  // namespace asmcap
