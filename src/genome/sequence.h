#pragma once
// 2-bit packed DNA sequence. This is the common currency between the genome
// substrate, the alignment algorithms, and the CAM functional model.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "genome/base.h"
#include "util/rng.h"

namespace asmcap {

/// Immutable-size-friendly packed DNA string (4 bases per byte). Mutation is
/// supported in place (set/push_back); all index access is bounds-checked in
/// the at() form and unchecked in operator[].
class Sequence {
 public:
  Sequence() = default;
  /// Length-n sequence initialised to 'A'.
  explicit Sequence(std::size_t n);
  Sequence(std::initializer_list<Base> bases);

  /// Parses "ACGT..." (case-insensitive). Throws std::invalid_argument on
  /// characters outside the alphabet.
  static Sequence from_string(std::string_view text);

  /// Uniform random sequence of length n.
  static Sequence random(std::size_t n, Rng& rng);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Base operator[](std::size_t i) const { return get_unchecked(i); }
  Base at(std::size_t i) const;
  void set(std::size_t i, Base b);

  void push_back(Base b);
  void clear();
  void reserve(std::size_t n) { data_.reserve((n + 3) / 4); }
  /// Shrinks to `n` bases, or grows to `n` with 'A'.
  void resize(std::size_t n);

  /// Appends `text` decoded through kBaseDecode (genome/base.h), packed
  /// four bases per byte in bulk. Every byte outside ACGTacgt becomes 'A';
  /// returns how many did.
  std::size_t append_text(std::string_view text);

  /// Copy of the subsequence [pos, pos+len). Throws if out of range.
  Sequence subseq(std::size_t pos, std::size_t len) const;

  /// Inserts a base before position pos (pos == size() appends).
  void insert(std::size_t pos, Base b);

  /// Removes the base at position pos.
  void erase(std::size_t pos);

  /// Left-rotated copy: rotate_left(1) moves the first base to the end.
  Sequence rotated_left(std::size_t k) const;
  /// Right-rotated copy: rotate_right(1) moves the last base to the front.
  Sequence rotated_right(std::size_t k) const;

  /// Reverse complement (the opposite strand read 5'->3').
  Sequence reverse_complement() const;

  std::string to_string() const;

  /// 2-bit packed words for the word-parallel kernels: base i occupies bits
  /// [2*(i%32), 2*(i%32)+1] of word i/32; bits beyond size() are zero.
  std::vector<std::uint64_t> packed_words() const;
  /// Writes the (size() + 31) / 32 words of packed_words() to `out`,
  /// allocating nothing: the one packer behind packed_words() and the row
  /// store's writes (align/row_store.h).
  void pack_words(std::uint64_t* out) const;
  /// Inverse of packed_words: the first `n` bases of `words`, which must
  /// hold at least ceil(n / 32) words in packed_words' layout.
  static Sequence from_packed_words(const std::uint64_t* words,
                                    std::size_t n);

  bool operator==(const Sequence& other) const;

  /// Count of positions where the co-located bases differ; both sequences
  /// must have equal length (convenience used by tests; the align library
  /// provides the full API).
  std::size_t mismatch_count(const Sequence& other) const;

 private:
  Base get_unchecked(std::size_t i) const {
    return base_from_code(
        static_cast<std::uint8_t>(data_[i >> 2] >> ((i & 3u) * 2)) & 0x3u);
  }
  /// Zeroes the last byte's bits past size(): in-place edits and
  /// from_packed_words can leave stale codes there.
  void clear_tail_bits();

  std::vector<std::uint8_t> data_;
  std::size_t size_ = 0;
};

}  // namespace asmcap
