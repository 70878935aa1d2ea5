#pragma once
// Compact dynamic bit vector. Used for match masks in the CAM functional
// model and as the word storage behind the Myers bit-parallel aligner.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asmcap {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t bits, bool value = false);

  std::size_t size() const { return bits_; }
  bool empty() const { return bits_ == 0; }

  bool get(std::size_t i) const;
  bool operator[](std::size_t i) const { return get(i); }
  void set(std::size_t i, bool value = true);
  void clear(std::size_t i) { set(i, false); }
  void reset();
  void resize(std::size_t bits, bool value = false);
  /// Bits the allocated words hold: resizing up to this allocates nothing.
  std::size_t capacity() const { return data_.capacity() * 64; }
  /// Allocates words for `bits` bits now (std::vector::reserve's
  /// contract), so that a later resize up to that size cannot throw.
  void reserve(std::size_t bits);

  /// Number of set bits.
  std::size_t popcount() const;

  /// Index of the first set bit, or size() if none.
  std::size_t find_first() const;

  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t find_next(std::size_t from) const;

  BitVec& operator&=(const BitVec& other);
  BitVec& operator|=(const BitVec& other);
  BitVec& operator^=(const BitVec& other);
  /// Flips every bit (bits beyond size() stay zero).
  void flip();

  bool operator==(const BitVec& other) const;

  /// Direct word access for bit-parallel algorithms.
  std::size_t words() const { return data_.size(); }
  std::uint64_t word(std::size_t w) const { return data_.at(w); }
  std::uint64_t& word(std::size_t w) { return data_.at(w); }
  /// The words() words: bit i at bit i % 64 of word i / 64.
  const std::uint64_t* data() const { return data_.data(); }

 private:
  void check(std::size_t i) const;
  void trim();

  std::vector<std::uint64_t> data_;
  std::size_t bits_ = 0;
};

}  // namespace asmcap
