#include "util/bitvec.h"

#include <bit>
#include <stdexcept>

namespace asmcap {

namespace {
constexpr std::size_t kWordBits = 64;
std::size_t words_for(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}
}  // namespace

BitVec::BitVec(std::size_t bits, bool value)
    : data_(words_for(bits), value ? ~std::uint64_t{0} : 0), bits_(bits) {
  trim();
}

void BitVec::check(std::size_t i) const {
  if (i >= bits_) throw std::out_of_range("BitVec index out of range");
}

void BitVec::trim() {
  const std::size_t tail = bits_ % kWordBits;
  if (tail != 0 && !data_.empty())
    data_.back() &= (std::uint64_t{1} << tail) - 1;
}

bool BitVec::get(std::size_t i) const {
  check(i);
  return (data_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVec::set(std::size_t i, bool value) {
  check(i);
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value)
    data_[i / kWordBits] |= mask;
  else
    data_[i / kWordBits] &= ~mask;
}

void BitVec::reset() {
  for (auto& w : data_) w = 0;
}

void BitVec::resize(std::size_t bits, bool value) {
  const std::size_t old_bits = bits_;
  data_.resize(words_for(bits), value ? ~std::uint64_t{0} : 0);
  bits_ = bits;
  if (bits > old_bits && value) {
    // Fill the fractional part of the old last word.
    for (std::size_t i = old_bits; i < bits && i % kWordBits != 0; ++i)
      set(i, true);
  }
  trim();
}

void BitVec::reserve(std::size_t bits) { data_.reserve(words_for(bits)); }

std::size_t BitVec::popcount() const {
  std::size_t total = 0;
  for (auto w : data_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t BitVec::find_first() const { return find_next(0); }

std::size_t BitVec::find_next(std::size_t from) const {
  if (from >= bits_) return bits_;
  std::size_t w = from / kWordBits;
  std::uint64_t word = data_[w] & (~std::uint64_t{0} << (from % kWordBits));
  for (;;) {
    if (word != 0) {
      const std::size_t bit =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
      return bit < bits_ ? bit : bits_;
    }
    if (++w >= data_.size()) return bits_;
    word = data_[w];
  }
}

BitVec& BitVec::operator&=(const BitVec& other) {
  if (bits_ != other.bits_) throw std::invalid_argument("BitVec size mismatch");
  for (std::size_t w = 0; w < data_.size(); ++w) data_[w] &= other.data_[w];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& other) {
  if (bits_ != other.bits_) throw std::invalid_argument("BitVec size mismatch");
  for (std::size_t w = 0; w < data_.size(); ++w) data_[w] |= other.data_[w];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& other) {
  if (bits_ != other.bits_) throw std::invalid_argument("BitVec size mismatch");
  for (std::size_t w = 0; w < data_.size(); ++w) data_[w] ^= other.data_[w];
  return *this;
}

void BitVec::flip() {
  for (auto& w : data_) w = ~w;
  trim();
}

bool BitVec::operator==(const BitVec& other) const {
  return bits_ == other.bits_ && data_ == other.data_;
}

}  // namespace asmcap
