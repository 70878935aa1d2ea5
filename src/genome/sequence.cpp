#include "genome/sequence.h"

#include <algorithm>
#include <stdexcept>

namespace asmcap {

Sequence::Sequence(std::size_t n) : data_((n + 3) / 4, 0), size_(n) {}

Sequence::Sequence(std::initializer_list<Base> bases) {
  reserve(bases.size());
  for (Base b : bases) push_back(b);
}

Sequence Sequence::from_string(std::string_view text) {
  Sequence seq;
  if (seq.append_text(text) != 0) {
    const char bad = *std::find_if(text.begin(), text.end(), [](char c) {
      return (decode_base(c) & kAmbiguousBase) != 0;
    });
    throw std::invalid_argument(std::string("Sequence: invalid base '") + bad +
                                "'");
  }
  return seq;
}

Sequence Sequence::random(std::size_t n, Rng& rng) {
  Sequence seq;
  seq.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    seq.push_back(base_from_code(static_cast<std::uint8_t>(rng.below(4))));
  return seq;
}

Base Sequence::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Sequence::at");
  return get_unchecked(i);
}

void Sequence::set(std::size_t i, Base b) {
  if (i >= size_) throw std::out_of_range("Sequence::set");
  const std::size_t shift = (i & 3u) * 2;
  std::uint8_t& byte = data_[i >> 2];
  byte = static_cast<std::uint8_t>((byte & ~(0x3u << shift)) |
                                   (code_of(b) << shift));
}

void Sequence::push_back(Base b) {
  if ((size_ & 3u) == 0) data_.push_back(0);
  ++size_;
  set(size_ - 1, b);
}

void Sequence::clear() {
  data_.clear();
  size_ = 0;
}

void Sequence::clear_tail_bits() {
  if (const std::size_t used = size_ & 3u; used != 0)
    data_.back() &= static_cast<std::uint8_t>((1u << (2 * used)) - 1);
}

void Sequence::resize(std::size_t n) {
  clear_tail_bits();
  data_.resize((n + 3) / 4, 0);
  size_ = n;
  clear_tail_bits();
}

std::size_t Sequence::append_text(std::string_view text) {
  clear_tail_bits();
  const auto* in = reinterpret_cast<const unsigned char*>(text.data());
  const unsigned char* const end = in + text.size();
  std::size_t ambiguous = 0;
  // Top up the last partial byte, then pack whole bytes of four bases.
  for (; in != end && (size_ & 3u) != 0; ++in, ++size_) {
    const unsigned entry = kBaseDecode[*in];
    ambiguous += entry >> 2;
    data_.back() |=
        static_cast<std::uint8_t>((entry & 3u) << (2 * (size_ & 3u)));
  }
  const auto rest = static_cast<std::size_t>(end - in);
  const std::size_t first = data_.size();
  data_.resize(first + (rest + 3) / 4, 0);
  std::uint8_t* out = data_.data() + first;
  for (; end - in >= 4; in += 4) {
    const unsigned e0 = kBaseDecode[in[0]];
    const unsigned e1 = kBaseDecode[in[1]];
    const unsigned e2 = kBaseDecode[in[2]];
    const unsigned e3 = kBaseDecode[in[3]];
    ambiguous += (e0 >> 2) + (e1 >> 2) + (e2 >> 2) + (e3 >> 2);
    *out++ = static_cast<std::uint8_t>((e0 & 3u) | (e1 & 3u) << 2 |
                                       (e2 & 3u) << 4 | (e3 & 3u) << 6);
  }
  for (unsigned shift = 0; in != end; ++in, shift += 2) {
    const unsigned entry = kBaseDecode[*in];
    ambiguous += entry >> 2;
    *out |= static_cast<std::uint8_t>((entry & 3u) << shift);
  }
  size_ += rest;
  return ambiguous;
}

Sequence Sequence::subseq(std::size_t pos, std::size_t len) const {
  if (pos + len > size_) throw std::out_of_range("Sequence::subseq");
  Sequence out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) out.push_back(get_unchecked(pos + i));
  return out;
}

void Sequence::insert(std::size_t pos, Base b) {
  if (pos > size_) throw std::out_of_range("Sequence::insert");
  push_back(Base::A);  // grow by one
  for (std::size_t i = size_ - 1; i > pos; --i) set(i, get_unchecked(i - 1));
  set(pos, b);
}

void Sequence::erase(std::size_t pos) {
  if (pos >= size_) throw std::out_of_range("Sequence::erase");
  for (std::size_t i = pos; i + 1 < size_; ++i) set(i, get_unchecked(i + 1));
  --size_;
  if ((size_ & 3u) == 0 && !data_.empty() && size_ / 4 < data_.size())
    data_.pop_back();
}

Sequence Sequence::rotated_left(std::size_t k) const {
  if (size_ == 0) return {};
  k %= size_;
  // On the packed string, a left rotation by k bases is a rotation of its
  // 2n bits right by 2k: result bit b is bit (b + 2k) mod 2n. With the tail
  // bits clear, that is (bits >> 2k) | (bits << (2n - 2k)) cut to 2n bits.
  const std::vector<std::uint64_t> in = packed_words();
  const std::size_t bits = 2 * size_;
  const std::size_t right = 2 * k;
  const std::size_t left = bits - right;
  // The 64 bits starting at bit `pos`, zero past the last word.
  const auto bits_at = [&](std::size_t pos) {
    const std::size_t w = pos / 64;
    const std::size_t shift = pos % 64;
    std::uint64_t word = w < in.size() ? in[w] >> shift : 0;
    if (shift != 0 && w + 1 < in.size()) word |= in[w + 1] << (64 - shift);
    return word;
  };
  std::vector<std::uint64_t> out(in.size());
  for (std::size_t w = 0; w < out.size(); ++w) {
    const std::size_t first = 64 * w;
    out[w] = bits_at(first + right);
    if (first >= left)
      out[w] |= bits_at(first - left);
    else if (left - first < 64)
      out[w] |= in[0] << (left - first);
  }
  if (const std::size_t tail = bits % 64; tail != 0)
    out.back() &= (std::uint64_t{1} << tail) - 1;
  return from_packed_words(out.data(), size_);
}

Sequence Sequence::rotated_right(std::size_t k) const {
  if (size_ == 0) return {};
  k %= size_;
  return rotated_left(size_ - k);
}

Sequence Sequence::reverse_complement() const {
  Sequence out;
  out.reserve(size_);
  for (std::size_t i = size_; i-- > 0;)
    out.push_back(complement(get_unchecked(i)));
  return out;
}

std::string Sequence::to_string() const {
  std::string text;
  text.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) text += to_char(get_unchecked(i));
  return text;
}

std::vector<std::uint64_t> Sequence::packed_words() const {
  std::vector<std::uint64_t> words((size_ + 31) / 32);
  pack_words(words.data());
  return words;
}

void Sequence::pack_words(std::uint64_t* out) const {
  const std::size_t words = (size_ + 31) / 32;
  const std::size_t bytes = (size_ + 3) / 4;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = 0;
    for (std::size_t b = 8 * w; b < std::min(bytes, 8 * w + 8); ++b)
      word |= static_cast<std::uint64_t>(data_[b]) << ((b & 7u) * 8);
    out[w] = word;
  }
  // In-place edits can leave stale bits in the final partial byte; the
  // word-parallel kernels rely on tail bits being zero.
  if (const std::size_t tail = size_ % 32; tail != 0)
    out[words - 1] &= (std::uint64_t{1} << (2 * tail)) - 1;
}

Sequence Sequence::from_packed_words(const std::uint64_t* words,
                                     std::size_t n) {
  Sequence seq(n);
  for (std::size_t b = 0; b < seq.data_.size(); ++b)
    seq.data_[b] = static_cast<std::uint8_t>(words[b >> 3] >> ((b & 7u) * 8));
  return seq;
}

bool Sequence::operator==(const Sequence& other) const {
  if (size_ != other.size_) return false;
  // Whole bytes compare as stored; the last partial byte only in its
  // used bits (stale codes past size() do not count).
  const std::size_t whole = size_ / 4;
  if (!std::equal(data_.begin(), data_.begin() + whole, other.data_.begin()))
    return false;
  const std::size_t used = size_ & 3u;
  if (used == 0) return true;
  const auto mask = static_cast<std::uint8_t>((1u << (2 * used)) - 1);
  return ((data_[whole] ^ other.data_[whole]) & mask) == 0;
}

std::size_t Sequence::mismatch_count(const Sequence& other) const {
  if (size_ != other.size_)
    throw std::invalid_argument("Sequence::mismatch_count: length mismatch");
  std::size_t count = 0;
  for (std::size_t i = 0; i < size_; ++i)
    count += get_unchecked(i) != other.get_unchecked(i) ? 1u : 0u;
  return count;
}

}  // namespace asmcap
