#include "genome/sequence.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "genome/base.h"

namespace asmcap {
namespace {

TEST(Base, RoundTripCodes) {
  for (std::uint8_t code = 0; code < 4; ++code) {
    const Base b = base_from_code(code);
    EXPECT_EQ(code_of(b), code);
    EXPECT_EQ(base_from_char(to_char(b)).value(), b);
  }
}

TEST(Base, CharParsing) {
  EXPECT_EQ(base_from_char('a').value(), Base::A);
  EXPECT_EQ(base_from_char('T').value(), Base::T);
  EXPECT_FALSE(base_from_char('N').has_value());
  EXPECT_FALSE(base_from_char('x').has_value());
  EXPECT_FALSE(base_from_char(' ').has_value());
}

// The per-character switch that kBaseDecode replaced, kept as the oracle.
std::optional<Base> switch_decode(char c) {
  switch (c) {
    case 'A':
    case 'a':
      return Base::A;
    case 'C':
    case 'c':
      return Base::C;
    case 'G':
    case 'g':
      return Base::G;
    case 'T':
    case 't':
      return Base::T;
    default:
      return std::nullopt;
  }
}

TEST(Base, DecodeTableMatchesSwitchOnAllBytes) {
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    const std::optional<Base> want = switch_decode(c);
    const std::uint8_t entry = decode_base(c);
    SCOPED_TRACE("byte " + std::to_string(byte));
    EXPECT_EQ(base_from_char(c), want);
    if (want) {
      EXPECT_EQ(entry, code_of(*want));
    } else {
      EXPECT_EQ(entry, kAmbiguousBase);  // Code 0: resolves to 'A'.
    }
    // Sequence::from_string still rejects every ambiguous byte, alone and
    // inside a longer string.
    if (want) {
      EXPECT_EQ(Sequence::from_string(std::string(1, c))[0], *want);
    } else {
      EXPECT_THROW(Sequence::from_string(std::string(1, c)),
                   std::invalid_argument);
      EXPECT_THROW(Sequence::from_string("ACG" + std::string(1, c) + "TTA"),
                   std::invalid_argument);
    }
  }
}

TEST(Sequence, AppendTextPacksAndCountsAmbiguity) {
  Sequence seq = Sequence::from_string("GT");
  EXPECT_EQ(seq.append_text("acNgt TTg"), 2u);  // 'N' and ' ' -> 'A'.
  EXPECT_EQ(seq.to_string(), "GTACAGTATTG");
  EXPECT_EQ(seq.append_text(""), 0u);
  EXPECT_EQ(seq.size(), 11u);
  // Stale codes an erase leaves past size() must not leak into appends.
  Sequence edited = Sequence::from_string("TTTTT");
  edited.erase(4);
  edited.erase(3);
  EXPECT_EQ(edited.append_text("AA"), 0u);
  EXPECT_EQ(edited.to_string(), "TTTAA");
  edited.erase(4);
  edited.resize(8);
  EXPECT_EQ(edited.to_string(), "TTTAAAAA");
  edited.resize(2);
  EXPECT_EQ(edited.to_string(), "TT");
  // The same for resize: growth pads with 'A', past a stale erased 'T'.
  Sequence grown = Sequence::from_string("TTTTTTT");
  grown.erase(6);
  grown.resize(8);
  EXPECT_EQ(grown.to_string(), "TTTTTTAA");
}

TEST(Base, Complement) {
  EXPECT_EQ(complement(Base::A), Base::T);
  EXPECT_EQ(complement(Base::T), Base::A);
  EXPECT_EQ(complement(Base::C), Base::G);
  EXPECT_EQ(complement(Base::G), Base::C);
}

TEST(Sequence, FromStringRoundTrip) {
  const Sequence s = Sequence::from_string("ACGTACGTTGCA");
  EXPECT_EQ(s.size(), 12u);
  EXPECT_EQ(s.to_string(), "ACGTACGTTGCA");
  EXPECT_EQ(s[0], Base::A);
  EXPECT_EQ(s[3], Base::T);
}

TEST(Sequence, FromStringRejectsInvalid) {
  EXPECT_THROW(Sequence::from_string("ACGN"), std::invalid_argument);
}

TEST(Sequence, LengthConstructorIsAllA) {
  const Sequence s(9);
  EXPECT_EQ(s.to_string(), "AAAAAAAAA");
}

TEST(Sequence, SetAndAt) {
  Sequence s(5);
  s.set(2, Base::G);
  EXPECT_EQ(s.at(2), Base::G);
  EXPECT_THROW(s.at(5), std::out_of_range);
  EXPECT_THROW(s.set(5, Base::A), std::out_of_range);
}

TEST(Sequence, PushBackAcrossByteBoundaries) {
  Sequence s;
  const std::string text = "ACGTACGTA";  // 9 bases: crosses two byte edges
  for (char c : text) s.push_back(base_from_char(c).value());
  EXPECT_EQ(s.to_string(), text);
}

TEST(Sequence, Subseq) {
  const Sequence s = Sequence::from_string("ACGTACGT");
  EXPECT_EQ(s.subseq(2, 4).to_string(), "GTAC");
  EXPECT_EQ(s.subseq(0, 0).size(), 0u);
  EXPECT_THROW(s.subseq(5, 4), std::out_of_range);
}

TEST(Sequence, InsertErase) {
  Sequence s = Sequence::from_string("ACGT");
  s.insert(2, Base::T);
  EXPECT_EQ(s.to_string(), "ACTGT");
  s.insert(5, Base::A);  // append position
  EXPECT_EQ(s.to_string(), "ACTGTA");
  s.erase(0);
  EXPECT_EQ(s.to_string(), "CTGTA");
  s.erase(4);
  EXPECT_EQ(s.to_string(), "CTGT");
  EXPECT_THROW(s.erase(4), std::out_of_range);
  EXPECT_THROW(s.insert(6, Base::A), std::out_of_range);
}

TEST(Sequence, RotationLeftRight) {
  const Sequence s = Sequence::from_string("ACGTT");
  EXPECT_EQ(s.rotated_left(1).to_string(), "CGTTA");
  EXPECT_EQ(s.rotated_right(1).to_string(), "TACGT");
  EXPECT_EQ(s.rotated_left(5).to_string(), "ACGTT");
  EXPECT_EQ(s.rotated_left(7).to_string(), s.rotated_left(2).to_string());
}

TEST(Sequence, RotationInverses) {
  Rng rng(5);
  const Sequence s = Sequence::random(97, rng);
  for (std::size_t k : {std::size_t{1}, std::size_t{13}, std::size_t{96}}) {
    EXPECT_EQ(s.rotated_left(k).rotated_right(k), s);
  }
}

TEST(Sequence, WordRotationsMatchPerBaseReference) {
  // Both rotations shift the packed words; the reference builds each
  // rotation base by base. Lengths around the 32-base word boundaries,
  // every k < 2n (k >= n wraps).
  Rng rng(44);
  for (const std::size_t n :
       {1u, 2u, 31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u, 129u, 256u}) {
    const Sequence s = Sequence::random(n, rng);
    for (std::size_t k = 0; k < 2 * n; ++k) {
      Sequence left;
      Sequence right;
      for (std::size_t i = 0; i < n; ++i) {
        left.push_back(s[(i + k) % n]);
        right.push_back(s[(i + n - k % n) % n]);
      }
      const Sequence got_left = s.rotated_left(k);
      const Sequence got_right = s.rotated_right(k);
      EXPECT_EQ(got_left.to_string(), left.to_string())
          << "n=" << n << " k=" << k;
      EXPECT_EQ(got_right.to_string(), right.to_string())
          << "n=" << n << " k=" << k;
      EXPECT_TRUE(got_left == left) << "n=" << n << " k=" << k;
      EXPECT_TRUE(got_right == right) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Sequence, EqualityIgnoresStaleCodesPastSize) {
  // from_packed_words copies whole bytes, so set bits past n in the last
  // word leave stale codes in the last byte: the sequence still equals
  // its clean twin, and rotates like it.
  Rng rng(45);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 33u, 63u, 127u}) {
    const Sequence clean = Sequence::random(n, rng);
    std::vector<std::uint64_t> words = clean.packed_words();
    words.back() |= ~std::uint64_t{0} << (2 * (n % 32));
    const Sequence stale = Sequence::from_packed_words(words.data(), n);
    EXPECT_TRUE(stale == clean) << "n=" << n;
    EXPECT_TRUE(clean == stale) << "n=" << n;
    EXPECT_EQ(stale.to_string(), clean.to_string()) << "n=" << n;
    EXPECT_TRUE(stale.rotated_left(1) == clean.rotated_left(1)) << "n=" << n;
    EXPECT_TRUE(stale.rotated_right(2) == clean.rotated_right(2))
        << "n=" << n;
  }
}

TEST(Sequence, EqualitySeesTheLastBase) {
  // Two sequences that differ only in their last base, whether it ends a
  // whole byte or sits in a partial one.
  Rng rng(46);
  for (const std::size_t n : {1u, 4u, 5u, 32u, 33u, 64u, 129u}) {
    const Sequence a = Sequence::random(n, rng);
    Sequence b = a;
    b.set(n - 1, base_from_code(static_cast<std::uint8_t>(
                     (code_of(a[n - 1]) + 1) & 3u)));
    EXPECT_FALSE(a == b) << "n=" << n;
    EXPECT_FALSE(b == a) << "n=" << n;
  }
}

TEST(Sequence, ReverseComplement) {
  const Sequence s = Sequence::from_string("AACGT");
  EXPECT_EQ(s.reverse_complement().to_string(), "ACGTT");
  // Involution.
  Rng rng(9);
  const Sequence r = Sequence::random(33, rng);
  EXPECT_EQ(r.reverse_complement().reverse_complement(), r);
}

TEST(Sequence, EqualityAndMismatchCount) {
  const Sequence a = Sequence::from_string("ACGT");
  const Sequence b = Sequence::from_string("ACGT");
  const Sequence c = Sequence::from_string("ACGA");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.mismatch_count(c), 1u);
  const Sequence d = Sequence::from_string("ACG");
  EXPECT_FALSE(a == d);
  EXPECT_THROW(a.mismatch_count(d), std::invalid_argument);
}

TEST(Sequence, RandomHasAllBases) {
  Rng rng(42);
  const Sequence s = Sequence::random(1000, rng);
  std::size_t counts[4] = {};
  for (std::size_t i = 0; i < s.size(); ++i) ++counts[code_of(s[i])];
  for (std::size_t c : counts) EXPECT_GT(c, 180u);  // roughly uniform
}

TEST(Sequence, PackedWordsRoundTrip) {
  Rng rng(43);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 31u, 32u, 33u, 64u, 129u}) {
    const Sequence s = Sequence::random(n, rng);
    const std::vector<std::uint64_t> words = s.packed_words();
    EXPECT_EQ(Sequence::from_packed_words(words.data(), n), s) << "n=" << n;
  }
}

TEST(Sequence, EraseShrinksStorageConsistently) {
  Sequence s = Sequence::from_string("ACGTACGT");
  for (int i = 0; i < 8; ++i) s.erase(0);
  EXPECT_TRUE(s.empty());
  s.push_back(Base::G);
  EXPECT_EQ(s.to_string(), "G");
}

}  // namespace
}  // namespace asmcap
