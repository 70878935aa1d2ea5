#include "align/hamming.h"

#include <gtest/gtest.h>

namespace asmcap {
namespace {

TEST(Hamming, Basics) {
  const Sequence a = Sequence::from_string("ACGT");
  EXPECT_EQ(hamming_distance(a, a), 0u);
  EXPECT_EQ(hamming_distance(a, Sequence::from_string("ACGA")), 1u);
  EXPECT_EQ(hamming_distance(a, Sequence::from_string("TGCA")), 4u);
}

TEST(Hamming, LengthMismatchThrows) {
  const Sequence a = Sequence::from_string("ACGT");
  const Sequence b = Sequence::from_string("ACG");
  EXPECT_THROW(hamming_distance(a, b), std::invalid_argument);
}

TEST(Hamming, SymmetricProperty) {
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const Sequence a = Sequence::random(64, rng);
    const Sequence b = Sequence::random(64, rng);
    EXPECT_EQ(hamming_distance(a, b), hamming_distance(b, a));
  }
}

TEST(Hamming, RandomPairsNearExpectation) {
  Rng rng(35);
  double total = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const Sequence a = Sequence::random(256, rng);
    const Sequence b = Sequence::random(256, rng);
    total += static_cast<double>(hamming_distance(a, b));
  }
  EXPECT_NEAR(total / trials / 256.0, 0.75, 0.01);  // 3/4 mismatch rate
}

TEST(Hamming, PackedKernelMatchesScalar) {
  Rng rng(33);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{31}, std::size_t{32}, std::size_t{33},
        std::size_t{64}, std::size_t{100}, std::size_t{256}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const Sequence a = Sequence::random(n, rng);
      const Sequence b = Sequence::random(n, rng);
      EXPECT_EQ(hamming_packed(a.packed_words(), b.packed_words(), n),
                hamming_distance(a, b))
          << "n=" << n;
    }
  }
}

TEST(Hamming, PackedKernelRejectsShortWordVectors) {
  // n = 64 needs two words per operand; one is an error, never a read past
  // the end of the vector.
  EXPECT_THROW(hamming_packed({0}, {0, 0}, 64), std::invalid_argument);
  EXPECT_THROW(hamming_packed({0, 0}, {0}, 64), std::invalid_argument);
  EXPECT_EQ(hamming_packed({0, 0}, {0, 0}, 64), 0u);
}

}  // namespace
}  // namespace asmcap
