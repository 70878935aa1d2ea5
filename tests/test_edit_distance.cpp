#include "align/edit_distance.h"

#include <gtest/gtest.h>

#include "align/hamming.h"
#include "genome/edits.h"

namespace asmcap {
namespace {

TEST(EditDistance, KnownCases) {
  const auto ed = [](const char* a, const char* b) {
    return edit_distance(Sequence::from_string(a), Sequence::from_string(b));
  };
  EXPECT_EQ(ed("ACGT", "ACGT"), 0u);
  EXPECT_EQ(ed("ACGT", "ACGA"), 1u);
  EXPECT_EQ(ed("ACGT", "AGT"), 1u);    // one deletion
  EXPECT_EQ(ed("ACGT", "AACGT"), 1u);  // one insertion
  EXPECT_EQ(ed("AAAA", "TTTT"), 4u);
  EXPECT_EQ(ed("GAT", "TAG"), 2u);
}

TEST(EditDistance, EmptySequences) {
  const Sequence empty;
  const Sequence s = Sequence::from_string("ACG");
  EXPECT_EQ(edit_distance(empty, empty), 0u);
  EXPECT_EQ(edit_distance(empty, s), 3u);
  EXPECT_EQ(edit_distance(s, empty), 3u);
}

TEST(EditDistance, PaperFig2Values) {
  // Fig. 2 of the ASMCap paper. The substitution example matches exactly.
  // For the two indel examples the paper quotes "ED = 1": it counts the
  // single indel *event*, ignoring that in a fixed-width window the shifted
  // boundary base adds one more edit. True Levenshtein over the 8-base
  // windows is 2 (indel + boundary compensation).
  const Sequence s1 = Sequence::from_string("AGCTGAGA");
  EXPECT_EQ(edit_distance(s1, Sequence::from_string("ATCTGCGA")), 2u);
  EXPECT_EQ(edit_distance(s1, Sequence::from_string("AGCATGAG")), 2u);
  EXPECT_EQ(edit_distance(s1, Sequence::from_string("AGTGAGAA")), 2u);
}

TEST(EditDistance, BoundedByHammingForEqualLengths) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const Sequence a = Sequence::random(80, rng);
    const Sequence b = Sequence::random(80, rng);
    EXPECT_LE(edit_distance(a, b), hamming_distance(a, b));
  }
}

TEST(EditDistance, TriangleInequality) {
  Rng rng(43);
  for (int trial = 0; trial < 25; ++trial) {
    const Sequence a = Sequence::random(40, rng);
    const Sequence b = Sequence::random(40, rng);
    const Sequence c = Sequence::random(40, rng);
    EXPECT_LE(edit_distance(a, c),
              edit_distance(a, b) + edit_distance(b, c));
  }
}

TEST(EditDistance, Symmetry) {
  Rng rng(45);
  for (int trial = 0; trial < 25; ++trial) {
    const Sequence a = Sequence::random(30 + rng.below(40), rng);
    const Sequence b = Sequence::random(30 + rng.below(40), rng);
    EXPECT_EQ(edit_distance(a, b), edit_distance(b, a));
  }
}

TEST(BandedEditDistance, AgreesWithFullWithinCap) {
  Rng rng(47);
  for (int trial = 0; trial < 60; ++trial) {
    const Sequence a = Sequence::random(96, rng);
    const EditedSequence mutated = inject_edits(a, {0.03, 0.015, 0.015}, rng);
    const std::size_t exact = edit_distance(a, mutated.seq);
    const CappedDistance capped = banded_edit_distance(a, mutated.seq, 16);
    if (exact <= 16) {
      EXPECT_TRUE(capped.within_band);
      EXPECT_EQ(capped.distance, exact);
    } else {
      EXPECT_FALSE(capped.within_band);
      EXPECT_EQ(capped.distance, 17u);
    }
  }
}

TEST(BandedEditDistance, LengthGapBeyondCapShortCircuits) {
  const Sequence a = Sequence::from_string("AAAAAAAAAA");
  const Sequence b = Sequence::from_string("AA");
  const CappedDistance capped = banded_edit_distance(a, b, 3);
  EXPECT_FALSE(capped.within_band);
  EXPECT_EQ(capped.distance, 4u);
}

TEST(BandedEditDistance, CapZeroIsEqualityTest) {
  const Sequence a = Sequence::from_string("ACGT");
  EXPECT_TRUE(banded_edit_distance(a, a, 0).within_band);
  EXPECT_FALSE(
      banded_edit_distance(a, Sequence::from_string("ACGA"), 0).within_band);
}

TEST(BandedEditDistance, FarPairsExitEarly) {
  Rng rng(49);
  const Sequence a = Sequence::random(256, rng);
  const Sequence b = Sequence::random(256, rng);
  const CappedDistance capped = banded_edit_distance(a, b, 8);
  EXPECT_FALSE(capped.within_band);
}

TEST(BandedEditDistance, CellsReportActualWorkDone) {
  // The cells count backs the host-verification accounting: it must never
  // exceed the worst-case band area, and the Ukkonen early exit must show
  // up as a smaller charge for far pairs than for near ones.
  Rng rng(50);
  const std::size_t n = 256;
  const std::size_t cap = 8;
  const std::size_t worst = (n + 1) * (2 * cap + 1);
  const Sequence a = Sequence::random(n, rng);

  const CappedDistance self = banded_edit_distance(a, a, cap);
  EXPECT_GT(self.cells, 0u);
  EXPECT_LE(self.cells, worst);
  // A full (no-exit) run evaluates nearly the whole band.
  EXPECT_GT(self.cells, n * (2 * cap + 1) - 2 * cap * (cap + 1));

  const Sequence b = Sequence::random(n, rng);
  const CappedDistance far = banded_edit_distance(a, b, cap);
  ASSERT_FALSE(far.within_band);
  // Early exit: random pairs diverge after a handful of rows.
  EXPECT_LT(far.cells, self.cells / 2);

  // A short-circuited length gap does no DP work at all.
  EXPECT_EQ(banded_edit_distance(a, Sequence::random(n / 2, rng), cap).cells,
            0u);
}

}  // namespace
}  // namespace asmcap
