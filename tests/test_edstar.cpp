#include "align/edstar.h"

#include <gtest/gtest.h>

#include "align/edit_distance.h"
#include "align/hamming.h"
#include "genome/edits.h"

namespace asmcap {
namespace {

// ---- The worked examples of paper Fig. 2 (stored = bottom row S2, read =
// ---- top row S1, matching the cell orientation of Fig. 4c). -------------

TEST(EdStar, PaperFig2Example1) {
  const Sequence read = Sequence::from_string("AGCTGAGA");
  const Sequence stored = Sequence::from_string("ATCTGCGA");
  EXPECT_EQ(hamming_distance(stored, read), 2u);
  EXPECT_EQ(ed_star(stored, read), 2u);
  EXPECT_EQ(edit_distance(stored, read), 2u);
}

TEST(EdStar, PaperFig2Example2) {
  const Sequence read = Sequence::from_string("AGCTGAGA");
  const Sequence stored = Sequence::from_string("AGCATGAG");
  EXPECT_EQ(hamming_distance(stored, read), 5u);
  EXPECT_EQ(ed_star(stored, read), 1u);
  // Paper quotes "ED = 1" (the indel event count); the exact window
  // Levenshtein is 2 — see test_edit_distance.cpp for the discussion.
  EXPECT_EQ(edit_distance(stored, read), 2u);
}

TEST(EdStar, PaperFig2Example3) {
  const Sequence read = Sequence::from_string("AGCTGAGA");
  const Sequence stored = Sequence::from_string("AGTGAGAA");
  EXPECT_EQ(hamming_distance(stored, read), 5u);
  EXPECT_EQ(ed_star(stored, read), 0u);
  EXPECT_EQ(edit_distance(stored, read), 2u);
}

// ---- Structural properties -----------------------------------------------

TEST(EdStar, IdenticalSequencesZero) {
  Rng rng(71);
  const Sequence s = Sequence::random(128, rng);
  EXPECT_EQ(ed_star(s, s), 0u);
}

TEST(EdStar, NeverExceedsHammingDistance) {
  Rng rng(73);
  for (int trial = 0; trial < 100; ++trial) {
    const Sequence a = Sequence::random(96, rng);
    const Sequence b = Sequence::random(96, rng);
    EXPECT_LE(ed_star(a, b), hamming_distance(a, b));
  }
}

TEST(EdStar, LengthMismatchThrows) {
  const Sequence a = Sequence::from_string("ACGT");
  const Sequence b = Sequence::from_string("ACG");
  EXPECT_THROW(ed_star(a, b), std::invalid_argument);
}

TEST(EdStar, SingleIndelAbsorbedLocally) {
  // A single deletion shifts the suffix by one; the +/-1 window keeps the
  // ED* penalty small (paper: ED* close to ED for isolated indels).
  Rng rng(79);
  for (int trial = 0; trial < 40; ++trial) {
    const Sequence window = Sequence::random(128, rng);
    EditedSequence edited =
        inject_indel_burst(window, EditKind::Deletion, 1, rng);
    // Repad with random tail base to keep the width.
    edited.seq.push_back(base_from_code(
        static_cast<std::uint8_t>(rng.below(4))));
    const std::size_t star = ed_star(window, edited.seq);
    EXPECT_LE(star, 4u) << "isolated deletion must stay cheap in ED*";
  }
}

TEST(EdStar, SubstitutionsCanHide) {
  // A substitution is invisible to ED* whenever the stored base still
  // matches one of the read's neighbouring bases — the false-positive
  // source HDAC corrects. In a homopolymer run, any substitution hides:
  const Sequence homo = Sequence::from_string("AAAAAAAA");
  Sequence homo_read = homo;
  homo_read.set(3, Base::C);  // stored 'A' at 3 still sees 'A' at 2 and 4
  EXPECT_EQ(hamming_distance(homo, homo_read), 1u);
  EXPECT_EQ(edit_distance(homo, homo_read), 1u);
  EXPECT_EQ(ed_star(homo, homo_read), 0u)
      << "substitution hidden by neighbouring equal bases";
  // A substitution in a locally heterogeneous context stays visible:
  const Sequence stored = Sequence::from_string("ACGTACGT");
  Sequence read = stored;
  read.set(2, Base::C);  // stored[2]='G' vs read window {C,C,T} -> mismatch
  EXPECT_EQ(ed_star(stored, read), 1u);
}

TEST(EdStar, ConsecutiveIndelsBlowUp) {
  // Two consecutive deletions shift the tail by 2 — beyond the +/-1
  // window, so ED* >> ED on random sequence (the misjudgment TASR fixes).
  Rng rng(81);
  double total_star = 0.0;
  double total_ed = 0.0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    const Sequence window = Sequence::random(128, rng);
    EditedSequence edited =
        inject_indel_burst(window, EditKind::Deletion, 2, rng);
    while (edited.seq.size() < window.size())
      edited.seq.push_back(
          base_from_code(static_cast<std::uint8_t>(rng.below(4))));
    total_star += static_cast<double>(ed_star(window, edited.seq));
    total_ed += static_cast<double>(edit_distance(window, edited.seq));
  }
  EXPECT_GT(total_star / trials, 3.0 * total_ed / trials);
}

TEST(EdStar, RotationRecoversConsecutiveDeletion) {
  Rng rng(83);
  for (int trial = 0; trial < 20; ++trial) {
    const Sequence window = Sequence::random(128, rng);
    // Delete 2 consecutive bases near the start so most of the read shifts.
    EditedSequence edited =
        inject_indel_burst(window, EditKind::Deletion, 2, rng);
    while (edited.seq.size() < window.size())
      edited.seq.push_back(
          base_from_code(static_cast<std::uint8_t>(rng.below(4))));
    const std::size_t plain = ed_star(window, edited.seq);
    const std::size_t rotated =
        ed_star_min_rotated(window, edited.seq, 2, RotateDir::Both);
    EXPECT_LE(rotated, plain);
  }
}

TEST(EdStar, RotationScheduleShape) {
  const Sequence read = Sequence::from_string("ACGTACGT");
  EXPECT_EQ(rotation_schedule(read, 2, RotateDir::Left).size(), 3u);
  EXPECT_EQ(rotation_schedule(read, 2, RotateDir::Right).size(), 3u);
  EXPECT_EQ(rotation_schedule(read, 2, RotateDir::Both).size(), 5u);
  EXPECT_EQ(rotation_schedule(read, 0, RotateDir::Both).size(), 1u);
  EXPECT_EQ(rotation_schedule(read, 1, RotateDir::Left)[1],
            read.rotated_left(1));
  EXPECT_EQ(rotation_schedule(read, 1, RotateDir::Right)[1],
            read.rotated_right(1));
}

TEST(EdStar, RandomPairMismatchRate) {
  // Unrelated 256-base rows: per-cell mismatch probability is (3/4)^3 for
  // interior cells, so ED* ~ 0.42 * N. This statistic drives the power
  // model discussion in DESIGN.md.
  Rng rng(85);
  double total = 0.0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    const Sequence a = Sequence::random(256, rng);
    const Sequence b = Sequence::random(256, rng);
    total += static_cast<double>(ed_star(a, b));
  }
  EXPECT_NEAR(total / trials / 256.0, 27.0 / 64.0, 0.015);
}

TEST(EdStar, PackedKernelMatchesScalar) {
  // The word-parallel kernel must agree with the scalar reference for every
  // length, including word-boundary and partial-word cases.
  Rng rng(86);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{31}, std::size_t{32},
        std::size_t{33}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{100}, std::size_t{256}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const Sequence a = Sequence::random(n, rng);
      Sequence b = a;
      for (std::uint64_t e = rng.below(n + 1); e > 0; --e)
        b.set(rng.below(n), base_from_code(
                                static_cast<std::uint8_t>(rng.below(4))));
      EXPECT_EQ(ed_star_packed(a.packed_words(), b.packed_words(), n),
                ed_star(a, b))
          << "n=" << n;
    }
  }
}

TEST(EdStar, PackedKernelMatchesScalarUnderIndels) {
  Rng rng(87);
  for (int trial = 0; trial < 50; ++trial) {
    const Sequence a = Sequence::random(96, rng);
    EditedSequence edited = inject_edits(a, {0.05, 0.02, 0.02}, rng);
    Sequence b = edited.seq;
    while (b.size() < 96) b.push_back(Base::C);
    if (b.size() > 96) b = b.subseq(0, 96);
    EXPECT_EQ(ed_star_packed(a.packed_words(), b.packed_words(), 96),
              ed_star(a, b));
  }
}

TEST(EdStar, PackedKernelRejectsShortWordVectors) {
  // n = 64 needs two words per operand; one is an error, never a read past
  // the end of the vector.
  EXPECT_THROW(ed_star_packed({0}, {0, 0}, 64), std::invalid_argument);
  EXPECT_THROW(ed_star_packed({0, 0}, {0}, 64), std::invalid_argument);
  EXPECT_EQ(ed_star_packed({0, 0}, {0, 0}, 64), 0u);
}

}  // namespace
}  // namespace asmcap
