#include "genome/edits.h"

#include <gtest/gtest.h>

#include "align/edit_distance.h"
#include "genome/sequence.h"

namespace asmcap {
namespace {

TEST(ErrorRates, PaperConditions) {
  const ErrorRates a = ErrorRates::condition_a();
  EXPECT_DOUBLE_EQ(a.substitution, 0.01);
  EXPECT_DOUBLE_EQ(a.indel(), 0.001);
  const ErrorRates b = ErrorRates::condition_b();
  EXPECT_DOUBLE_EQ(b.substitution, 0.001);
  EXPECT_DOUBLE_EQ(b.indel(), 0.01);
}

TEST(InjectEdits, ZeroRatesIsIdentity) {
  Rng rng(1);
  const Sequence original = Sequence::random(300, rng);
  const EditedSequence edited = inject_edits(original, {}, rng);
  EXPECT_EQ(edited.seq, original);
  EXPECT_TRUE(edited.edits.empty());
}

TEST(InjectEdits, RatesAboveOneThrow) {
  Rng rng(1);
  const Sequence original = Sequence::random(10, rng);
  EXPECT_THROW(inject_edits(original, {0.5, 0.3, 0.3}, rng),
               std::invalid_argument);
}

TEST(InjectEdits, SubstitutionAlwaysChangesBase) {
  Rng rng(2);
  const Sequence original = Sequence::random(2000, rng);
  const EditedSequence edited = inject_edits(original, {0.2, 0.0, 0.0}, rng);
  EXPECT_EQ(edited.seq.size(), original.size());
  for (const Edit& e : edited.edits) {
    ASSERT_EQ(e.kind, EditKind::Substitution);
    EXPECT_NE(e.base, original[e.position]);
    EXPECT_EQ(edited.seq[e.position], e.base);
  }
}

TEST(InjectEdits, CountsMatchKinds) {
  Rng rng(3);
  const Sequence original = Sequence::random(5000, rng);
  const EditedSequence edited =
      inject_edits(original, {0.01, 0.01, 0.01}, rng);
  EXPECT_EQ(edited.count(EditKind::Substitution) +
                edited.count(EditKind::Insertion) +
                edited.count(EditKind::Deletion),
            edited.edit_count());
  // Length bookkeeping: insertions add, deletions remove.
  EXPECT_EQ(edited.seq.size(), original.size() +
                                   edited.count(EditKind::Insertion) -
                                   edited.count(EditKind::Deletion));
}

TEST(InjectEdits, RatesApproximatelyRealized) {
  Rng rng(4);
  const Sequence original = Sequence::random(100000, rng);
  const ErrorRates rates{0.01, 0.005, 0.002};
  const EditedSequence edited = inject_edits(original, rates, rng);
  const double n = static_cast<double>(original.size());
  EXPECT_NEAR(edited.count(EditKind::Substitution) / n, 0.01, 0.002);
  EXPECT_NEAR(edited.count(EditKind::Insertion) / n, 0.005, 0.002);
  EXPECT_NEAR(edited.count(EditKind::Deletion) / n, 0.002, 0.001);
}

TEST(InjectEdits, EditCountBoundsTrueEditDistance) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Sequence original = Sequence::random(120, rng);
    const EditedSequence edited =
        inject_edits(original, {0.02, 0.01, 0.01}, rng);
    const std::size_t ed = edit_distance(original, edited.seq);
    EXPECT_LE(ed, edited.edit_count());
  }
}

TEST(IndelBurst, DeletionRemovesRun) {
  Rng rng(6);
  const Sequence original = Sequence::random(100, rng);
  const EditedSequence edited =
      inject_indel_burst(original, EditKind::Deletion, 5, rng);
  EXPECT_EQ(edited.seq.size(), 95u);
  EXPECT_EQ(edited.count(EditKind::Deletion), 5u);
  // Deleted positions are consecutive.
  for (std::size_t i = 1; i < edited.edits.size(); ++i)
    EXPECT_EQ(edited.edits[i].position, edited.edits[i - 1].position + 1);
  EXPECT_EQ(edit_distance(original, edited.seq), 5u);
}

TEST(IndelBurst, InsertionAddsRun) {
  Rng rng(7);
  const Sequence original = Sequence::random(100, rng);
  const EditedSequence edited =
      inject_indel_burst(original, EditKind::Insertion, 3, rng);
  EXPECT_EQ(edited.seq.size(), 103u);
  EXPECT_EQ(edited.count(EditKind::Insertion), 3u);
  EXPECT_LE(edit_distance(original, edited.seq), 3u);
}

TEST(IndelBurst, RejectsSubstitutionKindAndLongRuns) {
  Rng rng(8);
  const Sequence original = Sequence::random(10, rng);
  EXPECT_THROW(inject_indel_burst(original, EditKind::Substitution, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(inject_indel_burst(original, EditKind::Deletion, 10, rng),
               std::invalid_argument);
}

TEST(InjectSubstitutions, ExactCountAtDistinctPositions) {
  Rng rng(9);
  const Sequence original = Sequence::random(50, rng);
  const EditedSequence edited = inject_substitutions(original, 7, rng);
  EXPECT_EQ(edited.edit_count(), 7u);
  EXPECT_EQ(original.mismatch_count(edited.seq), 7u);
  EXPECT_EQ(edit_distance(original, edited.seq), 7u);
  EXPECT_THROW(inject_substitutions(original, 51, rng), std::invalid_argument);
}

TEST(TransitionBias, PartnerDefinition) {
  EXPECT_EQ(transition_of(Base::A), Base::G);
  EXPECT_EQ(transition_of(Base::G), Base::A);
  EXPECT_EQ(transition_of(Base::C), Base::T);
  EXPECT_EQ(transition_of(Base::T), Base::C);
  EXPECT_TRUE(is_transition(Base::A, Base::G));
  EXPECT_FALSE(is_transition(Base::A, Base::C));
  EXPECT_FALSE(is_transition(Base::A, Base::A));
}

TEST(TransitionBias, SubstituteBaseNeverReturnsSelf) {
  Rng rng(101);
  for (int t = 0; t < 400; ++t) {
    const Base original = base_from_code(static_cast<std::uint8_t>(t & 3));
    EXPECT_NE(substitute_base(original, 0.5, rng), original);
  }
}

TEST(TransitionBias, FractionRealized) {
  Rng rng(103);
  for (const double fraction : {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}) {
    std::size_t transitions = 0;
    const int trials = 20000;
    for (int t = 0; t < trials; ++t) {
      const Base replacement = substitute_base(Base::C, fraction, rng);
      transitions += is_transition(Base::C, replacement) ? 1u : 0u;
    }
    EXPECT_NEAR(static_cast<double>(transitions) / trials, fraction, 0.015)
        << "fraction=" << fraction;
  }
}

TEST(TransitionBias, InjectEditsHonoursBias) {
  Rng rng(105);
  const Sequence original = Sequence::random(60000, rng);
  ErrorRates rates{0.05, 0.0, 0.0};
  rates.transition_fraction = 2.0 / 3.0;  // ts/tv ~ 2, the genomic norm
  const EditedSequence edited = inject_edits(original, rates, rng);
  std::size_t transitions = 0;
  for (const Edit& e : edited.edits)
    transitions += is_transition(original[e.position], e.base) ? 1u : 0u;
  ASSERT_GT(edited.edits.size(), 1000u);
  EXPECT_NEAR(static_cast<double>(transitions) /
                  static_cast<double>(edited.edits.size()),
              2.0 / 3.0, 0.03);
}

}  // namespace
}  // namespace asmcap
