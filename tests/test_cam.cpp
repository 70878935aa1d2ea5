#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "align/kernels.h"
#include "cam/cell.h"
#include "cam/charge_readout.h"
#include "cam/current_readout.h"
#include "util/lane_flags.h"

namespace asmcap {
namespace {

TEST(AsmcapCell, PartialMatchOutputs) {
  //           read: A C G T
  const Sequence read = Sequence::from_string("ACGT");
  const AsmcapCell cell(Base::C);
  // At i=1 the stored C matches the co-located read base.
  EXPECT_TRUE(cell.compare(read, 1).co_located);
  // At i=2 the stored C matches the left neighbour (read[1] = C).
  const PartialMatch at2 = cell.compare(read, 2);
  EXPECT_FALSE(at2.co_located);
  EXPECT_TRUE(at2.left);
  EXPECT_FALSE(at2.right);
  // At i=0 the stored C matches the right neighbour (read[1] = C).
  const PartialMatch at0 = cell.compare(read, 0);
  EXPECT_FALSE(at0.co_located);
  EXPECT_FALSE(at0.left);  // no left neighbour at the boundary
  EXPECT_TRUE(at0.right);
  // At i=3 nothing matches.
  const PartialMatch at3 = cell.compare(read, 3);
  EXPECT_FALSE(at3.co_located || at3.left || at3.right);
  EXPECT_THROW(cell.compare(read, 4), std::out_of_range);
}

TEST(AsmcapCell, ModeMux) {
  const Sequence read = Sequence::from_string("ACGT");
  const AsmcapCell cell(Base::C);
  // i=2: neighbour match only. ED* mode: match (O=0); HD mode: mismatch.
  EXPECT_FALSE(cell.mismatch(read, 2, MatchMode::EdStar));
  EXPECT_TRUE(cell.mismatch(read, 2, MatchMode::Hamming));
  // i=1: co-located match in both modes.
  EXPECT_FALSE(cell.mismatch(read, 1, MatchMode::EdStar));
  EXPECT_FALSE(cell.mismatch(read, 1, MatchMode::Hamming));
}

TEST(AsmcapCell, CellByCellAgreesWithPackedMask) {
  // The Fig. 4c cell model is the reference for the packed lane words the
  // noisy passes sense: cell i's lane flag must be cell i's output, in
  // both modes, at widths on and off the 32-base word edge.
  Rng rng(305);
  for (const std::size_t n :
       {std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{48},
        std::size_t{64}, std::size_t{65}, std::size_t{128}}) {
    const Sequence stored = Sequence::random(n, rng);
    const Sequence read = Sequence::random(n, rng);
    const std::vector<std::uint64_t> row = stored.packed_words();
    std::vector<std::uint64_t> lane_words(lane_word_count(n));
    for (const MatchMode mode : {MatchMode::EdStar, MatchMode::Hamming}) {
      const PackedReadView view(read, mode == MatchMode::EdStar);
      mismatch_words(row.data(), view, lane_words.data());
      for (std::size_t i = 0; i < n; ++i) {
        const AsmcapCell cell(stored[i]);
        // Cell i's flag is bit 2 * (i % 32) of word i / 32.
        const bool flag = (lane_words[i / 32] >> (2 * (i % 32))) & 1;
        EXPECT_EQ(flag, cell.mismatch(read, i, mode))
            << "n=" << n << " i=" << i
            << " mode=" << static_cast<int>(mode);
      }
    }
  }
}

TEST(EdamCell, AlwaysEdStarMode) {
  const Sequence read = Sequence::from_string("ACGT");
  const EdamCell cell(Base::C);
  EXPECT_FALSE(cell.mismatch(read, 2));  // neighbour match accepted
  EXPECT_TRUE(cell.mismatch(Sequence::from_string("AAAA"), 2));
}

/// Lane words (util/lane_flags.h) of an n-cell row flagging `cells`.
std::vector<std::uint64_t> lane_words_of(
    std::size_t n, const std::vector<std::size_t>& cells) {
  std::vector<std::uint64_t> words(lane_word_count(n), 0);
  for (const std::size_t i : cells) set_lane_flag(words, i);
  return words;
}

TEST(ChargeReadout, NoiselessThresholdDecisions) {
  ChargeDomainParams params;
  params.cap_sigma_rel = 0.0;
  params.sa_noise_sigma = 0.0;
  Rng silicon(307);
  const ChargeArrayReadout readout(4, 64, params, silicon);
  Rng search(308);
  // 5 mismatches: match iff T >= 5.
  const double vml =
      readout.settle_row(0, lane_words_of(64, {0, 7, 14, 21, 28}));
  for (std::size_t t = 0; t < 10; ++t)
    EXPECT_EQ(readout.decide(vml, t, search), t >= 5) << "t=" << t;
  EXPECT_GT(readout.matchline(0).search_energy(5), 0.0);
}

TEST(ChargeReadout, DecideFromCachedVoltage) {
  ChargeDomainParams params;
  params.cap_sigma_rel = 0.0;
  params.sa_noise_sigma = 0.0;
  Rng silicon(309);
  const ChargeArrayReadout readout(1, 32, params, silicon);
  const double vml = readout.settle_row(0, lane_words_of(32, {3, 17}));
  Rng search(310);
  EXPECT_TRUE(readout.decide(vml, 2, search));
  EXPECT_FALSE(readout.decide(vml, 1, search));
}

TEST(CurrentReadout, NoiselessThresholdDecisions) {
  CurrentDomainParams params;
  params.i_sigma_rel = 0.0;
  params.sa_noise_sigma = 0.0;
  params.sh_noise_sigma = 0.0;
  params.timing_jitter_rel = 0.0;
  Rng silicon(311);
  const CurrentArrayReadout readout(2, 256, params, silicon);
  Rng search(312);
  const double drop =
      readout.drop_row(0, lane_words_of(256, {0, 1, 2, 3, 4, 5, 6}));
  for (std::size_t t = 0; t < 14; ++t)
    EXPECT_EQ(readout.decide_from_drop(0, drop, t, search), t >= 7)
        << "t=" << t;
}

TEST(CurrentReadout, NoisyDecisionsDegradeNearBoundary) {
  // With the paper's noise parameters, decisions exactly at the boundary
  // flip noticeably often — the EDAM accuracy-loss mechanism.
  const CurrentDomainParams params;  // defaults: 2.5 % etc.
  Rng silicon(313);
  const CurrentArrayReadout readout(1, 256, params, silicon);
  Rng search(314);
  const double drop = readout.drop_row(0, lane_words_of(256, {0, 1, 2, 3, 4}));
  int mismatch_calls = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t)
    mismatch_calls += readout.decide_from_drop(0, drop, 4, search) ? 1 : 0;
  // Truth is "mismatch" (5 > 4) but noise flips some decisions.
  EXPECT_GT(mismatch_calls, 10);
  EXPECT_LT(mismatch_calls, trials / 2);
}

TEST(Readouts, WordCountAndRowValidation) {
  Rng silicon(315);
  const ChargeArrayReadout charge(1, 16, {}, silicon);
  const CurrentArrayReadout current(1, 16, {}, silicon);
  const std::vector<std::uint64_t> one_word(1);
  const std::vector<std::uint64_t> two_words(2);
  EXPECT_THROW(charge.settle_row(0, two_words), std::invalid_argument);
  EXPECT_THROW(current.drop_row(0, two_words), std::invalid_argument);
  EXPECT_THROW(charge.settle_row(5, one_word), std::out_of_range);
  EXPECT_THROW(current.drop_row(5, one_word), std::out_of_range);
  Rng search(316);
  EXPECT_THROW(current.decide_from_drop(5, 0.0, 1, search), std::out_of_range);
}

}  // namespace
}  // namespace asmcap
