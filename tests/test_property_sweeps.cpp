// Cross-kernel property sweeps: the invariants that tie the whole stack
// together, checked over a parameter grid of read lengths and seeds.

#include <gtest/gtest.h>

#include <tuple>

#include "align/edit_distance.h"
#include "align/edstar.h"
#include "align/hamming.h"
#include "align/myers.h"
#include "asmcap/config.h"
#include "genome/edits.h"

namespace asmcap {
namespace {

class KernelSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
 protected:
  std::size_t length() const { return std::get<0>(GetParam()); }
  std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(KernelSweep, DistanceKernelsAgree) {
  Rng rng(seed());
  for (int trial = 0; trial < 6; ++trial) {
    const Sequence a = Sequence::random(length(), rng);
    const EditedSequence mutated = inject_edits(a, {0.04, 0.02, 0.02}, rng);
    const std::size_t dp = edit_distance(a, mutated.seq);
    EXPECT_EQ(myers_edit_distance(a, mutated.seq), dp);
    const CappedDistance banded = banded_edit_distance(a, mutated.seq, 32);
    if (dp <= 32) {
      EXPECT_EQ(banded.distance, dp);
      EXPECT_TRUE(banded.within_band);
    } else {
      EXPECT_FALSE(banded.within_band);
    }
  }
}

TEST_P(KernelSweep, MetricOrderings) {
  Rng rng(seed() + 1);
  for (int trial = 0; trial < 6; ++trial) {
    const Sequence a = Sequence::random(length(), rng);
    const Sequence b = Sequence::random(length(), rng);
    const std::size_t hd = hamming_distance(a, b);
    const std::size_t ed = edit_distance(a, b);
    const std::size_t star = ed_star(a, b);
    EXPECT_LE(ed, hd);    // ED never exceeds HD on equal lengths
    EXPECT_LE(star, hd);  // the +/-1 window only removes mismatches
    // Rotation can only reduce the minimum.
    EXPECT_LE(ed_star_min_rotated(a, b, 2, RotateDir::Both), star);
  }
}

TEST_P(KernelSweep, BandedCapMonotone) {
  Rng rng(seed() + 2);
  const Sequence a = Sequence::random(length(), rng);
  const EditedSequence mutated = inject_edits(a, {0.05, 0.02, 0.02}, rng);
  std::size_t previous = 0;
  bool previous_within = false;
  for (std::size_t cap = 0; cap <= 24; cap += 4) {
    const CappedDistance capped = banded_edit_distance(a, mutated.seq, cap);
    if (previous_within) {
      // Once exact, larger caps must return the identical distance.
      EXPECT_TRUE(capped.within_band);
      EXPECT_EQ(capped.distance, previous);
    }
    previous = capped.distance;
    previous_within = capped.within_band;
  }
}

TEST_P(KernelSweep, EditTraceBoundsDistance) {
  Rng rng(seed() + 4);
  const Sequence a = Sequence::random(length(), rng);
  for (int trial = 0; trial < 4; ++trial) {
    const EditedSequence mutated = inject_edits(a, {0.03, 0.02, 0.02}, rng);
    EXPECT_LE(edit_distance(a, mutated.seq), mutated.edit_count());
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndSeeds, KernelSweep,
    ::testing::Combine(::testing::Values(std::size_t{16}, std::size_t{63},
                                         std::size_t{64}, std::size_t{65},
                                         std::size_t{128}, std::size_t{256}),
                       ::testing::Values(std::uint64_t{11}, std::uint64_t{222},
                                         std::uint64_t{3333})));

// ---- Strategy parameter monotonicity ---------------------------------------

class HdacSweep : public ::testing::TestWithParam<double> {};

TEST_P(HdacSweep, ProbabilityWellFormed) {
  const double eid = GetParam();
  const HdacParams params;
  const ErrorRates rates{0.01, eid / 2, eid / 2};
  double previous = 1.1;
  for (std::size_t t = 0; t <= 16; ++t) {
    const double p = hdac_probability(params, rates, t);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_LE(p, previous);  // monotone decreasing in T
    previous = p;
  }
}

TEST_P(HdacSweep, MoreIndelsLowerP) {
  const double eid = GetParam();
  const HdacParams params;
  const ErrorRates low{0.01, eid / 2, eid / 2};
  const ErrorRates high{0.01, eid, eid};
  EXPECT_GE(hdac_probability(params, low, 4),
            hdac_probability(params, high, 4));
}

INSTANTIATE_TEST_SUITE_P(IndelRates, HdacSweep,
                         ::testing::Values(0.0005, 0.001, 0.005, 0.01, 0.05));

class TasrSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TasrSweep, LowerBoundMonotone) {
  const std::size_t m = GetParam();
  const TasrParams params;
  // T_l decreases as indels increase (rotate sooner on indel-heavy data).
  double previous = 1e18;
  for (const double eid : {0.001, 0.005, 0.01, 0.05}) {
    const ErrorRates rates{0.001, eid / 2, eid / 2};
    const auto tl = static_cast<double>(tasr_lower_bound(params, rates, m));
    EXPECT_LE(tl, previous);
    previous = tl;
  }
  // And increases with read length at fixed rates.
  const ErrorRates rates = ErrorRates::condition_b();
  EXPECT_LE(tasr_lower_bound(params, rates, m),
            tasr_lower_bound(params, rates, 4 * m));
}

INSTANTIATE_TEST_SUITE_P(ReadLengths, TasrSweep,
                         ::testing::Values(std::size_t{64}, std::size_t{128},
                                           std::size_t{256}, std::size_t{512}));

}  // namespace
}  // namespace asmcap
