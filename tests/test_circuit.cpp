#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "circuit/capacitor.h"
#include "circuit/matchline.h"
#include "circuit/process.h"
#include "circuit/sense_amp.h"
#include "util/lane_flags.h"
#include "util/stats.h"

namespace asmcap {
namespace {

TEST(Process, DefaultsAreValid) {
  EXPECT_NO_THROW(validate(ProcessParams{}));
}

TEST(Process, DefaultsMatchPaperSetup) {
  const ProcessParams p;
  EXPECT_DOUBLE_EQ(p.charge.vdd, 1.2);
  EXPECT_DOUBLE_EQ(p.charge.cap_mean, 2e-15);      // 2 fF MIM
  EXPECT_DOUBLE_EQ(p.charge.cap_sigma_rel, 0.014);  // 1.4 %
  EXPECT_DOUBLE_EQ(p.current.i_sigma_rel, 0.025);   // 2.5 %
  EXPECT_NEAR(p.charge.search_time(), 0.9e-9, 1e-12);   // Table I
  EXPECT_NEAR(p.current.search_time(), 2.4e-9, 1e-12);  // Table I
}

TEST(Process, ValidationCatchesBadValues) {
  ProcessParams p;
  p.charge.vdd = -1.0;
  EXPECT_THROW(validate(p), std::invalid_argument);
  p = {};
  p.charge.cap_sigma_rel = 1.5;
  EXPECT_THROW(validate(p), std::invalid_argument);
  p = {};
  p.current.cell_current = 0.0;
  EXPECT_THROW(validate(p), std::invalid_argument);
  p = {};
  p.area.periphery_area_fraction = 1.0;
  EXPECT_THROW(validate(p), std::invalid_argument);
}

TEST(CapacitorBank, IdealVmlIsLinear) {
  Rng rng(1);
  ChargeDomainParams params;
  const CapacitorBank bank(256, params, rng);
  EXPECT_DOUBLE_EQ(bank.ideal_vml(0), 0.0);
  EXPECT_DOUBLE_EQ(bank.ideal_vml(256), 1.2);
  EXPECT_NEAR(bank.ideal_vml(128), 0.6, 1e-12);
  EXPECT_THROW(bank.ideal_vml(257), std::out_of_range);
}

/// Lane words (util/lane_flags.h) of an n-cell row flagging the cells
/// where `flagged(i)` holds, asked in ascending cell order.
template <typename Pred>
std::vector<std::uint64_t> lane_words_where(std::size_t n, Pred flagged) {
  std::vector<std::uint64_t> words(lane_word_count(n), 0);
  for (std::size_t i = 0; i < n; ++i)
    if (flagged(i)) set_lane_flag(words, i);
  return words;
}

TEST(CapacitorBank, ActualVmlTracksIdeal) {
  Rng rng(2);
  const CapacitorBank bank(256, {}, rng);
  const double actual =
      bank.actual_vml(lane_words_where(256, [](std::size_t i) {
        return i % 4 == 0;
      }));
  EXPECT_NEAR(actual, bank.ideal_vml(64), 0.01);  // within mismatch spread
}

TEST(CapacitorBank, ZeroSigmaIsExact) {
  Rng rng(3);
  ChargeDomainParams params;
  params.cap_sigma_rel = 0.0;
  const CapacitorBank bank(128, params, rng);
  const std::vector<std::uint64_t> words =
      lane_words_where(128, [](std::size_t i) { return i < 32; });
  EXPECT_NEAR(bank.actual_vml(words), bank.ideal_vml(32), 1e-12);
}

TEST(CapacitorBank, Eq1EnergySymmetricAndPeaksAtHalf) {
  Rng rng(4);
  const CapacitorBank bank(256, {}, rng);
  // Paper Eq. 1 is symmetric in n_mis <-> N - n_mis.
  EXPECT_DOUBLE_EQ(bank.search_energy(10), bank.search_energy(246));
  EXPECT_DOUBLE_EQ(bank.search_energy(0), 0.0);
  EXPECT_DOUBLE_EQ(bank.search_energy(256), 0.0);
  EXPECT_GT(bank.search_energy(128), bank.search_energy(64));
  // Absolute value: 128*128/256 * 2fF * 1.44 = 1.8432e-13 J.
  EXPECT_NEAR(bank.search_energy(128), 64.0 * 2e-15 * 1.44, 1e-18);
}

TEST(CapacitorBank, Eq2VarianceShape) {
  Rng rng(5);
  const CapacitorBank bank(256, {}, rng);
  EXPECT_DOUBLE_EQ(bank.vml_variance(0), 0.0);
  EXPECT_DOUBLE_EQ(bank.vml_variance(256), 0.0);
  EXPECT_GT(bank.vml_variance(128), bank.vml_variance(16));
  // Eq. 2 at n=128, N=256: 128*128/256^3 * 0.014^2 * 1.44.
  const double expected = 128.0 * 128.0 / (256.0 * 256.0 * 256.0) *
                          0.014 * 0.014 * 1.44;
  EXPECT_NEAR(bank.vml_variance(128), expected, 1e-12);
}

TEST(CapacitorBank, EmpiricalVarianceMatchesEq2) {
  // Monte-Carlo check of paper Eq. 2: ensemble variance across manufactured
  // rows at fixed n_mis should match the analytic form within sampling error.
  ChargeDomainParams params;
  Rng rng(6);
  const std::size_t n_cells = 128;
  const std::size_t n_mis = 64;
  const std::vector<std::uint64_t> words =
      lane_words_where(n_cells, [&](std::size_t i) { return i < n_mis; });
  RunningStats stats;
  for (int trial = 0; trial < 4000; ++trial) {
    const CapacitorBank bank(n_cells, params, rng);
    stats.add(bank.actual_vml(words));
  }
  const CapacitorBank reference_bank(n_cells, params, rng);
  const double analytic = reference_bank.vml_variance(n_mis);
  EXPECT_NEAR(stats.variance(), analytic, 0.25 * analytic);
}

TEST(CapacitorBank, LaneWordVmlIsAscendingCapacitanceSum) {
  // Reference: V_ML = sum of capacitance(i) over the flagged cells, added
  // in ascending cell order, over the total, times VDD — bit for bit.
  Rng rng(9);
  // n % 32 in {0, 1, 31}: whole words, one-cell tail, one-short tail.
  for (const std::size_t n : {32u, 33u, 63u, 64u, 65u, 95u, 128u, 129u}) {
    const CapacitorBank bank(n, {}, rng);
    std::vector<std::vector<bool>> cases{std::vector<bool>(n, false),
                                         std::vector<bool>(n, true)};
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<bool> cells(n);
      for (std::size_t i = 0; i < n; ++i)
        cells[i] = rng.bernoulli(trial % 2 == 0 ? 0.5 : 0.08);
      cases.push_back(cells);
    }
    for (const std::vector<bool>& cells : cases) {
      const std::vector<std::uint64_t> words =
          lane_words_where(n, [&](std::size_t i) { return cells[i]; });
      double mismatched = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        if (cells[i]) mismatched += bank.capacitance(i);
      const double expected =
          mismatched / bank.total_capacitance() * bank.params().vdd;
      EXPECT_EQ(bank.actual_vml(words), expected)
          << "n=" << n << " flags=" << count_lane_flags(words);
      // The high bit of each lane carries no cell flag and is ignored.
      std::vector<std::uint64_t> noisy = words;
      for (std::uint64_t& word : noisy) word |= ~kLaneFlags;
      EXPECT_EQ(bank.actual_vml(noisy), expected);
    }
    // One word too few or too many is rejected.
    EXPECT_THROW(bank.actual_vml(std::vector<std::uint64_t>(
                     lane_word_count(n) - 1)),
                 std::invalid_argument);
    EXPECT_THROW(bank.actual_vml(std::vector<std::uint64_t>(
                     lane_word_count(n) + 1)),
                 std::invalid_argument);
  }
}

TEST(CurrentMatchline, IdealDischargeLinearUntilClamp) {
  Rng rng(8);
  CurrentDomainParams params;
  const CurrentMatchline line(256, params, rng);
  const double vpc = line.volts_per_count();
  EXPECT_NEAR(vpc, 1.2 / 256.0, 1e-4);  // full-range mapping
  EXPECT_NEAR(line.ideal_vml(0), 1.2, 1e-12);
  EXPECT_NEAR(line.ideal_vml(10), 1.2 - 10 * vpc, 1e-9);
  EXPECT_DOUBLE_EQ(line.ideal_vml(256), 0.0);  // clamped
}

TEST(CurrentMatchline, NominalDropScalesWithCount) {
  Rng rng(9);
  const CurrentMatchline line(128, {}, rng);
  const auto first = [](std::size_t k) {
    return lane_words_where(128, [k](std::size_t i) { return i < k; });
  };
  EXPECT_GT(line.nominal_drop(first(64)), 5.0 * line.nominal_drop(first(8)));
  EXPECT_EQ(line.nominal_drop(first(0)), 0.0);
  EXPECT_THROW(line.nominal_drop(std::vector<std::uint64_t>(3)),
               std::invalid_argument);
  EXPECT_THROW(line.nominal_drop(std::vector<std::uint64_t>(5)),
               std::invalid_argument);
}

TEST(CurrentMatchline, SampleNoiseStatistics) {
  Rng rng(10);
  CurrentDomainParams params;
  const CurrentMatchline line(256, params, rng);
  const double drop = line.nominal_drop(lane_words_where(
      256, [](std::size_t i) { return i % 3 == 0 && i < 15; }));
  RunningStats stats;
  Rng noise(11);
  for (int t = 0; t < 4000; ++t)
    stats.add(line.sample_from_drop(drop, noise));
  EXPECT_NEAR(stats.mean(), 1.2 - drop, 2e-3);
  // Random noise must include at least the S/H component.
  EXPECT_GT(stats.stddev(), 0.5 * params.sh_noise_sigma);
}

TEST(CurrentMatchline, EnergyGrowsWithMismatches) {
  Rng rng(12);
  const CurrentMatchline line(256, {}, rng);
  EXPECT_GT(line.search_energy(200), line.search_energy(20));
  EXPECT_GT(line.search_energy(20), 0.0);
}

TEST(SenseAmp, NoiselessDecisionsAreExact) {
  const SenseAmp sa(0.0);
  Rng rng(13);
  EXPECT_TRUE(sa.below(0.5, 0.6, rng));
  EXPECT_FALSE(sa.below(0.7, 0.6, rng));
  EXPECT_TRUE(sa.above(0.7, 0.6, rng));
  EXPECT_FALSE(sa.above(0.5, 0.6, rng));
}

TEST(SenseAmp, NoiseFlipsMarginalDecisions) {
  const SenseAmp sa(10e-3);
  Rng rng(14);
  int flips = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t)
    flips += sa.below(0.600, 0.600, rng) ? 0 : 1;  // exactly at boundary
  // About half the decisions flip at zero margin.
  EXPECT_NEAR(static_cast<double>(flips) / trials, 0.5, 0.06);
}

TEST(SenseAmp, LargeMarginIsRobust) {
  const SenseAmp sa(2e-3);
  Rng rng(15);
  for (int t = 0; t < 1000; ++t) {
    EXPECT_TRUE(sa.below(0.5, 0.6, rng));   // 50 sigma margin
    EXPECT_FALSE(sa.below(0.7, 0.6, rng));
  }
}

TEST(Vref, ChargeDomainPlacement) {
  // V_ref sits between level T and T+1: (T + 0.5)/N * VDD.
  EXPECT_NEAR(charge_vref(4, 256, 1.2), 4.5 / 256.0 * 1.2, 1e-12);
  EXPECT_THROW(charge_vref(4, 0, 1.2), std::invalid_argument);
}

TEST(Vref, CurrentDomainPlacement) {
  const double vpc = 1.2 / 256.0;
  EXPECT_NEAR(current_vref(4, 1.2, vpc), 1.2 - 4.5 * vpc, 1e-12);
}

// ------------------------------------------------------ decision band --

/// Worst-case settled voltage of a row with c of n mismatches when every
/// capacitor sits at a +/-4 sigma clamp: mismatched caps at `mis`, the
/// rest at `rest`.
double clamped_vml(std::size_t c, std::size_t n, double mis, double rest,
                   double vdd) {
  const double on = static_cast<double>(c) * mis;
  return on / (on + static_cast<double>(n - c) * rest) * vdd;
}

TEST(ChargeDecisionBand, SoundUnderTheTightWorstCase) {
  const double deviate_bound = std::sqrt(-2.0 * std::log(0x1.0p-53));
  const std::size_t n = 128;
  for (const double offset_sigma : {0.5e-3, 15e-3}) {
    ChargeDomainParams params;
    params.sa_offset_sigma = offset_sigma;
    const double lo = params.cap_mean * (1.0 - 4.0 * params.cap_sigma_rel);
    const double hi = params.cap_mean * (1.0 + 4.0 * params.cap_sigma_rel);
    const double sa_bound =
        deviate_bound * (params.sa_offset_sigma + params.sa_noise_sigma);
    for (const std::size_t t : {0u, 4u, 8u, 16u, 32u}) {
      const ChargeDecisionBand band = charge_decision_band(params, n, t);
      const double vref = charge_vref(t, n, params.vdd);
      ASSERT_LE(band.hit_below, band.miss_from);
      ASSERT_LE(band.miss_from, n + 1);
      // The band always holds the boundary counts T and T + 1.
      EXPECT_TRUE(band.contains(t) && band.contains(t + 1)) << "T=" << t;
      for (std::size_t c = 0; c <= n; ++c) {
        if (c >= band.miss_from) {
          // Lowest V_ML, most negative offset + noise: still no match.
          EXPECT_GT(clamped_vml(c, n, lo, hi, params.vdd) - sa_bound, vref)
              << "T=" << t << " c=" << c << " offset=" << offset_sigma;
        } else if (c < band.hit_below) {
          // Highest V_ML, most positive offset + noise: still a match.
          EXPECT_LE(clamped_vml(c, n, hi, lo, params.vdd) + sa_bound, vref)
              << "T=" << t << " c=" << c << " offset=" << offset_sigma;
        }
      }
    }
  }
  // Default silicon at T = 8 decides most counts outright; a 15 mV offset
  // leaves no count below T certain at T = 0.
  const ChargeDecisionBand typical = charge_decision_band({}, n, 8);
  EXPECT_GT(typical.hit_below, 0u);
  EXPECT_LE(typical.miss_from, 16u);
  ChargeDomainParams wide;
  wide.sa_offset_sigma = 15e-3;
  EXPECT_EQ(charge_decision_band(wide, n, 0).hit_below, 0u);
}

TEST(ChargeDecisionBand, NoiseFreeSiliconDecidesExactly) {
  ChargeDomainParams params;
  params.cap_sigma_rel = 0.0;
  params.sa_offset_sigma = 0.0;
  params.sa_noise_sigma = 0.0;
  for (const std::size_t t : {0u, 4u, 8u, 16u, 32u}) {
    const ChargeDecisionBand band = charge_decision_band(params, 128, t);
    EXPECT_EQ(band.hit_below, t + 1);
    EXPECT_EQ(band.miss_from, t + 1);
  }
}

TEST(ChargeDecisionBand, NothingIsCertainWhenRhoIsNotPositive) {
  // rho = (1 - 4 sigma) / (1 + 4 sigma) <= 0: a clamped capacitor can be
  // zero or negative, so no count bounds V_ML and every count is in band.
  for (const double sigma : {0.25, 0.4}) {
    ChargeDomainParams params;
    params.cap_sigma_rel = sigma;
    for (const std::size_t t : {0u, 8u, 32u}) {
      const ChargeDecisionBand band = charge_decision_band(params, 128, t);
      EXPECT_EQ(band.hit_below, 0u);
      EXPECT_EQ(band.miss_from, 129u);
    }
  }
}

TEST(Vref, ConsistentDecisions) {
  // Ideal charge-domain V_ML at count n must satisfy: match iff n <= T.
  for (std::size_t t = 0; t < 16; ++t) {
    for (std::size_t n = 0; n < 32; ++n) {
      const double vml = static_cast<double>(n) / 256.0 * 1.2;
      const bool match = vml <= charge_vref(t, 256, 1.2);
      EXPECT_EQ(match, n <= t) << "n=" << n << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace asmcap
