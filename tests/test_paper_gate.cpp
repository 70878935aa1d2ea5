// Paper gate: the results the paper reproduction benches print, checked
// against the values the paper reports. Every row holds the paper's value,
// this model's value today, and a tolerance on the relative deviation
// |measured / paper - 1|: the smallest of 0, 2, 5, 10, 15, 20, 25, 35 and
// 50 % that contains today's deviation. The tolerances record how far the
// model sits from the paper; they are not targets, and the model is not
// tuned to meet the paper's numbers. Each row also checks that today's
// value is still the one recorded here (to 0.5 %), so the table cannot
// drift out of date: a change that moves a result must update its row,
// and one that leaves the band must widen the tolerance, both in plain
// view.
//
// Sources, one test each: run_table1 (bench_table1), run_breakdown
// (bench_breakdown), run_states (bench_states), SystemModel::estimate_all
// through ratios_against (bench_fig8), and Fig7Runner on bench_fig7's
// datasets, seeds and thresholds. The paper values are the ones those
// benches print in their titles and header comments. Fig. 7's per-
// condition averages have no paper values of their own, so the gate checks
// the paper's ordering there (w/ HDAC & TASR >= w/o >= EDAM in each
// condition) plus the averages over both conditions that the paper quotes.
// Not gated: Fig. 7's Kraken2-normalised headline (4.5x / 7.7x), which this
// Kraken-like baseline does not reproduce (its best normalised F1 is 1.87x
// in Condition A and 1.53x in Condition B).
//
// Each test prints its rows (paper, today, measured, deviation,
// tolerance), so a run of this binary is the deviation report.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "perf/comparison.h"
#include "perf/system_model.h"

namespace asmcap {
namespace {

struct PaperRow {
  const char* what;
  double paper;
  double today;      ///< This model's value when the row was last set.
  double tolerance;  ///< Bound on |measured / paper - 1|.
};

void check_row(const PaperRow& row, double measured) {
  const double deviation = measured / row.paper - 1.0;
  std::printf("%-44s paper %10.4g  today %10.4g  measured %10.4g  "
              "deviation %+6.1f %%  tolerance %3.0f %%\n",
              row.what, row.paper, row.today, measured, 100.0 * deviation,
              100.0 * row.tolerance);
  EXPECT_LE(std::abs(deviation), row.tolerance)
      << row.what << ": " << measured << " is outside the paper's "
      << row.paper << " +/- " << 100.0 * row.tolerance << " %";
  EXPECT_NEAR(measured / row.today, 1.0, 0.005)
      << row.what << ": measured " << measured << ", but this gate records "
      << row.today << " as today's value";
}

TEST(PaperGate, Table1Ratios) {
  const std::vector<Table1Row> rows = run_table1(ProcessParams{});
  ASSERT_EQ(rows.size(), 3u);
  // EDAM / ASMCap per quantity.
  check_row({"Table I cell area (EDAM/ASMCap)", 1.4, 1.392, 0.02},
            rows[0].ratio);
  check_row({"Table I search time (EDAM/ASMCap)", 2.6, 2.667, 0.05},
            rows[1].ratio);
  check_row({"Table I avg power per cell (EDAM/ASMCap)", 8.5, 8.895, 0.05},
            rows[2].ratio);
}

TEST(PaperGate, Breakdown) {
  const BreakdownResult result = run_breakdown(ProcessParams{}, 256, 256);
  check_row({"SecV-B array area [mm^2]", 1.58, 1.586, 0.02},
            result.area_total * 1e6);
  check_row({"SecV-B array power [mW]", 7.67, 7.486, 0.05},
            result.power_total * 1e3);
  check_row({"SecV-B power: cells fraction", 0.75, 0.7492, 0.02},
            result.power_cells_fraction);
  check_row({"SecV-B power: shift-register fraction", 0.19, 0.19, 0.02},
            result.power_sr_fraction);
  check_row({"SecV-B power: sense-amp fraction", 0.06, 0.0608, 0.02},
            result.power_sa_fraction);
  // The paper: cells take more than 99 % of the array area.
  EXPECT_GT(result.area_cells_fraction, 0.99);
}

TEST(PaperGate, DistinguishableStates) {
  const StatesResult result = run_states(ProcessParams{});
  check_row({"SecV-D EDAM states", 44, 44, 0.0},
            static_cast<double>(result.edam_states));
  check_row({"SecV-D ASMCap states", 566, 566, 0.0},
            static_cast<double>(result.asmcap_states));
}

/// The ratios bench_fig8 prints for one ASMCap variant against a baseline.
struct Fig8Ratio {
  double speedup = 0.0;
  double energy_efficiency = 0.0;
};

Fig8Ratio fig8_ratio(const std::vector<ComparisonRow>& rows,
                     AsmSystem baseline) {
  for (const ComparisonRow& row : rows)
    if (row.system == to_string(baseline))
      return {row.speedup, row.energy_efficiency};
  ADD_FAILURE() << "no Fig. 8 row for " << to_string(baseline);
  return {};
}

TEST(PaperGate, Fig8Ratios) {
  const SystemModel model(AsmcapConfig{}, CmCpuConfig{});
  const std::vector<PerfEstimate> estimates =
      model.estimate_all(PerfWorkload{});
  ASSERT_EQ(estimates.size(), 6u);
  const auto full = ratios_against(
      estimates, static_cast<std::size_t>(AsmSystem::AsmcapFull));
  const auto base = ratios_against(
      estimates, static_cast<std::size_t>(AsmSystem::AsmcapBase));

  // ASMCap w/ HDAC & TASR against each baseline.
  check_row({"Fig.8 w/ H&T speedup vs CM-CPU", 4.7e4, 5.162e4, 0.10},
            fig8_ratio(full, AsmSystem::CmCpu).speedup);
  check_row({"Fig.8 w/ H&T speedup vs ReSMA", 174, 175.3, 0.02},
            fig8_ratio(full, AsmSystem::ReSMA).speedup);
  check_row({"Fig.8 w/ H&T speedup vs SaVI", 61, 67.22, 0.15},
            fig8_ratio(full, AsmSystem::SaVI).speedup);
  check_row({"Fig.8 w/ H&T speedup vs EDAM", 1.4, 1.333, 0.05},
            fig8_ratio(full, AsmSystem::EDAM).speedup);
  check_row({"Fig.8 w/ H&T energy eff. vs CM-CPU", 2.0e6, 1.705e6, 0.15},
            fig8_ratio(full, AsmSystem::CmCpu).energy_efficiency);
  check_row({"Fig.8 w/ H&T energy eff. vs ReSMA", 8.7e3, 5824, 0.35},
            fig8_ratio(full, AsmSystem::ReSMA).energy_efficiency);
  check_row({"Fig.8 w/ H&T energy eff. vs SaVI", 943, 903.1, 0.05},
            fig8_ratio(full, AsmSystem::SaVI).energy_efficiency);
  check_row({"Fig.8 w/ H&T energy eff. vs EDAM", 10.8, 9.215, 0.15},
            fig8_ratio(full, AsmSystem::EDAM).energy_efficiency);

  // ASMCap w/o HDAC & TASR against each baseline.
  check_row({"Fig.8 w/o H&T speedup vs CM-CPU", 9.7e4, 1.032e5, 0.10},
            fig8_ratio(base, AsmSystem::CmCpu).speedup);
  check_row({"Fig.8 w/o H&T speedup vs ReSMA", 362, 350.6, 0.05},
            fig8_ratio(base, AsmSystem::ReSMA).speedup);
  check_row({"Fig.8 w/o H&T speedup vs SaVI", 126, 134.4, 0.10},
            fig8_ratio(base, AsmSystem::SaVI).speedup);
  check_row({"Fig.8 w/o H&T speedup vs EDAM", 2.8, 2.667, 0.05},
            fig8_ratio(base, AsmSystem::EDAM).speedup);
  check_row({"Fig.8 w/o H&T energy eff. vs CM-CPU", 5.1e6, 3.41e6, 0.35},
            fig8_ratio(base, AsmSystem::CmCpu).energy_efficiency);
  check_row({"Fig.8 w/o H&T energy eff. vs ReSMA", 2.3e4, 1.165e4, 0.50},
            fig8_ratio(base, AsmSystem::ReSMA).energy_efficiency);
  check_row({"Fig.8 w/o H&T energy eff. vs SaVI", 2.4e3, 1806, 0.25},
            fig8_ratio(base, AsmSystem::SaVI).energy_efficiency);
  check_row({"Fig.8 w/o H&T energy eff. vs EDAM", 28, 18.43, 0.35},
            fig8_ratio(base, AsmSystem::EDAM).energy_efficiency);
}

/// bench_fig7's sweep of one condition: same dataset size, seed and
/// thresholds. Results do not depend on the worker count.
Fig7Series fig7_condition(const DatasetConfig& config,
                          const std::vector<std::size_t>& thresholds,
                          std::uint64_t seed) {
  Rng rng(seed);
  const Dataset dataset = build_dataset(config, rng);
  Fig7Config fig7;
  fig7.asmcap.array_rows = dataset.rows.size();
  fig7.workers = 2;
  return Fig7Runner(fig7).run(dataset, thresholds, rng);
}

TEST(PaperGate, Fig7F1) {
  const Fig7Series a = fig7_condition(condition_a_config(256, 384),
                                      {1, 2, 3, 4, 5, 6, 7, 8}, 0xF167A);
  const Fig7Series b = fig7_condition(condition_b_config(256, 384),
                                      {2, 4, 6, 8, 10, 12, 14, 16}, 0xF167B);

  // The paper's ordering, in each condition, on the average over its
  // thresholds: w/ HDAC & TASR >= w/o >= EDAM.
  for (const Fig7Series* series : {&a, &b}) {
    const double edam = series->mean(&Fig7Point::edam);
    const double base = series->mean(&Fig7Point::asmcap_base);
    const double full = series->mean(&Fig7Point::asmcap_full);
    std::printf("Fig.7 %-40s EDAM %.1f %%  w/o H&T %.1f %%  w/ H&T %.1f %%\n",
                series->condition.c_str(), 100.0 * edam, 100.0 * base,
                100.0 * full);
    EXPECT_GE(full, base) << series->condition;
    EXPECT_GE(base, edam) << series->condition;
  }

  // "An average of 1.2x (74.7 % -> 87.6 %)": both conditions have eight
  // thresholds, so the average over all sixteen points is the mean of the
  // two condition averages.
  const auto both = [&](double Fig7Point::* field) {
    return (a.mean(field) + b.mean(field)) / 2.0;
  };
  check_row({"Fig.7 average F1 EDAM [%]", 74.7, 80.93, 0.10},
            100.0 * both(&Fig7Point::edam));
  check_row({"Fig.7 average F1 ASMCap w/ H&T [%]", 87.6, 89.15, 0.02},
            100.0 * both(&Fig7Point::asmcap_full));
  // "Up to 1.8x (46.3 % -> 81.2 %)", at T = 1 in Condition A.
  ASSERT_EQ(a.points.front().threshold, 1u);
  check_row({"Fig.7 F1 at T=1, Condition A, EDAM [%]", 46.3, 37.9, 0.20},
            100.0 * a.points.front().edam);
  check_row({"Fig.7 F1 at T=1, Condition A, w/ H&T [%]", 81.2, 55.71, 0.35},
            100.0 * a.points.front().asmcap_full);
}

}  // namespace
}  // namespace asmcap
