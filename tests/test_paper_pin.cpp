// Bit-level pin of the paper reproduction path: every field of the Fig. 7
// signal cache (DatasetSignals), every F1 of a small Fig. 7 sweep, and both
// Monte-Carlo level sets behind the distinguishable-state analysis. Counts
// are hashed as integers and voltages, drops and F1 scores by their double
// bit patterns, so any change to the sensing models, the mismatch-cell
// summation order or a noise stream's draws fails here. The same digest
// must come out at every worker count and on every kernel tier.

#include <gtest/gtest.h>

#include <bit>
#include <ios>
#include <cstdint>
#include <vector>

#include "circuit/montecarlo.h"
#include "eval/experiment.h"
#include "eval/sweep.h"
#include "util/decision_digest.h"

namespace asmcap {
namespace {

void add_double(DecisionDigest& digest, double value) {
  digest.add_u64(std::bit_cast<std::uint64_t>(value));
}

// A 100-cell width leaves the last lane word part-filled.
void digest_signals(DecisionDigest& digest, std::size_t workers) {
  Rng data_rng(1801);
  DatasetConfig data = condition_b_config(24, 24);
  data.segment_length = 100;
  const Dataset dataset = build_dataset(data, data_rng);
  AsmcapConfig config;
  config.array_rows = 24;
  config.array_cols = 100;
  Rng rng(1802);
  const DatasetSignals signals(dataset, config, CurrentDomainParams{}, 8, rng,
                               workers);
  for (std::size_t q = 0; q < signals.queries(); ++q)
    for (std::size_t r = 0; r < signals.rows(); ++r) {
      const PairSignals& pair = signals.pair(q, r);
      digest.add_u64(pair.ed);
      digest.add_u64(pair.hd);
      digest.add_u64(pair.ed_star);
      add_double(digest, pair.vml_ed_star);
      add_double(digest, pair.vml_hd);
      add_double(digest, pair.edam_drop);
      for (const std::uint16_t count : pair.rot_ed_star) digest.add_u64(count);
      for (const double vml : pair.rot_vml) add_double(digest, vml);
      for (const double drop : pair.rot_edam_drop) add_double(digest, drop);
    }
}

void digest_fig7(DecisionDigest& digest, std::size_t workers) {
  struct Run {
    bool condition_a;
    bool ideal;
    bool edam_sr;
  };
  for (const Run run : {Run{true, false, false}, Run{true, true, false},
                        Run{false, false, true}, Run{false, true, false}}) {
    Rng rng(run.condition_a ? 1803 : 1804);
    const Dataset dataset =
        build_dataset(run.condition_a ? condition_a_config(48, 48)
                                      : condition_b_config(48, 48),
                      rng);
    Fig7Config config;
    config.asmcap.array_rows = 48;
    config.asmcap.ideal_sensing = run.ideal;
    config.edam_sr_enabled = run.edam_sr;
    config.workers = workers;
    const std::vector<std::size_t> thresholds =
        run.condition_a ? std::vector<std::size_t>{1, 2, 4, 8}
                        : std::vector<std::size_t>{2, 6, 10, 16};
    const Fig7Series series = Fig7Runner(config).run(dataset, thresholds, rng);
    for (const Fig7Point& point : series.points) {
      digest.add_u64(point.threshold);
      for (const double f1 : {point.edam, point.asmcap_base, point.asmcap_hdac,
                              point.asmcap_tasr, point.asmcap_full,
                              point.kraken})
        add_double(digest, f1);
    }
  }
}

void digest_levels(DecisionDigest& digest,
                   const std::vector<LevelStats>& levels) {
  for (const LevelStats& level : levels) {
    digest.add_u64(level.n_mis);
    add_double(digest, level.mean_vml);
    add_double(digest, level.sigma_vml);
  }
}

void digest_monte_carlo(DecisionDigest& digest) {
  Rng rng(1805);
  digest_levels(digest, mc_charge_levels(ChargeDomainParams{}, 100,
                                         {0, 1, 37, 99, 100}, 200, rng));
  digest_levels(digest, mc_current_levels(CurrentDomainParams{}, 150,
                                          {0, 3, 40, 149}, 200, rng));
}

std::uint64_t paper_path_digest(std::size_t workers) {
  DecisionDigest digest;
  digest_signals(digest, workers);
  digest_fig7(digest, workers);
  digest_monte_carlo(digest);
  return digest.value();
}

TEST(PaperPathPin, SignalsFig7AndMonteCarloBitIdentical) {
  const std::uint64_t one_worker = paper_path_digest(1);
  EXPECT_EQ(one_worker, 0x3ccf0fe9906b9b90ULL) << std::hex << one_worker;
  EXPECT_EQ(paper_path_digest(3), one_worker);
}

}  // namespace
}  // namespace asmcap
