#include "eval/sweep.h"

#include <gtest/gtest.h>

#include "align/edit_distance.h"
#include "align/edstar.h"
#include "align/hamming.h"

namespace asmcap {
namespace {

class SignalsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1201);
    DatasetConfig config = condition_a_config(12, 20);
    config.segment_length = 96;
    dataset_ = build_dataset(config, rng);
    asmcap_config_.array_rows = 12;
    asmcap_config_.array_cols = 96;
  }
  Dataset dataset_;
  AsmcapConfig asmcap_config_;
  CurrentDomainParams edam_params_;
};

TEST_F(SignalsTest, DimensionsAndAccess) {
  Rng rng(1202);
  const DatasetSignals signals(dataset_, asmcap_config_, edam_params_, 8, rng);
  EXPECT_EQ(signals.queries(), 20u);
  EXPECT_EQ(signals.rows(), 12u);
  EXPECT_EQ(signals.ed_cap(), 8u);
  EXPECT_THROW(signals.pair(20, 0), std::out_of_range);
  EXPECT_THROW(signals.pair(0, 12), std::out_of_range);
  EXPECT_THROW(signals.truth(0, 0, 9), std::invalid_argument);
}

TEST_F(SignalsTest, RejectsReadsAndRowsOfAnotherWidth) {
  Rng rng(1207);
  Dataset skewed = dataset_;
  skewed.queries[7].read = Sequence::random(97, rng);
  EXPECT_THROW(DatasetSignals(skewed, asmcap_config_, edam_params_, 8, rng),
               std::invalid_argument);
  skewed = dataset_;
  skewed.rows[5] = Sequence::random(95, rng);
  EXPECT_THROW(DatasetSignals(skewed, asmcap_config_, edam_params_, 8, rng),
               std::invalid_argument);
}

TEST_F(SignalsTest, SignalsMatchKernels) {
  Rng rng(1203);
  const DatasetSignals signals(dataset_, asmcap_config_, edam_params_, 8, rng);
  for (std::size_t q = 0; q < signals.queries(); ++q) {
    for (std::size_t r = 0; r < signals.rows(); ++r) {
      const PairSignals& pair = signals.pair(q, r);
      const Sequence& read = dataset_.queries[q].read;
      const Sequence& row = dataset_.rows[r];
      EXPECT_EQ(pair.hd, hamming_distance(row, read));
      EXPECT_EQ(pair.ed_star, ed_star(row, read));
      const CappedDistance exact = banded_edit_distance(row, read, 8);
      EXPECT_EQ(pair.ed, exact.distance);
      EXPECT_EQ(signals.truth(q, r, 8), exact.within_band);
    }
  }
}

TEST_F(SignalsTest, VoltagesTrackCounts) {
  Rng rng(1204);
  const DatasetSignals signals(dataset_, asmcap_config_, edam_params_, 8, rng);
  for (std::size_t q = 0; q < 5; ++q) {
    for (std::size_t r = 0; r < signals.rows(); ++r) {
      const PairSignals& pair = signals.pair(q, r);
      // Charge-domain V_ML ~ count/N * VDD (mismatch + offset small).
      const double ideal_star =
          static_cast<double>(pair.ed_star) / 96.0 * 1.2;
      EXPECT_NEAR(pair.vml_ed_star, ideal_star, 0.02);
      const double ideal_hd = static_cast<double>(pair.hd) / 96.0 * 1.2;
      EXPECT_NEAR(pair.vml_hd, ideal_hd, 0.02);
      // EDAM nominal drop ~ count * volts_per_count.
      const double vpc = 1.2 / 96.0 * (0.86e-6 / 0.86e-6);
      EXPECT_NEAR(pair.edam_drop,
                  static_cast<double>(pair.ed_star) * 1.2 / 96.0,
                  0.05 * (pair.ed_star + 1) * vpc + 0.02);
    }
  }
}

TEST_F(SignalsTest, RotationSignalsPresent) {
  Rng rng(1205);
  const DatasetSignals signals(dataset_, asmcap_config_, edam_params_, 8, rng);
  // Both directions x N_R = 2 rotations = 4 rotated variants.
  const PairSignals& pair = signals.pair(0, 0);
  EXPECT_EQ(pair.rot_ed_star.size(), 4u);
  EXPECT_EQ(pair.rot_vml.size(), 4u);
  EXPECT_EQ(pair.rot_edam_drop.size(), 4u);
  // Rotated counts match the kernel on the rotated reads.
  const auto schedule = rotation_schedule(dataset_.queries[0].read, 2,
                                          RotateDir::Both);
  for (std::size_t k = 1; k < schedule.size(); ++k)
    EXPECT_EQ(pair.rot_ed_star[k - 1],
              ed_star(dataset_.rows[0], schedule[k]));
}

TEST_F(SignalsTest, TruthRowForOwnQuery) {
  Rng rng(1206);
  const DatasetSignals signals(dataset_, asmcap_config_, edam_params_, 8, rng);
  // Non-contaminant queries must be within the cap of their true row.
  for (std::size_t q = 0; q < signals.queries(); ++q) {
    const std::size_t true_row = dataset_.queries[q].true_row;
    if (true_row >= signals.rows()) continue;  // contaminant
    EXPECT_LE(signals.pair(q, true_row).ed, 8u)
        << "query " << q << " should be close to its own row";
  }
}

}  // namespace
}  // namespace asmcap
