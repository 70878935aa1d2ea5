#include "genome/readsim.h"

#include <gtest/gtest.h>

#include "align/edit_distance.h"
#include "genome/reference.h"

namespace asmcap {
namespace {

class ReadSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    reference_ = generate_reference(5000, {}, rng);
  }
  Sequence reference_;
};

TEST_F(ReadSimTest, FixedLengthAfterRepadding) {
  ReadSimConfig config;
  config.read_length = 256;
  config.rates = {0.01, 0.01, 0.01};
  const ReadSimulator sim(reference_, config);
  Rng rng(12);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(sim.simulate(rng).read.size(), 256u);
}

TEST_F(ReadSimTest, ErrorFreeReadEqualsWindow) {
  ReadSimConfig config;
  config.read_length = 100;
  const ReadSimulator sim(reference_, config);
  Rng rng(13);
  const SimulatedRead read = sim.simulate_at(40, rng);
  EXPECT_EQ(read.read, reference_.subseq(40, 100));
  EXPECT_TRUE(read.edits.empty());
}

TEST_F(ReadSimTest, EditCountersMatchTrace) {
  ReadSimConfig config;
  config.read_length = 256;
  config.rates = {0.02, 0.01, 0.01};
  const ReadSimulator sim(reference_, config);
  Rng rng(14);
  for (int i = 0; i < 30; ++i) {
    const SimulatedRead read = sim.simulate(rng);
    std::size_t subs = 0;
    std::size_t ins = 0;
    std::size_t del = 0;
    for (const Edit& e : read.edits) {
      if (e.kind == EditKind::Substitution) ++subs;
      if (e.kind == EditKind::Insertion) ++ins;
      if (e.kind == EditKind::Deletion) ++del;
    }
    EXPECT_EQ(read.substitutions, subs);
    EXPECT_EQ(read.insertions, ins);
    EXPECT_EQ(read.deletions, del);
  }
}

TEST_F(ReadSimTest, EditDistanceToWindowBounded) {
  ReadSimConfig config;
  config.read_length = 128;
  config.rates = ErrorRates::condition_b();
  const ReadSimulator sim(reference_, config);
  Rng rng(15);
  for (int i = 0; i < 30; ++i) {
    const SimulatedRead read = sim.simulate(rng);
    const Sequence window = reference_.subseq(read.origin, 128);
    const std::size_t ed = edit_distance(window, read.read);
    // Repadding can add up to (deletions) extra mismatching tail bases, and
    // trimming can hide insertions; the trace still bounds ED loosely.
    EXPECT_LE(ed, read.edits.size() + read.deletions + read.insertions);
  }
}

TEST_F(ReadSimTest, OriginOutOfRangeThrows) {
  const ReadSimulator sim(reference_, {});
  Rng rng(16);
  EXPECT_THROW(sim.simulate_at(reference_.size() - 10, rng),
               std::out_of_range);
}

TEST(ReadSim, RejectsTinyReference) {
  Rng rng(18);
  const Sequence tiny = Sequence::random(100, rng);
  ReadSimConfig config;
  config.read_length = 256;
  EXPECT_THROW(ReadSimulator(tiny, config), std::invalid_argument);
}

TEST(ReadSim, RejectsZeroLength) {
  Rng rng(19);
  const Sequence genome = Sequence::random(1000, rng);
  ReadSimConfig config;
  config.read_length = 0;
  EXPECT_THROW(ReadSimulator(genome, config), std::invalid_argument);
}

}  // namespace
}  // namespace asmcap
