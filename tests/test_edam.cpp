#include "asmcap/edam.h"

#include <gtest/gtest.h>

#include <bit>
#include <ios>

#include "align/edstar.h"
#include "asmcap/db_error.h"
#include "genome/reference.h"
#include "util/decision_digest.h"

namespace asmcap {
namespace {

EdamConfig small_edam(bool ideal = true) {
  EdamConfig config;
  config.array_rows = 16;
  config.array_cols = 64;
  config.array_count = 2;
  config.ideal_sensing = ideal;
  return config;
}

class EdamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(501);
    const Sequence reference = generate_reference(64 * 24 + 64, {}, rng);
    segments_ = segment_reference(reference, 64);
    segments_.resize(24);
  }

  /// A mixed query bag: clean copies, lightly mutated copies, foreigners.
  std::vector<Sequence> make_reads(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Sequence> reads;
    for (std::size_t i = 0; i < count; ++i) {
      switch (i % 3) {
        case 0:
          reads.push_back(segments_[rng.below(segments_.size())]);
          break;
        case 1: {
          Sequence read = segments_[rng.below(segments_.size())];
          for (int e = 0; e < 3; ++e) {
            const std::size_t pos = rng.below(read.size());
            read.set(pos, complement(read[pos]));
          }
          reads.push_back(read);
          break;
        }
        default:
          reads.push_back(Sequence::random(64, rng));
      }
    }
    return reads;
  }

  std::vector<Sequence> segments_;
};

TEST_F(EdamTest, LoadValidation) {
  EdamAccelerator edam(small_edam());
  edam.load_reference(segments_);
  EXPECT_EQ(edam.loaded_segments(), 24u);
  EXPECT_THROW(edam.load_reference(segments_), std::logic_error);
  EdamConfig tiny = small_edam();
  tiny.array_count = 1;
  EdamAccelerator small(tiny);
  try {
    small.load_reference(segments_);
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::CapacityExceeded);
  }
}

TEST_F(EdamTest, IdealDecisionsEqualEdStar) {
  EdamAccelerator edam(small_edam(/*ideal=*/true));
  edam.load_reference(segments_);
  Rng rng(502);
  const Sequence read = Sequence::random(64, rng);
  const EdamQueryResult result = edam.search(read, 8);
  ASSERT_EQ(result.decisions.size(), 24u);
  for (std::size_t g = 0; g < 24; ++g)
    EXPECT_EQ(result.decisions[g], ed_star(segments_[g], read) <= 8);
}

TEST_F(EdamTest, WrongWidthSegmentRejectedBeforeAnyState) {
  // One bad segment in the batch rejects the whole load before anything
  // is built, so a retry decides exactly like a fresh instance.
  for (const bool ideal : {false, true}) {
    std::vector<Sequence> bad = segments_;
    Rng rng(504);
    bad[20] = Sequence::random(32, rng);
    EdamAccelerator retried(small_edam(ideal));
    EXPECT_THROW(retried.load_reference(bad), std::invalid_argument);
    EXPECT_EQ(retried.loaded_segments(), 0u);
    retried.load_reference(segments_);

    EdamAccelerator fresh(small_edam(ideal));
    fresh.load_reference(segments_);
    for (const Sequence& read : make_reads(9, 516)) {
      const EdamQueryResult a = retried.search(read, 1);
      const EdamQueryResult b = fresh.search(read, 1);
      EXPECT_EQ(a.decisions, b.decisions) << "ideal=" << ideal;
      EXPECT_EQ(a.energy_joules, b.energy_joules);
    }
  }
}

TEST_F(EdamTest, SearchTimeMatchesTableOne) {
  EdamAccelerator edam(small_edam());
  edam.load_reference(segments_);
  const EdamQueryResult result = edam.search(segments_[0], 2);
  EXPECT_EQ(result.searches, 1u);
  EXPECT_NEAR(result.latency_seconds, 2.4e-9, 1e-12);
  EXPECT_GT(result.energy_joules, 0.0);
}

TEST_F(EdamTest, SrMultipliesSearches) {
  EdamConfig config = small_edam();
  config.sr_enabled = true;
  config.sr_rotations = 2;
  config.sr_direction = RotateDir::Both;
  EdamAccelerator edam(config);
  edam.load_reference(segments_);
  const EdamQueryResult result = edam.search(segments_[0], 2);
  EXPECT_EQ(result.searches, 5u);
  EXPECT_NEAR(result.latency_seconds, 5 * 2.4e-9, 1e-12);
}

TEST_F(EdamTest, SrWidensMatchesMonotonically) {
  // SR ORs rotated searches: its match set must contain the plain one.
  EdamConfig plain_config = small_edam(/*ideal=*/true);
  EdamConfig sr_config = plain_config;
  sr_config.sr_enabled = true;
  EdamAccelerator plain(plain_config);
  EdamAccelerator sr(sr_config);
  plain.load_reference(segments_);
  sr.load_reference(segments_);
  Rng rng(503);
  for (int t = 0; t < 10; ++t) {
    const Sequence read = Sequence::random(64, rng);
    const auto plain_result = plain.search(read, 12);
    const auto sr_result = sr.search(read, 12);
    for (std::size_t g = 0; g < 24; ++g)
      if (plain_result.decisions[g]) {
        EXPECT_TRUE(sr_result.decisions[g]);
      }
  }
}

TEST_F(EdamTest, WidthAndStateValidation) {
  EdamAccelerator edam(small_edam());
  EXPECT_THROW(edam.search(segments_[0], 2), std::logic_error);
  edam.load_reference(segments_);
  Rng rng(505);
  EXPECT_THROW(edam.search(Sequence::random(32, rng), 2),
               std::invalid_argument);
}

// ------------------------------------------------- order independence --

TEST_F(EdamTest, DecisionsIndependentOfQueryOrder) {
  // Regression for the seed-era bug: pass() drew sensing noise
  // sequentially from the shared member stream, so a read's decisions
  // depended on every query that ran before it. Noise is now keyed per
  // (query stream, pass, global segment): the same read must decide
  // identically with and without interleaved queries.
  EdamAccelerator edam(small_edam(/*ideal=*/false));
  edam.load_reference(segments_);
  Rng rng(506);
  // A mutated copy sits near the decision boundary, where SA noise is live.
  Sequence read = segments_[3];
  read.set(7, complement(read[7]));
  read.set(40, complement(read[40]));

  const EdamQueryResult before = edam.search(read, 1);
  for (const Sequence& other : make_reads(6, 507)) (void)edam.search(other, 1);
  const EdamQueryResult after = edam.search(read, 1);
  EXPECT_EQ(before.decisions, after.decisions);
  EXPECT_DOUBLE_EQ(before.energy_joules, after.energy_joules);

  // And a fresh instance reproduces the same decisions from the seed.
  EdamAccelerator fresh(small_edam(/*ideal=*/false));
  fresh.load_reference(segments_);
  const EdamQueryResult on_fresh = fresh.search(read, 1);
  EXPECT_EQ(before.decisions, on_fresh.decisions);
  EXPECT_DOUBLE_EQ(before.energy_joules, on_fresh.energy_joules);
}

TEST_F(EdamTest, NoisySensingIsReproducibleAndBoundarySensitive) {
  // Noise is deterministically keyed, so repeated searches of one read are
  // bit-identical — while across distinct boundary reads the current-domain
  // noise still flips some decisions relative to ideal sensing (the
  // accuracy-loss mechanism vs ASMCap).
  EdamAccelerator noisy(small_edam(/*ideal=*/false));
  EdamAccelerator ideal(small_edam(/*ideal=*/true));
  noisy.load_reference(segments_);
  ideal.load_reference(segments_);
  std::size_t flipped = 0;
  for (const Sequence& read : make_reads(24, 508)) {
    const EdamQueryResult a = noisy.search(read, 1);
    const EdamQueryResult b = noisy.search(read, 1);
    EXPECT_EQ(a.decisions, b.decisions);
    const EdamQueryResult exact = ideal.search(read, 1);
    for (std::size_t g = 0; g < a.decisions.size(); ++g)
      if (a.decisions[g] != exact.decisions[g]) ++flipped;
  }
  EXPECT_GT(flipped, 0u);  // paper noise parameters: boundary flips happen
}

// ------------------------------------------------------ batch engine --

TEST_F(EdamTest, BatchBitIdenticalToSerialAcrossWorkerCounts) {
  // Noisy sensing exercises the per-decision RNG keying; search_batch must
  // be bit-identical to sequential search() calls, for any worker count.
  const std::vector<Sequence> reads = make_reads(18, 509);
  EdamAccelerator serial(small_edam(/*ideal=*/false));
  serial.load_reference(segments_);
  std::vector<EdamQueryResult> expected;
  for (const Sequence& read : reads) expected.push_back(serial.search(read, 2));

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EdamAccelerator batched(small_edam(/*ideal=*/false));
    batched.load_reference(segments_);
    const auto results = batched.search_batch(reads, 2, workers);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].decisions, expected[i].decisions)
          << "workers=" << workers << " read " << i;
      EXPECT_EQ(results[i].searches, expected[i].searches);
      EXPECT_DOUBLE_EQ(results[i].energy_joules, expected[i].energy_joules);
      EXPECT_DOUBLE_EQ(results[i].latency_seconds,
                       expected[i].latency_seconds);
    }
  }
}

TEST_F(EdamTest, BatchOnSameInstanceMatchesSerial) {
  // Content-keyed query streams: a batch never perturbs anything, so the
  // SAME instance answers serial and batched queries identically.
  EdamAccelerator edam(small_edam(/*ideal=*/false));
  edam.load_reference(segments_);
  const std::vector<Sequence> reads = make_reads(9, 510);
  const auto batched = edam.search_batch(reads, 2, 3);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const EdamQueryResult single = edam.search(reads[i], 2);
    EXPECT_EQ(batched[i].decisions, single.decisions) << "read " << i;
    EXPECT_DOUBLE_EQ(batched[i].energy_joules, single.energy_joules);
  }
}

TEST_F(EdamTest, BatchValidation) {
  EdamAccelerator edam(small_edam());
  EXPECT_THROW(edam.search_batch({}, 2, 2), std::logic_error);
  edam.load_reference(segments_);
  EXPECT_TRUE(edam.search_batch({}, 2, 2).empty());
  Rng rng(511);
  EXPECT_THROW(edam.search_batch({Sequence::random(32, rng)}, 2, 2),
               std::invalid_argument);
}

// ------------------------------------------------- SR accumulation --

TEST_F(EdamTest, SrOrAccumulationEquivalent) {
  // SR must equal the OR of the plain searches of every schedule entry
  // under ideal sensing (Algorithm-level equivalence of the pass
  // accumulation).
  EdamConfig sr_config = small_edam(/*ideal=*/true);
  sr_config.sr_enabled = true;
  EdamAccelerator sr(sr_config);
  EdamAccelerator plain(small_edam(/*ideal=*/true));
  sr.load_reference(segments_);
  plain.load_reference(segments_);

  for (const Sequence& read : make_reads(6, 513)) {
    const EdamQueryResult combined = sr.search(read, 10);
    std::vector<bool> expected(segments_.size(), false);
    for (const Sequence& rotated : rotation_schedule(
             read, sr_config.sr_rotations, sr_config.sr_direction)) {
      const EdamQueryResult one = plain.search(rotated, 10);
      for (std::size_t g = 0; g < expected.size(); ++g)
        expected[g] = expected[g] || one.decisions[g];
    }
    EXPECT_EQ(combined.decisions, expected);
  }
}

// -------------------------------------------------------- energy ledger --

TEST_F(EdamTest, IdealEnergyMatchesNoisyEnergyExactly) {
  // The current-domain search energy is a pure function of the mismatch
  // count (current_row_search_energy), so noisy and ideal sensing book
  // bit-identical energy.
  EdamAccelerator noisy(small_edam(/*ideal=*/false));
  EdamAccelerator ideal(small_edam(/*ideal=*/true));
  noisy.load_reference(segments_);
  ideal.load_reference(segments_);
  for (const Sequence& read : make_reads(6, 514)) {
    const EdamQueryResult a = noisy.search(read, 2);
    const EdamQueryResult b = ideal.search(read, 2);
    EXPECT_GT(a.energy_joules, 0.0);
    EXPECT_EQ(a.energy_joules, b.energy_joules);
  }
}

TEST_F(EdamTest, EnergyAccumulatesPerPassDeltas) {
  // Mirrors test_engine's ledger check: a query's energy is the sum of its
  // pass energies — SR's total equals the plain energies of every schedule
  // entry — and is independent of whatever ran before (the seed-era
  // before/after scans of shared readout state are gone).
  EdamConfig sr_config = small_edam(/*ideal=*/false);
  sr_config.sr_enabled = true;
  EdamAccelerator sr(sr_config);
  EdamAccelerator plain(small_edam(/*ideal=*/false));
  sr.load_reference(segments_);
  plain.load_reference(segments_);

  const Sequence read = segments_[5];
  double expected = 0.0;
  for (const Sequence& rotated : rotation_schedule(
           read, sr_config.sr_rotations, sr_config.sr_direction))
    expected += plain.search(rotated, 2).energy_joules;
  const EdamQueryResult combined = sr.search(read, 2);
  EXPECT_DOUBLE_EQ(combined.energy_joules, expected);

  // History-independence of the ledger.
  for (const Sequence& other : make_reads(5, 515)) (void)sr.search(other, 2);
  EXPECT_DOUBLE_EQ(sr.search(read, 2).energy_joules, expected);
}

// ------------------------------------------------------- pinned digest --

TEST(EdamDigest, PinnedAcrossSensingBackendsSrAndThreshold) {
  // Pins every EDAM result bit: the decisions, the pass count, and the
  // exact energy and latency doubles, under noisy and ideal sensing, with
  // SR off and on, at T = 4 and 8. The loop keeps both backend kinds,
  // Functional as ideal sensing, so the digested sequence is unchanged.
  // 600 rows in 256-row arrays leave the last array part-filled. Any
  // change to the row store, the mask path or the ledger order that
  // moves one bit fails here.
  Rng rng(517);
  const Sequence reference = generate_reference(128 * 600 + 128, {}, rng);
  std::vector<Sequence> segments = segment_reference(reference, 128);
  segments.resize(600);
  // Copies with 2..15 substitutions put counts on both sides of T, where
  // the current-domain noise flips decisions.
  std::vector<Sequence> reads;
  for (std::size_t i = 0; i < 28; ++i) {
    Sequence read = segments[rng.below(segments.size())];
    for (std::size_t e = 0; e < 2 + i % 14; ++e) {
      const std::size_t pos = rng.below(read.size());
      read.set(pos, complement(read[pos]));
    }
    reads.push_back(read);
  }

  DecisionDigest digest;
  for (const bool ideal : {false, true})
    for (const BackendKind kind :
         {BackendKind::Circuit, BackendKind::Functional})
      for (const bool sr : {false, true}) {
        EdamConfig config;
        config.array_rows = 256;
        config.array_cols = 128;
        config.array_count = 3;
        config.ideal_sensing = ideal || kind == BackendKind::Functional;
        config.sr_enabled = sr;
        EdamAccelerator edam(config);
        edam.load_reference(segments);
        for (const std::size_t threshold : {std::size_t{4}, std::size_t{8}})
          for (const Sequence& read : reads) {
            const EdamQueryResult result = edam.search(read, threshold);
            for (const bool decision : result.decisions) digest.add(decision);
            digest.add_u64(result.searches);
            digest.add_u64(std::bit_cast<std::uint64_t>(result.energy_joules));
            digest.add_u64(
                std::bit_cast<std::uint64_t>(result.latency_seconds));
          }
      }
  EXPECT_EQ(digest.value(), 0x05d381a17129ee4aULL)
      << std::hex << digest.value();
}

}  // namespace
}  // namespace asmcap
