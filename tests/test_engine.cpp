// Tests of the layered execution engine: QueryPlanner plan materialisation,
// the charge-domain pass against per-row references (noisy and ideal),
// the equivalence of the two backend kinds, a bank's execute() against
// per-slot reference loops, and worker-count independence of search_batch
// on the monolithic (1-shard router) path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>

#include "align/edstar.h"
#include "align/hamming.h"
#include "asmcap/accelerator.h"
#include "asmcap/readmapper.h"
#include "asmcap/sharded.h"
#include "cam/cell.h"
#include "genome/edits.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/lane_flags.h"

namespace asmcap {
namespace {

AsmcapConfig small_config(bool ideal = true) {
  AsmcapConfig config;
  config.array_rows = 16;
  config.array_cols = 64;
  config.array_count = 4;
  config.ideal_sensing = ideal;
  return config;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(901);
    reference_ = generate_reference(64 * 40 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(40);

    // A mixed bag of reads: clean copies, noisy copies, random foreigners.
    Rng read_rng(902);
    ReadSimConfig sim_config;
    sim_config.read_length = 64;
    sim_config.rates = ErrorRates::condition_a();
    const ReadSimulator sim(reference_, sim_config);
    for (int i = 0; i < 30; ++i) {
      switch (i % 3) {
        case 0:
          reads_.push_back(segments_[static_cast<std::size_t>(
              read_rng.below(segments_.size()))]);
          break;
        case 1:
          reads_.push_back(
              sim.simulate_at(read_rng.below(40) * 64, read_rng).read);
          break;
        default:
          reads_.push_back(Sequence::random(64, read_rng));
      }
    }
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// ------------------------------------------------------------- planner --

TEST_F(EngineTest, PlanMaterialisesSinglePassWithoutTasr) {
  const QueryPlanner planner(small_config());
  const ExecutionPlan plan =
      planner.build(reads_[0], 1, ErrorRates::condition_a(),
                    StrategyMode::Baseline);
  EXPECT_EQ(plan.ed_star_passes.size(), 1u);
  EXPECT_TRUE(plan.ed_star_passes[0] == reads_[0]);
  EXPECT_FALSE(plan.hd_pass);
  EXPECT_EQ(plan.threshold, 1u);
  EXPECT_EQ(plan.summary.total_searches(), 1u);
}

TEST_F(EngineTest, PlanMaterialisesRotationSchedule) {
  const QueryPlanner planner(small_config());
  // Condition B, T = 6 >= T_l = 2: TASR triggers with N_R = 2 per direction.
  const ExecutionPlan plan = planner.build(
      reads_[0], 6, ErrorRates::condition_b(), StrategyMode::TasrOnly);
  ASSERT_TRUE(plan.summary.tasr_triggered);
  EXPECT_EQ(plan.summary.ed_star_searches, 5u);
  // Original + 4 distinct rotations; the original is never re-searched.
  EXPECT_EQ(plan.ed_star_passes.size(), 5u);
  for (std::size_t p = 1; p < plan.ed_star_passes.size(); ++p)
    EXPECT_FALSE(plan.ed_star_passes[p] == reads_[0]);
}

TEST_F(EngineTest, PlanHdacPass) {
  const QueryPlanner planner(small_config());
  const ExecutionPlan plan = planner.build(
      reads_[0], 1, ErrorRates::condition_a(), StrategyMode::HdacOnly);
  EXPECT_TRUE(plan.hd_pass);
  EXPECT_GT(plan.hdac_p, 0.0);
  EXPECT_EQ(plan.summary.total_searches(), 2u);
}

// ---------------------------------------------------- backend equivalence --

TEST_F(EngineTest, BackendsAgreeUnderIdealSensing) {
  // BackendKind::Functional is the Circuit pass with ideal sensing, so on
  // an ideal config the two kinds agree exactly, energy included, across
  // all strategy modes.
  for (const StrategyMode mode :
       {StrategyMode::Baseline, StrategyMode::HdacOnly, StrategyMode::TasrOnly,
        StrategyMode::Full}) {
    ShardedAccelerator circuit(small_config(/*ideal=*/true), 1);
    ShardedAccelerator functional(small_config(/*ideal=*/true), 1);
    circuit.load_reference(segments_);
    functional.load_reference(segments_);
    functional.set_backend(BackendKind::Functional);

    for (const Sequence& read : reads_) {
      for (const std::size_t threshold :
           {std::size_t{0}, std::size_t{2}, std::size_t{6}}) {
        const QueryResult a = circuit.search(read, threshold, mode);
        const QueryResult b = functional.search(read, threshold, mode);
        EXPECT_EQ(a.decisions, b.decisions)
            << "mode=" << to_string(mode) << " T=" << threshold;
        EXPECT_EQ(a.matched_segments, b.matched_segments);
        EXPECT_EQ(a.plan.total_searches(), b.plan.total_searches());
        EXPECT_DOUBLE_EQ(a.latency_seconds, b.latency_seconds);
        EXPECT_EQ(a.energy_joules, b.energy_joules);
      }
    }
  }
}

TEST_F(EngineTest, FunctionalEnergyTracksCircuitEnergy) {
  // Eq. 1 energy is a pure function of the mismatch counts, booked in
  // ascending live-slot order whether or not the pass senses noise: on a
  // noisy config, the noisy Circuit kind and the ideal Functional kind
  // report identical energy, latency and ledger totals.
  ShardedAccelerator circuit(small_config(/*ideal=*/false), 1);
  ShardedAccelerator functional(small_config(/*ideal=*/false), 1);
  circuit.load_reference(segments_);
  functional.load_reference(segments_);
  functional.set_backend(BackendKind::Functional);
  const std::vector<QueryResult> a =
      circuit.search_batch(reads_, 4, StrategyMode::Full, 2);
  const std::vector<QueryResult> b =
      functional.search_batch(reads_, 4, StrategyMode::Full, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GT(b[i].energy_joules, 0.0);
    EXPECT_EQ(a[i].energy_joules, b[i].energy_joules) << "read " << i;
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds) << "read " << i;
  }
  EXPECT_EQ(circuit.totals().queries, functional.totals().queries);
  EXPECT_EQ(circuit.totals().searches, functional.totals().searches);
  EXPECT_EQ(circuit.totals().energy_joules, functional.totals().energy_joules);
  EXPECT_EQ(circuit.totals().latency_seconds,
            functional.totals().latency_seconds);
}

/// A circuit bank assembled by hand: per-id silicon, a non-identity id
/// layout (slot s holds id 1000 + 3s), tombstoned rows (every fifth row,
/// the whole of array 1, and any slot in `extra_dead`), and one all-dead
/// array. Each slot's silicon is a one-row ChargeArrayReadout, the
/// reference model, drawn from the stream the pass draws the row's
/// silicon from (Rng(seed).fork(0x51C0).fork(id)) into the bank's memo,
/// which starts empty.
struct HandBuiltBank {
  AsmcapConfig config;
  std::vector<Sequence> rows;
  std::vector<ChargeArrayReadout> readouts;  ///< Per slot, one row each.
  std::shared_ptr<SiliconMemo> silicon;
  LiveDirectory dir;
  SlicedRowStore store;
};

HandBuiltBank hand_built_bank(const AsmcapConfig& config,
                              const std::vector<Sequence>& segments,
                              const std::vector<std::size_t>& extra_dead = {}) {
  HandBuiltBank bank{config, segments, {}, std::make_shared<SiliconMemo>(),
                     {}, SlicedRowStore(segments, config.array_cols)};
  const std::size_t rows = config.array_rows;
  const std::size_t cols = config.array_cols;
  const std::size_t arrays = (segments.size() + rows - 1) / rows;
  const Rng silicon_root = Rng(config.seed).fork(0x51C0);
  bank.dir.array_live.assign(arrays, 0);
  for (std::size_t slot = 0; slot < segments.size(); ++slot) {
    const std::size_t a = slot / rows;
    const std::uint64_t id = 1000 + 3 * slot;
    const bool live = slot % 5 != 2 && a != 1 &&
                      std::find(extra_dead.begin(), extra_dead.end(), slot) ==
                          extra_dead.end();
    bank.dir.ids.push_back(id);
    bank.dir.live.resize(slot + 1, live);
    Rng silicon = silicon_root.fork(id);
    bank.readouts.emplace_back(1, cols, config.process.charge, silicon);
    if (live) {
      ++bank.dir.array_live[a];
      ++bank.dir.live_count;
    }
  }
  return bank;
}

/// One pass run alone: a one-pass list.
PassResult run_alone(const CircuitBackend& pass, const HandBuiltBank& bank,
                     SiliconMemo* silicon,
                     const PackedReadView& view, std::size_t threshold,
                     const Rng& query_rng, std::uint64_t salt) {
  const PassSpec spec{&view, salt};
  return pass
      .run_passes(bank.store, bank.dir, silicon, std::span(&spec, 1),
                  threshold, query_rng)
      .front();
}

TEST_F(EngineTest, NoisyCircuitPassMatchesPerRowReference) {
  // The circuit pass decides rows outside the noise band from their count
  // and settles only the rest, from the kernels' lane words. Reference:
  // every row settled, its cells built one by one from the Fig. 4c cell
  // model (AsmcapCell::mismatch), then an SA draw from the per-id fork —
  // must agree slot by slot, energy bit for bit. At 0.5 V of SA offset the
  // band covers every count, so whole words of in-band rows settle.
  for (const double offset_sigma : {0.5e-3, 15e-3, 0.5}) {
    AsmcapConfig config = small_config(/*ideal=*/false);
    config.process.charge.sa_offset_sigma = offset_sigma;
    const HandBuiltBank bank = hand_built_bank(config, segments_);
    const CircuitBackend pass(config);
    const auto arrays_driven = static_cast<double>(bank.dir.arrays_in_use());

    // Near-threshold reads: stored rows with 2..8 random substitutions.
    Rng edit_rng(903);
    std::size_t in_band = 0;
    std::size_t out_of_band = 0;
    for (int i = 0; i < 24; ++i) {
      Sequence read = segments_[static_cast<std::size_t>(
          edit_rng.below(segments_.size()))];
      const std::uint64_t edits = 2 + edit_rng.below(7);
      for (std::uint64_t e = 0; e < edits; ++e)
        read.set(static_cast<std::size_t>(edit_rng.below(read.size())),
                 base_from_code(static_cast<std::uint8_t>(edit_rng.below(4))));
      const Rng query_rng(904 + static_cast<std::uint64_t>(i));
      for (const MatchMode mode : {MatchMode::EdStar, MatchMode::Hamming}) {
        const std::size_t threshold = 4;
        const std::uint64_t salt = mode == MatchMode::EdStar ? 0 : 0x4844;
        const PassResult got = run_alone(
            pass, bank, bank.silicon.get(),
            PackedReadView(read, mode == MatchMode::EdStar), threshold,
            query_rng, salt);

        const ChargeDecisionBand band = charge_decision_band(
            config.process.charge, config.array_cols, threshold);
        const Rng pass_rng = query_rng.fork(salt);
        std::vector<bool> decisions(bank.dir.slots(), false);
        // SL-driver energy of the driven arrays, then each live row's
        // Eq. 1 energy in ascending slot order.
        double energy = arrays_driven *
                        SearchlineDriverParams{}.energy_per_base *
                        static_cast<double>(config.array_cols);
        for (std::size_t a = 0; a < bank.dir.array_live.size(); ++a) {
          if (bank.dir.array_live[a] == 0) continue;
          for (std::size_t r = 0; r < config.array_rows; ++r) {
            const std::size_t slot = a * config.array_rows + r;
            if (!bank.dir.slot_live(slot)) continue;
            const Sequence& row = bank.rows[slot];
            std::vector<std::uint64_t> cells(lane_word_count(row.size()), 0);
            std::size_t count = 0;
            for (std::size_t cell = 0; cell < row.size(); ++cell)
              if (AsmcapCell(row[cell]).mismatch(read, cell, mode)) {
                set_lane_flag(cells, cell);
                ++count;
              }
            const ChargeArrayReadout& readout = bank.readouts[slot];
            energy += readout.matchline(0).search_energy(count);
            Rng decide_rng = pass_rng.fork(bank.dir.ids[slot]);
            decisions[slot] = readout.decide(readout.settle_row(0, cells),
                                             threshold, decide_rng);
            ++(band.contains(count) ? in_band : out_of_band);
          }
        }
        for (std::size_t slot = 0; slot < decisions.size(); ++slot)
          EXPECT_EQ(got.decisions[slot], decisions[slot])
              << "read " << i << " slot " << slot << " offset "
              << offset_sigma;
        EXPECT_EQ(got.energy_joules, energy) << "read " << i;
      }
    }
    EXPECT_GT(in_band, 0u) << "offset " << offset_sigma;
    if (offset_sigma == 0.5) {
      EXPECT_EQ(out_of_band, 0u) << "offset " << offset_sigma;
      // Every live row sensed in the band, and only live rows drew.
      EXPECT_EQ(bank.silicon->size(), bank.dir.live_count);
    } else {
      EXPECT_GT(out_of_band, 0u) << "offset " << offset_sigma;
    }
  }
}

// ------------------------------------------------ decision words --

// 130 slots in 16-row arrays span three 64-bit decision words (64 + 64 +
// a 2-bit tail). On top of hand_built_bank's tombstones (every fifth row,
// all of array 1) slots 63 and 64 (both sides of the first word
// boundary), 127 (the last slot of word 1) and 129 (the last slot) are
// dead.
constexpr std::size_t kWideSlots = 130;
const std::vector<std::size_t> kBoundaryDead = {63, 64, 127, 129};

std::vector<Sequence> wide_segments(std::size_t slots = kWideSlots) {
  Rng rng(905);
  const Sequence reference = generate_reference(64 * slots + 128, {}, rng);
  std::vector<Sequence> segments = segment_reference(reference, 64);
  segments.resize(slots);
  return segments;
}

/// Per-slot mismatch counts from the cell-by-cell references (not the
/// kernels).
std::vector<std::size_t> reference_counts(const std::vector<Sequence>& rows,
                                          const Sequence& read,
                                          MatchMode mode) {
  std::vector<std::size_t> counts;
  counts.reserve(rows.size());
  for (const Sequence& row : rows)
    counts.push_back(mode == MatchMode::EdStar ? ed_star(row, read)
                                               : hamming_distance(row, read));
  return counts;
}

/// Per-slot reference decisions of one pass: live and count <= T.
std::vector<bool> reference_pass(const std::vector<Sequence>& rows,
                                 const LiveDirectory& dir,
                                 const Sequence& read, MatchMode mode,
                                 std::size_t threshold) {
  const std::vector<std::size_t> counts = reference_counts(rows, read, mode);
  std::vector<bool> decisions(rows.size(), false);
  for (std::size_t slot = 0; slot < rows.size(); ++slot)
    decisions[slot] = dir.slot_live(slot) && counts[slot] <= threshold;
  return decisions;
}

TEST(EngineWords, IdealPassMatchesPerSlotReferenceAcrossWords) {
  // The 130-slot bank above, and a 300-slot bank that crosses the store's
  // 256-row block boundary into a partial last block, with dead slots on
  // both sides of it (255, 256) and at the last slot.
  struct Bank {
    std::size_t slots;
    std::vector<std::size_t> dead;
    std::vector<std::size_t> read_slots;
  };
  const std::vector<Bank> banks = {
      {kWideSlots, kBoundaryDead, {0, 1, 62, 63, 64, 65, 126, 127, 128, 129}},
      {300,
       {63, 64, 127, 255, 256, 299},
       {0, 1, 63, 64, 65, 127, 128, 254, 255, 256, 258, 298, 299}},
  };
  const AsmcapConfig config = small_config();
  const ChargeDomainParams& charge = config.process.charge;
  const auto n = static_cast<double>(config.array_cols);
  // One pass object serves every bank of its config.
  const CircuitBackend pass(config);
  for (const Bank& spec : banks) {
    const std::vector<Sequence> segments = wide_segments(spec.slots);
    const HandBuiltBank bank = hand_built_bank(config, segments, spec.dead);
    const std::size_t words = (spec.slots + 63) / 64;

    // Arrays holding a live row; array 1 is all dead and never driven.
    std::vector<bool> driven(
        (spec.slots + config.array_rows - 1) / config.array_rows, false);
    for (std::size_t slot = 0; slot < spec.slots; ++slot)
      if (bank.dir.slot_live(slot)) driven[slot / config.array_rows] = true;
    const auto arrays_driven = static_cast<double>(
        std::count(driven.begin(), driven.end(), true));
    ASSERT_FALSE(driven[1]);

    // Reads around the word and block boundaries and the tail: exact
    // copies (which the dead rows would match if they were not masked)
    // and copies with 1..3 substitutions.
    Rng edit_rng(906);
    std::vector<Sequence> reads;
    for (const std::size_t slot : spec.read_slots) {
      reads.push_back(segments[slot]);
      Sequence edited = segments[slot];
      const std::uint64_t edits = 1 + edit_rng.below(3);
      for (std::uint64_t e = 0; e < edits; ++e)
        edited.set(
            static_cast<std::size_t>(edit_rng.below(edited.size())),
            base_from_code(static_cast<std::uint8_t>(edit_rng.below(4))));
      reads.push_back(edited);
    }
    reads.push_back(Sequence::random(64, edit_rng));

    // The pass checks the read's width against the array's.
    EXPECT_THROW(run_alone(pass, bank, /*silicon=*/nullptr,
                           PackedReadView(Sequence::random(32, edit_rng)), 3,
                           Rng(907), 0),
                 std::invalid_argument);

    std::vector<std::size_t> matches_per_word(words, 0);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      for (const MatchMode mode : {MatchMode::EdStar, MatchMode::Hamming}) {
        const std::size_t threshold = 3;
        const PassResult got = run_alone(
            pass, bank, /*silicon=*/nullptr,
            PackedReadView(reads[i], mode == MatchMode::EdStar), threshold,
            Rng(907), 0);
        ASSERT_EQ(got.decisions.size(), spec.slots);
        ASSERT_EQ(got.decisions.words(), words);
        EXPECT_EQ(got.decisions.word(words - 1) >> (spec.slots % 64), 0u)
            << "bits past the last slot";

        const std::vector<std::size_t> counts =
            reference_counts(segments, reads[i], mode);
        // Eq. 1 nominal row energy per slot, then summed in ascending
        // live-slot order after the SL-driver energy of the driven arrays.
        std::vector<double> row_energy(spec.slots);
        for (std::size_t slot = 0; slot < spec.slots; ++slot) {
          const auto k = static_cast<double>(counts[slot]);
          row_energy[slot] =
              k * (n - k) / n * charge.cap_mean * charge.vdd * charge.vdd;
        }
        double energy = arrays_driven *
                        SearchlineDriverParams{}.energy_per_base *
                        static_cast<double>(config.array_cols);
        for (std::size_t slot = 0; slot < spec.slots; ++slot) {
          const bool expected =
              bank.dir.slot_live(slot) && counts[slot] <= threshold;
          EXPECT_EQ(got.decisions[slot], expected)
              << "slots " << spec.slots << " read " << i << " slot " << slot;
          if (expected) ++matches_per_word[slot / 64];
          if (bank.dir.slot_live(slot)) energy += row_energy[slot];
        }
        EXPECT_EQ(got.energy_joules, energy)
            << "slots " << spec.slots << " read " << i;
      }
    }
    for (std::size_t w = 0; w < matches_per_word.size(); ++w)
      EXPECT_GT(matches_per_word[w], 0u)
          << "slots " << spec.slots << " word " << w;
  }
}

TEST(EngineWords, SweepEqualsOnePassAtATime) {
  // One sweep runs a whole pass list over the store; each pass of the list
  // must decide and book energy exactly as it does alone. Banks: 300 slots
  // (a partial last block of padding rows) with hand_built_bank's
  // tombstones, its all-dead array 1 and dead slots around the block
  // boundary, sensed ideally and with noise. Lists of 1 to 10 views, ED*
  // and Hamming alternating, each pass with its own salt, so the longer
  // lists cross the 8-pass energy walk.
  constexpr std::size_t kSlots = 300;
  constexpr std::size_t kThreshold = 3;
  const std::vector<Sequence> segments = wide_segments(kSlots);
  Rng edit_rng(910);
  std::vector<Sequence> reads;
  std::vector<PackedReadView> views;
  for (std::size_t i = 0; i < 10; ++i) {
    Sequence read = segments[edit_rng.below(kSlots)];
    const std::uint64_t edits = 1 + edit_rng.below(5);
    for (std::uint64_t e = 0; e < edits; ++e)
      read.set(static_cast<std::size_t>(edit_rng.below(read.size())),
               base_from_code(static_cast<std::uint8_t>(edit_rng.below(4))));
    views.emplace_back(read, /*neighbours=*/i % 2 == 0);
    reads.push_back(std::move(read));
  }
  const PackedReadView narrow(Sequence::random(32, edit_rng));

  const KernelTier saved = active_kernel_tier();
  for (const KernelTier tier : compiled_kernel_tiers()) {
    if (!kernel_tier_available(tier)) continue;
    set_active_kernel_tier(tier);
    for (const bool ideal : {true, false}) {
      AsmcapConfig config = small_config(ideal);
      config.process.charge.sa_offset_sigma = 15e-3;
      const HandBuiltBank bank =
          hand_built_bank(config, segments, {255, 256, 299});
      SiliconMemo* silicon = ideal ? nullptr : bank.silicon.get();
      const CircuitBackend pass(config);
      const Rng query_rng(911);

      // The noisy bank settles some rows of these reads in the band.
      if (!ideal) {
        const ChargeDecisionBand band = charge_decision_band(
            config.process.charge, config.array_cols, kThreshold);
        std::size_t in_band = 0;
        for (std::size_t i = 0; i < reads.size(); ++i) {
          const std::vector<std::size_t> counts = reference_counts(
              segments, reads[i],
              i % 2 == 0 ? MatchMode::EdStar : MatchMode::Hamming);
          for (std::size_t slot = 0; slot < kSlots; ++slot)
            if (bank.dir.slot_live(slot) && band.contains(counts[slot]))
              ++in_band;
        }
        ASSERT_GT(in_band, 0u);
      }

      std::size_t matches = 0;
      for (std::size_t length = 1; length <= views.size(); ++length) {
        std::vector<PassSpec> list;
        for (std::size_t p = 0; p < length; ++p)
          list.push_back({&views[(p + length) % views.size()],
                          0x100 * length + p});
        const std::vector<PassResult> swept = pass.run_passes(
            bank.store, bank.dir, silicon, list, kThreshold, query_rng);
        ASSERT_EQ(swept.size(), length);
        for (std::size_t p = 0; p < length; ++p) {
          const PassResult alone =
              run_alone(pass, bank, silicon, *list[p].view, kThreshold,
                        query_rng, list[p].salt);
          EXPECT_EQ(swept[p].decisions, alone.decisions)
              << to_string(tier) << " ideal " << ideal << " length "
              << length << " pass " << p;
          EXPECT_EQ(swept[p].energy_joules, alone.energy_joules)
              << to_string(tier) << " ideal " << ideal << " length "
              << length << " pass " << p;
          matches += swept[p].decisions.popcount();
        }
      }
      EXPECT_GT(matches, 0u) << to_string(tier) << " ideal " << ideal;

      // Every view's width is checked before any pass runs.
      const std::vector<PassSpec> bad = {
          {&views[0], 0}, {&views[1], 1}, {&narrow, 2}};
      EXPECT_THROW(pass.run_passes(bank.store, bank.dir, silicon, bad,
                                   kThreshold, query_rng),
                   std::invalid_argument);
    }
  }
  set_active_kernel_tier(saved);
}

TEST(EngineWords, ExecuteCombinesPassesLikePerSlotReference) {
  AsmcapConfig config = small_config(/*ideal=*/true);
  config.array_count = 9;
  const std::vector<Sequence> segments = wide_segments();
  const HandBuiltBank bank = hand_built_bank(config, segments, kBoundaryDead);

  // Reads that exercise every combining step: exact and substituted
  // copies (HD and ED* disagree on substitutions), rotated copies and
  // copies with two consecutive deletions (only a TASR rotation pass
  // recovers a shift of two), and a foreign read.
  Rng read_rng(908);
  std::vector<Sequence> reads;
  for (const std::size_t slot :
       std::vector<std::size_t>{0, 5, 60, 63, 66, 100, 127, 128}) {
    const Sequence& row = segments[slot];
    Sequence substituted = row;
    for (int e = 0; e < 2; ++e)
      substituted.set(
          static_cast<std::size_t>(read_rng.below(row.size())),
          base_from_code(static_cast<std::uint8_t>(read_rng.below(4))));
    Sequence deleted = row;
    deleted.erase(7);
    deleted.erase(7);
    for (int e = 0; e < 2; ++e)
      deleted.push_back(
          base_from_code(static_cast<std::uint8_t>(read_rng.below(4))));
    reads.push_back(row);
    reads.push_back(substituted);
    reads.push_back(row.rotated_left(2));
    reads.push_back(row.rotated_right(3));
    reads.push_back(deleted);
  }
  reads.push_back(Sequence::random(64, read_rng));

  // Baseline: one ED* pass. TasrOnly: 5 ED* passes. HdacOnly at T = 1
  // (Condition A): p ~ 0.45, so coins go both ways. Full with e_s = 5 %,
  // e_id = 0.4 %: T_l = 4, so at T = 4 both TASR and HDAC (p ~ 0.06) run.
  struct Case {
    StrategyMode mode;
    ErrorRates rates;
    std::size_t threshold;
  };
  const std::vector<Case> cases = {
      {StrategyMode::Baseline, ErrorRates::condition_a(), 3},
      {StrategyMode::TasrOnly, ErrorRates::condition_b(), 6},
      {StrategyMode::HdacOnly, ErrorRates::condition_a(), 1},
      {StrategyMode::Full, ErrorRates{0.05, 0.002, 0.002}, 4},
  };

  for (const BackendKind kind :
       {BackendKind::Functional, BackendKind::Circuit}) {
    AsmcapAccelerator accel(config);
    accel.set_backend(kind);
    accel.append_segments(segments, bank.dir.ids);
    std::vector<std::uint64_t> dead;
    for (std::size_t slot = 0; slot < kWideSlots; ++slot)
      if (!bank.dir.live[slot]) dead.push_back(bank.dir.ids[slot]);
    accel.remove_segments(dead);
    const LiveDirectory& dir = accel.directory();
    ASSERT_EQ(dir.live, bank.dir.live);
    ASSERT_EQ(dir.array_live, bank.dir.array_live);

    std::size_t or_gains = 0;
    std::size_t hd_adopted = 0;
    std::size_t ed_star_kept = 0;
    for (const Case& c : cases) {
      for (std::size_t i = 0; i < reads.size(); ++i) {
        const ExecutionPlan plan =
            accel.planner().build(reads[i], c.threshold, c.rates, c.mode);
        ASSERT_EQ(plan.ed_star_passes.size() > 1, tasr_active(c.mode));
        ASSERT_EQ(plan.hd_pass, hdac_active(c.mode));
        const Rng query_rng(909 + i);
        const QueryResult got = accel.execute(plan, query_rng);

        // Today's per-slot loops: OR over the ED* passes, then an HDAC
        // coin from select_rng.fork(id) only where HD and ED* disagree
        // (salt from docs/determinism.md). Each pass's energy comes from a
        // one-pass list, added in pass order.
        const auto lone_energy = [&](const PackedReadView& view,
                                     std::uint64_t salt) {
          const PassSpec spec{&view, salt};
          return accel.run_passes(std::span(&spec, 1), plan.threshold,
                                  query_rng)
              .front()
              .energy_joules;
        };
        std::vector<bool> expected = reference_pass(
            segments, dir, plan.ed_star_passes[0], MatchMode::EdStar,
            plan.threshold);
        double energy =
            lone_energy(PackedReadView(plan.ed_star_passes[0]), 0);
        for (std::size_t p = 1; p < plan.ed_star_passes.size(); ++p) {
          const std::vector<bool> extra = reference_pass(
              segments, dir, plan.ed_star_passes[p], MatchMode::EdStar,
              plan.threshold);
          for (std::size_t slot = 0; slot < kWideSlots; ++slot) {
            if (extra[slot] && !expected[slot]) ++or_gains;
            expected[slot] = expected[slot] || extra[slot];
          }
          energy += lone_energy(PackedReadView(plan.ed_star_passes[p]), p);
        }
        if (plan.hd_pass) {
          const std::vector<bool> hd =
              reference_pass(segments, dir, plan.ed_star_passes.front(),
                             MatchMode::Hamming, plan.threshold);
          const Rng select_rng = query_rng.fork(0x5E1E'C700ULL);
          for (std::size_t slot = 0; slot < kWideSlots; ++slot) {
            if (hd[slot] == expected[slot]) continue;
            Rng coin = select_rng.fork(dir.ids[slot]);
            const bool combined = accel.planner().hdac().combine(
                hd[slot], expected[slot], plan.hdac_p, coin);
            ++(combined == expected[slot] ? ed_star_kept : hd_adopted);
            expected[slot] = combined;
          }
          energy += lone_energy(PackedReadView(plan.ed_star_passes.front(),
                                               /*neighbours=*/false),
                                0x4844'0000ULL);
        }

        std::vector<std::size_t> expected_matches;
        for (std::size_t slot = 0; slot < kWideSlots; ++slot)
          if (expected[slot]) expected_matches.push_back(slot);
        EXPECT_EQ(got.decisions, expected)
            << to_string(kind) << " " << to_string(c.mode) << " read " << i;
        EXPECT_EQ(got.matched_segments, expected_matches)
            << to_string(kind) << " " << to_string(c.mode) << " read " << i;
        EXPECT_EQ(got.energy_joules, energy);
      }
    }
    EXPECT_GT(or_gains, 0u) << to_string(kind);
    EXPECT_GT(hd_adopted, 0u) << to_string(kind);
    EXPECT_GT(ed_star_kept, 0u) << to_string(kind);
  }
}

TEST_F(EngineTest, BackendSwitchIsLive) {
  // On a noisy config, switching to Functional senses ideally; switching
  // back senses on the same per-id silicon, so the noisy decisions come
  // back bit for bit.
  AsmcapAccelerator accel(small_config(/*ideal=*/false));
  accel.load_reference(segments_);
  EXPECT_EQ(accel.backend_kind(), BackendKind::Circuit);
  const Rng stream(905);
  auto execute_all = [&]() {
    std::vector<QueryResult> out;
    for (const Sequence& read : reads_)
      out.push_back(accel.execute(
          accel.planner().build(read, 4, ErrorRates::condition_a(),
                                StrategyMode::Baseline),
          stream));
    return out;
  };
  const std::vector<QueryResult> a = execute_all();
  accel.set_backend(BackendKind::Functional);
  const std::vector<QueryResult> b = execute_all();
  accel.set_backend(BackendKind::Circuit);
  const std::vector<QueryResult> c = execute_all();
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(a[i].decisions, c[i].decisions) << "read " << i;
    // Energy depends only on the counts: identical on every switch.
    EXPECT_EQ(a[i].energy_joules, b[i].energy_joules) << "read " << i;
    EXPECT_EQ(a[i].energy_joules, c[i].energy_joules) << "read " << i;
  }
}

// ------------------------------------------------------ batch determinism --

TEST_F(EngineTest, BatchResultsIndependentOfWorkerCount) {
  // Noisy sensing exercises the per-read RNG forking; results must be
  // bit-identical for any worker count.
  std::vector<std::vector<QueryResult>> runs;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    ShardedAccelerator accel(small_config(/*ideal=*/false), 1);
    accel.load_reference(segments_);
    runs.push_back(accel.search_batch(reads_, 4, StrategyMode::Full, workers));
  }
  for (std::size_t w = 1; w < runs.size(); ++w) {
    ASSERT_EQ(runs[w].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[w][i].decisions, runs[0][i].decisions) << "read " << i;
      EXPECT_EQ(runs[w][i].energy_joules, runs[0][i].energy_joules);
      EXPECT_EQ(runs[w][i].latency_seconds, runs[0][i].latency_seconds);
    }
  }
}

// ---------------------------------------------------------- batch mapper --

TEST_F(EngineTest, MapBatchWorkerCountIndependent) {
  Rng rng(904);
  ReadSimConfig sim_config;
  sim_config.read_length = 64;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator sim(reference_, sim_config);
  std::vector<Sequence> reads;
  for (int i = 0; i < 20; ++i)
    reads.push_back(sim.simulate_at(rng.below(40) * 64, rng).read);

  std::vector<std::vector<MappedRead>> runs;
  std::vector<MappingStats> stats;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    AsmcapConfig config = small_config(/*ideal=*/false);
    ReadMapper mapper(config, segments_, 64);
    std::vector<MappedRead> mapped;
    stats.push_back(
        mapper.map_batch(reads, 4, StrategyMode::Full, &mapped, workers));
    runs.push_back(std::move(mapped));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].mapped, runs[1][i].mapped);
    EXPECT_EQ(runs[0][i].segment, runs[1][i].segment);
    EXPECT_EQ(runs[0][i].edit_distance, runs[1][i].edit_distance);
    EXPECT_EQ(runs[0][i].candidates, runs[1][i].candidates);
  }
  EXPECT_EQ(stats[0].mapped, stats[1].mapped);
  EXPECT_EQ(stats[0].host_dp_cells, stats[1].host_dp_cells);
  EXPECT_DOUBLE_EQ(stats[0].accel_energy_joules, stats[1].accel_energy_joules);
}

TEST_F(EngineTest, MapperDecisionsIndependentOfBackendKind) {
  // End-to-end: the mapper gives identical mappings on both backend kinds
  // under ideal sensing.
  std::vector<std::vector<MappedRead>> runs;
  for (const BackendKind kind :
       {BackendKind::Circuit, BackendKind::Functional}) {
    ReadMapper mapper(small_config(/*ideal=*/true), segments_, 64);
    mapper.accelerator().set_backend(kind);
    std::vector<MappedRead> mapped;
    mapper.map_batch(reads_, 4, StrategyMode::Full, &mapped, 2);
    runs.push_back(std::move(mapped));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].mapped, runs[1][i].mapped);
    EXPECT_EQ(runs[0][i].segment, runs[1][i].segment);
    EXPECT_EQ(runs[0][i].candidates, runs[1][i].candidates);
  }
}

}  // namespace
}  // namespace asmcap
