// Micro-benchmarks of the alignment kernels, of accelerator queries on
// both backend kinds, and of the live database's write path (router
// ingest, bank clone).
// BM_BandedDp / BM_MyersGlobal also serve as the measured calibration for
// the CM-CPU baseline of Fig. 8.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "align/edit_distance.h"
#include "align/edstar.h"
#include "align/hamming.h"
#include "align/kernels.h"
#include "align/myers.h"
#include "asmcap/sharded.h"
#include "genome/reference.h"
#include "util/rng.h"

namespace {

using namespace asmcap;

Sequence random_seq(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Sequence::random(n, rng);
}

void BM_FullDp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Sequence a = random_seq(n, 1);
  const Sequence b = random_seq(n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(edit_distance(a, b));
  state.SetItemsProcessed(state.iterations() * n * n);  // DP cells
}
BENCHMARK(BM_FullDp)->Arg(64)->Arg(256);

void BM_BandedDp(benchmark::State& state) {
  const Sequence a = random_seq(256, 3);
  const Sequence b = random_seq(256, 4);
  const auto cap = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(banded_edit_distance(a, b, cap));
  state.SetItemsProcessed(state.iterations() * 256 * (2 * cap + 1));
}
BENCHMARK(BM_BandedDp)->Arg(4)->Arg(8)->Arg(16);

void BM_MyersGlobal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Sequence a = random_seq(n, 5);
  const Sequence b = random_seq(n, 6);
  const MyersPattern pattern(a);
  for (auto _ : state) benchmark::DoNotOptimize(pattern.distance(b));
  state.SetItemsProcessed(state.iterations() * n * ((n + 63) / 64));
}
BENCHMARK(BM_MyersGlobal)->Arg(64)->Arg(256)->Arg(1024);

void BM_MyersSemiGlobalScan(benchmark::State& state) {
  // 256-base read scanned over a 30 kb virus-scale reference: the CM-CPU
  // workload unit of Fig. 8.
  const Sequence read = random_seq(256, 7);
  const Sequence reference = random_seq(30000, 8);
  const MyersPattern pattern(read);
  for (auto _ : state)
    benchmark::DoNotOptimize(pattern.best_semiglobal(reference));
  state.SetItemsProcessed(state.iterations() * reference.size());
}
BENCHMARK(BM_MyersSemiGlobalScan);

void BM_Hamming(benchmark::State& state) {
  const Sequence a = random_seq(256, 9);
  const Sequence b = random_seq(256, 10);
  for (auto _ : state) benchmark::DoNotOptimize(hamming_distance(a, b));
}
BENCHMARK(BM_Hamming);

void BM_EdStar(benchmark::State& state) {
  const Sequence a = random_seq(256, 11);
  const Sequence b = random_seq(256, 12);
  for (auto _ : state) benchmark::DoNotOptimize(ed_star(a, b));
}
BENCHMARK(BM_EdStar);

void BM_EdStarPacked(benchmark::State& state) {
  // The scalar-word row count (the scalar tier's per-row kernel).
  const Sequence a = random_seq(256, 11);
  const Sequence b = random_seq(256, 12);
  const auto pa = a.packed_words();
  const auto pb = b.packed_words();
  for (auto _ : state) benchmark::DoNotOptimize(ed_star_packed(pa, pb, 256));
}
BENCHMARK(BM_EdStarPacked);

// Building the read-side operands of the kernels: an ED* and a Hamming
// view of one 128-column read. Items are views.
void BM_ReadViewBuild(benchmark::State& state) {
  const Sequence read = random_seq(128, 18);
  for (auto _ : state) {
    const PackedReadView ed_star(read);
    const PackedReadView hamming(read, /*neighbours=*/false);
    benchmark::DoNotOptimize(ed_star.columns.data());
    benchmark::DoNotOptimize(hamming.columns.data());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ReadViewBuild);

// QueryPlanner::build of one 128-column read at T = 32 with the router's
// default error profile (Condition A): TASR triggers and HDAC does not,
// so the plan holds the read, four rotations and an ED* view of each —
// the plan of every read of the repo benchmark's bulk_map workload.
// Items are plans.
void BM_PlanBuild(benchmark::State& state) {
  AsmcapConfig config;
  config.array_cols = 128;
  const QueryPlanner planner(config);
  const Sequence read = random_seq(128, 19);
  const auto build = [&] {
    return planner.build(read, 32, ErrorRates::condition_a(),
                         StrategyMode::Full);
  };
  const ExecutionPlan first = build();
  if (first.ed_star_views.size() != 5 || first.hd_pass) {
    state.SkipWithError("the plan is not 5 ED* passes without HDAC");
    return;
  }
  for (auto _ : state) {
    const ExecutionPlan plan = build();
    benchmark::DoNotOptimize(plan.ed_star_views.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanBuild);

// One tier's block counts over a 4,096-row bit-sliced store against one
// read: the count behind every circuit and EDAM pass. Arguments are the
// row width in cells and the KernelTier; items are rows.
void run_block_kernel(benchmark::State& state, bool ed_star) {
  constexpr std::size_t kRows = 4096;
  const auto cols = static_cast<std::size_t>(state.range(0));
  const auto tier = static_cast<KernelTier>(state.range(1));
  const KernelOps& ops = kernel_ops(tier);
  Rng rng(16);
  std::vector<Sequence> rows;
  rows.reserve(kRows);
  for (std::size_t g = 0; g < kRows; ++g)
    rows.push_back(Sequence::random(cols, rng));
  const SlicedRowStore store(rows, cols);
  const PackedReadView view(Sequence::random(cols, rng), ed_star);
  std::vector<BlockCounts> counts(store.blocks());
  for (auto _ : state) {
    for (std::size_t b = 0; b < store.blocks(); ++b)
      ops.count_block(store, b, view, 9, counts[b]);
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(to_string(tier));
}

// 128 and 256 columns on every tier this machine can run.
void block_kernel_cases(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"cols", "tier"});
  for (const KernelTier tier : compiled_kernel_tiers())
    if (kernel_tier_available(tier))
      for (const int cols : {128, 256})
        bench->Args({cols, static_cast<int>(tier)});
}

void BM_EdStarBlock(benchmark::State& state) { run_block_kernel(state, true); }
BENCHMARK(BM_EdStarBlock)->Apply(block_kernel_cases);

void BM_HammingBlock(benchmark::State& state) {
  run_block_kernel(state, false);
}
BENCHMARK(BM_HammingBlock)->Apply(block_kernel_cases);

// The shard-pruning probe (AsmcapAccelerator::may_match, the kernels'
// window_alive) of one 4,096-row, 128-column bank at T = 4: five windows
// of 25 columns. A random read that every window prunes (survives:0)
// scans each window until its rows die, block by block; a stored row
// with 4 substitutions (survives:1) stops at its first live window. The
// plan, with its read view, is built once, as the router builds it once
// per read. Items are probes.
void BM_WindowProbe(benchmark::State& state) {
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kCols = 128;
  constexpr std::size_t kThreshold = 4;
  const bool survives = state.range(0) != 0;
  const auto tier = static_cast<KernelTier>(state.range(1));
  AsmcapConfig config;
  config.array_rows = 256;
  config.array_cols = kCols;
  config.array_count = kRows / config.array_rows;
  config.ideal_sensing = true;
  AsmcapAccelerator bank(config);
  Rng rng(17);
  std::vector<Sequence> rows;
  rows.reserve(kRows);
  for (std::size_t g = 0; g < kRows; ++g)
    rows.push_back(Sequence::random(kCols, rng));
  bank.load_reference(rows);
  Sequence read = Sequence::random(kCols, rng);
  if (survives) {
    read = rows[rng.below(kRows)];
    for (std::size_t e = 0; e < kThreshold; ++e)
      read.set(rng.below(kCols),
               base_from_code(static_cast<std::uint8_t>(rng.below(4))));
  }
  const ExecutionPlan plan = bank.planner().build(
      read, kThreshold, ErrorRates::condition_a(), StrategyMode::Full);
  const std::size_t windows =
      pruning_window_count(config, BackendKind::Circuit, kThreshold);
  const KernelTier saved = active_kernel_tier();
  set_active_kernel_tier(tier);
  for (auto _ : state) benchmark::DoNotOptimize(bank.may_match(plan, windows));
  const bool outcome = bank.may_match(plan, windows);
  set_active_kernel_tier(saved);
  if (outcome != survives)
    state.SkipWithError("the probe outcome does not match the read kind");
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(to_string(tier));
}

// Pruned and surviving reads on every tier this machine can run.
void window_probe_cases(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"survives", "tier"});
  for (const KernelTier tier : compiled_kernel_tiers())
    if (kernel_tier_available(tier))
      for (const int survives : {0, 1})
        bench->Args({survives, static_cast<int>(tier)});
}
BENCHMARK(BM_WindowProbe)->Apply(window_probe_cases);

// bulk_map's bank and read: 4,096 random rows x 128 columns, and a
// stored row with 8 substitutions, planned at T = 32 under the router's
// default error profile, which TASR turns into 5 ED* passes (no HDAC).
struct ExecuteCase {
  AsmcapConfig config;
  std::vector<Sequence> rows;
  Sequence read;
};

ExecuteCase execute_case(bool ideal) {
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kCols = 128;
  ExecuteCase c;
  c.config.array_rows = 256;
  c.config.array_cols = kCols;
  c.config.array_count = kRows / c.config.array_rows;
  c.config.ideal_sensing = ideal;
  Rng rng(20);
  c.rows.reserve(kRows);
  for (std::size_t g = 0; g < kRows; ++g)
    c.rows.push_back(Sequence::random(kCols, rng));
  c.read = c.rows[rng.below(kRows)];
  for (int e = 0; e < 8; ++e)
    c.read.set(rng.below(kCols),
               base_from_code(static_cast<std::uint8_t>(rng.below(4))));
  return c;
}

std::unique_ptr<AsmcapAccelerator> load_bank(const ExecuteCase& c) {
  auto bank = std::make_unique<AsmcapAccelerator>(c.config);
  bank->load_reference(c.rows);
  return bank;
}

ExecutionPlan execute_plan(const AsmcapAccelerator& bank,
                           const ExecuteCase& c) {
  return bank.planner().build(c.read, 32, ErrorRates::condition_a(),
                              StrategyMode::Full);
}

bool five_ed_star_passes(const ExecutionPlan& plan) {
  return plan.ed_star_views.size() == 5 && !plan.hd_pass;
}

// One bank's execute() of the bulk_map read on an ideal-sensing bank: all
// 5 passes in one sweep over the row store. Items are row-passes.
void BM_BankExecute(benchmark::State& state) {
  const ExecuteCase c = execute_case(/*ideal=*/true);
  const std::unique_ptr<AsmcapAccelerator> bank = load_bank(c);
  const ExecutionPlan plan = execute_plan(*bank, c);
  if (!five_ed_star_passes(plan)) {
    state.SkipWithError("the plan is not 5 ED* passes without HDAC");
    return;
  }
  const Rng query_rng(21);
  for (auto _ : state) {
    const QueryResult result = bank->execute(plan, query_rng);
    benchmark::DoNotOptimize(result.matched_segments.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.rows.size() * 5));
}
BENCHMARK(BM_BankExecute);

// The same execute() on a bank that senses noise: at T = 32 a few rows'
// counts per pass land in the noise band, and each settles on its
// silicon. memo:0 runs on a freshly loaded bank, whose pass draws the
// silicon of every in-band row (the first read after a load; the reload
// is not timed); memo:1 on a bank that has run the read before, whose
// pass finds that silicon in its memo. The `drawn` counter is the rows
// with silicon after one read. Items are row-passes.
void BM_BankExecuteNoisyInBand(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const ExecuteCase c = execute_case(/*ideal=*/false);
  std::unique_ptr<AsmcapAccelerator> bank = load_bank(c);
  const ExecutionPlan plan = execute_plan(*bank, c);
  const Rng query_rng(21);
  const QueryResult first = bank->execute(plan, query_rng);
  benchmark::DoNotOptimize(first.matched_segments.data());
  const std::size_t drawn = bank->silicon()->size();
  if (!five_ed_star_passes(plan) || drawn == 0) {
    state.SkipWithError(
        "the plan is not 5 ED* passes without HDAC, or no row senses in "
        "the band");
    return;
  }
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      bank = load_bank(c);
      state.ResumeTiming();
    }
    const QueryResult result = bank->execute(plan, query_rng);
    benchmark::DoNotOptimize(result.matched_segments.data());
  }
  state.counters["drawn"] = static_cast<double>(drawn);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.rows.size() * 5));
}
BENCHMARK(BM_BankExecuteNoisyInBand)->ArgName("memo")->Arg(0)->Arg(1);

// Loads `segments` random 128-column rows through a `shards`-shard router
// on `config`, in the CLI's 512-row appends, then compact(), once per
// iteration. Skips with `error` unless `loaded` holds for the load. Items
// are segments.
template <typename Check>
void router_ingest(benchmark::State& state, const AsmcapConfig& config,
                   std::size_t shards, std::size_t segments, Check loaded,
                   const char* error) {
  constexpr std::size_t kBatch = 512;
  Rng rng(22);
  std::vector<std::vector<Sequence>> batches(segments / kBatch);
  for (std::vector<Sequence>& batch : batches) {
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i)
      batch.push_back(Sequence::random(config.array_cols, rng));
  }
  const auto ingest = [&] {
    auto router = std::make_unique<ShardedAccelerator>(config, shards);
    for (const std::vector<Sequence>& batch : batches)
      router->append_segments(batch);
    router->compact();
    return router;
  };
  if (!loaded(*ingest())) {
    state.SkipWithError(error);
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(ingest().get());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(segments));
}

// The router's write path on ingest_heavy's load (the argument: 16,384
// segments) and on 4x that: segments of 128 columns into the default
// geometry (256-row arrays, 512 per bank, a 256-row hot bank) on 4
// shards. Each overflowing append folds the staged rows and the batch
// straight into cold bank 0, which nothing pins, so it is written in
// place: the time per segment should not grow with the load.
void BM_RouterIngest(benchmark::State& state) {
  const auto segments = static_cast<std::size_t>(state.range(0));
  AsmcapConfig config;
  config.array_cols = 128;
  config.ideal_sensing = true;
  router_ingest(
      state, config, 4, segments,
      [segments](const ShardedAccelerator& router) {
        return router.active_shards() == 1 && !router.db()->has_hot &&
               router.shard(0).live_segment_count() == segments;
      },
      "the load is not one cold bank of N live rows");
}
BENCHMARK(BM_RouterIngest)
    ->Arg(16384)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// circuit_noisy's load: 1,024 segments of 128 columns on 2 shards of 2
// arrays, sensing noise. A write draws no silicon, so a segment should
// cost what it costs BM_RouterIngest.
void BM_RouterIngestNoisy(benchmark::State& state) {
  AsmcapConfig config;
  config.array_cols = 128;
  config.array_count = 2;
  config.ideal_sensing = false;
  router_ingest(
      state, config, 2, 1024,
      [](const ShardedAccelerator& router) {
        return router.live_segment_count() == 1024 && !router.db()->has_hot;
      },
      "the load is not 1,024 live rows without a hot bank");
}
BENCHMARK(BM_RouterIngestNoisy)->Unit(benchmark::kMillisecond);

// One clone() of a 16,384-row, 128-column bank: the copy an epoch makes
// of each bank it writes while a pin lives (a noisy bank's clone is the
// same copy plus its silicon memo's pointer). Items are rows.
void BM_BankClone(benchmark::State& state) {
  constexpr std::size_t kRows = 16384;
  AsmcapConfig config;
  config.array_cols = 128;
  config.ideal_sensing = true;
  AsmcapAccelerator bank(config);
  Rng rng(23);
  std::vector<Sequence> rows;
  rows.reserve(kRows);
  for (std::size_t i = 0; i < kRows; ++i)
    rows.push_back(Sequence::random(config.array_cols, rng));
  bank.load_reference(rows);
  if (bank.clone()->live_segments() != bank.live_segments()) {
    state.SkipWithError("the clone's live rows differ from the bank's");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(bank.clone().get());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_BankClone);

void BM_AcceleratorQuery(benchmark::State& state) {
  AsmcapConfig config;
  config.array_rows = 256;
  config.array_cols = 256;
  config.array_count = 1;
  ShardedAccelerator accel(config, 1);
  Rng rng(14);
  const Sequence reference = generate_reference(256 * 257 + 512, {}, rng);
  auto segments = segment_reference(reference, 256);
  segments.resize(256);
  accel.load_reference(segments);
  accel.set_error_profile(ErrorRates::condition_a());
  const Sequence read = segments[100];
  for (auto _ : state)
    benchmark::DoNotOptimize(accel.search(read, 4, StrategyMode::Full));
  state.SetItemsProcessed(state.iterations() * 256);  // rows per query
}
BENCHMARK(BM_AcceleratorQuery);

void BM_AcceleratorQueryFunctional(benchmark::State& state) {
  // Same query on the Functional kind: ideal sensing decides every row
  // from its word-parallel kernel count — the fast path for large sweeps.
  AsmcapConfig config;
  config.array_rows = 256;
  config.array_cols = 256;
  config.array_count = 1;
  ShardedAccelerator accel(config, 1);
  Rng rng(14);
  const Sequence reference = generate_reference(256 * 257 + 512, {}, rng);
  auto segments = segment_reference(reference, 256);
  segments.resize(256);
  accel.load_reference(segments);
  accel.set_error_profile(ErrorRates::condition_a());
  accel.set_backend(BackendKind::Functional);
  const Sequence read = segments[100];
  for (auto _ : state)
    benchmark::DoNotOptimize(accel.search(read, 4, StrategyMode::Full));
  state.SetItemsProcessed(state.iterations() * 256);  // rows per query
}
BENCHMARK(BM_AcceleratorQueryFunctional);

void BM_SearchBatchFunctional(benchmark::State& state) {
  // Whole-batch throughput of the batched engine — a 1-shard router's
  // search_batch through SearchService (worker count = arg).
  AsmcapConfig config;
  config.array_rows = 256;
  config.array_cols = 256;
  config.array_count = 1;
  ShardedAccelerator accel(config, 1);
  Rng rng(15);
  const Sequence reference = generate_reference(256 * 257 + 512, {}, rng);
  auto segments = segment_reference(reference, 256);
  segments.resize(256);
  accel.load_reference(segments);
  accel.set_error_profile(ErrorRates::condition_a());
  accel.set_backend(BackendKind::Functional);
  std::vector<Sequence> reads;
  for (int i = 0; i < 64; ++i)
    reads.push_back(segments[static_cast<std::size_t>(rng.below(256))]);
  const auto workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        accel.search_batch(reads, 4, StrategyMode::Full, workers));
  state.SetItemsProcessed(state.iterations() * reads.size());
}
BENCHMARK(BM_SearchBatchFunctional)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
