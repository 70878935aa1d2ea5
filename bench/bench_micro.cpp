// Micro-benchmarks of the alignment kernels and of accelerator queries on
// both backend kinds.
// BM_BandedDp / BM_MyersGlobal also serve as the measured calibration for
// the CM-CPU baseline of Fig. 8.

#include <benchmark/benchmark.h>

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
