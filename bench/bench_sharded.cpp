// Sharded-router benchmark (plain chrono, no external deps): the
// latency-bound service path — requests arriving one read at a time —
// on the Circuit kind with ideal sensing. A monolithic bank (a 1-shard
// router) scans all its arrays for every read; the sharded router splits
// the same database across N banks and fans each read across them on the
// worker pool, so the per-read critical path shrinks by ~N on hardware
// with >= N cores.
// Decisions are verified bit-identical between the two layouts (shard
// invariance of the noise-free decision path), so the driver doubles as
// a router correctness check — CI runs it under ASan/UBSan with a tiny
// database.
//
//   ./bench_sharded [segments] [reads] [shards] [workers] [--json <path>]
//
// A third arm re-runs the sharded layout with sketch-based shard pruning
// enabled (config.pruning) and asserts its decisions are bit-identical to
// the full fan-out; the JSON report gains prune_rate /
// pruned_energy_savings / pruned_speedup metrics.
//
// Exits non-zero if decisions diverge (between layouts, or between the
// pruned and full fan-out arms), or — when the machine actually has
// >= `shards` hardware threads and >= 4 workers were requested — if the
// sharded layout fails to reach 2x the monolithic single-read throughput
// (the pruned arm gets the same 2x floor at >= 8 shards).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "align/kernels.h"
#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/bench_json.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace asmcap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string json_path = take_bench_json_path(args);
  const std::size_t n_segments =
      args.size() > 0 ? std::strtoull(args[0].c_str(), nullptr, 10) : 4096;
  const std::size_t n_reads =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 64;
  const std::size_t shards =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 4;
  const std::size_t workers =
      args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : shards;
  const std::size_t threshold = 4;
  if (n_segments == 0 || n_reads == 0 || shards == 0 || workers == 0) {
    std::fprintf(stderr,
                 "usage: bench_sharded [segments>0] [reads>0] [shards>0] "
                 "[workers>0]\n");
    return 2;
  }

  // One bank of the sharded system holds 1/N of the database; the
  // monolithic reference bank holds all of it.
  AsmcapConfig bank;
  bank.array_rows = 256;
  bank.array_cols = 256;
  const std::size_t per_shard = (n_segments + shards - 1) / shards;
  bank.array_count = (per_shard + bank.array_rows - 1) / bank.array_rows;
  bank.ideal_sensing = true;  // noise-free: decisions comparable bit-for-bit
  AsmcapConfig mono_config = bank;
  mono_config.array_count = (n_segments + bank.array_rows - 1) /
                            bank.array_rows;

  Rng rng(0x5AA2'DED1);
  const Sequence reference =
      generate_reference(256 * (n_segments + 2), {}, rng);
  auto segments = segment_reference(reference, 256);
  segments.resize(n_segments);

  ReadSimConfig sim_config;
  sim_config.read_length = 256;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator simulator(reference, sim_config);
  std::vector<Sequence> reads;
  reads.reserve(n_reads);
  for (std::size_t i = 0; i < n_reads; ++i)
    reads.push_back(
        simulator.simulate_at(rng.below(n_segments) * 256, rng).read);

  std::printf(
      "workload: %zu reads (one at a time) x %zu segments, T=%zu, circuit "
      "backend, %zu shards x %zu arrays, %zu workers (%zu hardware)\n\n",
      n_reads, n_segments, threshold, shards, bank.array_count, workers,
      ThreadPool::hardware_workers());

  // --- Monolithic bank (1-shard router): reads scan all arrays serially. -
  ShardedAccelerator mono(mono_config, 1);
  mono.load_reference(segments);
  mono.set_error_profile(sim_config.rates);
  const auto mono_start = Clock::now();
  std::vector<QueryResult> mono_results;
  mono_results.reserve(n_reads);
  for (const Sequence& read : reads)
    mono_results.push_back(mono.search(read, threshold, StrategyMode::Full));
  const double mono_seconds = seconds_since(mono_start);

  // --- Sharded router: each read fans across the banks. -------------------
  ShardedAccelerator sharded(bank, shards);
  sharded.load_reference(segments);
  sharded.set_error_profile(sim_config.rates);
  const auto sharded_start = Clock::now();
  std::vector<QueryResult> sharded_results;
  sharded_results.reserve(n_reads);
  for (const Sequence& read : reads)
    sharded_results.push_back(
        sharded.search(read, threshold, StrategyMode::Full, workers));
  const double sharded_seconds = seconds_since(sharded_start);

  // --- Pruned router: sketch probe skips banks that cannot match. ---------
  // Same database, same read stream; decisions must be bit-identical to
  // the full fan-out (the sketch is false-negative-free), so this arm
  // doubles as the pruning correctness gate.
  AsmcapConfig pruned_bank = bank;
  pruned_bank.pruning.enabled = true;
  ShardedAccelerator pruned(pruned_bank, shards);
  pruned.load_reference(segments);
  pruned.set_error_profile(sim_config.rates);
  const auto pruned_start = Clock::now();
  std::vector<QueryResult> pruned_results;
  pruned_results.reserve(n_reads);
  for (const Sequence& read : reads)
    pruned_results.push_back(
        pruned.search(read, threshold, StrategyMode::Full, workers));
  const double pruned_seconds = seconds_since(pruned_start);

  // --- Correctness: shard-invariant decisions, re-based indices. ----------
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < n_reads; ++i)
    if (sharded_results[i].decisions != mono_results[i].decisions ||
        sharded_results[i].matched_segments != mono_results[i].matched_segments)
      ++divergent;
  std::size_t prune_divergent = 0;
  for (std::size_t i = 0; i < n_reads; ++i)
    if (pruned_results[i].decisions != sharded_results[i].decisions ||
        pruned_results[i].matched_segments !=
            sharded_results[i].matched_segments)
      ++prune_divergent;

  const ExecutionTotals& pruned_totals = pruned.totals();
  const std::size_t probes =
      pruned_totals.banks_probed + pruned_totals.banks_pruned;
  const double prune_rate =
      probes == 0 ? 0.0
                  : static_cast<double>(pruned_totals.banks_pruned) /
                        static_cast<double>(probes);
  const double sharded_energy = sharded.totals().energy_joules;
  const double pruned_energy_savings =
      sharded_energy <= 0.0
          ? 0.0
          : (sharded_energy - pruned_totals.energy_joules) / sharded_energy;

  const double speedup = mono_seconds / sharded_seconds;
  Table table({"layout", "wall time", "reads/s", "per read"});
  table.new_row()
      .add_cell("monolithic bank, serial scan")
      .add_cell(format_si(mono_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / mono_seconds, ""))
      .add_cell(format_si(mono_seconds / static_cast<double>(n_reads), "s"));
  table.new_row()
      .add_cell("sharded router, fanned banks")
      .add_cell(format_si(sharded_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / sharded_seconds, ""))
      .add_cell(
          format_si(sharded_seconds / static_cast<double>(n_reads), "s"));
  table.new_row()
      .add_cell("sharded router, sketch-pruned")
      .add_cell(format_si(pruned_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / pruned_seconds, ""))
      .add_cell(
          format_si(pruned_seconds / static_cast<double>(n_reads), "s"));
  table.print(std::cout);

  const double pruned_speedup = mono_seconds / pruned_seconds;
  std::printf("\nspeedup: %.1fx, decisions identical on %zu/%zu reads\n",
              speedup, n_reads - divergent, n_reads);
  std::printf(
      "pruned:  %.1fx, decisions identical on %zu/%zu reads, prune rate "
      "%.0f%% (%zu/%zu bank probes skipped), energy saved %.0f%%\n",
      pruned_speedup, n_reads - prune_divergent, n_reads, 100.0 * prune_rate,
      pruned_totals.banks_pruned, probes, 100.0 * pruned_energy_savings);

  // The parallel-speedup claim needs both the fan-out width and the cores
  // to exist: enforce it only for >= 4 shards, >= 4 workers, and hardware
  // that can run the fan-out concurrently — fewer shards cannot reach 2x
  // even ideally (CI smoke runs use fewer workers and only exercise the
  // router for correctness under the sanitizers).
  const bool enforce_floor = shards >= 4 && workers >= 4 &&
                             ThreadPool::hardware_workers() >= shards;

  // The pruning-speedup claim is only meaningful once the database is wide
  // enough for most banks to be skippable: enforce the pruned 2x floor at
  // >= 8 shards (with the same worker/core carve-out as above).
  const bool enforce_pruned_floor = shards >= 8 && workers >= 4 &&
                                    ThreadPool::hardware_workers() >= shards;

  if (!json_path.empty()) {
    // Digests of the full fan-out and the pruned run are computed (and
    // gated) separately: baseline.json pins one digest value, and the
    // pruned arm must reproduce it bit-for-bit.
    DecisionDigest digest;
    for (const QueryResult& result : sharded_results)
      for (const bool decision : result.decisions) digest.add(decision);
    DecisionDigest pruned_digest;
    for (const QueryResult& result : pruned_results)
      for (const bool decision : result.decisions) pruned_digest.add(decision);
    BenchReport report;
    report.bench = "bench_sharded";
    report.kernel_tier = to_string(active_kernel_tier());
    report.hardware_threads = ThreadPool::hardware_workers();
    report.workload = {{"segments", static_cast<double>(n_segments)},
                       {"reads", static_cast<double>(n_reads)},
                       {"shards", static_cast<double>(shards)},
                       {"workers", static_cast<double>(workers)},
                       {"threshold", static_cast<double>(threshold)}};
    report.timings = {{"monolithic-serial-scan", mono_seconds,
                       static_cast<double>(n_reads) / mono_seconds},
                      {"sharded-router", sharded_seconds,
                       static_cast<double>(n_reads) / sharded_seconds},
                      {"sharded-router-pruned", pruned_seconds,
                       static_cast<double>(n_reads) / pruned_seconds}};
    report.metrics = {
        {"prune_rate", prune_rate},
        {"pruned_energy_savings", pruned_energy_savings},
        {"pruned_speedup", pruned_speedup},
        {"pruned_digest_matches",
         pruned_digest.value() == digest.value() ? 1.0 : 0.0}};
    report.speedup = speedup;
    report.decision_digest = digest.value();
    report.floor_enforced = enforce_floor;
    write_bench_json(json_path, report);
  }

  if (divergent != 0) {
    std::fprintf(stderr, "FAIL: %zu reads diverged between layouts\n",
                 divergent);
    return 1;
  }
  if (prune_divergent != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu reads diverged between pruned and full "
                 "fan-out\n",
                 prune_divergent);
    return 1;
  }
  if (enforce_floor) {
    if (speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: sharded speedup %.2fx below the 2x floor\n",
                   speedup);
      return 1;
    }
  } else {
    std::printf(
        "(speedup floor not enforced: %zu workers requested, %zu hardware "
        "threads)\n",
        workers, ThreadPool::hardware_workers());
  }
  if (enforce_pruned_floor && pruned_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: pruned speedup %.2fx below the 2x floor\n",
                 pruned_speedup);
    return 1;
  }
  return 0;
}
