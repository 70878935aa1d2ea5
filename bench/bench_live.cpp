// Live-database benchmark (plain chrono, no external deps): mutation
// throughput and search behaviour of the epoch-snapshotted router.
//
//   ./bench_live [segments] [reads] [shards] [workers]
//
// Five timed arms:
//   * frozen    — the classic one-shot load + read stream (the reference
//                 timing);
//   * build     — the same database grown live: half loaded, half
//                 appended in chunks through the copy-on-write epoch path
//                 (reports appends/s);
//   * grown     — the read stream again on the grown database;
//   * churn     — the read stream again, now with a scratch block deleted
//                 and re-appended between every read (search-under-
//                 mutation overhead);
//   * retire    — a bulk tombstone pass over a quarter of the database
//                 (reports deletes/s), then one compact() call, timed
//                 alone: the epoch-boundary pause a live deployment
//                 would schedule.
//
// Exits 2 on a bad argument, and 1 when a timing bound is missed: the
// grown read stream must take 0.2-10x the frozen one's time, the churned
// one 0.2-20x, and the compaction pause at most 2 s. Decisions are not
// checked here: tests/test_workload_pins.cpp pins this workload's
// (`bench_live 1024 16 4 2`) and checks that the grown and churned
// databases decide as the frozen one does.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "genome/reference.h"
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
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::size_t n_segments =
      args.size() > 0 ? std::strtoull(args[0].c_str(), nullptr, 10) : 2048;
  const std::size_t n_reads =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 32;
  const std::size_t shards =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 4;
  const std::size_t workers =
      args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : 2;
  const std::size_t threshold = 4;
  if (n_segments < 16 || n_reads == 0 || shards == 0 || workers == 0) {
    std::fprintf(stderr,
                 "usage: bench_live [segments>=16] [reads>0] [shards>0] "
                 "[workers>0]\n");
    return 2;
  }

  // Bank geometry leaves headroom above the frozen database: the churn
  // arm keeps a scratch block in flight and the live build stages appends
  // in the hot bank before folding them cold.
  AsmcapConfig bank;
  bank.array_rows = 256;
  bank.array_cols = 256;
  const std::size_t per_shard = (n_segments + shards - 1) / shards;
  bank.array_count =
      (per_shard + bank.array_rows - 1) / bank.array_rows + 1;
  bank.ideal_sensing = true;

  Rng rng(0x11FE'DB01);
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
      "workload: %zu reads x %zu segments, T=%zu, circuit backend, "
      "%zu shards x %zu arrays, %zu workers (%zu hardware)\n\n",
      n_reads, n_segments, threshold, shards, bank.array_count, workers,
      ThreadPool::hardware_workers());

  // --- Frozen arm: one-shot load, then the read stream. -------------------
  ShardedAccelerator frozen(bank, shards);
  frozen.load_reference(segments);
  frozen.set_error_profile(sim_config.rates);
  const auto frozen_start = Clock::now();
  for (const Sequence& read : reads)
    frozen.search(read, threshold, StrategyMode::Full, workers);
  const double frozen_seconds = seconds_since(frozen_start);

  // --- Build arm: grow the same database live, then stream the reads. -----
  ShardedAccelerator live(bank, shards);
  live.set_error_profile(sim_config.rates);
  const std::size_t half = n_segments / 2;
  live.load_reference(
      std::vector<Sequence>(segments.begin(), segments.begin() + half));
  const std::size_t chunk = 64;
  const auto append_start = Clock::now();
  for (std::size_t i = half; i < n_segments; i += chunk) {
    const std::size_t end = std::min(i + chunk, n_segments);
    live.append_segments(
        std::vector<Sequence>(segments.begin() + i, segments.begin() + end));
  }
  live.compact();
  const double append_seconds = seconds_since(append_start);
  const double appends_per_second =
      static_cast<double>(n_segments - half) / append_seconds;

  const auto grown_start = Clock::now();
  for (const Sequence& read : reads)
    live.search(read, threshold, StrategyMode::Full, workers);
  const double grown_seconds = seconds_since(grown_start);

  // --- Churn arm: reads interleaved with delete + re-append pairs. --------
  // A fresh router holding the same database, plus a scratch block beyond
  // the frozen id range; every read is bracketed by tombstoning the
  // previous block and staging a fresh one, so each search crosses an
  // epoch boundary published just before it.
  ShardedAccelerator churny(bank, shards);
  churny.load_reference(segments);
  churny.set_error_profile(sim_config.rates);
  std::vector<Sequence> scratch(segments.begin(), segments.begin() + 8);
  std::vector<std::uint64_t> scratch_ids = churny.append_segments(scratch);
  const auto churn_start = Clock::now();
  for (const Sequence& read : reads) {
    churny.remove_segments(scratch_ids);
    scratch_ids = churny.append_segments(scratch);
    churny.search(read, threshold, StrategyMode::Full, workers);
  }
  const double churn_seconds = seconds_since(churn_start);

  // --- Retire arm: bulk tombstones, then the compaction pause. ------------
  std::vector<std::uint64_t> retire_ids;
  for (std::size_t i = 0; i < n_segments / 4; ++i)
    retire_ids.push_back(static_cast<std::uint64_t>(4 * i));  // Spread out.
  const auto retire_start = Clock::now();
  const std::size_t delete_chunk = 64;
  for (std::size_t i = 0; i < retire_ids.size(); i += delete_chunk) {
    const std::size_t end = std::min(i + delete_chunk, retire_ids.size());
    churny.remove_segments(std::vector<std::uint64_t>(
        retire_ids.begin() + i, retire_ids.begin() + end));
  }
  const double retire_seconds = seconds_since(retire_start);
  const double deletes_per_second =
      static_cast<double>(retire_ids.size()) / retire_seconds;
  const auto compact_start = Clock::now();
  churny.compact();
  const double compact_seconds = seconds_since(compact_start);

  const double grown_overhead = grown_seconds / frozen_seconds;
  const double churn_overhead = churn_seconds / frozen_seconds;

  Table table({"arm", "wall time", "rate"});
  table.new_row()
      .add_cell("frozen load + read stream")
      .add_cell(format_si(frozen_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / frozen_seconds,
                          " reads/s"));
  table.new_row()
      .add_cell("live build (append + fold)")
      .add_cell(format_si(append_seconds, "s"))
      .add_cell(format_si(appends_per_second, " appends/s"));
  table.new_row()
      .add_cell("read stream on grown db")
      .add_cell(format_si(grown_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / grown_seconds,
                          " reads/s"));
  table.new_row()
      .add_cell("read stream under churn")
      .add_cell(format_si(churn_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / churn_seconds,
                          " reads/s"));
  table.new_row()
      .add_cell("bulk tombstone pass")
      .add_cell(format_si(retire_seconds, "s"))
      .add_cell(format_si(deletes_per_second, " deletes/s"));
  table.new_row()
      .add_cell("compaction pause")
      .add_cell(format_si(compact_seconds, "s"))
      .add_cell("-");
  table.print(std::cout);

  std::printf("\ngrown-db search overhead %.2fx, churn overhead %.2fx\n",
              grown_overhead, churn_overhead);

  if (grown_overhead < 0.2 || grown_overhead > 10.0) {
    std::fprintf(stderr,
                 "FAIL: grown-db search overhead %.2fx outside [0.2, 10]\n",
                 grown_overhead);
    return 1;
  }
  if (churn_overhead < 0.2 || churn_overhead > 20.0) {
    std::fprintf(stderr,
                 "FAIL: churn overhead %.2fx outside [0.2, 20]\n",
                 churn_overhead);
    return 1;
  }
  if (compact_seconds > 2.0) {
    std::fprintf(stderr, "FAIL: compaction pause %.3f s above 2 s\n",
                 compact_seconds);
    return 1;
  }
  return 0;
}
