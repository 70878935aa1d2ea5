// Streaming-service benchmark (plain chrono, no external deps): the
// service-deployment shape — a producer simulating/ingesting reads while
// the accelerator executes earlier ones. The synchronous pipeline
// alternates strictly (simulate chunk, then search_batch it); the
// streaming pipeline submits each chunk to the SearchService and
// immediately starts simulating the next one, so production and execution
// run concurrently and the wall clock approaches max(produce, execute)
// instead of produce + execute.
//
// A third, mixed-traffic arm models the production tier: a bulk
// re-analysis batch with a small interactive request arriving right
// behind it. The FIFO sub-arm makes the latecomer wait for the whole
// bulk run (head-of-line blocking); the prioritized sub-arm submits both
// concurrently with ServiceClass::Bulk vs ::Interactive, letting the
// fair-share scheduler and the pool's priority queues pull the
// interactive reads ahead. Completion latency is measured from the
// interactive ARRIVAL, the same instant in both sub-arms.
//
//   ./bench_service [reads] [segments] [chunk] [workers] [shards] [floor]
//
// Exits 2 on a zero argument, and 1 when a timing floor is missed:
//   * the interactive request's p99 completion latency under FIFO
//     service must be >= 1.2x its p99 under prioritized service (always
//     enforced);
//   * the streaming pipeline must beat the synchronous one by >= 1.15x
//     (enforced when floor != 0, the default, AND the machine can overlap
//     producer and consumer: workers >= 2 and >= workers + 1 hardware
//     threads). CI passes floor = 0: shared-runner timing at this scale
//     is too noisy for the overlap floor.
// Decisions are not checked here: tests/test_workload_pins.cpp pins this
// workload's (`bench_service 192 512 32 2 2 0`), the sync/streaming and
// FIFO/prioritized equalities and every ticket's admission window.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/clock.h"
#include "util/stats.h"
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
  const std::size_t n_reads =
      args.size() > 0 ? std::strtoull(args[0].c_str(), nullptr, 10) : 384;
  const std::size_t n_segments =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 1024;
  const std::size_t chunk =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 48;
  const std::size_t workers =
      args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : 4;
  const std::size_t shards =
      args.size() > 4 ? std::strtoull(args[4].c_str(), nullptr, 10) : 2;
  const bool enforce_floor =
      args.size() > 5 ? std::strtoull(args[5].c_str(), nullptr, 10) != 0
                      : true;
  const std::size_t threshold = 4;
  if (n_reads == 0 || n_segments == 0 || chunk == 0 || workers == 0 ||
      shards == 0) {
    std::fprintf(stderr,
                 "usage: bench_service [reads>0] [segments>0] [chunk>0] "
                 "[workers>0] [shards>0] [floor 0|1]\n");
    return 2;
  }

  AsmcapConfig bank;
  bank.array_rows = 128;
  bank.array_cols = 128;
  const std::size_t per_shard = (n_segments + shards - 1) / shards;
  bank.array_count = (per_shard + bank.array_rows - 1) / bank.array_rows;
  bank.ideal_sensing = true;

  Rng rng(0x5E47'1CE5);
  const Sequence reference =
      generate_reference(bank.array_cols * (n_segments + 2), {}, rng);
  auto segments = segment_reference(reference, bank.array_cols);
  segments.resize(n_segments);

  ReadSimConfig sim_config;
  sim_config.read_length = bank.array_cols;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator simulator(reference, sim_config);
  const std::size_t n_chunks = (n_reads + chunk - 1) / chunk;

  // The producer: simulating a chunk of reads is the "ingest" cost a
  // service pays per request batch (wire decode, quality filtering, ...).
  // Both pipelines pay it per chunk, with identical chunking and an
  // identical deterministic read stream.
  const auto produce = [&](std::size_t c, Rng& read_rng) {
    std::vector<Sequence> reads;
    const std::size_t first = c * chunk;
    reads.reserve(std::min(chunk, n_reads - first));
    for (std::size_t i = first; i < std::min(first + chunk, n_reads); ++i)
      reads.push_back(
          simulator
              .simulate_at(read_rng.below(n_segments) * bank.array_cols,
                           read_rng)
              .read);
    return reads;
  };

  std::printf(
      "workload: %zu reads in %zu-read chunks x %zu segments, T=%zu, "
      "circuit backend, %zu shards, %zu workers (%zu hardware)\n\n",
      n_reads, chunk, n_segments, threshold, shards, workers,
      ThreadPool::hardware_workers());

  // --- Synchronous pipeline: produce, then execute, strictly. ------------
  ShardedAccelerator sync_accel(bank, shards);
  sync_accel.load_reference(segments);
  sync_accel.set_error_profile(sim_config.rates);
  Rng sync_reads_rng(0xD1'6E57);
  const auto sync_start = Clock::now();
  for (std::size_t c = 0; c < n_chunks; ++c)
    sync_accel.search_batch(produce(c, sync_reads_rng), threshold,
                            StrategyMode::Full, workers);
  const double sync_seconds = seconds_since(sync_start);

  // --- Streaming pipeline: submit chunk c, produce chunk c+1 meanwhile. --
  ShardedAccelerator stream_accel(bank, shards);
  stream_accel.load_reference(segments);
  stream_accel.set_error_profile(sim_config.rates);
  SearchService service(stream_accel);
  std::vector<std::shared_ptr<SearchTicket>> tickets;
  tickets.reserve(n_chunks);
  Rng stream_reads_rng(0xD1'6E57);
  SearchService::Options stream_options;
  stream_options.workers = workers;
  stream_options.keep_results = false;  // results dropped as they merge
  const auto stream_start = Clock::now();
  for (std::size_t c = 0; c < n_chunks; ++c)
    tickets.push_back(service.submit(produce(c, stream_reads_rng), threshold,
                                     StrategyMode::Full, stream_options));
  for (const auto& ticket : tickets) ticket->wait();
  const double stream_seconds = seconds_since(stream_start);

  // --- Mixed-traffic arm: bulk re-analysis vs an interactive latecomer. --
  // Identical read streams for both sub-arms: the bulk batch replays the
  // full workload, the interactive batch continues the same RNG stream
  // for one more chunk. Each sub-arm gets a fresh twin accelerator.
  const std::size_t n_interactive = chunk;
  std::vector<Sequence> bulk_reads;
  std::vector<Sequence> interactive_reads;
  {
    Rng mixed_rng(0xD1'6E57);
    for (std::size_t c = 0; c < n_chunks; ++c)
      for (Sequence& read : produce(c, mixed_rng))
        bulk_reads.push_back(std::move(read));
    for (std::size_t i = 0; i < n_interactive; ++i)
      interactive_reads.push_back(
          simulator
              .simulate_at(mixed_rng.below(n_segments) * bank.array_cols,
                           mixed_rng)
              .read);
  }
  struct MixedArm {
    /// Per-interactive-read completion latency measured from the
    /// interactive ARRIVAL instant (right behind the bulk submission) —
    /// the latency a waiting client actually experiences.
    std::vector<double> interactive_latency;
    double wall_seconds = 0.0;
  };
  const auto run_mixed = [&](bool prioritized) {
    MixedArm arm;
    ShardedAccelerator accel(bank, shards);
    accel.load_reference(segments);
    accel.set_error_profile(sim_config.rates);
    SearchService::Config config;
    config.max_in_flight_reads = 2 * workers;
    SearchService mixed_service(accel, config);
    SearchService::Options options;
    options.workers = workers;
    options.keep_results = false;
    const auto start = Clock::now();
    options.service_class =
        prioritized ? ServiceClass::Bulk : ServiceClass::Normal;
    auto bulk_ticket =
        mixed_service.submit(bulk_reads, threshold, StrategyMode::Full,
                             options);
    // The interactive request arrives NOW, in both sub-arms; only the
    // prioritized one may act on it before the bulk queue drains.
    const double arrival = steady_service_clock().now();
    options.service_class =
        prioritized ? ServiceClass::Interactive : ServiceClass::Normal;
    std::shared_ptr<SearchTicket> interactive_ticket;
    if (prioritized) {
      interactive_ticket = mixed_service.submit(
          interactive_reads, threshold, StrategyMode::Full, options);
      bulk_ticket->wait();
    } else {
      bulk_ticket->wait();  // head-of-line blocking: FIFO serves bulk first
      interactive_ticket = mixed_service.submit(
          interactive_reads, threshold, StrategyMode::Full, options);
    }
    interactive_ticket->wait();
    arm.wall_seconds = seconds_since(start);
    for (const ReadTiming& t : interactive_ticket->read_timings())
      arm.interactive_latency.push_back(t.merged - arrival);
    return arm;
  };
  const MixedArm fifo_arm = run_mixed(false);
  const MixedArm priority_arm = run_mixed(true);

  const double fifo_p99 = percentile_of(fifo_arm.interactive_latency, 0.99);
  const double priority_p99 =
      percentile_of(priority_arm.interactive_latency, 0.99);
  const double interactive_speedup =
      priority_p99 > 0.0 ? fifo_p99 / priority_p99 : 0.0;

  const double speedup = sync_seconds / stream_seconds;
  Table table({"pipeline", "wall time", "reads/s"});
  table.new_row()
      .add_cell("synchronous: produce then execute")
      .add_cell(format_si(sync_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / sync_seconds, ""));
  table.new_row()
      .add_cell("streaming: produce || execute")
      .add_cell(format_si(stream_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / stream_seconds, ""));
  const std::size_t n_mixed = bulk_reads.size() + interactive_reads.size();
  table.new_row()
      .add_cell("mixed traffic: FIFO service")
      .add_cell(format_si(fifo_arm.wall_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_mixed) / fifo_arm.wall_seconds,
                          ""));
  table.new_row()
      .add_cell("mixed traffic: prioritized service")
      .add_cell(format_si(priority_arm.wall_seconds, "s"))
      .add_cell(format_si(
          static_cast<double>(n_mixed) / priority_arm.wall_seconds, ""));
  table.print(std::cout);

  std::printf("\noverlap speedup: %.2fx\n", speedup);
  std::printf(
      "mixed traffic: interactive completion p99 %.2fms FIFO vs %.2fms "
      "prioritized (%.2fx)\n",
      fifo_p99 * 1e3, priority_p99 * 1e3, interactive_speedup);

  if (interactive_speedup < 1.2) {
    std::fprintf(stderr,
                 "FAIL: interactive p99 speedup %.2fx below the 1.2x floor\n",
                 interactive_speedup);
    return 1;
  }
  // The overlap claim needs hardware for both halves: a producer core plus
  // spawned workers (a workers == 1 pool is threadless, so the service
  // degrades to synchronous inline execution by design).
  const bool floor_active = enforce_floor && workers >= 2 &&
                            ThreadPool::hardware_workers() >= workers + 1;
  if (floor_active) {
    if (speedup < 1.15) {
      std::fprintf(stderr,
                   "FAIL: streaming speedup %.2fx below the 1.15x floor\n",
                   speedup);
      return 1;
    }
  } else {
    std::printf(
        "(overlap floor not enforced: floor=%d, %zu workers requested, %zu "
        "hardware threads)\n",
        enforce_floor ? 1 : 0, workers, ThreadPool::hardware_workers());
  }
  return 0;
}
