// Batched execution-engine benchmark (plain chrono, no external deps):
// times a single-read loop of Circuit-kind search() calls against a
// Functional-kind batch over the same workload (on this ideal-sensing
// workload both kinds run the same charge-domain pass). Every ASMCap arm
// runs a 1-shard router: the single-read loop calls search(), and the
// batch arms call search_batch(), which submits the reads to SearchService
// and pays its per-read admission, planning and merge. The EDAM arm times
// the comparator the same way: serial search() calls vs search_batch. When
// a SIMD kernel tier is active, a scalar-tier arm reruns the functional
// batch on the scalar kernels. The single-read loop and the batch arms
// each report the median of 5 repetitions on one router, so that one
// slow repetition on a busy host cannot decide a floor.
//
//   ./bench_batch [reads] [segments] [workers]
//
// Exits 2 on a zero argument, and 1 when a timing floor is missed:
//   * the SIMD tier's batch must run >= 2x faster than the scalar tier's
//     (enforced with >= 100 reads and >= 2 hardware threads);
//   * the batch must run at >= 0.6x the single-read loop's speed
//     (enforced with >= 2 hardware threads).
// Decisions are not checked here: tests/test_workload_pins.cpp pins this
// workload's (`bench_batch 200 512 4`) on every kernel tier.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "align/kernels.h"
#include "asmcap/edam.h"
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

/// The median wall time of 5 calls of `run`.
template <typename Run>
double median_seconds(Run run) {
  std::array<double, 5> seconds{};
  for (double& s : seconds) {
    const auto start = Clock::now();
    run();
    s = seconds_since(start);
  }
  std::nth_element(seconds.begin(), seconds.begin() + 2, seconds.end());
  return seconds[2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::size_t n_reads =
      args.size() > 0 ? std::strtoull(args[0].c_str(), nullptr, 10) : 1000;
  const std::size_t n_segments =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 1024;
  const std::size_t workers =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 4;
  const std::size_t threshold = 4;
  if (n_reads == 0 || n_segments == 0 || workers == 0) {
    std::fprintf(stderr,
                 "usage: bench_batch [reads>0] [segments>0] [workers>0]\n");
    return 2;
  }

  AsmcapConfig config;
  config.array_rows = 256;
  config.array_cols = 256;
  config.array_count = (n_segments + config.array_rows - 1) / config.array_rows;
  config.ideal_sensing = true;

  Rng rng(0xBA7C'BE4C);
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

  const KernelTier tier = active_kernel_tier();
  std::printf(
      "workload: %zu reads x %zu segments (%zu arrays), T=%zu, full "
      "HDAC+TASR, %zu workers (%zu hardware), %s kernels\n\n",
      n_reads, n_segments, config.array_count, threshold, workers,
      ThreadPool::hardware_workers(), to_string(tier));

  // --- Single-read loop: one read at a time, Circuit kind. ---------------
  ShardedAccelerator circuit(config, 1);
  circuit.load_reference(segments);
  circuit.set_error_profile(ErrorRates::condition_a());
  const double circuit_seconds = median_seconds([&] {
    for (const Sequence& read : reads)
      circuit.search(read, threshold, StrategyMode::Full);
  });

  // --- Engine path: a Functional-kind batch across the worker pool. -------
  // The scalar-tier arm reruns it on a fresh router with the scalar
  // kernels forced. The router's session pool is built before the clock
  // starts, so the arm times the batch, not spawning the pool's threads.
  const auto time_functional_batch = [&] {
    ShardedAccelerator functional(config, 1);
    functional.set_backend(BackendKind::Functional);
    functional.load_reference(segments);
    functional.set_error_profile(ErrorRates::condition_a());
    functional.worker_pool(workers);
    return median_seconds([&] {
      functional.search_batch(reads, threshold, StrategyMode::Full, workers);
    });
  };
  const double batch_seconds = time_functional_batch();
  double scalar_seconds = 0.0;
  if (tier != KernelTier::Scalar) {
    set_active_kernel_tier(KernelTier::Scalar);
    scalar_seconds = time_functional_batch();
    set_active_kernel_tier(tier);
  }

  // --- EDAM arm: the comparator through the same engine. ------------------
  EdamConfig edam_config;
  edam_config.array_rows = config.array_rows;
  edam_config.array_cols = config.array_cols;
  edam_config.array_count = config.array_count;
  edam_config.ideal_sensing = true;

  EdamAccelerator edam_serial(edam_config);
  edam_serial.load_reference(segments);
  const auto edam_serial_start = Clock::now();
  for (const Sequence& read : reads) edam_serial.search(read, threshold);
  const double edam_serial_seconds = seconds_since(edam_serial_start);

  EdamAccelerator edam_batched(edam_config);
  edam_batched.load_reference(segments);
  const auto edam_batch_start = Clock::now();
  edam_batched.search_batch(reads, threshold, workers);
  const double edam_batch_seconds = seconds_since(edam_batch_start);

  Table table({"path", "wall time", "reads/s", "per read"});
  const auto add_row = [&](const std::string& path, double seconds) {
    table.new_row()
        .add_cell(path)
        .add_cell(format_si(seconds, "s"))
        .add_cell(format_si(static_cast<double>(n_reads) / seconds, ""))
        .add_cell(format_si(seconds / static_cast<double>(n_reads), "s"));
  };
  add_row("circuit, single-read (seed)", circuit_seconds);
  add_row(std::string("functional, batched (") + to_string(tier) + ")",
          batch_seconds);
  if (tier != KernelTier::Scalar)
    add_row("functional, batched (scalar tier)", scalar_seconds);
  add_row("EDAM, single-read (serial)", edam_serial_seconds);
  add_row("EDAM, batched", edam_batch_seconds);
  table.print(std::cout);

  const double engine_speedup = circuit_seconds / batch_seconds;
  const double simd_speedup = scalar_seconds / batch_seconds;
  std::printf("\nbatch speedup over the single-read loop: %.2fx\n",
              engine_speedup);
  if (tier != KernelTier::Scalar)
    std::printf("SIMD speedup (%s vs scalar tier): %.1fx\n", to_string(tier),
                simd_speedup);
  std::printf("EDAM batch speedup: %.1fx\n",
              edam_serial_seconds / edam_batch_seconds);

  // The floors need a machine that is not a single busy core, and the SIMD
  // floor a workload long enough to time.
  const bool enough_threads = ThreadPool::hardware_workers() >= 2;
  const bool enforce_simd_floor =
      tier != KernelTier::Scalar && n_reads >= 100 && enough_threads;
  if (enforce_simd_floor && simd_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: %s kernel tier speedup %.2fx below the 2x floor\n",
                 to_string(tier), simd_speedup);
    return 1;
  }
  // 0.6 = a 3x expectation less an 80 % tolerance for host noise.
  if (enough_threads && engine_speedup < 0.6) {
    std::fprintf(stderr,
                 "FAIL: batch speedup %.2fx below the 0.6x floor\n",
                 engine_speedup);
    return 1;
  }
  if (!enough_threads || (tier != KernelTier::Scalar && !enforce_simd_floor))
    std::printf("(floors not all enforced: %zu reads, %zu hardware threads)\n",
                n_reads, ThreadPool::hardware_workers());
  return 0;
}
