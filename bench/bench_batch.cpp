// Batched execution-engine benchmark (plain chrono, no external deps):
// compares a single-read loop of Circuit-kind search() calls against a
// Functional-kind batch over the same workload and verifies that the
// match decisions are identical (on this ideal-sensing workload both
// kinds run the same charge-domain pass; test_engine enforces it on every
// run, this driver demonstrates it at scale). Every ASMCap arm runs a
// 1-shard router: the single-read loop calls search(), and the batch arms
// call search_batch(), which submits the reads to SearchService and pays
// its per-read admission, planning and merge. The EDAM arm does the same
// for the comparator on its one backend: serial search() calls vs
// search_batch, with a decision-digest equality assertion (EDAM's
// content-keyed query streams make serial and batched execution
// bit-identical, test_edam).
// When a SIMD kernel tier is active, a scalar-tier arm reruns the
// functional batch with ASMCAP_KERNEL-style forcing and asserts the
// decision digests are bit-identical across tiers (the kernels' cross-ISA
// contract) while the SIMD tier must clear a 2x throughput floor on
// timeable workloads.
//
//   ./bench_batch [reads] [segments] [workers] [--json <path>]
//
// Exits non-zero if any decisions diverge (across backend kinds, batching, or
// kernel tiers) or the SIMD floor is missed, so it doubles as a check.

#include <chrono>
#include <cstdint>
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
#include "util/bench_json.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace asmcap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a digest over a batch's decision bitmaps: two runs made the same
/// calls iff their digests agree.
template <typename Result>
std::uint64_t decision_digest(const std::vector<Result>& results) {
  DecisionDigest digest;
  for (const Result& result : results)
    for (const bool decision : result.decisions) digest.add(decision);
  return digest.value();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string json_path = take_bench_json_path(args);
  const std::size_t n_reads =
      args.size() > 0 ? std::strtoull(args[0].c_str(), nullptr, 10) : 1000;
  const std::size_t n_segments =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 1024;
  const std::size_t workers =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 4;
  const std::size_t threshold = 4;

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
  const auto circuit_start = Clock::now();
  std::vector<QueryResult> circuit_results;
  circuit_results.reserve(n_reads);
  for (const Sequence& read : reads)
    circuit_results.push_back(circuit.search(read, threshold,
                                             StrategyMode::Full));
  const double circuit_seconds = seconds_since(circuit_start);

  // --- Engine path: a Functional-kind batch across the worker pool. -------
  ShardedAccelerator functional(config, 1);
  functional.set_backend(BackendKind::Functional);
  functional.load_reference(segments);
  functional.set_error_profile(ErrorRates::condition_a());
  const auto batch_start = Clock::now();
  const std::vector<QueryResult> batch_results =
      functional.search_batch(reads, threshold, StrategyMode::Full, workers);
  const double batch_seconds = seconds_since(batch_start);

  // --- Scalar-tier arm: the same functional batch on scalar kernels. ------
  // A fresh router with the same seed forks the exact same per-read
  // streams, so the digests must be bit-identical across kernel tiers (the
  // cross-ISA contract of align/kernels.h); on timeable workloads the SIMD
  // tier must also clear a 2x throughput floor over scalar.
  double scalar_seconds = 0.0;
  std::uint64_t scalar_tier_digest = 0;
  if (tier != KernelTier::Scalar) {
    ShardedAccelerator functional_scalar(config, 1);
    functional_scalar.set_backend(BackendKind::Functional);
    functional_scalar.load_reference(segments);
    functional_scalar.set_error_profile(ErrorRates::condition_a());
    set_active_kernel_tier(KernelTier::Scalar);
    const auto scalar_start = Clock::now();
    const std::vector<QueryResult> scalar_results =
        functional_scalar.search_batch(reads, threshold, StrategyMode::Full,
                                       workers);
    scalar_seconds = seconds_since(scalar_start);
    set_active_kernel_tier(tier);
    scalar_tier_digest = decision_digest(scalar_results);
  }

  // --- Equivalence: identical match decisions on every read. --------------
  // HDAC's probabilistic selection makes a query's outcome depend on its
  // RNG stream, so kind equivalence is checked stream-for-stream: a
  // Circuit-kind batch forks the exact same per-read streams as the
  // Functional batch above (same seed, same epoch) and must reproduce its
  // decisions bit-for-bit.
  ShardedAccelerator circuit_batch(config, 1);
  circuit_batch.load_reference(segments);
  circuit_batch.set_error_profile(ErrorRates::condition_a());
  const std::vector<QueryResult> circuit_batch_results =
      circuit_batch.search_batch(reads, threshold, StrategyMode::Full,
                                 workers);
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < n_reads; ++i)
    if (circuit_batch_results[i].decisions != batch_results[i].decisions)
      ++divergent;

  // --- EDAM arm: the comparator through the same engine. ------------------
  // Serial search() calls (one read at a time) vs one search_batch on the
  // same backend. Content-keyed query streams make the two bit-identical:
  // asserted by digest.
  EdamConfig edam_config;
  edam_config.array_rows = config.array_rows;
  edam_config.array_cols = config.array_cols;
  edam_config.array_count = config.array_count;
  edam_config.ideal_sensing = true;

  EdamAccelerator edam_serial(edam_config);
  edam_serial.load_reference(segments);
  const auto edam_serial_start = Clock::now();
  std::vector<EdamQueryResult> edam_serial_results;
  edam_serial_results.reserve(n_reads);
  for (const Sequence& read : reads)
    edam_serial_results.push_back(edam_serial.search(read, threshold));
  const double edam_serial_seconds = seconds_since(edam_serial_start);

  EdamAccelerator edam_batched(edam_config);
  edam_batched.load_reference(segments);
  const auto edam_batch_start = Clock::now();
  const std::vector<EdamQueryResult> edam_batch_results =
      edam_batched.search_batch(reads, threshold, workers);
  const double edam_batch_seconds = seconds_since(edam_batch_start);

  const std::uint64_t edam_serial_digest =
      decision_digest(edam_serial_results);
  const std::uint64_t edam_batch_digest = decision_digest(edam_batch_results);

  Table table({"path", "wall time", "reads/s", "per read"});
  table.new_row()
      .add_cell("circuit, single-read (seed)")
      .add_cell(format_si(circuit_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / circuit_seconds, ""))
      .add_cell(format_si(circuit_seconds / static_cast<double>(n_reads),
                          "s"));
  table.new_row()
      .add_cell(std::string("functional, batched (") + to_string(tier) + ")")
      .add_cell(format_si(batch_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / batch_seconds, ""))
      .add_cell(format_si(batch_seconds / static_cast<double>(n_reads), "s"));
  if (tier != KernelTier::Scalar)
    table.new_row()
        .add_cell("functional, batched (scalar tier)")
        .add_cell(format_si(scalar_seconds, "s"))
        .add_cell(
            format_si(static_cast<double>(n_reads) / scalar_seconds, ""))
        .add_cell(
            format_si(scalar_seconds / static_cast<double>(n_reads), "s"));
  table.new_row()
      .add_cell("EDAM, single-read (serial)")
      .add_cell(format_si(edam_serial_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / edam_serial_seconds,
                          ""))
      .add_cell(format_si(edam_serial_seconds / static_cast<double>(n_reads),
                          "s"));
  table.new_row()
      .add_cell("EDAM, batched")
      .add_cell(format_si(edam_batch_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / edam_batch_seconds,
                          ""))
      .add_cell(format_si(edam_batch_seconds / static_cast<double>(n_reads),
                          "s"));
  table.print(std::cout);

  const std::uint64_t batch_digest = decision_digest(batch_results);
  const double engine_speedup = circuit_seconds / batch_seconds;
  const double simd_speedup =
      tier != KernelTier::Scalar ? scalar_seconds / batch_seconds : 1.0;
  std::printf("\nspeedup: %.1fx, decisions identical on %zu/%zu reads\n",
              engine_speedup, n_reads - divergent, n_reads);
  if (tier != KernelTier::Scalar)
    std::printf(
        "SIMD speedup (%s vs scalar tier): %.1fx, decision digest %016llx "
        "%s across tiers\n",
        to_string(tier), simd_speedup,
        static_cast<unsigned long long>(batch_digest),
        batch_digest == scalar_tier_digest ? "identical" : "DIVERGED");
  std::printf(
      "EDAM speedup: %.1fx, decision digest %016llx (serial) %s (batched)\n",
      edam_serial_seconds / edam_batch_seconds,
      static_cast<unsigned long long>(edam_serial_digest),
      edam_serial_digest == edam_batch_digest ? "==" : "!=");

  // The SIMD throughput floor needs a timeable workload and a machine that
  // is not a single busy core (mirroring bench_sharded's carve-out);
  // digest equality across tiers is enforced unconditionally.
  const bool enforce_simd_floor = tier != KernelTier::Scalar &&
                                  n_reads >= 100 &&
                                  ThreadPool::hardware_workers() >= 2;

  if (!json_path.empty()) {
    DecisionDigest combined;
    combined.add_u64(batch_digest);
    combined.add_u64(edam_batch_digest);
    BenchReport report;
    report.bench = "bench_batch";
    report.kernel_tier = to_string(tier);
    report.hardware_threads = ThreadPool::hardware_workers();
    report.workload = {{"reads", static_cast<double>(n_reads)},
                       {"segments", static_cast<double>(n_segments)},
                       {"workers", static_cast<double>(workers)},
                       {"threshold", static_cast<double>(threshold)}};
    report.timings = {
        {"circuit-single-read", circuit_seconds,
         static_cast<double>(n_reads) / circuit_seconds},
        {"functional-batched", batch_seconds,
         static_cast<double>(n_reads) / batch_seconds},
        {"edam-serial", edam_serial_seconds,
         static_cast<double>(n_reads) / edam_serial_seconds},
        {"edam-batched", edam_batch_seconds,
         static_cast<double>(n_reads) / edam_batch_seconds}};
    if (tier != KernelTier::Scalar)
      report.timings.push_back({"functional-batched-scalar-tier",
                                scalar_seconds,
                                static_cast<double>(n_reads) / scalar_seconds});
    report.metrics = {
        {"edam_speedup", edam_serial_seconds / edam_batch_seconds},
        {"simd_speedup", simd_speedup}};
    report.speedup = engine_speedup;
    report.decision_digest = combined.value();
    report.floor_enforced = enforce_simd_floor;
    write_bench_json(json_path, report);
  }

  if (divergent != 0) {
    std::fprintf(stderr, "FAIL: %zu reads diverged\n", divergent);
    return 1;
  }
  if (edam_serial_digest != edam_batch_digest) {
    std::fprintf(stderr, "FAIL: EDAM serial/batched decision digests diverged\n");
    return 1;
  }
  if (tier != KernelTier::Scalar && batch_digest != scalar_tier_digest) {
    std::fprintf(stderr,
                 "FAIL: decision digests diverged between %s and scalar "
                 "kernel tiers\n",
                 to_string(tier));
    return 1;
  }
  if (enforce_simd_floor && simd_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: %s kernel tier speedup %.2fx below the 2x floor\n",
                 to_string(tier), simd_speedup);
    return 1;
  }
  if (tier != KernelTier::Scalar && !enforce_simd_floor)
    std::printf(
        "(SIMD floor not enforced: %zu reads, %zu hardware threads)\n",
        n_reads, ThreadPool::hardware_workers());
  return 0;
}
