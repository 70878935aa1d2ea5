// Quickstart: build a synthetic reference, load it into an ASMCap
// accelerator, and search a noisy read with the full HDAC + TASR pipeline.
//
//   ./quickstart [seed]
//
// Walks through the whole public API: reference generation, segmentation,
// read simulation, accelerator configuration, search, and the returned
// latency/energy accounting.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace asmcap;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1234;
  Rng rng(seed);

  // 1. A synthetic reference genome (drop in read_fasta_file() for real data).
  const Sequence reference = generate_reference(256 * 130, {}, rng);
  auto segments = segment_reference(reference, 256);
  segments.resize(128);
  std::printf("Reference: %zu bases -> %zu stored segments of 256 bases\n",
              reference.size(), segments.size());

  // 2. Configure and load the accelerator (one 256x256 array suffices here).
  //    A single bank is a 1-shard router: the same controller that spreads
  //    larger databases over many banks.
  AsmcapConfig config;
  config.array_count = 1;
  config.array_rows = 128;
  ShardedAccelerator accel(config, 1);
  accel.load_reference(segments);
  accel.set_error_profile(ErrorRates::condition_a());

  // 3. Simulate a sequencer read from a known location with Condition-A
  //    errors (1 % substitutions, 0.05 % insertions/deletions).
  ReadSimConfig sim_config;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator simulator(reference, sim_config);
  const std::size_t true_segment = 42;
  const SimulatedRead read = simulator.simulate_at(true_segment * 256, rng);
  std::printf(
      "Read from segment %zu with %zu substitutions, %zu insertions, %zu "
      "deletions\n",
      true_segment, read.substitutions, read.insertions, read.deletions);

  // 4. Search at a few thresholds with and without the correction
  //    strategies.
  Table table({"T", "mode", "matches", "hit true segment", "latency",
               "energy"});
  for (const std::size_t threshold : {2, 4, 8}) {
    for (const StrategyMode mode :
         {StrategyMode::Baseline, StrategyMode::Full}) {
      const QueryResult result = accel.search(read.read, threshold, mode);
      bool hit = false;
      for (const std::size_t segment : result.matched_segments)
        hit = hit || segment == true_segment;
      table.new_row()
          .add_cell(threshold)
          .add_cell(to_string(mode))
          .add_cell(result.matched_segments.size())
          .add_cell(hit ? "yes" : "no")
          .add_cell(format_si(result.latency_seconds, "s"))
          .add_cell(format_si(result.energy_joules, "J"));
    }
  }
  table.print(std::cout);

  // 5. The same searches through the execution engine's fast path: the
  //    Functional kind senses ideally, deciding every row from its
  //    word-parallel kernel count with no silicon to settle, and
  //    search_batch fans a whole flow cell of reads across a worker pool
  //    with per-read RNG forking.
  accel.set_backend(BackendKind::Functional);
  std::vector<Sequence> batch(16, read.read);
  const std::vector<QueryResult> batch_results =
      accel.search_batch(batch, 4, StrategyMode::Full, /*workers=*/4);
  std::size_t batch_hits = 0;
  for (const QueryResult& r : batch_results)
    for (const std::size_t segment : r.matched_segments)
      batch_hits += segment == true_segment ? 1u : 0u;
  std::printf(
      "\nBatched on the %s backend: %zu reads, true segment hit %zu times\n",
      to_string(accel.backend_kind()), batch.size(), batch_hits);

  const ExecutionTotals& totals = accel.totals();
  std::printf(
      "Totals: %zu queries, %zu array searches, %s total search latency\n",
      totals.queries, totals.searches,
      format_si(totals.latency_seconds, "s").c_str());
  return 0;
}
