// Sharded multi-bank database: a multi-genome reference that does NOT fit
// one accelerator bank. A single bank caps the database at
// array_count x array_rows segments; the sharded router partitions the
// rows across independent banks, fans every query across them, and merges
// the per-bank reports back into global segment ids — so the host-side
// logic (organism lookup, verification) never notices the sharding.
//
// Demonstrates: the monolithic capacity failure, the sharded load, routed
// queries with global-id re-basing, and the Fig. 7-style accuracy/energy
// comparison against the Kraken-like exact k-mer classifier with CM-CPU
// as the exact host (run_sharded_comparison).
//
//   ./sharded_database [reads_per_organism] [shards] [workers]

#include <cstdio>
#include <vector>

#include "asmcap/db_error.h"
#include "asmcap/sharded.h"
#include "eval/experiment.h"
#include "genome/readsim.h"
#include "genome/reference.h"

int main(int argc, char** argv) {
  using namespace asmcap;
  const std::size_t reads_per_organism =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20;
  const std::size_t shards =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2;
  const std::size_t workers =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2;

  constexpr std::size_t kOrganisms = 6;
  constexpr std::size_t kRowsPerOrganism = 32;
  constexpr std::size_t kRowLength = 128;

  // Six synthetic organisms with distinct composition, 192 stored rows.
  Rng rng(0x5AADB);
  std::vector<Sequence> genomes;
  std::vector<Sequence> rows;
  std::vector<std::size_t> row_owner;
  for (std::size_t o = 0; o < kOrganisms; ++o) {
    ReferenceModel model;
    model.gc_content = 0.34 + 0.05 * static_cast<double>(o);
    genomes.push_back(
        generate_reference(kRowLength * (kRowsPerOrganism + 2), model, rng));
    auto segments = segment_reference(genomes.back(), kRowLength);
    segments.resize(kRowsPerOrganism);
    for (auto& segment : segments) {
      rows.push_back(std::move(segment));
      row_owner.push_back(o);
    }
  }

  // One bank: 2 arrays x 64 rows = 128 segments — the database (192 rows)
  // does not fit.
  AsmcapConfig bank;
  bank.array_rows = 64;
  bank.array_cols = kRowLength;
  bank.array_count = 2;
  bank.ideal_sensing = true;

  std::printf("database: %zu organisms x %zu rows = %zu segments\n",
              kOrganisms, kRowsPerOrganism, rows.size());
  std::printf("one bank holds %zu segments -> ", bank.capacity_segments());
  try {
    ShardedAccelerator mono(bank, 1);
    mono.load_reference(rows);
    std::printf("unexpectedly fit!\n");
  } catch (const DbError& error) {
    std::printf("monolithic load rejected (%s), as expected\n",
                to_string(error.kind()));
  }

  ShardedAccelerator accel(bank, shards);
  accel.load_reference(rows);
  const ErrorRates rates = ErrorRates::condition_a();
  accel.set_error_profile(rates);
  std::printf("%zu shards hold %zu/%zu segments", shards,
              accel.loaded_segments(), accel.capacity_segments());
  for (std::size_t s = 0; s < accel.active_shards(); ++s)
    std::printf("%s bank %zu: [%zu, %zu)", s == 0 ? " —" : ",", s,
                accel.shard_base(s),
                accel.shard_base(s) + accel.shard_segments(s));
  std::printf("\n\n");

  // A few routed queries: reports arrive under global ids, so the
  // organism lookup is a plain table index.
  ReadSimConfig sim_config;
  sim_config.read_length = kRowLength;
  sim_config.rates = rates;
  for (const std::size_t o : {std::size_t{0}, std::size_t{3}, std::size_t{5}}) {
    const ReadSimulator sim(genomes[o], sim_config);
    const Sequence read =
        sim.simulate_at(rng.below(kRowsPerOrganism) * kRowLength, rng).read;
    const QueryResult result = accel.search(read, 6, StrategyMode::Full,
                                            workers);
    std::printf("read from organism %zu -> %zu candidate row(s)", o,
                result.matched_segments.size());
    if (!result.matched_segments.empty())
      std::printf(", first global id %zu (organism %zu)",
                  result.matched_segments.front(),
                  row_owner[result.matched_segments.front()]);
    std::printf("\n");
  }

  // Fig. 7-style comparison on the full multi-bank database.
  Dataset dataset;
  dataset.rows = rows;
  dataset.rates = rates;
  dataset.name = "sharded multi-genome";
  for (std::size_t o = 0; o < kOrganisms; ++o) {
    const ReadSimulator sim(genomes[o], sim_config);
    for (std::size_t i = 0; i < reads_per_organism; ++i) {
      DatasetQuery query;
      const std::size_t source_row = rng.below(kRowsPerOrganism);
      query.read = sim.simulate_at(source_row * kRowLength, rng).read;
      query.true_row = o * kRowsPerOrganism + source_row;
      dataset.queries.push_back(query);
    }
  }

  ShardedComparisonConfig comparison;
  comparison.bank = bank;
  comparison.shards = shards;
  comparison.threshold = 6;
  comparison.workers = workers;
  const ShardedComparisonResult result =
      run_sharded_comparison(comparison, dataset);

  std::printf("\naccuracy vs the exact host (CM-CPU gold standard):\n");
  std::printf("  ASMCap (sharded filter)  F1 = %.3f\n", result.asmcap_f1);
  std::printf("  EDAM (batched, engine)   F1 = %.3f\n", result.edam_f1);
  std::printf("  Kraken-like exact k-mers F1 = %.3f\n", result.kraken_f1);
  std::printf("cost of the %zu-query batch:\n", dataset.queries.size());
  std::printf("  accelerator: %.3g s, %.3g J (router ledger totals)\n",
              result.accel_latency_seconds, result.accel_energy_joules);
  std::printf("  EDAM:        %.3g s, %.3g J (batched comparator)\n",
              result.edam_latency_seconds, result.edam_energy_joules);
  std::printf("  CM-CPU host: %.3g s, %.3g J (modelled exact scan)\n",
              result.cmcpu_seconds, result.cmcpu_joules);
  if (result.accel_latency_seconds > 0.0 && result.cmcpu_seconds > 0.0)
    std::printf("  -> %.0fx faster, %.0fx more energy-efficient\n",
                result.cmcpu_seconds / result.accel_latency_seconds,
                result.cmcpu_joules / result.accel_energy_joules);
  return 0;
}
