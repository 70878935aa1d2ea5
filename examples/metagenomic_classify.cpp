// Metagenomic classification: several synthetic "organisms" are stored in
// the accelerator; reads from a mixed sample are assigned to the organism
// owning the best-matching rows. Compares ASMCap's approximate in-memory
// matching against the Kraken2-like exact k-mer classifier — the comparison
// behind the normalised panels of Fig. 7.
//
// The whole sample is classified in one batched accelerator call on the
// fast Functional kind (ideal sensing), fanned across a worker pool.
//
//   ./metagenomic_classify [reads_per_organism] [workers]

#include <cstdio>
#include <iostream>
#include <vector>

#include "asmcap/sharded.h"
#include "baseline/kraken_like.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace asmcap;
  const std::size_t reads_per_organism =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 150;
  const std::size_t workers =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;
  Rng rng(0x3E7A);

  // Four organisms with distinct composition.
  constexpr std::size_t kOrganisms = 4;
  constexpr std::size_t kRowsPerOrganism = 48;
  const double gc[kOrganisms] = {0.35, 0.42, 0.50, 0.58};
  std::vector<Sequence> genomes;
  std::vector<Sequence> rows;
  std::vector<std::size_t> row_owner;
  for (std::size_t o = 0; o < kOrganisms; ++o) {
    ReferenceModel model;
    model.gc_content = gc[o];
    genomes.push_back(
        generate_reference(256 * (kRowsPerOrganism + 2), model, rng));
    auto segments = segment_reference(genomes.back(), 256);
    segments.resize(kRowsPerOrganism);
    for (auto& segment : segments) {
      rows.push_back(std::move(segment));
      row_owner.push_back(o);
    }
  }
  std::printf("%zu organisms, %zu stored rows\n", kOrganisms, rows.size());

  AsmcapConfig config;
  config.array_rows = 256;
  config.array_count = (rows.size() + 255) / 256;
  ShardedAccelerator accel(config, 1);
  accel.load_reference(rows);
  const ErrorRates rates = ErrorRates::condition_a();
  accel.set_error_profile(rates);

  KrakenLikeClassifier kraken;
  kraken.index_rows(rows);

  // Simulate the whole mixed sample up front, then classify it in one
  // batched call on the fast Functional kind (ideal sensing).
  ReadSimConfig sim_config;
  sim_config.rates = rates;
  std::vector<Sequence> sample;
  std::vector<std::size_t> sample_owner;
  for (std::size_t o = 0; o < kOrganisms; ++o) {
    const ReadSimulator sim(genomes[o], sim_config);
    for (std::size_t i = 0; i < reads_per_organism; ++i) {
      // Reads start at stored-row boundaries (the paper's dataset layout);
      // see virus_screening.cpp for handling arbitrary offsets with
      // fine-strided storage plus TASR.
      const std::size_t source_row = rng.below(kRowsPerOrganism);
      sample.push_back(sim.simulate_at(source_row * 256, rng).read);
      sample_owner.push_back(o);
    }
  }

  const std::size_t threshold = 8;
  accel.set_backend(BackendKind::Functional);
  const std::vector<QueryResult> results =
      accel.search_batch(sample, threshold, StrategyMode::Full, workers);

  std::size_t asmcap_correct = 0;
  std::size_t kraken_correct = 0;
  const std::size_t total = sample.size();
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::size_t o = sample_owner[i];

    // ASMCap call: organism owning the most matched rows.
    std::size_t votes[kOrganisms] = {};
    for (const std::size_t segment : results[i].matched_segments)
      ++votes[row_owner[segment]];
    std::size_t best = 0;
    for (std::size_t k = 1; k < kOrganisms; ++k)
      if (votes[k] > votes[best]) best = k;
    if (!results[i].matched_segments.empty() && best == o) ++asmcap_correct;

    // Kraken-like call: organism with the highest k-mer hit fraction.
    const auto fractions = kraken.hit_fractions(sample[i]);
    double organism_score[kOrganisms] = {};
    for (std::size_t r = 0; r < rows.size(); ++r)
      organism_score[row_owner[r]] =
          std::max(organism_score[row_owner[r]], fractions[r]);
    std::size_t kraken_best = 0;
    for (std::size_t k = 1; k < kOrganisms; ++k)
      if (organism_score[k] > organism_score[kraken_best]) kraken_best = k;
    if (organism_score[kraken_best] >= kraken.config().confidence &&
        kraken_best == o)
      ++kraken_correct;
  }

  Table table({"classifier", "correct", "total", "accuracy(%)"});
  table.new_row()
      .add_cell("ASMCap w/ H./T.")
      .add_cell(asmcap_correct)
      .add_cell(total)
      .add_cell(100.0 * static_cast<double>(asmcap_correct) /
                    static_cast<double>(total),
                4);
  table.new_row()
      .add_cell("Kraken2-like exact k-mers")
      .add_cell(kraken_correct)
      .add_cell(total)
      .add_cell(100.0 * static_cast<double>(kraken_correct) /
                    static_cast<double>(total),
                4);
  table.print(std::cout);
  return 0;
}
