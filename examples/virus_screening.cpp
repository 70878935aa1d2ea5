// Virus screening: the paper's motivating fast-testing scenario (§V-E) —
// the 64 Mb ASMCap capacity "can entirely store some small virus sequences
// (e.g., SARS-CoV-2)". We build a SARS-CoV-2-scale (~30 kb) synthetic viral
// genome, store it in the accelerator, and screen a mixed pool of viral and
// human-background reads, comparing the ASMCap calls against the exact
// semi-global gold standard.
//
// The pool is screened in one batched accelerator call across a worker
// pool (cell-accurate circuit backend: screening is the fidelity use case).
//
//   ./virus_screening [reads] [threshold] [workers]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "align/semiglobal.h"
#include "asmcap/sharded.h"
#include "eval/metrics.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace asmcap;
  const std::size_t n_reads =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 120;
  const std::size_t threshold =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 14;
  const std::size_t workers =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;
  Rng rng(0x5A25);

  // ~30 kb viral genome (SARS-CoV-2 scale) and a human-like background.
  ReferenceModel viral_model;
  viral_model.gc_content = 0.38;  // SARS-CoV-2 GC ~0.38
  const Sequence virus = generate_reference(29903, viral_model, rng);
  const Sequence background = generate_reference(200000, {}, rng);

  // Store the virus as overlapping windows at stride 4. A read sequenced at
  // an arbitrary genome offset is then misaligned with the nearest stored
  // row by at most 2 bases: ED*'s +/-1 window absorbs one base of shift and
  // TASR's N_R = 2 rotations recover the remaining +/-2 — which is exactly
  // why the threshold below is chosen at T >= T_l so rotation triggers.
  // (30 kb at stride 4 x 256 bases x 2 bits ~ 3.8 Mb: comfortably inside
  // the 64 Mb capacity the paper quotes for "small virus sequences".)
  const auto segments = segment_reference(virus, 256, 4);
  std::printf("Viral genome: %zu bases -> %zu overlapping rows\n",
              virus.size(), segments.size());

  AsmcapConfig config;
  config.array_count = (segments.size() + 255) / 256;
  ShardedAccelerator accel(config, 1);
  accel.load_reference(segments);
  // TGS-ish noisy sample: substitutions + indels.
  const ErrorRates rates{0.01, 0.002, 0.002};
  accel.set_error_profile(rates);
  const std::size_t tasr_tl =
      tasr_lower_bound(config.tasr, rates, 256);
  std::printf("TASR lower bound T_l = %zu (threshold %zu %s rotation)\n",
              tasr_tl, threshold,
              threshold >= tasr_tl ? "triggers" : "does NOT trigger");

  ReadSimConfig sim;
  sim.rates = rates;
  const ReadSimulator viral_sim(virus, sim);
  const ReadSimulator background_sim(background, sim);

  // Draw the whole pool, then screen it in one batched call.
  std::vector<Sequence> pool;
  pool.reserve(n_reads);
  for (std::size_t i = 0; i < n_reads; ++i) {
    const bool is_viral = rng.bernoulli(0.35);
    pool.push_back(
        (is_viral ? viral_sim.simulate(rng) : background_sim.simulate(rng))
            .read);
  }
  const std::vector<QueryResult> results =
      accel.search_batch(pool, threshold, StrategyMode::Full, workers);

  ConfusionMatrix cm;
  double latency = 0.0;
  double energy = 0.0;
  for (std::size_t i = 0; i < n_reads; ++i) {
    const bool called_viral = !results[i].matched_segments.empty();
    // Gold standard: exact semi-global alignment against the viral genome.
    const SemiGlobalHit gold = semiglobal_align(pool[i], virus);
    const bool truly_viral = gold.distance <= threshold;
    cm.add(called_viral, truly_viral);
    latency += results[i].latency_seconds;
    energy += results[i].energy_joules;
  }

  Table table({"metric", "value"});
  table.new_row().add_cell("reads screened").add_cell(n_reads);
  table.new_row().add_cell("threshold T").add_cell(threshold);
  table.new_row().add_cell("sensitivity").add_cell(cm.sensitivity(), 4);
  table.new_row().add_cell("precision").add_cell(cm.precision(), 4);
  table.new_row().add_cell("F1").add_cell(cm.f1(), 4);
  table.new_row().add_cell("accel latency / read").add_cell(
      format_si(latency / static_cast<double>(n_reads), "s"));
  table.new_row().add_cell("accel energy / read").add_cell(
      format_si(energy / static_cast<double>(n_reads), "J"));
  table.print(std::cout);
  return 0;
}
