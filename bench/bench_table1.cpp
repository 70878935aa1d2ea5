// Reproduces paper Table I: circuit-level comparison between ASMCap and
// EDAM (cell area, search time, average power per cell) from the 65 nm
// device models, plus google-benchmark timings of the two readout paths.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <vector>

#include "cam/charge_readout.h"
#include "cam/current_readout.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "util/lane_flags.h"
#include "util/rng.h"

namespace {

void report_table1() {
  const asmcap::ProcessParams process;
  const auto rows = asmcap::run_table1(process);
  asmcap::print_report(std::cout,
                       "Table I: circuit-level comparison (paper: area 1.4x, "
                       "search time 2.6x, power 8.5x)",
                       asmcap::table1_table(rows));
}

/// Lane words of a 256-cell row with every other cell of the first 200
/// mismatched (100 mismatches).
std::vector<std::uint64_t> sample_lane_words() {
  std::vector<std::uint64_t> words(asmcap::lane_word_count(256), 0);
  for (std::size_t i = 0; i < 200; i += 2) asmcap::set_lane_flag(words, i);
  return words;
}

// Functional-simulator throughput of the two sensing models over a
// 256-row array (not silicon time; silicon time is the analytic
// 0.9 ns / 2.4 ns above): the const silicon path the noisy passes run.
void BM_ChargeReadoutSense(benchmark::State& state) {
  asmcap::Rng rng(1);
  const asmcap::ChargeArrayReadout readout(256, 256, {}, rng);
  const std::vector<std::uint64_t> words = sample_lane_words();
  for (auto _ : state) {
    std::size_t matches = 0;
    for (std::size_t r = 0; r < readout.rows(); ++r)
      matches += readout.decide(readout.settle_row(r, words), 8, rng) ? 1 : 0;
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ChargeReadoutSense);

void BM_CurrentReadoutSense(benchmark::State& state) {
  asmcap::Rng rng(2);
  const asmcap::CurrentArrayReadout readout(256, 256, {}, rng);
  const std::vector<std::uint64_t> words = sample_lane_words();
  for (auto _ : state) {
    std::size_t matches = 0;
    for (std::size_t r = 0; r < readout.rows(); ++r) {
      const double drop = readout.drop_row(r, words);
      matches += readout.decide_from_drop(r, drop, 8, rng) ? 1 : 0;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CurrentReadoutSense);

}  // namespace

int main(int argc, char** argv) {
  report_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
