// Reproduces paper Fig. 8: speedup and energy efficiency of ASMCap (w/ and
// w/o HDAC & TASR) against CM-CPU, ReSMA, SaVI, and EDAM on 256-base reads
// with the full 64 Mb (512-array) stored reference.
//
// Paper headline (w/ H&T): 4.7e4x / 174x / 61x / 1.4x speedup and
// 2.0e6x / 8.7e3x / 943x / 10.8x energy efficiency vs the four baselines.
// Every number is modelled (CM-CPU on the modelled i9-10980XE); host
// wall-clock never enters these tables.

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "asmcap/config.h"
#include "eval/report.h"
#include "perf/comparison.h"
#include "perf/system_model.h"

namespace {

void report_fig8() {
  const std::string label = "modelled i9-10980XE (18 threads)";
  const asmcap::SystemModel model(asmcap::AsmcapConfig{},
                                  asmcap::CmCpuConfig{});
  asmcap::PerfWorkload workload;  // 512 x 256 segments, 256-base reads

  const auto estimates = model.estimate_all(workload);
  asmcap::print_report(
      std::cout, "Fig.8 normalised to CM-CPU -- " + label,
      asmcap::comparison_table(asmcap::normalize_to_first(estimates)));

  // The paper's sentences: ASMCap w/ H&T vs each baseline.
  asmcap::print_report(
      std::cout,
      "ASMCap w/ H./T. vs baselines (paper: 4.7e4x/174x/61x/1.4x speed, "
      "2.0e6x/8.7e3x/943x/10.8x energy) -- " + label,
      asmcap::comparison_table(asmcap::ratios_against(estimates, 5)));
  asmcap::print_report(
      std::cout,
      "ASMCap w/o H./T. vs baselines (paper: 9.7e4x/362x/126x/2.8x speed, "
      "5.1e6x/2.3e4x/2.4e3x/28x energy) -- " + label,
      asmcap::comparison_table(asmcap::ratios_against(estimates, 4)));
}

void BM_SystemModel(benchmark::State& state) {
  const asmcap::SystemModel model{asmcap::AsmcapConfig{}};
  const asmcap::PerfWorkload workload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.estimate_all(workload));
  }
}
BENCHMARK(BM_SystemModel);

}  // namespace

int main(int argc, char** argv) {
  report_fig8();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
