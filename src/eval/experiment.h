#pragma once
// Experiment runners for every paper table/figure. The benchmark binaries
// and the integration tests both call these, so the numbers in
// EXPERIMENTS.md come from exactly the code under test.

#include <cstddef>
#include <string>
#include <vector>

#include "asmcap/config.h"
#include "asmcap/edam.h"
#include "baseline/cmcpu.h"
#include "baseline/kraken_like.h"
#include "eval/metrics.h"
#include "eval/sweep.h"
#include "genome/dataset.h"
#include "perf/system_model.h"

namespace asmcap {

// ---------------------------------------------------------------- Fig. 7 --

/// F1 of every contender at one threshold.
struct Fig7Point {
  std::size_t threshold = 0;
  double edam = 0.0;
  double asmcap_base = 0.0;   ///< w/o HDAC & TASR
  double asmcap_hdac = 0.0;   ///< + HDAC only
  double asmcap_tasr = 0.0;   ///< + TASR only
  double asmcap_full = 0.0;   ///< w/ HDAC & TASR
  double kraken = 0.0;        ///< normalisation baseline
  /// Detailed confusion matrices (diagnostics / tests).
  ConfusionMatrix cm_edam, cm_base, cm_full;
};

struct Fig7Series {
  std::string condition;
  std::vector<Fig7Point> points;

  double mean(double Fig7Point::* field) const;
};

struct Fig7Config {
  AsmcapConfig asmcap;
  CurrentDomainParams edam;
  KrakenLikeConfig kraken;
  bool edam_sr_enabled = false;  ///< EDAM's own rotation strategy.
  /// Worker threads for the signal precomputation and the per-threshold
  /// replay. Every threshold forks its own noise stream, so results are
  /// worker-count independent.
  std::size_t workers = 1;
  /// Deployment geometry: how many banks the stored rows are sharded
  /// across. run() rejects datasets that exceed shards x bank capacity
  /// (previously capacity was silently ignored). The replay's accuracy is
  /// shard-invariant — every per-pair signal is silicon-deterministic and
  /// every noise stream is keyed by (arm, query, row), never by bank
  /// placement or by another arm's schedule — so larger databases only
  /// need a larger `shards` here.
  std::size_t shards = 1;
};

class Fig7Runner {
 public:
  explicit Fig7Runner(Fig7Config config = {}) : config_(config) {}

  /// Runs the sweep on a dataset; `thresholds` must be sorted ascending.
  Fig7Series run(const Dataset& dataset,
                 const std::vector<std::size_t>& thresholds, Rng& rng) const;

  const Fig7Config& config() const { return config_; }

 private:
  Fig7Config config_;
};

// ------------------------------------------------- sharded deployment -----

/// Accuracy + energy comparison on a multi-bank database: the sharded
/// accelerator (the paper's high-recall filter, scaled past one bank's
/// capacity) and the batched EDAM comparator against the Kraken-like exact
/// k-mer classifier, with the CM-CPU baseline supplying both the
/// gold-standard decisions and the modelled host cost. This is the
/// Fig. 7-style comparison for databases that do not fit a single bank.
struct ShardedComparisonConfig {
  AsmcapConfig bank;          ///< ONE bank's geometry.
  std::size_t shards = 2;
  std::size_t threshold = 8;
  StrategyMode mode = StrategyMode::Full;
  KrakenLikeConfig kraken;
  CmCpuConfig cmcpu;
  /// EDAM contender (the paper's primary comparator, batched through its
  /// own engine). Geometry and ideal_sensing mirror `bank` at run time
  /// (array_count is raised to fit the dataset); only the current-domain
  /// process parameters and the SR schedule are taken from here.
  EdamConfig edam;
  std::size_t workers = 1;
  /// Shard pruning for the ASMCap arm (bank.pruning is overridden with
  /// this). Default ON: decisions are bit-identical either way
  /// (AsmcapAccelerator::may_match), and skipping provably-hitless banks is
  /// how a real deployment would run, so the reported ASMCap energy stays
  /// honest instead of charging every bank for every read.
  bool prune_shards = true;
  /// Live-mutation arm: after the frozen comparison, delete the LAST
  /// `live_block` reference rows (a contamination block), re-query, then
  /// re-insert the same rows under fresh ids, re-query again, and compact.
  /// Accuracy over the live rows must be unharmed at every step — this is
  /// the end-to-end exercise of the epoch-snapshotted database under the
  /// full evaluation pipeline. Fills the live_* result fields.
  bool live_mutation = false;
  std::size_t live_block = 8;
};

struct ShardedComparisonResult {
  std::size_t segments = 0;
  std::size_t shards = 0;
  ConfusionMatrix cm_asmcap;
  ConfusionMatrix cm_edam;
  ConfusionMatrix cm_kraken;
  double asmcap_f1 = 0.0;
  double edam_f1 = 0.0;
  double kraken_f1 = 0.0;
  /// Aggregate router-ledger totals for the whole query batch. With
  /// prune_shards, the energy covers only the banks actually probed.
  double accel_latency_seconds = 0.0;
  double accel_energy_joules = 0.0;
  /// Pruning-probe outcome over the batch (zero when prune_shards off).
  std::size_t banks_probed = 0;
  std::size_t banks_pruned = 0;
  /// banks_pruned / (banks_probed + banks_pruned); 0 when pruning is off.
  double prune_rate = 0.0;
  /// EDAM batch totals (latency summed in read order, like the ledger's).
  double edam_latency_seconds = 0.0;
  double edam_energy_joules = 0.0;
  /// Modelled CM-CPU cost for the same batch (the exact host doing all
  /// the work itself, Fig. 8's normalisation subject).
  double cmcpu_seconds = 0.0;
  double cmcpu_joules = 0.0;
  /// Live-mutation arm (config.live_mutation; zero / false otherwise).
  std::size_t live_deleted = 0;     ///< Rows tombstoned then re-inserted.
  double live_f1_after_delete = 0.0;    ///< F1 over the surviving rows.
  double live_f1_after_reinsert = 0.0;  ///< F1 incl. the re-inserted rows.
  bool live_dead_rows_silent = false;  ///< No dead row ever matched.
  std::uint64_t live_final_epoch = 0;  ///< Epoch number after compact().
};

/// Runs the comparison on a dataset whose rows may span several banks.
/// Throws DbError(CapacityExceeded) when the rows exceed the sharded
/// capacity.
ShardedComparisonResult run_sharded_comparison(
    const ShardedComparisonConfig& config, const Dataset& dataset);

// ---------------------------------------------------------------- Table I --

struct Table1Row {
  std::string quantity;
  std::string edam;
  std::string asmcap;
  double ratio = 0.0;  ///< EDAM / ASMCap.
};

std::vector<Table1Row> run_table1(const ProcessParams& process);

// ------------------------------------------------------------------ §V-B --

struct BreakdownResult {
  double area_total = 0.0;         ///< [m^2]
  double area_cells_fraction = 0;  ///< > 0.99
  double power_total = 0.0;        ///< [W]
  double power_cells_fraction = 0.0;
  double power_sr_fraction = 0.0;
  double power_sa_fraction = 0.0;
};

BreakdownResult run_breakdown(const ProcessParams& process, std::size_t rows,
                              std::size_t cols);

// ------------------------------------------------------------------ §V-D --

struct StatesResult {
  std::size_t edam_states = 0;    ///< analytic, paper: 44
  std::size_t asmcap_states = 0;  ///< analytic, paper: 566
};

StatesResult run_states(const ProcessParams& process);

// ------------------------------------------- read-length scaling (§II-C) --

/// The paper argues EDAM's timing-dependent current sensing "limits the
/// read length" while ASMCap's 566 distinguishable states support much
/// longer rows. This experiment quantifies it: F1 of both accelerators
/// (no correction strategies) as the row width grows, at a
/// length-proportional threshold.
struct ReadLengthPoint {
  std::size_t read_length = 0;
  std::size_t threshold = 0;
  double edam_f1 = 0.0;
  double asmcap_f1 = 0.0;
};

struct ReadLengthConfig {
  std::vector<std::size_t> lengths{64, 128, 256, 512, 1024};
  std::size_t rows = 96;
  std::size_t reads = 192;
  /// Threshold as a fraction of the read length: slightly above the
  /// Condition-A expected edit load (~1.1 %/base), so positive decisions
  /// sit near the boundary where sensing resolution matters.
  double threshold_fraction = 0.015;
  ErrorRates rates = ErrorRates::condition_a();
};

/// Fork salts of the read-length sweep's two stream domains. The dataset
/// synthesis and the experiment replay of one length must never share a
/// stream with ANY other (domain, length) pair — the seed-era salts
/// (`length` and `length + 1`) collided for consecutive lengths, coupling
/// length L's replay noise to length L+1's dataset. Disjoint high-bit
/// domains make every pair unique (tested in test_experiment).
constexpr std::uint64_t readlength_dataset_salt(std::size_t length) {
  return 0xDA7A'0000'0000'0000ULL | static_cast<std::uint64_t>(length);
}
constexpr std::uint64_t readlength_run_salt(std::size_t length) {
  return 0x4E55'0000'0000'0000ULL | static_cast<std::uint64_t>(length);
}

std::vector<ReadLengthPoint> run_readlength(const ReadLengthConfig& config,
                                            const ProcessParams& process,
                                            Rng& rng);

}  // namespace asmcap
