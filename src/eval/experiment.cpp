#include "eval/experiment.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "asmcap/db_error.h"
#include "asmcap/hdac.h"
#include "asmcap/sharded.h"
#include "asmcap/tasr.h"
#include "circuit/area.h"
#include "circuit/montecarlo.h"
#include "circuit/power.h"
#include "circuit/timing.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace asmcap {

namespace {
// Arm salts for the Fig. 7 replay's noise tree: every contender arm draws
// from its own stream keyed by (arm, query, row), so toggling one arm's
// schedule (edam_sr_enabled, the HD pass) never shifts the draws — and
// therefore the accuracy — of any other arm. See docs/determinism.md.
constexpr std::uint64_t kArmEdam = 0x0E0A'0000ULL;
constexpr std::uint64_t kArmBase = 0x0BA5'0000ULL;
constexpr std::uint64_t kArmTasr = 0x07A5'0000ULL;
constexpr std::uint64_t kArmHd = 0x0440'0000ULL;
constexpr std::uint64_t kArmHdacCoin = 0x0C01'0000ULL;
constexpr std::uint64_t kArmFullCoin = 0x0F11'0000ULL;
}  // namespace

double Fig7Series::mean(double Fig7Point::* field) const {
  if (points.empty()) return 0.0;
  double sum = 0.0;
  for (const Fig7Point& point : points) sum += point.*field;
  return sum / static_cast<double>(points.size());
}

Fig7Series Fig7Runner::run(const Dataset& dataset,
                           const std::vector<std::size_t>& thresholds,
                           Rng& rng) const {
  if (thresholds.empty())
    throw std::invalid_argument("Fig7Runner: no thresholds");
  if (config_.shards == 0) throw std::invalid_argument("Fig7Runner: 0 shards");
  if (dataset.rows.size() >
      config_.shards * config_.asmcap.capacity_segments())
    throw DbError(
        DbErrorKind::CapacityExceeded,
        "Fig7Runner: dataset rows exceed the sharded capacity (raise "
        "Fig7Config::shards)");
  const std::size_t ed_cap =
      *std::max_element(thresholds.begin(), thresholds.end());

  DatasetSignals signals(dataset, config_.asmcap, config_.edam, ed_cap, rng,
                         config_.workers);
  const auto& asmcap_ro = signals.asmcap_readout();
  const auto& edam_ro = signals.edam_readout();
  const Hdac hdac(config_.asmcap.hdac);
  const Tasr tasr(config_.asmcap.tasr);
  const bool ideal = config_.asmcap.ideal_sensing;
  const std::size_t read_length = config_.asmcap.array_cols;

  // Kraken-like predictions are threshold-independent: compute once.
  KrakenLikeClassifier kraken(config_.kraken);
  kraken.index_rows(dataset.rows);
  std::vector<Sequence> query_reads;
  query_reads.reserve(dataset.queries.size());
  for (const DatasetQuery& query : dataset.queries)
    query_reads.push_back(query.read);
  const std::vector<std::vector<bool>> kraken_pred =
      kraken.decide_batch(query_reads, config_.workers);

  Fig7Series series;
  series.condition = dataset.name;
  series.points.resize(thresholds.size());

  // Each threshold replays the cached signals against its own forked noise
  // stream, so thresholds evaluate independently and in parallel.
  ThreadPool pool(config_.workers);
  pool.parallel_for(thresholds.size(), [&](std::size_t t) {
    const std::size_t threshold = thresholds[t];
    Fig7Point point;
    point.threshold = threshold;
    ConfusionMatrix cm_edam, cm_base, cm_hdac, cm_tasr, cm_full, cm_kraken;

    const double p = hdac.probability(dataset.rates, threshold);
    const bool hd_pass = hdac.enabled(dataset.rates, threshold);
    const bool rotate = tasr.should_rotate(threshold, dataset.rates,
                                           read_length);

    // Per-arm noise streams, forked once per threshold; each (query, row)
    // pair forks again below, so a decision's draws are a pure function of
    // (threshold, arm, query, row) — never of another arm's schedule.
    const Rng threshold_rng = rng.fork(threshold + 1);
    const Rng arm_edam = threshold_rng.fork(kArmEdam);
    const Rng arm_base = threshold_rng.fork(kArmBase);
    const Rng arm_tasr = threshold_rng.fork(kArmTasr);
    const Rng arm_hd = threshold_rng.fork(kArmHd);
    const Rng arm_hdac_coin = threshold_rng.fork(kArmHdacCoin);
    const Rng arm_full_coin = threshold_rng.fork(kArmFullCoin);
    for (std::size_t q = 0; q < signals.queries(); ++q) {
      for (std::size_t r = 0; r < signals.rows(); ++r) {
        const PairSignals& pair = signals.pair(q, r);
        const bool actual = pair.ed <= threshold;
        const std::uint64_t pair_key = q * signals.rows() + r;

        // Streams are forked lazily: the ideal path samples no noise and
        // a disabled HD pass flips no coins, so those pairs skip the
        // (hot-loop) Rng constructions entirely.

        // --- EDAM: current-domain sensing, plain ED* (optional SR). ---
        std::optional<Rng> edam_noise;
        if (!ideal) edam_noise.emplace(arm_edam.fork(pair_key));
        bool edam_match =
            ideal ? pair.ed_star <= threshold
                  : edam_ro.decide_from_drop(r, pair.edam_drop, threshold,
                                             *edam_noise);
        if (config_.edam_sr_enabled) {
          for (std::size_t k = 0; k < pair.rot_ed_star.size(); ++k) {
            if (edam_match) break;
            edam_match =
                ideal ? pair.rot_ed_star[k] <= threshold
                      : edam_ro.decide_from_drop(r, pair.rot_edam_drop[k],
                                                 threshold, *edam_noise);
          }
        }
        cm_edam.add(edam_match, actual);

        // --- ASMCap baseline: charge-domain sensing, plain ED*. ---
        bool base_match;
        if (ideal) {
          base_match = pair.ed_star <= threshold;
        } else {
          Rng base_noise = arm_base.fork(pair_key);
          base_match = asmcap_ro.decide(pair.vml_ed_star, threshold,
                                        base_noise);
        }
        cm_base.add(base_match, actual);

        // --- TASR arm: rotations only when T >= T_l. ---
        bool tasr_match = base_match;
        if (rotate) {
          std::optional<Rng> tasr_noise;
          if (!ideal) tasr_noise.emplace(arm_tasr.fork(pair_key));
          for (std::size_t k = 0; k < pair.rot_ed_star.size(); ++k) {
            if (tasr_match) break;
            tasr_match = ideal
                             ? pair.rot_ed_star[k] <= threshold
                             : asmcap_ro.decide(pair.rot_vml[k], threshold,
                                                *tasr_noise);
          }
        }
        cm_tasr.add(tasr_match, actual);

        // --- HDAC arm: HD search + probabilistic selection. ---
        bool hd_match = false;
        if (hd_pass) {
          if (ideal) {
            hd_match = pair.hd <= threshold;
          } else {
            Rng hd_noise = arm_hd.fork(pair_key);
            hd_match = asmcap_ro.decide(pair.vml_hd, threshold, hd_noise);
          }
        }
        bool hdac_match = base_match;
        if (hd_pass) {
          Rng hdac_coin = arm_hdac_coin.fork(pair_key);
          hdac_match = hdac.combine(hd_match, base_match, p, hdac_coin);
        }
        cm_hdac.add(hdac_match, actual);

        // --- Full: TASR-corrected ED* result, then HDAC selection. ---
        bool full_match = tasr_match;
        if (hd_pass) {
          Rng full_coin = arm_full_coin.fork(pair_key);
          full_match = hdac.combine(hd_match, tasr_match, p, full_coin);
        }
        cm_full.add(full_match, actual);

        cm_kraken.add(kraken_pred[q][r], actual);
      }
    }

    point.edam = cm_edam.f1();
    point.asmcap_base = cm_base.f1();
    point.asmcap_hdac = cm_hdac.f1();
    point.asmcap_tasr = cm_tasr.f1();
    point.asmcap_full = cm_full.f1();
    point.kraken = cm_kraken.f1();
    point.cm_edam = cm_edam;
    point.cm_base = cm_base;
    point.cm_full = cm_full;
    series.points[t] = point;
  });
  return series;
}

ShardedComparisonResult run_sharded_comparison(
    const ShardedComparisonConfig& config, const Dataset& dataset) {
  ShardedComparisonResult out;
  out.segments = dataset.rows.size();
  out.shards = config.shards;

  // The sharded filter: the whole query batch in one routed call. Shard
  // pruning (default on) makes the reported energy the honest deployment
  // number — only the banks the sketch could not rule out are charged;
  // decisions are bit-identical either way (asmcap/sketch.h).
  AsmcapConfig bank_config = config.bank;
  bank_config.pruning.enabled = config.prune_shards;
  ShardedAccelerator accel(bank_config, config.shards);
  accel.set_error_profile(dataset.rates);
  accel.load_reference(dataset.rows);

  std::vector<Sequence> reads;
  reads.reserve(dataset.queries.size());
  for (const DatasetQuery& query : dataset.queries)
    reads.push_back(query.read);
  const std::vector<QueryResult> asmcap_results = accel.search_batch(
      reads, config.threshold, config.mode, config.workers);

  // EDAM, batched through its own engine: geometry mirrors the bank (the
  // comparator stores the same rows at the same width), array_count raised
  // to fit the whole database in one EDAM deployment.
  EdamConfig edam_config = config.edam;
  edam_config.array_rows = config.bank.array_rows;
  edam_config.array_cols = config.bank.array_cols;
  edam_config.array_count =
      (dataset.rows.size() + edam_config.array_rows - 1) /
      edam_config.array_rows;
  edam_config.ideal_sensing = config.bank.ideal_sensing;
  EdamAccelerator edam(edam_config);
  edam.load_reference(dataset.rows);
  const std::vector<EdamQueryResult> edam_results =
      edam.search_batch(reads, config.threshold, config.workers);

  // CM-CPU is exact, so its decisions double as the ground truth.
  const CmCpuBaseline cmcpu(config.cmcpu);
  const std::vector<std::vector<bool>> truth = cmcpu.decide_batch(
      reads, dataset.rows, config.threshold, config.workers);

  KrakenLikeClassifier kraken(config.kraken);
  kraken.index_rows(dataset.rows);
  const std::vector<std::vector<bool>> kraken_pred =
      kraken.decide_batch(reads, config.workers);

  for (std::size_t q = 0; q < reads.size(); ++q) {
    out.cm_asmcap.merge(confusion_from(asmcap_results[q].decisions, truth[q]));
    out.cm_edam.merge(confusion_from(edam_results[q].decisions, truth[q]));
    out.cm_kraken.merge(confusion_from(kraken_pred[q], truth[q]));
    out.edam_latency_seconds += edam_results[q].latency_seconds;
    out.edam_energy_joules += edam_results[q].energy_joules;
  }
  out.asmcap_f1 = out.cm_asmcap.f1();
  out.edam_f1 = out.cm_edam.f1();
  out.kraken_f1 = out.cm_kraken.f1();
  out.accel_latency_seconds = accel.totals().latency_seconds;
  out.accel_energy_joules = accel.totals().energy_joules;
  out.banks_probed = accel.totals().banks_probed;
  out.banks_pruned = accel.totals().banks_pruned;
  const std::size_t probes = out.banks_probed + out.banks_pruned;
  out.prune_rate = probes == 0 ? 0.0
                               : static_cast<double>(out.banks_pruned) /
                                     static_cast<double>(probes);
  out.cmcpu_seconds = static_cast<double>(reads.size()) *
                      cmcpu.seconds_per_read(config.bank.array_cols,
                                             dataset.rows.size(),
                                             config.threshold);
  out.cmcpu_joules = static_cast<double>(reads.size()) *
                     cmcpu.joules_per_read(config.bank.array_cols,
                                           dataset.rows.size(),
                                           config.threshold);

  // Live-mutation arm: tombstone a contamination block mid-run, verify
  // the surviving rows' accuracy is untouched, re-insert the block under
  // fresh ids, verify again, and compact the staging bank away. Exercises
  // the epoch-snapshotted database through the full evaluation pipeline.
  if (config.live_mutation && !reads.empty()) {
    const std::size_t total = dataset.rows.size();
    const std::size_t block = std::min(config.live_block, total - 1);
    const std::uint64_t base = config.bank.segment_base;
    out.live_deleted = block;
    out.live_dead_rows_silent = true;

    std::vector<std::uint64_t> doomed(block);
    for (std::size_t i = 0; i < block; ++i)
      doomed[i] = base + static_cast<std::uint64_t>(total - block + i);
    accel.remove_segments(doomed);

    ConfusionMatrix cm_del;
    const std::vector<QueryResult> after_delete = accel.search_batch(
        reads, config.threshold, config.mode, config.workers);
    for (std::size_t q = 0; q < reads.size(); ++q) {
      for (std::size_t i = 0; i < total - block; ++i)
        cm_del.add(after_delete[q].decisions[i], truth[q][i]);
      for (std::size_t i = total - block; i < total; ++i)
        if (after_delete[q].decisions[i]) out.live_dead_rows_silent = false;
    }
    out.live_f1_after_delete = cm_del.f1();

    // Re-insert the same contamination rows; they land in the hot staging
    // bank under fresh ids at the tail of the id space.
    std::vector<Sequence> block_rows(dataset.rows.end() - block,
                                     dataset.rows.end());
    const std::vector<std::uint64_t> fresh =
        accel.append_segments(block_rows);

    ConfusionMatrix cm_re;
    const std::vector<QueryResult> after_reinsert = accel.search_batch(
        reads, config.threshold, config.mode, config.workers);
    for (std::size_t q = 0; q < reads.size(); ++q) {
      for (std::size_t i = 0; i < total - block; ++i)
        cm_re.add(after_reinsert[q].decisions[i], truth[q][i]);
      for (std::size_t i = total - block; i < total; ++i)
        if (after_reinsert[q].decisions[i]) out.live_dead_rows_silent = false;
      for (std::size_t k = 0; k < fresh.size(); ++k)
        cm_re.add(after_reinsert[q]
                      .decisions[static_cast<std::size_t>(fresh[k] - base)],
                  truth[q][total - block + k]);
    }
    out.live_f1_after_reinsert = cm_re.f1();

    accel.compact();
    out.live_final_epoch = accel.epoch();
  }
  return out;
}

std::vector<Table1Row> run_table1(const ProcessParams& process) {
  const AreaModel area(process.area);
  const TimingModel timing(process);
  const PowerModel power(process);
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kCols = 256;
  const double n_mis = PowerModel::paper_avg_n_mis(kCols);

  const double edam_area = area.edam_cell_area();
  const double asmcap_area = area.asmcap_cell_area();
  const double edam_time = timing.edam_search().total;
  const double asmcap_time = timing.asmcap_search().total;
  const double edam_power =
      power.edam_array_power(kRows, kCols, n_mis).per_cell;
  const double asmcap_power =
      power.asmcap_array_power(kRows, kCols, n_mis).per_cell;

  // Areas are printed in um^2 explicitly: SI prefixes are linear and do not
  // compose with squared units.
  const auto um2 = [](double square_metres) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fum^2", square_metres * 1e12);
    return std::string(buf);
  };
  std::vector<Table1Row> rows;
  rows.push_back({"Cell area", um2(edam_area), um2(asmcap_area),
                  edam_area / asmcap_area});
  rows.push_back({"Search time", format_si(edam_time, "s"),
                  format_si(asmcap_time, "s"), edam_time / asmcap_time});
  rows.push_back({"Avg power per cell", format_si(edam_power, "W"),
                  format_si(asmcap_power, "W"), edam_power / asmcap_power});
  return rows;
}

BreakdownResult run_breakdown(const ProcessParams& process, std::size_t rows,
                              std::size_t cols) {
  const AreaModel area(process.area);
  const PowerModel power(process);
  const auto area_breakdown = area.asmcap_array(rows, cols);
  const auto power_breakdown =
      power.asmcap_array_power(rows, cols, PowerModel::paper_avg_n_mis(cols));
  BreakdownResult out;
  out.area_total = area_breakdown.total;
  out.area_cells_fraction = area_breakdown.cells_fraction;
  out.power_total = power_breakdown.total;
  out.power_cells_fraction = power_breakdown.cells / power_breakdown.total;
  out.power_sr_fraction =
      power_breakdown.shift_registers / power_breakdown.total;
  out.power_sa_fraction = power_breakdown.sense_amps / power_breakdown.total;
  return out;
}

StatesResult run_states(const ProcessParams& process) {
  StatesResult out;
  out.edam_states = current_domain_max_states(process.current);
  out.asmcap_states = charge_domain_max_states(process.charge);
  return out;
}

std::vector<ReadLengthPoint> run_readlength(const ReadLengthConfig& config,
                                            const ProcessParams& process,
                                            Rng& rng) {
  std::vector<ReadLengthPoint> points;
  for (const std::size_t length : config.lengths) {
    DatasetConfig dataset_config;
    dataset_config.segment_length = length;
    dataset_config.rows = config.rows;
    dataset_config.reads = config.reads;
    dataset_config.rates = config.rates;
    dataset_config.name = "m=" + std::to_string(length);
    Rng dataset_rng = rng.fork(readlength_dataset_salt(length));
    const Dataset dataset = build_dataset(dataset_config, dataset_rng);

    Fig7Config fig7;
    fig7.asmcap.process = process;
    fig7.asmcap.array_rows = config.rows;
    fig7.asmcap.array_cols = length;
    fig7.edam = process.current;

    ReadLengthPoint point;
    point.read_length = length;
    point.threshold = static_cast<std::size_t>(std::max(
        1.0, config.threshold_fraction * static_cast<double>(length)));
    Rng run_rng = rng.fork(readlength_run_salt(length));
    const Fig7Series series =
        Fig7Runner(fig7).run(dataset, {point.threshold}, run_rng);
    point.edam_f1 = series.points.front().edam;
    point.asmcap_f1 = series.points.front().asmcap_base;
    points.push_back(point);
  }
  return points;
}

}  // namespace asmcap
