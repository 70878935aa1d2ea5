#pragma once
// Controller (paper Fig. 4a): receives host instructions, delegates the
// per-query operation scheduling to the QueryPlanner, and keeps the
// latency/energy/operation ledger the performance evaluation reads.

#include <cstddef>

#include "asmcap/config.h"
#include "asmcap/planner.h"

namespace asmcap {

/// Cumulative execution statistics.
struct ExecutionTotals {
  std::size_t queries = 0;
  std::size_t searches = 0;
  std::size_t hd_searches = 0;
  std::size_t rotation_searches = 0;
  /// Pruning-probe outcomes (sharded router with pruning enabled only):
  /// banks actually searched vs banks skipped because their probe proved
  /// no hit was possible. probed + pruned = active shards x queries.
  std::size_t banks_probed = 0;
  std::size_t banks_pruned = 0;
  double latency_seconds = 0.0;
  double energy_joules = 0.0;
};

class Controller {
 public:
  explicit Controller(const AsmcapConfig& config) : planner_(config) {}

  /// Plans one query given the workload error profile (pre-processed
  /// offline, as the paper prescribes for both p and T_l).
  QueryPlan plan(std::size_t threshold, const ErrorRates& rates,
                 StrategyMode mode) const {
    return planner_.plan(threshold, rates, mode);
  }

  /// Records a completed query in the ledger.
  void record(const QueryPlan& plan, double latency_seconds,
              double energy_joules);

  /// Records one query's pruning-probe outcome (router pruning path).
  void record_pruning(std::size_t probed, std::size_t pruned) {
    totals_.banks_probed += probed;
    totals_.banks_pruned += pruned;
  }

  const ExecutionTotals& totals() const { return totals_; }
  void reset_totals() { totals_ = {}; }

  const QueryPlanner& planner() const { return planner_; }

 private:
  QueryPlanner planner_;
  ExecutionTotals totals_;
};

}  // namespace asmcap
