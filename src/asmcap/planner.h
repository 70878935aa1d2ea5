#pragma once
// Query planning, separated from execution (engine layering: planner ->
// backend -> batch engine). The planner owns the offline pre-processed
// correction strategies (HDAC's p, TASR's T_l) and turns one
// (read, threshold, mode) request into an immutable ExecutionPlan listing
// exactly which array passes an ExecutionBackend must run, each with the
// read view its kernels take (align/kernels.h), built once per read and
// shared by the shard-pruning probe and every bank's passes. Planning
// draws no randomness and mutates nothing, so plans can be built
// concurrently and executed on any backend.

#include <cstddef>
#include <limits>
#include <vector>

#include "align/kernels.h"
#include "asmcap/config.h"
#include "asmcap/hdac.h"
#include "asmcap/tasr.h"
#include "genome/edits.h"
#include "genome/sequence.h"

namespace asmcap {

/// The operation schedule of one read query (the ledger/costing view).
struct QueryPlan {
  std::size_t ed_star_searches = 1;  ///< 1 + rotations when TASR triggers.
  bool hd_search = false;            ///< HDAC's extra Hamming pass.
  double hdac_p = 0.0;               ///< Selection probability (0 if off).
  std::size_t tasr_tl =
      std::numeric_limits<std::size_t>::max();  ///< Rotation trigger bound.
  bool tasr_triggered = false;

  std::size_t total_searches() const {
    return ed_star_searches + (hd_search ? 1u : 0u);
  }
};

/// A fully materialised, immutable plan for one read query: the concrete
/// pass list a backend executes plus the costing summary the ledger records.
struct ExecutionPlan {
  QueryPlan summary;
  /// ED* passes in execution order: the original read first, then each
  /// distinct rotation of the TASR schedule (duplicates of the original are
  /// dropped — they are costed but never re-searched).
  std::vector<Sequence> ed_star_passes;
  /// ed_star_views[p] is the ED* read view of ed_star_passes[p].
  std::vector<PackedReadView> ed_star_views;
  /// The Hamming view of the original read; empty unless hd_pass.
  PackedReadView hd_view;
  bool hd_pass = false;    ///< == summary.hd_search.
  double hdac_p = 0.0;     ///< == summary.hdac_p.
  std::size_t threshold = 0;
  StrategyMode mode = StrategyMode::Full;
};

class QueryPlanner {
 public:
  explicit QueryPlanner(const AsmcapConfig& config)
      : config_(config), hdac_(config.hdac), tasr_(config.tasr) {}

  /// Costing summary for one query given the workload error profile
  /// (pre-processed offline, as the paper prescribes for both p and T_l).
  QueryPlan plan(std::size_t threshold, const ErrorRates& rates,
                 StrategyMode mode) const;

  /// Materialises the full pass list for one read.
  ExecutionPlan build(const Sequence& read, std::size_t threshold,
                      const ErrorRates& rates, StrategyMode mode) const;

  const Hdac& hdac() const { return hdac_; }
  const Tasr& tasr() const { return tasr_; }
  const AsmcapConfig& config() const { return config_; }

 private:
  AsmcapConfig config_;
  Hdac hdac_;
  Tasr tasr_;
};

}  // namespace asmcap
