#pragma once
// Sharded multi-bank accelerator: the scale-out layer above
// AsmcapAccelerator, and the one controller that schedules every bank.
// A single bank caps the database at array_count x array_rows segments;
// the sharded accelerator partitions the stored reference across N
// independent banks — each with its own arrays and backend, each nothing
// but execute() plus mutations — and puts a batch router on top. A
// monolithic search is a 1-shard router:
//
//   ShardedAccelerator (router: plans once, fans (read x shard) tasks
//        |              across the session pool, merges per-read results,
//        |              keeps the aggregate ledger)
//        +-- bank 0: AsmcapAccelerator [cold]
//        +-- bank 1: AsmcapAccelerator [cold]
//        +-- ...
//        +-- hot bank (optional, always last): small append staging bank
//
// The database is LIVE (docs/architecture.md "Live database"): the router
// publishes immutable epoch snapshots (DbEpoch) of its bank set under a
// copy-on-write scheme. Every mutation — append_segments, remove_segments,
// compact — builds epoch E+1 from epoch E, re-using every untouched bank
// BY REFERENCE (shared_ptr) and cloning only the banks it rewrites, then
// publishes the new epoch atomically on the control plane. Searches and
// in-flight SearchService tickets capture the epoch current at launch and
// run against it to completion: a ticket never observes a mutation that
// raced its execution, and the banks it shares with newer epochs are only
// ever read (execute() is const), so concurrent search-under-mutation is
// data-race-free by construction.
//
// Heterogeneous geometry: appends land in a small HOT bank
// (config.live.hot_array_rows x hot_array_count arrays, always the LAST
// bank of an epoch) so a trickle of inserts never pays SL-driver energy
// for a mostly-empty full-size array. When the hot bank fills — or
// compact() is called — its live rows are folded into the cold banks'
// free rows (tombstoned slots first) at an epoch boundary. Global segment
// ids are stable across append, delete, and rebalance: an id is assigned
// once, never reused, and (because every per-decision RNG stream AND the
// row's manufactured silicon are keyed by global id, with every bank
// built from the router's own seed) a segment decides
// identically wherever rebalancing moves it — searching epoch E is
// bit-identical to a fresh router loaded with exactly E's live segments,
// on every backend including noisy circuit sensing (determinism rule 8;
// enforced by tests/test_live.cpp and tests/test_sharded.cpp).
//
// Per-shard results are slot-indexed at the bank boundary and merged
// through each bank's LiveDirectory into the global id space: decisions
// scatter into the global bitmap (ids are disjoint across banks), latency
// is the max over shards for a pass (banks search in parallel), energy is
// the sum in ascending shard order, and the router's ledger records the
// merged totals.
//
// Shard pruning (config.pruning.enabled): before fanning out, the router
// probes each bank (AsmcapAccelerator::may_match, over the bank's row
// store and live words, with the plan's read views) and dispatches only
// the banks that may contain a match — a pruned bank spawns no task,
// burns no SL-driver energy, and (because per-decision RNG streams are
// keyed by global segment id and are pure forks, never sequential draws)
// contributes no RNG draws, so the surviving banks' decisions are
// bit-identical to full fan-out. Banks build no sketch: the probe reads
// exactly what each epoch's banks store, so mutations need no upkeep.
//
// Ownership: the router owns its epochs, controller, and session pool (the
// pool is shared with SearchService tickets and ReadMapper verification);
// epochs own their banks via shared_ptr (a retired epoch's banks live
// until the last ticket pinning them completes).
// Thread-safety: the mutating entry points (load_reference,
// append_segments, remove_segments, compact, search, search_batch, set_*,
// and SearchService::submit/wait/drain on top of them) belong to one
// control thread at a time; the per-bank execute() fan-out is what runs
// concurrently, always against an immutable epoch snapshot. Reentrancy:
// the fan-out uses the session pool — parallel_for is not reentrant
// (util/thread_pool.h), so never search or mutate from inside a pool task
// or service callback.
//
// Determinism contract (enforced by test_sharded and test_live; full
// discipline in docs/determinism.md):
//  * query streams follow fixed formulas over the master Rng(config.seed):
//    search() executes against m.fork(m.next()), and read i of the k-th
//    batch or service ticket against m.fork((k << 32) | i) — batches never
//    advance m (test_sharded pins both against a bank's execute());
//  * match decisions are invariant in shard count, worker count, AND
//    mutation history (only the set of live segments matters) — on noisy
//    circuit sensing too, because silicon is keyed per global id from the
//    router's shared silicon seed, not per (bank, row).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "asmcap/accelerator.h"
#include "asmcap/config.h"
#include "asmcap/controller.h"
#include "asmcap/db_error.h"
#include "circuit/timing.h"
#include "genome/sequence.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace asmcap {

class SearchService;
class SearchTicket;

/// One immutable snapshot of the router's bank set. Published by the
/// control plane with shared_ptr<const DbEpoch>; searches and tickets
/// capture the pointer at launch and never look back. Banks are shared
/// across epochs — a bank appears in every epoch between the mutation
/// that created it and the mutation that rewrote (cloned) or retired it —
/// and are only ever read through const execute() once published.
struct DbEpoch {
  std::uint64_t number = 0;
  /// Cold banks in shard order; when has_hot, the hot append bank is LAST.
  std::vector<std::shared_ptr<AsmcapAccelerator>> banks;
  bool has_hot = false;
  /// Width of the global decision bitmap: highest assigned id + 1 -
  /// segment_base (ids of deleted segments keep their lanes, always
  /// false).
  std::size_t id_space = 0;
  std::size_t live_count = 0;
};

class ShardedAccelerator {
 public:
  /// `config` describes ONE cold bank's geometry; cold capacity is
  /// shard_count x config.capacity_segments() (the hot bank is staging on
  /// top, sized by config.live).
  ShardedAccelerator(AsmcapConfig config, std::size_t shard_count);

  ShardedAccelerator(ShardedAccelerator&&) = delete;
  ShardedAccelerator& operator=(ShardedAccelerator&&) = delete;

  /// Partitions `segments` into contiguous, balanced per-bank blocks and
  /// loads each bank, publishing epoch 1. May be called once
  /// (DbErrorKind::AlreadyLoaded); DbErrorKind::CapacityExceeded when the
  /// database exceeds the cold capacity.
  void load_reference(const std::vector<Sequence>& segments);

  /// Appends segments to the live database, assigning fresh global ids
  /// (returned, ascending) and publishing a new epoch. Appends stage in
  /// the hot bank; a full hot bank is folded into the cold banks' free
  /// rows mid-append. Also valid before load_reference (bootstrap: the
  /// database grows from nothing). DbErrorKind::CapacityExceeded when the
  /// live count would exceed the cold capacity.
  std::vector<std::uint64_t> append_segments(
      const std::vector<Sequence>& segments);

  /// Tombstones the given global ids and publishes a new epoch. DbError:
  /// UnknownSegment / DoubleDelete (duplicates within the call included);
  /// the current epoch is untouched when it throws (validation precedes
  /// cloning).
  void remove_segments(const std::vector<std::uint64_t>& ids);

  /// Folds the hot bank's live rows into the cold banks at an epoch
  /// boundary (the explicit form of the mid-append overflow fold).
  /// Returns the epoch number afterwards — unchanged when nothing is
  /// staged (no new epoch is published).
  std::uint64_t compact();

  /// Epoch number of the current snapshot (0 before any reference).
  std::uint64_t epoch() const { return db_ ? db_->number : 0; }
  /// The current snapshot itself (what a launched ticket captures);
  /// nullptr before any reference.
  std::shared_ptr<const DbEpoch> db() const { return db_; }

  SegmentState segment_state(std::uint64_t id) const;
  /// The live (id, segment) pairs of the current epoch, ascending by id.
  std::vector<std::pair<std::uint64_t, Sequence>> live_segments() const;

  /// Sets the workload error profile used by the offline pre-processing
  /// of HDAC's p and TASR's T_l for every plan. Defaults to Condition A.
  void set_error_profile(const ErrorRates& rates) { rates_ = rates; }
  const ErrorRates& error_profile() const { return rates_; }

  /// Switches every current bank's execution backend. Switching to
  /// Circuit builds each bank's silicon from the per-id streams
  /// (AsmcapAccelerator::set_backend), so it costs one circuit write per
  /// live row; set the backend before loading to skip that. Control-plane
  /// only, and (unlike append/remove, which clone) NOT safe while tickets
  /// are in flight: the banks are switched in place, and they are shared
  /// with live epochs.
  void set_backend(BackendKind kind);
  BackendKind backend_kind() const { return backend_kind_; }

  /// Searches one read against the whole sharded database, fanning the
  /// per-bank scans across `workers` threads (the latency path: one read
  /// split across banks). Deterministic in worker count.
  QueryResult search(const Sequence& read, std::size_t threshold,
                     StrategyMode mode, std::size_t workers = 1);

  /// Searches a batch: (read x shard) tasks across `workers` threads,
  /// read i's RNG stream forked from the master stream as
  /// (batch epoch << 32) | i, never advancing it. Results are
  /// bit-identical for any worker count. This is a
  /// thin blocking wrapper over SearchService (submit + drain), so peak
  /// partial-result memory is bounded by the in-flight admission window,
  /// not by reads x shards; use the service directly (asmcap/service.h)
  /// for asynchronous submit/poll and per-read result streaming.
  std::vector<QueryResult> search_batch(const std::vector<Sequence>& reads,
                                        std::size_t threshold,
                                        StrategyMode mode,
                                        std::size_t workers = 1);

  std::size_t shard_count() const { return shard_count_; }
  /// Banks in the current epoch (cold banks actually populated, plus the
  /// hot bank when appends are staged).
  std::size_t active_shards() const {
    check_loaded();
    return db_->banks.size();
  }
  /// Bank `s` of the current epoch (s < active_shards()).
  const AsmcapAccelerator& shard(std::size_t s) const {
    check_shard(s);
    return *db_->banks[s];
  }
  /// Offset of bank `s`'s id floor within the router's global id space
  /// (on a frozen database: the global id of its first segment).
  std::size_t shard_base(std::size_t s) const {
    check_shard(s);
    return db_->banks[s]->config().segment_base - config_.segment_base;
  }
  /// Row slots allocated in bank `s` (on a frozen database: its segment
  /// count, as it always was).
  std::size_t shard_segments(std::size_t s) const {
    check_shard(s);
    return db_->banks[s]->loaded_segments();
  }

  /// Width of the global id space (on a frozen database: the loaded
  /// segment count).
  std::size_t loaded_segments() const { return db_ ? db_->id_space : 0; }
  std::size_t live_segment_count() const {
    return db_ ? db_->live_count : 0;
  }
  /// Cold capacity (the live-count ceiling; the hot bank is staging, not
  /// extra durable capacity — everything staged must fold into this).
  std::size_t capacity_segments() const {
    return shard_count_ * config_.capacity_segments();
  }
  /// Cumulative reference-write cost of the current epoch's banks: banks
  /// write in parallel, so energy sums and latency is the max over banks.
  /// (A fold re-writes moved rows in their destination bank, so this is
  /// the cost of materialising the CURRENT layout, not a lifetime odometer.)
  double load_energy_joules() const;
  double load_latency_seconds() const;

  /// Aggregate ledger of the merged per-read results (banks keep no
  /// search ledger of their own).
  const ExecutionTotals& totals() const { return controller_.totals(); }
  void reset_totals() { controller_.reset_totals(); }
  const Controller& controller() const { return controller_; }
  const AsmcapConfig& config() const { return config_; }

  /// The router's session-owned worker pool (see SessionPool; shared
  /// with ReadMapper's host verification and SearchService tickets).
  /// While service tickets are in flight they pin the handle, so a
  /// request that would grow the pool is clamped to the live one instead
  /// of replacing it under their running tasks (safe: every parallel map
  /// here is worker-count invariant, docs/determinism.md).
  ThreadPool& worker_pool(std::size_t workers = 0) {
    return pool_.get(workers);
  }

 private:
  // The streaming service layer is the router's async execution engine:
  // it captures db_ at launch, forks per-read streams from
  // rng_/batch_epoch_, and flushes ledger totals through controller_.
  friend class SearchService;
  friend class SearchTicket;

  void check_loaded() const;
  void check_shard(std::size_t s) const;
  /// A fresh (empty) bank on the router's config — hence its seeds — and
  /// backend, whose auto-assigned ids start `id_floor` above
  /// config_.segment_base. `cold` picks the full config_ geometry vs the
  /// hot staging geometry from config_.live.
  std::shared_ptr<AsmcapAccelerator> make_bank(bool cold,
                                               std::size_t id_floor) const;
  /// Copy-on-write: clones next.banks[i] on first touch within one epoch
  /// build (owned[i] tracks which banks this build already owns).
  AsmcapAccelerator& touch(DbEpoch& next, std::vector<bool>& owned,
                           std::size_t i) const;
  /// Folds the hot bank (next.banks.back()) into the cold banks' free
  /// rows (creating cold banks up to shard_count_ on demand) and drops it
  /// from the epoch. Caller guarantees hot-live <= cold free capacity
  /// (the append/delete capacity invariant).
  void fold_hot(DbEpoch& next, std::vector<bool>& owned) const;
  /// Shards of `db` to dispatch for `plan`, ascending. All banks when
  /// pruning is disabled or cannot be sound (pruning_window_count == 0);
  /// otherwise the banks whose may_match probe keeps them.
  std::vector<std::uint32_t> probe_shards(const DbEpoch& db,
                                          const ExecutionPlan& plan) const;
  /// Merges the partial results of the dispatched shards (partials[j] is
  /// shard shard_ids[j]'s slot-indexed result) into one global result:
  /// each partial's matched slots scatter through its bank's
  /// LiveDirectory (then the global ids are sorted), latency = max,
  /// energy = sum in ascending shard order. `partials` must be non-empty.
  QueryResult merge_subset(const DbEpoch& db,
                           const std::vector<QueryResult>& partials,
                           const std::vector<std::uint32_t>& shard_ids) const;
  /// The merged result of a read every bank pruned: all-false decisions,
  /// zero energy, and the same analytic pass latency any bank would
  /// report for this plan (latency is plan-determined, not data-determined).
  QueryResult empty_result(const DbEpoch& db, const ExecutionPlan& plan) const;

  AsmcapConfig config_;
  std::size_t shard_count_;
  ErrorRates rates_;
  BackendKind backend_kind_ = BackendKind::Circuit;
  /// The published snapshot. Written only by control-plane mutations;
  /// searches and tickets copy the pointer at launch.
  std::shared_ptr<const DbEpoch> db_;
  std::uint64_t next_global_id_;  ///< Monotonic; ids are never reused.
  TimingModel timing_;  ///< Plan-pure pass latency (empty_result's source).
  Controller controller_;
  std::uint64_t batch_epoch_ = 0;
  Rng rng_;  ///< Master query stream; one next() per search() only.
  SessionPool pool_;  ///< Pinned by in-flight SearchService tickets.
};

}  // namespace asmcap
