#pragma once
// Sharded multi-bank accelerator: the scale-out layer above
// AsmcapAccelerator, and the one controller that schedules every bank.
// A single bank caps the database at array_count x array_rows segments;
// the sharded accelerator partitions the stored reference across N
// independent banks — each with its own arrays and pass, each nothing
// but execute() plus mutations — and puts a batch router on top. A
// monolithic search is a 1-shard router:
//
//   ShardedAccelerator (router: plans once per read, runs a batch as
//        |              SearchService blocks of reads — one pool task
//        |              each, banks in ascending order — or one read's
//        |              banks across the pool (search()), merges
//        |              per-read results, keeps the aggregate ledger)
//        +-- bank 0: AsmcapAccelerator [cold]
//        +-- bank 1: AsmcapAccelerator [cold]
//        +-- ...
//        +-- hot bank (optional, always last): small append staging bank
//
// The database is LIVE (docs/architecture.md "Live database"): the router
// publishes epoch snapshots (DbEpoch) of its bank set under a
// copy-on-write scheme. Every mutation — append_segments, remove_segments,
// compact — builds epoch E+1 from epoch E, re-using every untouched bank
// BY REFERENCE (shared_ptr), then publishes the new epoch on the control
// plane. In-flight SearchService tickets and db() snapshots PIN the epoch
// current when they were taken and read it to completion: a pinned
// epoch's banks are never written, so a ticket never observes a mutation
// that raced its execution, and concurrent search-under-mutation is
// data-race-free. While any pin lives (of E or of an older epoch), a bank
// the mutation writes is cloned first, as it is whenever anything but E
// and the epoch being built holds it; otherwise it is written in place, so
// loading a reference with nothing pinned copies no bank at all. The
// router keeps one count of live pins: the check is an acquire load of it,
// paired with the release each pin's last drop makes (on whatever thread)
// after letting go of its epoch, so every read made through a pin happens
// before an in-place write of what it read. A mutation prepares every
// bank write it makes (validated, allocated: AsmcapAccelerator::
// PendingWrite) before it commits any, so it publishes whole or, throwing
// a DbError or an allocation failure, leaves the published epoch exactly
// as it was (db_error.h).
//
// Heterogeneous geometry: appends land in a small HOT bank
// (config.live.hot_array_rows x hot_array_count arrays, always the LAST
// bank of an epoch) so a trickle of inserts never pays SL-driver energy
// for a mostly-empty full-size array. When an append overflows the hot
// bank — or compact() is called — its live rows are folded into the cold
// banks' free rows (tombstoned slots first) at an epoch boundary, in
// ascending id order. An overflowing append builds the epoch that
// filling the hot bank row by row and folding it whenever it is full
// would build, but directly: with H hot rows, k staged and n new, it
// keeps the last r = (k + n - 1) mod H + 1 new rows staged in a fresh hot
// bank and folds the staged rows and the other n - r new ones straight
// from the batch into the cold tier, one append per receiving cold bank;
// the old hot bank is read, never written. compact() is the same fold
// with no new rows. An epoch thus copies the rows it writes (into the
// fresh hot bank, or into the fold's one block of rows, which each
// receiving cold bank takes its share of) and clones the banks it writes
// only while a pin lives; a write draws no silicon (a noisy bank draws a
// row's silicon when the row first senses in the noise band, into a memo
// its clones share). Global segment ids are stable
// across append, delete, and rebalance: an id is assigned once, never
// reused, and (because every per-decision RNG stream AND the row's
// manufactured silicon are keyed by global id, with every bank built from
// the router's own seed) a segment decides identically wherever
// rebalancing moves it — searching epoch E is
// bit-identical to a fresh router loaded with exactly E's live segments,
// on every backend including noisy circuit sensing (determinism rule 8;
// enforced by tests/test_live.cpp and tests/test_sharded.cpp).
//
// Per-shard results are slot-indexed at the bank boundary, and every read
// (run on N banks, on one, or pruned on all) is finished by one merge
// through each bank's LiveDirectory into the global id space: decisions
// scatter into the global bitmap (ids are disjoint across banks), energy
// is the sum in ascending shard order, latency is the plan's analytic
// pass latency (banks search in parallel and every bank reports exactly
// that value for the plan, so it equals the max over the banks), and the
// router's ledger records the merged totals.
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
// until the last pin on it drops).
// Thread-safety: the mutating entry points (load_reference,
// append_segments, remove_segments, compact, search, search_batch, set_*,
// and SearchService::submit/wait/drain on top of them) belong to one
// control thread at a time; the bank execute() calls in pool tasks are
// what runs concurrently, always against a pinned epoch snapshot. A pin
// may be dropped on any thread. Read a snapshot's banks only while it is
// held: the pin, not a bank pointer copied out of it, is what orders
// those reads before a later in-place write.
// Reentrancy: search() waits on the session pool (util/thread_pool.h),
// so never search or mutate from inside a pool task or service callback.
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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

/// One snapshot of the router's bank set. Published by the control plane
/// with shared_ptr<const DbEpoch>; tickets and db() pin the pointer and
/// never look back. Banks are shared across epochs — a bank appears in
/// every epoch between the mutation that created it and the mutation that
/// cloned or retired it — and a pinned epoch's banks are only ever read
/// (const execute()). A mutation writes a bank in place only while no pin
/// lives, so nothing a pin sees ever changes.
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
  /// the hot bank while it has room. One that overflows it folds the
  /// staged rows and all but the last r new rows (r as in the file
  /// comment, 1..H) straight into the cold banks' free rows, in ascending
  /// id order, and stages those r in a fresh hot bank: bank for bank the
  /// epoch that staging row by row, folding at every full hot bank, would
  /// publish. Also valid before load_reference (bootstrap: the database
  /// grows from nothing). DbErrorKind::CapacityExceeded when the live
  /// count would exceed the cold capacity.
  std::vector<std::uint64_t> append_segments(
      const std::vector<Sequence>& segments);

  /// Tombstones the given global ids and publishes a new epoch. DbError:
  /// UnknownSegment / DoubleDelete (duplicates within the call included);
  /// the current epoch is untouched when it throws (validation precedes
  /// cloning).
  void remove_segments(const std::vector<std::uint64_t>& ids);

  /// Folds the hot bank's live rows into the cold banks at an epoch
  /// boundary (the overflowing append's fold with no new rows).
  /// Returns the epoch number afterwards — unchanged when nothing is
  /// staged (no new epoch is published).
  std::uint64_t compact();

  /// Epoch number of the current snapshot (0 before any reference).
  std::uint64_t epoch() const { return db_ ? db_->number : 0; }
  /// The current snapshot itself, pinned like a launched ticket's: while
  /// any copy of it lives, mutations clone each bank they write instead of
  /// writing it in place. Like every const accessor, safe to call from
  /// several threads while no mutation runs (a pin only increments an
  /// atomic count). nullptr before any reference.
  std::shared_ptr<const DbEpoch> db() const { return pin(); }

  SegmentState segment_state(std::uint64_t id) const;
  /// The live (id, segment) pairs of the current epoch, ascending by id.
  std::vector<std::pair<std::uint64_t, Sequence>> live_segments() const;

  /// Sets the workload error profile used by the offline pre-processing
  /// of HDAC's p and TASR's T_l for every plan. Defaults to Condition A.
  void set_error_profile(const ErrorRates& rates) { rates_ = rates; }
  const ErrorRates& error_profile() const { return rates_; }

  /// Switches every current bank's backend kind; it draws no silicon
  /// (AsmcapAccelerator::set_backend). Control-plane only, and (unlike
  /// append/remove, which clone while a pin lives) NOT safe while tickets
  /// are in flight: every bank is switched in place, pinned or not.
  void set_backend(BackendKind kind);
  BackendKind backend_kind() const { return backend_kind_; }

  /// Searches one read against the whole sharded database, fanning the
  /// per-bank scans across `workers` threads (the latency path: one read
  /// split across banks). Deterministic in worker count.
  QueryResult search(const Sequence& read, std::size_t threshold,
                     StrategyMode mode, std::size_t workers = 1);

  /// Searches a batch: blocks of consecutive reads, one pool task each,
  /// across `workers` threads, read i's RNG stream forked from the
  /// master stream as (batch epoch << 32) | i, never advancing it.
  /// Results are bit-identical for any worker count. This is a thin
  /// blocking wrapper over SearchService (submit + drain), so peak
  /// result memory is bounded by the in-flight admission window, not by
  /// reads x shards; use the service directly (asmcap/service.h) for
  /// asynchronous submit/poll and per-read result streaming.
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

  /// One epoch being built: its bank set (sharing the published epoch's
  /// banks until it touches them), which banks it already owns, the
  /// fold's rows, and every bank write prepared so far — at most one per
  /// bank — which publish() commits together.
  struct EpochBuild {
    std::shared_ptr<DbEpoch> next;
    std::vector<bool> owned;
    /// The rows a fold moves into the cold tier and their ids, ascending
    /// by id; each receiving cold bank's write reads its share of them.
    std::vector<Sequence> fold_rows;
    std::vector<std::uint64_t> fold_ids;
    std::vector<AsmcapAccelerator::PendingWrite> writes;
  };
  void check_loaded() const;
  void check_shard(std::size_t s) const;
  /// The current epoch, pinned: counts a pin in, and the returned
  /// pointer's last copy lets go of the epoch and then counts it out
  /// (release order).
  std::shared_ptr<const DbEpoch> pin() const;
  /// True iff no pin can reach `bank`, a bank of the published epoch that
  /// the epoch being built shares: no pin lives (read with acquire order)
  /// and nothing but those two epochs holds it.
  bool unshared(const std::shared_ptr<AsmcapAccelerator>& bank) const;
  /// Epoch E+1 under construction: E's banks, none owned yet.
  EpochBuild begin_build() const;
  /// Commits every prepared write (none can throw) and publishes the
  /// build's epoch.
  void publish(EpochBuild& build);
  /// A fresh (empty) bank on the router's config — hence its seeds — and
  /// backend kind, whose auto-assigned ids start `id_floor` above
  /// config_.segment_base. `cold` picks the full config_ geometry vs the
  /// hot staging geometry from config_.live.
  std::shared_ptr<AsmcapAccelerator> make_bank(bool cold,
                                               std::size_t id_floor) const;
  /// Copy-on-write on first touch of build.next->banks[i] within one
  /// epoch build: writes the bank in place when unshared(), else swaps in
  /// a clone (build.owned[i] tracks which banks the build already owns).
  AsmcapAccelerator& touch(EpochBuild& build, std::size_t i) const;
  /// Prepares the fold of the hot bank's live rows (when the build has
  /// one), ascending by id, then `rows` (with `ids`, ascending and above
  /// every staged id) into the cold banks' free rows: each cold bank in
  /// shard order, created on demand up to shard_count_, takes as many as
  /// it has room for in one append. The hot bank is read, never written,
  /// and dropped from the epoch. Caller guarantees the rows fit the cold
  /// free capacity (the append/delete capacity invariant).
  void fold_into_cold(EpochBuild& build, std::span<const Sequence> rows,
                      std::span<const std::uint64_t> ids) const;
  /// Shards of `db` to dispatch for `plan`, ascending. All banks when
  /// pruning is disabled or cannot be sound (pruning_window_count == 0);
  /// otherwise the banks whose may_match probe keeps them.
  std::vector<std::uint32_t> probe_shards(const DbEpoch& db,
                                          const ExecutionPlan& plan) const;
  /// Merges the partial results of the dispatched shards (partials[j] is
  /// shard shard_ids[j]'s slot-indexed result of `plan`) into one global
  /// result: each partial's matched slots scatter through its bank's
  /// LiveDirectory (then the global ids are sorted), energy = sum in
  /// ascending shard order, and latency = the plan's analytic pass
  /// latency, which is what every bank's execute() reports for it and so
  /// equals the max over banks. With no partials (every bank pruned) the
  /// read merges to all-false decisions, zero energy and that same
  /// latency: latency is plan-determined, not data-determined.
  QueryResult merge_subset(const DbEpoch& db, const ExecutionPlan& plan,
                           const std::vector<QueryResult>& partials,
                           const std::vector<std::uint32_t>& shard_ids) const;

  AsmcapConfig config_;
  std::size_t shard_count_;
  ErrorRates rates_;
  BackendKind backend_kind_ = BackendKind::Circuit;
  /// The published snapshot. Written only by control-plane mutations;
  /// tickets and db() pin it (pin()), search() copies it.
  std::shared_ptr<const DbEpoch> db_;
  /// Live pins, of any epoch. Shared with each pin's deleter, which may
  /// outlive the router.
  std::shared_ptr<std::atomic<std::size_t>> pins_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  std::uint64_t next_global_id_;  ///< Monotonic; ids are never reused.
  TimingModel timing_;  ///< Plan-pure pass latency (merge_subset's source).
  Controller controller_;
  std::uint64_t batch_epoch_ = 0;
  Rng rng_;  ///< Master query stream; one next() per search() only.
  SessionPool pool_;  ///< Pinned by in-flight SearchService tickets.
};

}  // namespace asmcap
