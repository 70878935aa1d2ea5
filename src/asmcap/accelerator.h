#pragma once
// One ASMCap bank (paper Fig. 4a): a bank of ASMCap arrays plus the
// layers that run a query over them:
//
//   QueryPlanner   — turns (read, T, mode) into an immutable ExecutionPlan
//   CircuitBackend — runs all of the plan's passes over this bank in one
//                    sweep of its row store (the charge-domain pass,
//                    noisy or ideal)
//
// A bank is execute() plus mutations. It plans nothing on its own, owns
// no query stream, and keeps no search ledger: the controller that
// schedules every bank is the sharded router (asmcap/sharded.h) with its
// SearchService (asmcap/service.h), and a monolithic search is a 1-shard
// router.
//
// The reference is a LIVE database (docs/architecture.md "Live database"):
// load_reference seeds it, append_segments adds rows (re-using tombstoned
// row slots first), remove_segments tombstones rows — dead rows are masked
// out of decisions, draw no RNG forks, charge exactly zero matchline
// energy, and an array whose rows are all dead is skipped whole (no
// SL-driver energy). Every segment gets a stable GLOBAL id; per-decision
// RNG streams AND the row's manufactured silicon are keyed by that id
// (under config.seed), so a segment decides identically wherever it is
// stored — the invariant behind the sharded router's epoch scheme and
// determinism rule 8. Mutation errors are typed (asmcap/db_error.h) and
// validated in full before any state changes.
//
// Representation: the bit-sliced slot store (align/row_store.h) is the
// bank's one canonical row store — what the passes count, block by
// block, what the shard-pruning probe (may_match) reads, and what
// live_segments() gathers, group by group; the bank keeps no other
// index of its rows. The bank senses the analog noise model iff its
// backend kind is Circuit and config.ideal_sensing is false. Its circuit
// state is a SiliconMemo (asmcap/backend.h), held only on a noisy config:
// a row's silicon is drawn from its per-id stream the first time the row
// senses in the noise band, and kept there. A write draws no silicon, and
// a row outside the band never needs any, so a bank holds silicon only
// for the ids that have sensed in the band.
//
// Ownership: the bank owns its row store, pass, and planner, and shares
// its silicon memo with its clones (silicon is a pure function of the
// id, so every clone wants the same rows). The pass holds only
// config-derived constants and is handed the bank's rows, directory and
// memo on each call, so nothing points into the bank and clone() is a
// plain copy. Every table the bank keeps is a flat vector — the row
// store's plane words, the directory, and the id index (every slot,
// ordered by the id it holds) — so a clone is a few vector copies plus
// the memo's pointer, and an append costs amortised O(appended rows)
// plus, only when the bank holds tombstones, one pass over its live
// words and its id index.
//
// A mutation is two steps, which callers that write several banks (the
// sharded router's epoch build) call separately: prepare_append /
// prepare_remove validate the call and allocate everything it writes —
// target slots, room in the row store, directory and id index (growing
// geometrically) — without changing any row, id or live bit;
// PendingWrite::commit then writes and cannot throw. So a bank
// written in place is never left half-written: a mutation that throws,
// DbError or allocation failure alike, leaves it as it was (db_error.h).
// Thread-safety: the mutating entry points (load_reference,
// append_segments, remove_segments, the prepare_* calls and commit,
// set_backend) belong to one control thread at a time; execute() is const
// and thread-safe and is what the sharded router and the streaming
// service fan across workers (the silicon memo it fills takes its own
// lock). Mutations must not run while this bank has
// execute() calls in flight — the sharded router guarantees that by
// writing a bank in place only while no pin lives and nothing else holds
// it, and cloning it first otherwise. RNG discipline: docs/determinism.md.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "asmcap/backend.h"
#include "asmcap/config.h"
#include "asmcap/db_error.h"
#include "asmcap/planner.h"
#include "circuit/timing.h"
#include "genome/sequence.h"
#include "util/rng.h"

namespace asmcap {

/// Result of one read query. From the router (ShardedAccelerator::search,
/// search_batch, SearchService), decisions are indexed by (global id -
/// segment_base) over the router's id space and matched_segments holds
/// those indices ascending; on a frozen database that is exactly the
/// historical per-segment bitmap. From a bank's execute(), decisions AND
/// matched_segments are row-SLOT-indexed: the router's one merge
/// (ShardedAccelerator::merge_subset) scatters every read's matched slots
/// to global ids through each bank's LiveDirectory, even on a 1-shard
/// router whose slots happen to equal the ids.
struct QueryResult {
  /// Indices of the segments whose rows reported 'match', ascending.
  std::vector<std::size_t> matched_segments;
  /// Per-segment decision bitmap (see above; dead segments are false).
  std::vector<bool> decisions;
  QueryPlan plan;
  double latency_seconds = 0.0;
  double energy_joules = 0.0;
};

/// Lifecycle of a global segment id within one bank.
enum class SegmentState : std::uint8_t {
  Unknown,  ///< Never stored here (or its tombstoned slot was recycled).
  Live,
  Dead,  ///< Tombstoned; the id is never reused.
};

class AsmcapAccelerator {
 public:
  /// A mutation of one bank, validated and with everything it writes
  /// allocated, not yet applied (prepare_append / prepare_remove). A
  /// caller that must change several banks or none prepares every write
  /// first, then commits each. A prepared append reads its rows and ids
  /// again at commit, so they must outlive it, and its bank must not
  /// change in between.
  class PendingWrite {
   public:
    /// Applies the write to its bank. Cannot throw: it only fills the
    /// room its prepare made.
    void commit() noexcept;

   private:
    friend class AsmcapAccelerator;
    AsmcapAccelerator* bank_ = nullptr;
    std::span<const Sequence> rows_;  ///< Empty for a remove.
    std::span<const std::uint64_t> ids_;  ///< Empty for a remove.
    std::vector<std::size_t> slots_;  ///< Ascending; row i goes to slot i.
  };

  explicit AsmcapAccelerator(AsmcapConfig config);

  /// Seeds the database with `segments` (each must match the array width),
  /// assigning global ids segment_base .. segment_base + n. Only valid on
  /// an empty database (DbErrorKind::AlreadyLoaded otherwise) — use
  /// append_segments to grow it afterwards.
  void load_reference(const std::vector<Sequence>& segments);

  /// Appends segments with auto-assigned global ids (returned, ascending).
  /// Tombstoned row slots are recycled first (lowest slot first), then
  /// fresh rows are allocated. Throws
  /// DbError (CapacityExceeded) when the live count would exceed
  /// capacity_segments(); validation happens before any state changes.
  std::vector<std::uint64_t> append_segments(
      const std::vector<Sequence>& segments);
  /// Appends with explicit (fresh, never-seen) global ids — the sharded
  /// router's path, and the replay path of the epoch-equivalence tests.
  /// Ids in any order; ascending ids above every id the bank has held
  /// (the router's) just extend the id index at its back, any others
  /// sort into it once per call.
  void append_segments(std::span<const Sequence> segments,
                       std::span<const std::uint64_t> ids);
  /// append_segments' first step: throws what it throws, and otherwise
  /// returns the write with its target slots chosen and room made in the
  /// row store, directory and id index. Only spare capacity changes,
  /// whether it returns or throws.
  PendingWrite prepare_append(std::span<const Sequence> segments,
                              std::span<const std::uint64_t> ids);

  /// Tombstones the given global ids. DbError: UnknownSegment for an id
  /// this bank never held, DoubleDelete for an already-dead id (also for
  /// duplicates within one call); nothing changes when it throws.
  void remove_segments(const std::vector<std::uint64_t>& ids);
  /// remove_segments' first step: validates and returns the tombstoning,
  /// changing nothing.
  PendingWrite prepare_remove(std::span<const std::uint64_t> ids);

  SegmentState segment_state(std::uint64_t id) const;
  /// The live (id, segment) pairs, ascending by row slot.
  std::vector<std::pair<std::uint64_t, Sequence>> live_segments() const;

  /// A copy of the bank — row store, directory, id index, and load
  /// ledger, each a flat vector copy; the silicon memo (if any) is
  /// shared, never copied. The copy-on-write primitive of the sharded
  /// router's epoch scheme for a bank written while a pin lives:
  /// execute() results on the clone are bit-identical to the original,
  /// energy included, and mutating either never touches the other (the
  /// memo maps ids, not slots, and never changes a row it holds).
  std::unique_ptr<AsmcapAccelerator> clone() const;

  /// Selects the sensing of subsequent execute() calls: Circuit (default)
  /// senses the analog noise model unless config.ideal_sensing, and
  /// Functional always senses ideally. Energy depends only on the
  /// mismatch counts, so both kinds book identical energy. Switching is a
  /// control-plane mutation (never with execute() calls in flight) that
  /// draws nothing: a noisy bank senses on the same per-id silicon
  /// whenever it senses noise, so it decides bit-identically to a bank
  /// that was Circuit from birth with the same history (rule 8).
  void set_backend(BackendKind kind) { backend_kind_ = kind; }
  BackendKind backend_kind() const { return backend_kind_; }

  /// Every pass of `passes` over this bank in one sweep, sensing as
  /// backend_kind() and the config say: one PassResult per pass, in list
  /// order, each with slot-indexed decisions and the pass's energy
  /// exactly as if it ran alone (CircuitBackend::run_passes in
  /// asmcap/backend.h; every view must have the array's width). Const and
  /// thread-safe like execute(). Throws DbError (NotLoaded) on an empty
  /// bank.
  std::vector<PassResult> run_passes(std::span<const PassSpec> passes,
                                     std::size_t threshold,
                                     const Rng& query_rng) const;

  /// Runs one materialised plan with an explicit query stream — the
  /// bank's only search entry point. The plan's passes (ED* view p with
  /// salt p, then the HD view) run in one run_passes sweep; the read ORs
  /// the ED* decisions, runs HDAC on the HD pass's, and adds the pass
  /// energies in pass order. Const and thread-safe: it touches no shared
  /// mutable state, and `query_rng` is only forked, never advanced.
  /// Decisions are row-SLOT-indexed (see QueryResult). The sharded router
  /// fans it across banks (every bank executing the same plan against the
  /// same stream). Throws DbError (NotLoaded) on an empty bank.
  QueryResult execute(const ExecutionPlan& plan, const Rng& query_rng) const;

  /// The shard-pruning probe: false only when no live row can decide
  /// 'match' for any pass of `plan` (ED* passes, rotations included).
  /// Rows are fixed-width and never slide, so cell i of every row sees
  /// the read bases {R[i-1], R[i], R[i+1]}, and a row with a mismatch
  /// count below `windows` has, by pigeonhole, a mismatch-free window
  /// among `windows` disjoint column windows of width cols / windows. The
  /// probe asks the kernels' window_alive (align/kernels.h) for each
  /// window of each ED* view the plan carries, over the row store and the
  /// directory's live words, so dead and padding rows never keep a bank
  /// alive. The HD pass needs no windows of its own: a cell that matches
  /// under Hamming matches under ED*. `windows` comes from
  /// pruning_window_count; 0 ("cannot prune"), a width of zero, or a
  /// view of another width conservatively returns true. Const and
  /// thread-safe like execute().
  bool may_match(const ExecutionPlan& plan, std::size_t windows) const;

  /// Allocated row slots (live + tombstoned). On a frozen database this is
  /// the loaded segment count, as it always was.
  std::size_t loaded_segments() const { return dir_.slots(); }
  std::size_t live_segment_count() const { return dir_.live_count; }
  /// Rows still available for appends (recycled tombstones + fresh rows).
  std::size_t free_capacity() const {
    return config_.capacity_segments() - dir_.live_count;
  }
  /// Arrays holding at least one live row — the arrays that pay SL-driver
  /// energy on a pass.
  std::size_t arrays_in_use() const { return dir_.arrays_in_use(); }
  /// Slot-indexed id / tombstone tables (what the router uses to map an
  /// execute() result's slots to global ids).
  const LiveDirectory& directory() const { return dir_; }
  /// The silicon drawn so far, shared with the bank's clones; null on an
  /// ideal config.
  const SiliconMemo* silicon() const { return silicon_.get(); }
  /// Cumulative cost of loading + appending reference rows (decoder + WL +
  /// SRAM writes; rows of different arrays are written in parallel).
  double load_energy_joules() const { return load_energy_; }
  double load_latency_seconds() const { return load_latency_; }
  const AsmcapConfig& config() const { return config_; }
  const QueryPlanner& planner() const { return planner_; }
  /// Always null: banks prune on the row store (may_match) and keep no
  /// sketch. Kept only so the repo benchmark's layer driver
  /// (bench/e2e/bench_layers.cpp), which builds its own reference sketch
  /// from live rows when this is null, compiles unchanged; the next
  /// benchmark change deletes it.
  std::nullptr_t sketch() const { return nullptr; }

 private:
  /// Memberwise copy, for clone() only: a bank is large, so every copy
  /// goes through clone().
  AsmcapAccelerator(const AsmcapAccelerator&) = default;

  /// True iff the bank senses the analog noise model (and so reads its
  /// silicon): backend kind Circuit on a noisy config.
  bool senses_noise() const {
    return backend_kind_ == BackendKind::Circuit && !config_.ideal_sensing;
  }
  /// PendingWrite::commit for an append and for a remove.
  void commit_append(const PendingWrite& write) noexcept;
  void commit_remove(const PendingWrite& write) noexcept;
  /// The slot holding `id` (live or tombstoned), or kNoSlot: a binary
  /// search of the id index.
  std::size_t slot_of(std::uint64_t id) const;
  /// Cost accounting of one write burst over ascending `slots`: every
  /// slot's row is written, and the fullest touched array writes its
  /// rows sequentially.
  void book_write_cost(std::span<const std::size_t> slots);

  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  AsmcapConfig config_;
  QueryPlanner planner_;
  TimingModel timing_;
  CircuitBackend pass_;
  /// Circuit state: the silicon of every id that has sensed in the band
  /// (the pass fills it), on a noisy config only. Shared with every clone
  /// and epoch.
  std::shared_ptr<SiliconMemo> silicon_;
  LiveDirectory dir_;
  SlicedRowStore store_;  ///< Canonical row store, one row per slot.
  /// The id index: every allocated slot, ordered by the id it holds (its
  /// live or tombstoned occupant; a recycled slot holds its new id only).
  std::vector<std::size_t> slots_by_id_;
  BackendKind backend_kind_ = BackendKind::Circuit;
  std::uint64_t next_auto_id_;
  double load_energy_ = 0.0;
  double load_latency_ = 0.0;
};

/// Number of disjoint pigeonhole windows a sound prune needs for one
/// query (AsmcapAccelerator::may_match): T + 1 under ideal sensing; when
/// the bank senses noise (`backend` Circuit on a noisy config), the
/// smallest K for which a mismatch count >= K is guaranteed to decide
/// 'no match' under the worst bounded noise draw — the miss side of
/// charge_decision_band (circuit/sense_amp.h): Box-Muller deviates from
/// Rng::normal() never exceed sqrt(-2 ln 2^-53) sigma and manufactured
/// capacitors are clamped at ±4 sigma. Returns 0 when pruning cannot be
/// sound for this configuration (window width would be zero, or the
/// noise bound swallows the whole margin) — callers must then fan out to
/// every bank.
std::size_t pruning_window_count(const AsmcapConfig& config,
                                 BackendKind backend, std::size_t threshold);

}  // namespace asmcap
