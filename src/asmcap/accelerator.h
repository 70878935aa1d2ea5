#pragma once
// One ASMCap bank (paper Fig. 4a): a bank of ASMCap arrays plus the
// layers that run a query over them:
//
//   QueryPlanner  — turns (read, T, mode) into an immutable ExecutionPlan
//   ExecutionBackend — runs the plan's passes (CircuitBackend, the
//                      charge-domain pass, noisy or ideal)
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
// bank's one canonical row store — what the backend counts, block by
// block, what the shard-pruning probe (may_match) reads, and what
// live_segments() gathers, group by group; the bank keeps no other
// index of its rows. The bank senses the analog noise model iff its
// backend kind is Circuit and config.ideal_sensing is false. Only then
// does it hold circuit state —
// one ChargeArrayReadout (capacitor banks + SA offsets) per array,
// sensing rows gathered from the same store — built from the per-id silicon
// streams when the bank starts sensing noise and dropped when it stops,
// so an ideal-sensing bank never pays for silicon it does not read.
//
// Ownership: the bank owns its row store, readouts, backend, and planner;
// the backend holds non-owning references into it (hence not movable).
// Thread-safety: the mutating entry points (load_reference,
// append_segments, remove_segments, set_backend) belong to one control
// thread at a time; execute() is const and thread-safe and is what the
// sharded router and the streaming service fan across workers. Mutations
// must not run while this bank has execute() calls in flight — the
// sharded router guarantees that by mutating clones and publishing them
// as a new epoch. RNG discipline: docs/determinism.md.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
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
/// matched_segments are row-SLOT-indexed (the router scatters the matched
/// slots to global ids through the bank's LiveDirectory).
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
  explicit AsmcapAccelerator(AsmcapConfig config);

  // Not movable: the backend holds pointers to the readouts, the live
  // directory, and the row store, which a move would leave dangling.
  AsmcapAccelerator(AsmcapAccelerator&&) = delete;
  AsmcapAccelerator& operator=(AsmcapAccelerator&&) = delete;

  /// Seeds the database with `segments` (each must match the array width),
  /// assigning global ids segment_base .. segment_base + n. Only valid on
  /// an empty database (DbErrorKind::AlreadyLoaded otherwise) — use
  /// append_segments to grow it afterwards.
  void load_reference(const std::vector<Sequence>& segments);

  /// Appends segments with auto-assigned global ids (returned, ascending).
  /// Tombstoned row slots are recycled first (lowest slot first), then
  /// fresh rows are allocated; arrays are manufactured on demand. Throws
  /// DbError (CapacityExceeded) when the live count would exceed
  /// capacity_segments(); validation happens before any state changes.
  std::vector<std::uint64_t> append_segments(
      const std::vector<Sequence>& segments);
  /// Appends with explicit (fresh, never-seen) global ids — the sharded
  /// router's path, and the replay path of the epoch-equivalence tests.
  void append_segments(const std::vector<Sequence>& segments,
                       const std::vector<std::uint64_t>& ids);

  /// Tombstones the given global ids. DbError: UnknownSegment for an id
  /// this bank never held, DoubleDelete for an already-dead id (also for
  /// duplicates within one call); nothing changes when it throws.
  void remove_segments(const std::vector<std::uint64_t>& ids);

  SegmentState segment_state(std::uint64_t id) const;
  /// The live (id, segment) pairs, ascending by row slot.
  std::vector<std::pair<std::uint64_t, Sequence>> live_segments() const;

  /// Memberwise deep copy — row store, directory, id map, circuit state
  /// (if built), and load ledger; the copy's backend reads the
  /// copy's own members. The copy-on-write primitive of the sharded
  /// router's epoch scheme: execute() results on the clone are
  /// bit-identical to the original, energy included, and mutating either
  /// never touches the other.
  std::unique_ptr<AsmcapAccelerator> clone() const;

  /// True while every slot s still holds id segment_base + s (always true
  /// for a frozen database; cleared by slot recycling or explicit
  /// out-of-order ids). When true, a slot-indexed execute() result is
  /// already id-indexed.
  bool identity_layout() const { return identity_layout_; }

  /// Selects the sensing of subsequent execute() calls: Circuit (default)
  /// senses the analog noise model unless config.ideal_sensing, and
  /// Functional always senses ideally. Energy depends only on the
  /// mismatch counts, so both kinds book identical energy. Switching is a
  /// control-plane mutation (never with execute() calls in flight): when
  /// the bank starts sensing noise it builds every live row's silicon
  /// from its per-id stream — bit-identical to a bank that was Circuit
  /// from birth with the same history (rule 8) — and when it stops it
  /// frees it. Cheapest on an empty bank.
  void set_backend(BackendKind kind);
  BackendKind backend_kind() const { return backend_kind_; }
  /// The backend (valid once the database is non-empty).
  const ExecutionBackend& backend() const;

  /// Runs one materialised plan with an explicit query stream — the
  /// bank's only search entry point. Const and thread-safe: it touches no
  /// shared mutable state, and `query_rng` is only forked, never advanced.
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
  /// Cumulative cost of loading + appending reference rows (decoder + WL +
  /// SRAM writes; rows of different arrays are written in parallel).
  double load_energy_joules() const { return load_energy_; }
  double load_latency_seconds() const { return load_latency_; }
  const AsmcapConfig& config() const { return config_; }
  const QueryPlanner& planner() const { return planner_; }
  const TimingModel& timing() const { return timing_; }
  /// Always null: banks prune on the row store (may_match) and keep no
  /// sketch. Kept only so the repo benchmark's layer driver
  /// (bench/e2e/bench_layers.cpp), which builds its own reference sketch
  /// from live rows when this is null, compiles unchanged; the next
  /// benchmark change deletes it.
  std::nullptr_t sketch() const { return nullptr; }

 private:
  void check_loaded() const;
  /// True iff the bank senses the analog noise model (and so holds
  /// silicon): backend kind Circuit on a noisy config.
  bool senses_noise() const {
    return backend_kind_ == BackendKind::Circuit && !config_.ideal_sensing;
  }
  /// Manufactures the row silicon at `slot` from the per-id stream of
  /// `id`, manufacturing arrays on demand.
  void build_row_silicon(std::size_t slot, std::uint64_t id);
  /// The shared write path's per-slot half: records `id` at `slot` in the
  /// directory and (while the bank senses noise) builds the row's circuit
  /// state. The row store is written by the caller, a run of consecutive
  /// slots at a time. No cost accounting.
  void write_slot(std::size_t slot, std::uint64_t id);
  /// Cost accounting of one append burst (count rows, the fullest touched
  /// array writing `burst_rows` of them sequentially).
  void book_write_cost(std::size_t count, std::size_t burst_rows);

  AsmcapConfig config_;
  QueryPlanner planner_;
  TimingModel timing_;
  /// Root of the manufactured-silicon stream tree (Rng(seed).fork(0x51C0));
  /// row silicon forks per global id, construction-time array silicon per
  /// array index.
  Rng silicon_root_;
  /// Circuit state: non-empty only while senses_noise() (and a row has
  /// been written); arrays are manufactured on demand.
  std::vector<ChargeArrayReadout> readouts_;
  LiveDirectory dir_;
  SlicedRowStore store_;  ///< Canonical row store, one row per slot.
  std::unordered_map<std::uint64_t, std::size_t> id_to_slot_;
  /// Rebuilt by set_backend, so its noise flag tracks senses_noise().
  std::unique_ptr<CircuitBackend> backend_;
  BackendKind backend_kind_ = BackendKind::Circuit;
  std::uint64_t next_auto_id_;
  bool identity_layout_ = true;
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
