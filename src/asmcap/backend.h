#pragma once
// The execution pass: the layer between a materialised ExecutionPlan and
// one ASMCap bank's per-slot match decisions (engine layering: planner ->
// pass -> batch engine). CircuitBackend is ASMCap's charge-domain pass,
// with ideal sensing as its noise-free case: the kernels count every
// row's mismatches block by block over the bit-sliced row store; a row
// decides from its count unless the bank senses noise and the count lies
// in the noise band, in which case it settles V_ML on its manufactured
// silicon and draws SA noise. Matchline energy is the count-pure Eq. 1,
// noisy or not. EDAM's current-domain pass is a private member of
// EdamAccelerator (asmcap/edam.h).
//
// Ownership: a CircuitBackend holds only constants derived from its
// config (geometry, the charge-domain parameters, the silicon root, a
// per-count energy table) and points into no bank. Each run_passes call
// is handed the bank it runs on — its row store, LiveDirectory and
// SiliconMemo — so one pass object serves any bank of its config, and a
// bank copies like a value. A call runs a read's whole pass list
// (PassSpec: a view and its RNG salt) in one sweep over the store, and
// returns one PassResult per pass.
// Thread-safety: run_passes is const and thread-safe — concurrent batch
// workers share one pass object and one bank, each supplying its own
// forked RNG stream. The one thing a pass writes is the bank's
// SiliconMemo, which takes its own lock (below). Mutations (which rewrite
// the directory and the row store) never run against a bank with passes
// in flight: the sharded router writes a bank in place only while no pin
// lives, and mutates CLONES published as a new epoch otherwise, so
// in-flight work only ever reads immutable snapshots
// (docs/architecture.md "Live database").
// Reentrancy: run_passes never dispatches work to a pool, so it is safe
// to call from inside pool tasks (the service does exactly that).
//
// RNG discipline (specified in full in docs/determinism.md): a pass never
// draws from the query stream sequentially. It forks a pass stream
// (query_rng.fork(pass_salt)) and then forks one decision stream per row,
// keyed by the row's *global* segment id (its LiveDirectory id; an EDAM
// row's id is its row index, since EDAM loads once and never moves a row).
// Every decision is therefore a pure function of (query stream, pass,
// global segment) — independent of segment placement, bank layout, and
// evaluation order. This is what makes the sharded accelerator's
// decisions invariant in shard count and the streaming service's
// decisions invariant in completion order. A row's silicon is drawn from
// Rng(config.seed).fork(0x51C0).fork(global id), the first time the row
// senses in the band, so it too is a pure function of the id, whichever
// thread, read or bank draws it first.

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "align/kernels.h"
#include "align/row_store.h"
#include "asmcap/config.h"
#include "cam/charge_readout.h"
#include "cam/periphery.h"
#include "genome/sequence.h"
#include "util/bitvec.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace asmcap {

/// Which sensing an ASMCap bank runs: Circuit senses the analog noise
/// model unless config.ideal_sensing; Functional always senses ideally.
enum class BackendKind : std::uint8_t { Circuit, Functional };

const char* to_string(BackendKind kind);

/// Per-slot live-database directory of one bank (slot = array *
/// array_rows + row, allocated in fill order). The bank mutates it on the
/// control plane (append/delete); its passes read it inside run_passes. A
/// tombstoned slot keeps its last id (results stay sized by slot) but is
/// masked out of decisions and matchline energy, and an array whose live
/// count drops to zero is skipped entirely — no SL-driver energy for dead
/// silicon.
struct LiveDirectory {
  std::vector<std::uint64_t> ids;  ///< Global segment id per slot.
  BitVec live;  ///< Tombstone mask per slot, in decision-word layout.
  std::vector<std::size_t> array_live;  ///< Live rows per array.
  std::size_t live_count = 0;

  std::size_t slots() const { return ids.size(); }
  bool slot_live(std::size_t slot) const {
    return slot < live.size() && live[slot];
  }
  std::size_t arrays_in_use() const {
    std::size_t used = 0;
    for (const std::size_t rows : array_live)
      if (rows != 0) ++used;
    return used;
  }
};

/// A noisy bank's silicon, drawn on first use: global id -> that row's
/// RowSilicon. The pass fills it the first time a live row's count lands
/// in the noise band, and a bank shares it with its clones: silicon is a
/// pure function of the id (under the bank's seed and charge
/// parameters), so an entry is never changed or erased, and one stays
/// valid — references into the memo included — for the memo's lifetime.
/// A bank holds silicon only for the ids that have sensed in the band.
/// Thread-safety: find and insert lock the memo, so concurrent passes may
/// fill it; its rows are immutable once inserted.
class SiliconMemo {
 public:
  /// The silicon of `id`, or null when none has been drawn yet.
  const RowSilicon* find(std::uint64_t id) ASMCAP_EXCLUDES(mutex_);
  /// Stores `row` as the silicon of `id` unless another caller stored it
  /// first (the same values: a pure function of the id), and returns the
  /// stored row.
  const RowSilicon& insert(std::uint64_t id, RowSilicon row)
      ASMCAP_EXCLUDES(mutex_);
  /// Rows drawn so far.
  std::size_t size() const ASMCAP_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, RowSilicon> rows_
      ASMCAP_GUARDED_BY(mutex_);
};

/// One array pass of a read: the view it searches (an ED* or a Hamming
/// view; not owned, it must outlive the call) and the salt its RNG stream
/// forks from the query stream (docs/determinism.md).
struct PassSpec {
  const PackedReadView* view = nullptr;
  std::uint64_t salt = 0;
};

/// Result of one array pass over every allocated row slot. Decisions are a
/// SLOT-indexed bitmap (bit s of word s / 64); tombstoned slots are always
/// false. Consumers combine passes word by word (|=, ^=) and walk matches
/// with find_next, never slot by slot. On a frozen (never mutated)
/// database slot == local segment id; after mutations the caller maps
/// slots to global ids through the LiveDirectory.
struct PassResult {
  BitVec decisions;            ///< Per slot, at the threshold.
  double energy_joules = 0.0;  ///< SL-driver + matchline energy of the pass.
};

/// ASMCap's charge-domain pass over one bank's bit-sliced slot store.
/// Every array with a live row drives its searchlines once per pass; an
/// all-dead array is never driven, and a tombstoned or padding row decides
/// nothing, charges no matchline energy, and draws no RNG fork.
///
/// A call takes the plan's PackedReadViews (built once per read, shared
/// by every bank) as a list of passes and sweeps the store once, block by
/// block: while a block is in cache the active kernel counts its 256 rows
/// once per pass and flags those with count < band.hit_below. Per 64-slot
/// decision word, each pass's flags ANDed with the live word are its
/// decisions, and one call-free walk over the live bits books each live
/// row's Eq. 1 energy from a per-count table into every pass's own
/// accumulator (up to 8 passes per walk), so each pass's sum still runs
/// in ascending live-slot order after its SL-driver energy — the one
/// summation order, so booked energy is bit-identical whatever computed
/// the counts and however many passes share the sweep. Under ideal
/// sensing (`silicon` null) the band is empty and count <= T decides.
/// When the bank senses noise, `silicon` is its SiliconMemo. A decision
/// word whose 64 counts all lie outside charge_decision_band decides from
/// its counts alone, since no admissible silicon or noise draw could
/// change those SA outcomes (determinism.md rule 7). In a word with an
/// in-band live row, each such row gathers its packed words alone, takes
/// its silicon from the memo (drawing it there from its id's stream the
/// first time), settles V_ML from its mismatch lane words (the capacitive
/// divider plus its SA offset) and decides through the SA model against
/// V_ref(T), drawing SA noise from the per-id fork of its pass's stream —
/// exactly what ChargeArrayReadout's settle_row and decide give for the
/// same silicon. Per-decision streams are pure per-id forks, so skipping
/// a row's fork shifts no other row's draw.
class CircuitBackend {
 public:
  explicit CircuitBackend(const AsmcapConfig& config);

  /// Every pass of `passes` over `rows` and `directory`, in one sweep:
  /// result p holds pass p's per-slot decisions at `threshold` and its
  /// energy (see PassResult), exactly as if it ran alone. Every view's
  /// width must equal the array's (std::invalid_argument otherwise,
  /// checked before any pass runs). Pass p's per-decision SA noise is
  /// forked from `query_rng.fork(passes[p].salt)` per global segment id;
  /// `query_rng` is never advanced. `silicon` is null under ideal sensing;
  /// otherwise the call adds the silicon of each id it settles for the
  /// first time.
  std::vector<PassResult> run_passes(
      const SlicedRowStore& rows, const LiveDirectory& directory,
      SiliconMemo* silicon, std::span<const PassSpec> passes,
      std::size_t threshold, const Rng& query_rng) const;

 private:
  /// The silicon of `id`: the memo's row, or one drawn from the id's
  /// stream (outside the memo's lock) and stored.
  const RowSilicon& row_silicon(SiliconMemo& silicon, std::uint64_t id) const;

  std::size_t cols_;
  ChargeDomainParams charge_;
  /// Root of the manufactured-silicon stream tree
  /// (Rng(seed).fork(0x51C0)); a row's silicon forks from it per global id.
  Rng silicon_root_;
  SearchlineDriverParams sl_params_;
  /// Eq. 1 matchline energy of a row with k mismatches, k = 0..cols.
  std::vector<double> row_energy_;
};

}  // namespace asmcap
