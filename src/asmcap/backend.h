#pragma once
// Execution backends: the layer between a materialised ExecutionPlan and
// the per-segment match decisions (engine layering: planner -> backend ->
// batch engine). One pass per sensing domain, each with ideal sensing as
// its noise-free case:
//
//  * CircuitBackend — ASMCap's charge-domain pass. The kernels count
//    every row's mismatches block by block over the bit-sliced row store;
//    a row decides from its count unless the bank senses noise and the
//    count lies in the noise band, in which case it settles V_ML on its
//    manufactured silicon and draws SA noise. Matchline energy is the
//    count-pure Eq. 1, noisy or not.
//  * EdamCircuitBackend — EDAM's current-domain pass (pre-charge,
//    discharge, sample-and-hold) over the same kind of row store: block
//    counts, count-pure energy, count <= T under ideal sensing, and each
//    row's mismatch lane words into CurrentArrayReadout::drop_row then
//    decide_from_drop when it senses noise.
//
// Ownership: backends are owned by their accelerator and hold non-owning
// references into it: its one bit-sliced row store, the ASMCap bank's
// LiveDirectory, and the manufactured readouts (read only when the pass
// senses noise). The accelerator must outlive them.
// Thread-safety: run_pass is const and thread-safe — concurrent batch
// workers share one backend, each supplying its own forked RNG stream.
// Mutations (which rewrite the directory and the row store) never run
// against a backend with passes in flight: the sharded router mutates
// CLONES and publishes them as a new epoch, so in-flight work only ever
// reads immutable snapshots (docs/architecture.md "Live database").
// Reentrancy: run_pass never dispatches work to a pool, so it is safe to
// call from inside pool tasks (the service does exactly that).
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
// decisions invariant in completion order.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/kernels.h"
#include "align/row_store.h"
#include "asmcap/config.h"
#include "cam/cell.h"
#include "cam/charge_readout.h"
#include "cam/current_readout.h"
#include "cam/periphery.h"
#include "genome/sequence.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace asmcap {

/// Which sensing an ASMCap bank runs: Circuit senses the analog noise
/// model unless config.ideal_sensing; Functional always senses ideally.
enum class BackendKind : std::uint8_t { Circuit, Functional };

const char* to_string(BackendKind kind);

/// Per-slot live-database directory shared by an accelerator and its
/// backend (slot = array * array_rows + row, allocated in fill order).
/// The accelerator mutates it on the control plane (append/delete); the
/// backend reads it inside run_pass. A tombstoned slot keeps its last id
/// (results stay sized by slot) but is masked out of decisions and
/// matchline energy, and an array whose live count drops to zero is
/// skipped entirely — no SL-driver energy for dead silicon.
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

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// One search pass of `read` (an ED* or a Hamming view, whose width
  /// must equal the array's): per-slot decisions at `threshold` (see
  /// PassResult). Must be thread-safe; per-decision SA noise is forked
  /// from `query_rng.fork(pass_salt)` per global segment (unused by paths
  /// that decide ideally). `query_rng` is never advanced.
  virtual PassResult run_pass(const PackedReadView& read,
                              std::size_t threshold, const Rng& query_rng,
                              std::uint64_t pass_salt) const = 0;
};

/// ASMCap's charge-domain pass over the bank's bit-sliced slot store.
/// Holds non-owning references into the bank (the readouts, the live
/// directory, and the row store — stable objects whose contents the bank
/// mutates on the control plane); the bank must outlive it. Every array
/// with a live row drives its searchlines once per pass; an all-dead array
/// is never driven, and a tombstoned or padding row decides nothing,
/// charges no matchline energy, and draws no RNG fork.
///
/// A pass takes the plan's PackedReadView of its metric (built once per
/// read, shared by every bank) and walks the store block by block: the
/// active kernel counts the block's 256 rows and flags those with
/// count < band.hit_below. Per 64-slot decision word, those
/// flags ANDed with the live word are the decisions, and a call-free loop
/// over the live bits books each live row's Eq. 1 energy from a per-count
/// table, in ascending live-slot order after the SL-driver energy — the
/// one summation order, so booked energy is bit-identical whatever
/// computed the counts. Without noise the band is empty (count <= T
/// decides). With `sense_noise`, a row whose count lies in
/// charge_decision_band gathers its packed words alone, settles V_ML from
/// its mismatch lane words on its ChargeArrayReadout and draws SA noise
/// from the per-id fork; a row outside it decides from the count alone,
/// since no admissible silicon or noise draw could change its SA outcome
/// (determinism.md rule 7).
/// Per-decision streams are pure per-id forks, so skipping a row's fork
/// shifts no other row's draw. `readouts` must then hold the silicon of
/// every live row; without noise it is never read.
class CircuitBackend : public ExecutionBackend {
 public:
  CircuitBackend(const AsmcapConfig& config,
                 const std::vector<ChargeArrayReadout>& readouts,
                 const LiveDirectory& directory, const SlicedRowStore& rows,
                 bool sense_noise);

  PassResult run_pass(const PackedReadView& read, std::size_t threshold,
                      const Rng& query_rng,
                      std::uint64_t pass_salt) const override;

 private:
  const std::vector<ChargeArrayReadout>* readouts_;
  const LiveDirectory* dir_;
  const SlicedRowStore* rows_;
  std::size_t array_rows_;
  std::size_t cols_;
  ChargeDomainParams charge_;
  bool sense_noise_;
  SearchlineDriverParams sl_params_;
  /// Eq. 1 matchline energy of a row with k mismatches, k = 0..cols.
  std::vector<double> row_energy_;
};

/// EDAM's current-domain pass over the EdamAccelerator's bit-sliced row
/// store (row g senses on readout g / array_rows, matchline
/// g % array_rows). The kernels count every row block by block; each row
/// books its count-pure current-domain energy (current_row_search_energy,
/// from a per-count table) in row order. Without `sense_noise`, count <= T
/// decides; with it, the pass gathers each 64-row group, and each row's
/// mismatch lane words give its nominal discharge (drop_row), which
/// decide_from_drop senses with the per-id noise fork; `readouts` must
/// then hold every row's silicon. Holds non-owning references into the
/// accelerator; the accelerator must outlive it.
class EdamCircuitBackend : public ExecutionBackend {
 public:
  EdamCircuitBackend(const SlicedRowStore& rows,
                     const std::vector<CurrentArrayReadout>& readouts,
                     std::size_t array_rows,
                     const CurrentDomainParams& params, bool sense_noise);

  PassResult run_pass(const PackedReadView& read, std::size_t threshold,
                      const Rng& query_rng,
                      std::uint64_t pass_salt) const override;

 private:
  const SlicedRowStore* rows_;
  const std::vector<CurrentArrayReadout>* readouts_;
  std::size_t array_rows_;
  bool sense_noise_;
  /// Current-domain energy of a row with k mismatches, k = 0..cols.
  std::vector<double> row_energy_;
};

}  // namespace asmcap
