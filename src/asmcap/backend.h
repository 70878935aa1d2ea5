#pragma once
// Execution backends: the layer between a materialised ExecutionPlan and
// the per-segment match decisions (engine layering: planner -> backend ->
// batch engine). Two implementations share one interface:
//
//  * CircuitBackend — cell-accurate: every pass senses the manufactured
//    silicon (capacitor mismatch, settled matchline voltages, SA noise
//    unless ideal_sensing). This is the fidelity path the paper's accuracy
//    claims rest on.
//  * FunctionalBackend — fast: the same match decisions computed with the
//    word-parallel ED*/Hamming kernels and nominal analytic energy, an
//    order of magnitude faster for large sweeps. Under ideal_sensing the
//    two backends are decision-identical (enforced by test_engine).
//
// The EDAM comparator runs through the same seam with its own pair, over
// one shared packed row store just like the ASMCap pair:
//
//  * EdamCircuitBackend — cell-accurate current-domain sensing (pre-charge,
//    discharge, sample-and-hold): each row's mismatch lane words feed
//    CurrentArrayReadout::drop_row, then decide_from_drop.
//  * EdamFunctionalBackend — the packed word-parallel kernels with the
//    count-pure current-domain energy model (bit-identical energy to the
//    circuit path; decision-identical under ideal_sensing, enforced by
//    test_edam).
//
// Ownership: backends are owned by their accelerator and hold non-owning
// references into it. Both backends of a pair read the accelerator's one
// packed row matrix (the ASMCap pair also reads its LiveDirectory); each
// circuit backend also reads the manufactured readouts. The accelerator
// must outlive them.
// Thread-safety: run_pass is const and thread-safe — concurrent batch
// workers share one backend, each supplying its own forked RNG stream.
// Mutations (which rewrite the directory and packed rows) never run
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
#include "asmcap/config.h"
#include "cam/cell.h"
#include "cam/charge_readout.h"
#include "cam/current_readout.h"
#include "cam/periphery.h"
#include "genome/sequence.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace asmcap {

/// Which execution backend an accelerator routes its passes through.
enum class BackendKind : std::uint8_t { Circuit, Functional };

const char* to_string(BackendKind kind);

/// Per-slot live-database directory shared by an accelerator and its
/// backends (slot = array * array_rows + row, allocated in fill order).
/// The accelerator mutates it on the control plane (append/delete); the
/// backends read it inside run_pass. A tombstoned slot keeps its last id
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

  virtual const char* name() const = 0;

  /// One search pass: per-slot decisions at `threshold` (see PassResult).
  /// Must be thread-safe; per-decision SA noise is forked from
  /// `query_rng.fork(pass_salt)` per global segment (unused by paths that
  /// decide ideally). `query_rng` is never advanced.
  virtual PassResult run_pass(const Sequence& read, MatchMode mode,
                              std::size_t threshold, const Rng& query_rng,
                              std::uint64_t pass_salt) const = 0;
};

/// Cell-accurate backend over the manufactured charge-domain silicon: one
/// ChargeArrayReadout per array (capacitor banks + systematic SA offsets)
/// sensing the rows of the accelerator's packed slot matrix. Holds
/// non-owning references into the accelerator (the readouts, the live
/// directory, and the row store — stable objects whose contents the
/// accelerator mutates on the control plane); the accelerator must
/// outlive it. An array with zero live rows is skipped whole — no
/// SL-driver energy — and a tombstoned row decides nothing, charges no
/// matchline energy, and draws no RNG fork.
///
/// A pass builds one PackedReadView and takes every row's mismatch count
/// from the block kernels. A row whose count lies outside the noise band
/// (charge_decision_band; under ideal_sensing the band is empty and
/// count <= T decides) is decided from the count alone: no admissible
/// silicon or noise draw could change its SA outcome (determinism.md rule
/// 7). Only in-band rows settle V_ML from their mismatch lane words and
/// draw SA noise from the per-id fork — the same draw they always took,
/// and since per-decision streams are pure per-id forks, skipping a row's
/// fork shifts no other row's draw.
class CircuitBackend : public ExecutionBackend {
 public:
  CircuitBackend(const AsmcapConfig& config,
                 const std::vector<ChargeArrayReadout>& readouts,
                 const LiveDirectory& directory, const PackedRowMatrix& rows);

  const char* name() const override { return "circuit"; }
  PassResult run_pass(const Sequence& read, MatchMode mode,
                      std::size_t threshold, const Rng& query_rng,
                      std::uint64_t pass_salt) const override;

 private:
  const std::vector<ChargeArrayReadout>* readouts_;
  const LiveDirectory* dir_;
  const PackedRowMatrix* rows_;
  std::size_t array_rows_;
  ChargeDomainParams charge_;
  bool ideal_sensing_;
  SearchlineDriver sl_driver_;
};

/// Fast functional backend: SIMD-dispatched block kernels
/// (align/kernels.h) over the accelerator's row-major 2-bit packed slot
/// matrix, ideal (noise-free) decisions, nominal analytic energy. Each
/// pass builds one PackedReadView — the read-derived neighbour alignments
/// are computed once per (read, rotation), not once per (segment, read).
/// Holds non-owning references to the matrix and the LiveDirectory, like
/// CircuitBackend; tombstoned slots are masked out of decisions and row
/// energy, and SL-driver energy is charged only for arrays with at least
/// one live row. A pass builds its decision bitmap a 64-slot word at a
/// time and books each live row's nominal energy from a per-count table,
/// in ascending slot order.
class FunctionalBackend : public ExecutionBackend {
 public:
  FunctionalBackend(const AsmcapConfig& config,
                    const LiveDirectory& directory,
                    const PackedRowMatrix& rows);

  const char* name() const override { return "functional"; }
  PassResult run_pass(const Sequence& read, MatchMode mode,
                      std::size_t threshold, const Rng& query_rng,
                      std::uint64_t pass_salt) const override;

 private:
  const LiveDirectory* dir_;
  const PackedRowMatrix* rows_;
  std::size_t cols_;
  SearchlineDriverParams sl_params_;
  /// Nominal matchline energy of a row with k mismatches, k = 0..cols.
  std::vector<double> row_energy_;
};

/// Cell-accurate EDAM backend: current-domain sensing over the
/// EdamAccelerator's packed row store and manufactured CurrentArrayReadout
/// bank (row g senses on readout g / array_rows, matchline g % array_rows).
/// Each row's mismatch lane words — the cell outputs the ED*/Hamming
/// kernels count — give its count, which books the row's energy, and its
/// nominal discharge (drop_row), which decide_from_drop senses with the
/// per-id noise fork. Under ideal_sensing, count <= T decides. Holds
/// non-owning references into the accelerator; the accelerator must
/// outlive it.
class EdamCircuitBackend : public ExecutionBackend {
 public:
  EdamCircuitBackend(const PackedRowMatrix& rows,
                     const std::vector<CurrentArrayReadout>& readouts,
                     std::size_t array_rows, bool ideal_sensing);

  const char* name() const override { return "edam-circuit"; }
  PassResult run_pass(const Sequence& read, MatchMode mode,
                      std::size_t threshold, const Rng& query_rng,
                      std::uint64_t pass_salt) const override;

 private:
  const PackedRowMatrix* rows_;
  const std::vector<CurrentArrayReadout>* readouts_;
  std::size_t array_rows_;
  bool ideal_sensing_;
};

/// Fast EDAM backend: the block kernels over the same packed row store as
/// EdamCircuitBackend (held by non-owning reference), ideal (noise-free)
/// decisions, and the count-pure current-domain energy model —
/// bit-identical energy to EdamCircuitBackend (the energy of a
/// current-domain search does not depend on the manufactured currents).
class EdamFunctionalBackend : public ExecutionBackend {
 public:
  EdamFunctionalBackend(const PackedRowMatrix& rows,
                        const CurrentDomainParams& params);

  const char* name() const override { return "edam-functional"; }
  PassResult run_pass(const Sequence& read, MatchMode mode,
                      std::size_t threshold, const Rng& query_rng,
                      std::uint64_t pass_salt) const override;

 private:
  const PackedRowMatrix* rows_;
  CurrentDomainParams params_;
};

}  // namespace asmcap
