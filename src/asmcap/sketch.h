#pragma once
// Bank sketch for shard pruning: a positional base-occurrence index that
// lets the sharded router prove, before spawning any work, that a bank
// cannot contain a match for a query — so the (read x shard) task is never
// dispatched, no SL-driver energy is charged, and (because every
// per-decision RNG stream is keyed by global segment id) the remaining
// banks' decisions are bit-identical to full fan-out.
//
// Why not a k-mer/Bloom sketch (the classic edit-distance seed filter):
// ED* is not edit distance. Cell i of a stored row Q matches when
// Q[i] ∈ {R[i-1], R[i], R[i+1]} — each cell independently picks its
// neighbour — so a row can have ED* = 0 while sharing NO contiguous k-mer
// with the read (e.g. Q = the read with every adjacent pair swapped).
// A shared-k-mer filter would therefore have false negatives and break the
// bit-identity contract. What ED* does preserve is positional alignment:
// rows are fixed-width and never slide, so cell i of every row in every
// bank sees exactly the read bases {R[i-1], R[i], R[i+1]}.
//
// The sketch exploits that: for each column i and base x it stores a
// bitset over the bank's rows with bit r set iff row r holds x at column
// i. "Row r is alive in window [lo, hi)" — the AND over the window's
// columns of the OR of the ≤ 3 neighbour-base bitsets — is then EXACTLY
// "ED* restricted to [lo, hi) is zero". By pigeonhole, a row with total
// mismatch count < K has a zero-mismatch window among any K disjoint
// windows, so a bank whose windows are all dead (for every ED* pass of
// the plan, rotations included) provably contains no row that can decide
// 'match':
//  * ideal sensing (BackendKind::Functional, or a Circuit bank under
//    ideal_sensing) decides count <= T, so K = T + 1 windows suffice;
//  * noisy sensing can flip counts slightly above T back to
//    'match', but the noise is hard-bounded (Box-Muller deviates from
//    Rng::normal() never exceed sqrt(-2 ln 2^-53) sigma; manufactured
//    capacitors are clamped at ±4 sigma), so pruning_window_count()
//    takes K(T) = the miss side of charge_decision_band
//    (circuit/sense_amp.h): a row at or above K is GUARANTEED to decide
//    'no match' for every possible draw.
// The Hamming (HDAC) pass is covered a fortiori: a cell that matches
// under Hamming also matches under ED*, so the Hamming mismatch count is
// >= the ED* count at the same threshold.
//
// Memory: 4 bitsets per column over the bank's rows — about 2x the packed
// reference content. Probe cost: <= K windows x window width word-ANDs
// with early exit, orders of magnitude below one backend pass.
//
// Thread-safety: may_match is const, touches no shared mutable state, and
// is safe to call concurrently from router control threads and service
// workers. The live-database mutators (set_row / clear_row) are
// control-plane only and never run against a sketch with probes in
// flight: the sharded router mutates bank CLONES and publishes them as a
// new epoch, so in-flight tickets probe immutable snapshots.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "asmcap/config.h"
#include "asmcap/planner.h"
#include "genome/sequence.h"

namespace asmcap {

enum class BackendKind : std::uint8_t;  // asmcap/backend.h

class BankSketch {
 public:
  /// Builds the sketch over a bank's stored segments (each must be
  /// exactly `cols` wide — the fixed array width).
  BankSketch(const std::vector<Sequence>& segments, std::size_t cols);

  /// Empty sketch of a live bank: rows are added by set_row as segments
  /// are appended.
  explicit BankSketch(std::size_t cols);

  /// (Re)writes row r's occurrence bits (live-database append / slot
  /// reuse), growing the bitsets as needed. Any stale bits of a previous
  /// occupant are cleared first.
  void set_row(std::size_t r, const Sequence& row);

  /// Clears row r in every column (tombstone delete): the row is dead in
  /// every window, so it can never keep a bank alive — the sketch stays
  /// sound and exactly consistent with the masked decision paths.
  void clear_row(std::size_t r);

  /// True unless the bank provably contains no row that can decide
  /// 'match' for any pass of `plan` under `windows` disjoint pigeonhole
  /// windows (from pruning_window_count). windows == 0 — "cannot prune" —
  /// conservatively returns true.
  bool may_match(const ExecutionPlan& plan, std::size_t windows) const;

  std::size_t rows() const { return rows_; }
  std::size_t columns() const { return cols_; }
  /// Resident size of the occurrence bitsets (capacity planning).
  std::size_t memory_bytes() const {
    return occ_.size() * sizeof(std::uint64_t);
  }

 private:
  void ensure_rows(std::size_t rows);
  bool window_alive(const Sequence& read, std::size_t lo, std::size_t hi,
                    std::vector<std::uint64_t>& alive) const;
  const std::uint64_t* occ(std::size_t col, std::uint8_t code) const {
    return occ_.data() + (col * 4 + code) * words_;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_ = 0;  ///< ceil(rows / 64) words per bitset.
  /// Bitsets indexed [col * 4 + base code]: bit r set iff row r stores
  /// that base at that column.
  std::vector<std::uint64_t> occ_;
};

/// Number of disjoint pigeonhole windows a sound prune needs for one
/// query: T + 1 under ideal sensing; when the bank senses noise
/// (`backend` Circuit on a noisy config), the smallest K for which a
/// mismatch count >= K is guaranteed to decide 'no match' under the worst
/// bounded noise draw. Returns 0 when pruning
/// cannot be sound for this configuration (window width would be zero, or
/// the capacitor-mismatch bound swallows the whole margin) — callers must
/// then fan out to every bank.
std::size_t pruning_window_count(const AsmcapConfig& config,
                                 BackendKind backend, std::size_t threshold);

}  // namespace asmcap
