#pragma once
// The legacy shard-pruning sketch, kept only as the repo benchmark's
// reference probe: bench/e2e/bench_layers.cpp builds one per bank from
// its live rows and times BankSketch::may_match as
// `sketch.probe_us_per_bank`. Banks no longer build or maintain one —
// they prune on their bit-sliced row store (AsmcapAccelerator::may_match)
// — and the next benchmark change deletes this file along with that
// metric.
//
// The sketch is a positional base-occurrence index: for each column i
// and base x, a bitset over the rows with bit r set iff row r holds x at
// column i. "Row r is alive in window [lo, hi)" — the AND over the
// window's columns of the OR of the <= 3 neighbour-base bitsets — is
// exactly "ED* restricted to [lo, hi) is zero", the predicate the bank's
// probe evaluates on the row store's planes, so both prune the same
// banks. Memory: 4 bitsets per column over the rows, about 2x the packed
// reference.
//
// Thread-safety: may_match is const and touches no shared mutable state.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "asmcap/planner.h"
#include "genome/sequence.h"

namespace asmcap {

class BankSketch {
 public:
  /// Builds the sketch over a bank's stored segments (each must be
  /// exactly `cols` wide — the fixed array width).
  BankSketch(const std::vector<Sequence>& segments, std::size_t cols);

  /// True unless no row can decide 'match' for any pass of `plan` under
  /// `windows` disjoint pigeonhole windows (from pruning_window_count,
  /// asmcap/accelerator.h). windows == 0 — "cannot prune" —
  /// conservatively returns true.
  bool may_match(const ExecutionPlan& plan, std::size_t windows) const;

  std::size_t rows() const { return rows_; }
  std::size_t columns() const { return cols_; }
  /// Resident size of the occurrence bitsets.
  std::size_t memory_bytes() const {
    return occ_.size() * sizeof(std::uint64_t);
  }

 private:
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

}  // namespace asmcap
