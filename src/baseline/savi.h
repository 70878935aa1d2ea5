#pragma once
// SaVI model (Laguna et al., ICCAD 2020): seed-and-vote DNA read mapping on
// TCAMs. The read is split into k-mers; each k-mer is searched exactly in a
// TCAM holding the reference k-mers; matching k-mers vote for the
// (row, diagonal) they imply, and a row wins when it collects enough
// consistent votes. Faster than seed-and-extend but loses accuracy (the
// ASMCap paper quotes ~93.8 % for the voting strategy).

#include <cstddef>
#include <vector>

#include "genome/kmer.h"
#include "genome/sequence.h"

namespace asmcap {

struct SaviConfig {
  std::size_t k = 15;
  /// Votes (k-mers agreeing on the same diagonal) required to call a match.
  std::size_t vote_threshold = 3;
  /// Diagonal slack: votes within +/- this offset are pooled (tolerates
  /// indels shifting downstream k-mers).
  std::size_t diagonal_slack = 4;
  /// TCAM performance: one k-mer search per cycle per bank.
  double tcam_cycle = 1e-9;
  std::size_t banks = 2;
  /// TCAM search energy per database bit per k-mer probe.
  double search_energy_per_bit = 0.5e-15;
  /// Database size in bits (2 bits/base over all stored rows); set from the
  /// workload by the system model.
  double database_bits = 64.0 * 1024 * 1024;
  /// Voting/aggregation overhead per k-mer hit.
  double vote_energy = 1e-12;
};

class SaviBaseline {
 public:
  explicit SaviBaseline(SaviConfig config = {}) : config_(config) {}

  /// Builds the TCAM contents from the stored rows.
  void index_rows(const std::vector<Sequence>& rows);

  /// Seed-and-vote decisions per row for one read. Note: threshold-free —
  /// the voting strategy has no exact ED notion; it calls a match when
  /// enough seeds agree, which is what costs it accuracy near tight
  /// thresholds.
  std::vector<bool> decide_rows(const Sequence& read) const;

  double seconds_per_read(std::size_t read_length) const;
  double joules_per_read(std::size_t read_length) const;

  const SaviConfig& config() const { return config_; }
  std::size_t indexed_rows() const { return rows_; }

 private:
  SaviConfig config_;
  KmerIndex index_{15};
  std::size_t rows_ = 0;
};

}  // namespace asmcap
