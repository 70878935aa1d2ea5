#include "baseline/savi.h"

#include <cmath>
#include <unordered_map>

namespace asmcap {

void SaviBaseline::index_rows(const std::vector<Sequence>& rows) {
  index_ = KmerIndex(config_.k);
  for (std::size_t r = 0; r < rows.size(); ++r)
    index_.add_sequence(rows[r], static_cast<std::uint32_t>(r));
  rows_ = rows.size();
}

std::vector<bool> SaviBaseline::decide_rows(const Sequence& read) const {
  std::vector<bool> decisions(rows_, false);
  if (read.size() < config_.k) return decisions;

  // votes[row][bucketed diagonal] -> count. Diagonal = row_pos - read_pos;
  // k-mers from the same alignment share it up to indel shifts, which the
  // bucket slack absorbs.
  std::vector<std::unordered_map<long, std::size_t>> votes(rows_);
  const auto kmers = extract_kmers(read, config_.k);
  const long bucket =
      static_cast<long>(config_.diagonal_slack == 0 ? 1 : config_.diagonal_slack);
  for (std::size_t pos = 0; pos < kmers.size(); ++pos) {
    for (const KmerIndex::Hit& hit : index_.lookup(kmers[pos])) {
      const long diagonal =
          static_cast<long>(hit.position) - static_cast<long>(pos);
      // Round towards the nearest bucket centre so diagonals within the
      // slack fall together.
      const long key = static_cast<long>(
          std::floor(static_cast<double>(diagonal) / static_cast<double>(bucket) +
                     0.5));
      auto& row_votes = votes[hit.sequence_id];
      if (++row_votes[key] >= config_.vote_threshold)
        decisions[hit.sequence_id] = true;
    }
  }
  return decisions;
}

double SaviBaseline::seconds_per_read(std::size_t read_length) const {
  if (read_length < config_.k) return config_.tcam_cycle;
  const double probes =
      static_cast<double>(read_length - config_.k + 1);
  return probes / static_cast<double>(config_.banks) * config_.tcam_cycle;
}

double SaviBaseline::joules_per_read(std::size_t read_length) const {
  if (read_length < config_.k) return 0.0;
  // Each probe searches the full TCAM database; banks overlap probes in
  // time but do not reduce the switched bits.
  const double probes = static_cast<double>(read_length - config_.k + 1);
  const double search =
      probes * config_.search_energy_per_bit * config_.database_bits;
  const double vote = probes * config_.vote_energy;
  return search + vote;
}

}  // namespace asmcap
