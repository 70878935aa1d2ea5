#pragma once
// k-mer extraction and indexing. Substrate for the SaVI seed-and-vote
// baseline and the Kraken2-like exact-matching classifier.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

/// Packed k-mer (k <= 32) in 2 bits per base, leftmost base in the highest
/// occupied bit pair.
using Kmer = std::uint64_t;

inline constexpr std::size_t kMaxKmerK = 32;

/// Packs seq[pos, pos+k). Throws std::out_of_range / std::invalid_argument
/// on bad arguments.
Kmer pack_kmer(const Sequence& seq, std::size_t pos, std::size_t k);

/// Unpacks a k-mer back into a Sequence of length k.
Sequence unpack_kmer(Kmer kmer, std::size_t k);

/// All k-mers of a sequence in order (size() - k + 1 of them).
std::vector<Kmer> extract_kmers(const Sequence& seq, std::size_t k);

/// Canonical form: lexicographic minimum of the k-mer and its reverse
/// complement, the standard trick for strand-insensitive counting.
Kmer canonical_kmer(Kmer kmer, std::size_t k);

/// k-mer index: maps every k-mer of a reference to its occurrence positions.
/// This models the TCAM contents of SaVI and the database of the
/// Kraken-like classifier.
class KmerIndex {
 public:
  KmerIndex(std::size_t k) : k_(k) {}

  /// Indexes all k-mers of `reference`, tagging them with `sequence_id`.
  void add_sequence(const Sequence& reference, std::uint32_t sequence_id = 0);

  struct Hit {
    std::uint32_t sequence_id;
    std::uint32_t position;
  };

  /// Occurrence list (empty if absent).
  const std::vector<Hit>& lookup(Kmer kmer) const;

  std::size_t k() const { return k_; }
  std::size_t distinct_kmers() const { return index_.size(); }
  std::size_t total_entries() const { return total_entries_; }

 private:
  std::size_t k_;
  std::unordered_map<Kmer, std::vector<Hit>> index_;
  std::vector<Hit> empty_;
  std::size_t total_entries_ = 0;
};

}  // namespace asmcap
