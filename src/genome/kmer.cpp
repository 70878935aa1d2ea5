#include "genome/kmer.h"

#include <stdexcept>

namespace asmcap {

Kmer pack_kmer(const Sequence& seq, std::size_t pos, std::size_t k) {
  if (k == 0 || k > kMaxKmerK)
    throw std::invalid_argument("pack_kmer: k must be in [1, 32]");
  if (pos + k > seq.size()) throw std::out_of_range("pack_kmer: out of range");
  Kmer packed = 0;
  for (std::size_t i = 0; i < k; ++i)
    packed = (packed << 2) | code_of(seq[pos + i]);
  return packed;
}

Sequence unpack_kmer(Kmer kmer, std::size_t k) {
  if (k == 0 || k > kMaxKmerK)
    throw std::invalid_argument("unpack_kmer: k must be in [1, 32]");
  Sequence seq;
  seq.reserve(k);
  for (std::size_t i = k; i-- > 0;)
    seq.push_back(base_from_code(static_cast<std::uint8_t>(kmer >> (2 * i)) & 0x3u));
  return seq;
}

std::vector<Kmer> extract_kmers(const Sequence& seq, std::size_t k) {
  std::vector<Kmer> kmers;
  if (k == 0 || k > kMaxKmerK)
    throw std::invalid_argument("extract_kmers: k must be in [1, 32]");
  if (seq.size() < k) return kmers;
  kmers.reserve(seq.size() - k + 1);
  const Kmer mask = k == 32 ? ~Kmer{0} : ((Kmer{1} << (2 * k)) - 1);
  Kmer rolling = pack_kmer(seq, 0, k);
  kmers.push_back(rolling);
  for (std::size_t pos = k; pos < seq.size(); ++pos) {
    rolling = ((rolling << 2) | code_of(seq[pos])) & mask;
    kmers.push_back(rolling);
  }
  return kmers;
}

Kmer canonical_kmer(Kmer kmer, std::size_t k) {
  // Reverse complement in the packed domain: complement = bitwise NOT of
  // each 2-bit code (since A=00 <-> T=11, C=01 <-> G=10), then reverse the
  // order of the 2-bit groups.
  Kmer rc = 0;
  Kmer src = ~kmer;  // complements every 2-bit lane at once
  for (std::size_t i = 0; i < k; ++i) {
    rc = (rc << 2) | (src & 0x3u);
    src >>= 2;
  }
  return kmer < rc ? kmer : rc;
}

void KmerIndex::add_sequence(const Sequence& reference,
                             std::uint32_t sequence_id) {
  if (reference.size() < k_) return;
  const auto kmers = extract_kmers(reference, k_);
  for (std::size_t pos = 0; pos < kmers.size(); ++pos) {
    index_[kmers[pos]].push_back({sequence_id, static_cast<std::uint32_t>(pos)});
    ++total_entries_;
  }
}

const std::vector<KmerIndex::Hit>& KmerIndex::lookup(Kmer kmer) const {
  const auto it = index_.find(kmer);
  return it == index_.end() ? empty_ : it->second;
}

}  // namespace asmcap
