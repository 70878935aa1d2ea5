#include "genome/kmer.h"

#include <gtest/gtest.h>

namespace asmcap {
namespace {

TEST(Kmer, PackUnpackRoundTrip) {
  const Sequence s = Sequence::from_string("ACGTACGTGGCC");
  for (std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{12}}) {
    const Kmer packed = pack_kmer(s, 0, k);
    EXPECT_EQ(unpack_kmer(packed, k).to_string(), s.subseq(0, k).to_string());
  }
}

TEST(Kmer, PackValidation) {
  const Sequence s = Sequence::from_string("ACGT");
  EXPECT_THROW(pack_kmer(s, 0, 0), std::invalid_argument);
  EXPECT_THROW(pack_kmer(s, 0, 33), std::invalid_argument);
  EXPECT_THROW(pack_kmer(s, 2, 4), std::out_of_range);
}

TEST(Kmer, ExtractMatchesNaive) {
  const Sequence s = Sequence::from_string("ACGTACGTTG");
  const auto kmers = extract_kmers(s, 4);
  ASSERT_EQ(kmers.size(), 7u);
  for (std::size_t pos = 0; pos < kmers.size(); ++pos)
    EXPECT_EQ(kmers[pos], pack_kmer(s, pos, 4)) << "pos=" << pos;
}

TEST(Kmer, ExtractShortSequence) {
  const Sequence s = Sequence::from_string("ACG");
  EXPECT_TRUE(extract_kmers(s, 4).empty());
  EXPECT_EQ(extract_kmers(s, 3).size(), 1u);
}

TEST(Kmer, ExtractFullWidthK32) {
  Rng rng(3);
  const Sequence s = Sequence::random(64, rng);
  const auto kmers = extract_kmers(s, 32);
  ASSERT_EQ(kmers.size(), 33u);
  for (std::size_t pos = 0; pos < kmers.size(); ++pos)
    EXPECT_EQ(kmers[pos], pack_kmer(s, pos, 32));
}

TEST(Kmer, CanonicalIsMinOfStrands) {
  const Sequence s = Sequence::from_string("AAAACCC");
  const Kmer fwd = pack_kmer(s, 0, 7);
  const Kmer rc = pack_kmer(s.reverse_complement(), 0, 7);
  EXPECT_EQ(canonical_kmer(fwd, 7), std::min(fwd, rc));
  // Canonicalisation is strand-invariant.
  EXPECT_EQ(canonical_kmer(fwd, 7), canonical_kmer(rc, 7));
}

TEST(Kmer, CanonicalIsIdempotent) {
  Rng rng(5);
  const Sequence s = Sequence::random(40, rng);
  for (Kmer kmer : extract_kmers(s, 15)) {
    const Kmer canon = canonical_kmer(kmer, 15);
    EXPECT_EQ(canonical_kmer(canon, 15), canon);
  }
}

TEST(KmerIndex, LookupFindsAllOccurrences) {
  KmerIndex index(4);
  const Sequence s = Sequence::from_string("ACGTACGT");
  index.add_sequence(s, 9);
  const auto& hits = index.lookup(pack_kmer(s, 0, 4));  // ACGT at 0 and 4
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].sequence_id, 9u);
  EXPECT_EQ(hits[0].position, 0u);
  EXPECT_EQ(hits[1].position, 4u);
}

TEST(KmerIndex, MissingKmerEmpty) {
  KmerIndex index(4);
  index.add_sequence(Sequence::from_string("AAAAAA"), 0);
  EXPECT_TRUE(index.lookup(pack_kmer(Sequence::from_string("CCCC"), 0, 4))
                  .empty());
}

TEST(KmerIndex, CountsEntries) {
  KmerIndex index(3);
  index.add_sequence(Sequence::from_string("ACGTACG"), 0);  // 5 positions
  index.add_sequence(Sequence::from_string("TTTT"), 1);     // 2 positions
  EXPECT_EQ(index.total_entries(), 7u);
  EXPECT_GT(index.distinct_kmers(), 0u);
  // Sequence shorter than k is ignored.
  index.add_sequence(Sequence::from_string("AC"), 2);
  EXPECT_EQ(index.total_entries(), 7u);
}

}  // namespace
}  // namespace asmcap
