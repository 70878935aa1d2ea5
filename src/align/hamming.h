#pragma once
// Hamming distance between equal-length sequences. This is the metric the
// ASMCap array computes in HD mode (MUX select S = 0), used by HDAC.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

/// Number of co-located mismatches. Throws std::invalid_argument when the
/// lengths differ (the hardware always compares equal-length rows).
std::size_t hamming_distance(const Sequence& a, const Sequence& b);

/// Word-parallel Hamming distance over 2-bit packed operands
/// (Sequence::packed_words): identical to hamming_distance() while
/// processing 32 positions per word. `n` is the common length; both
/// vectors must hold ceil(n/32) words with zeroed tail bits
/// (std::invalid_argument when either holds fewer). The scalar-word row
/// count of align/kernels.h.
std::size_t hamming_packed(const std::vector<std::uint64_t>& a,
                           const std::vector<std::uint64_t>& b, std::size_t n);

}  // namespace asmcap
