#pragma once
// ED*: the EDAM/ASMCap hardware matching metric (paper §II-B, Fig. 2).
//
// The array stores a reference segment Q; the read R arrives on the search
// lines. Cell i holds Q[i] and sees the read bases R[i-1], R[i], R[i+1]
// (Fig. 4c). The cell *matches* when Q[i] equals any of the three; ED* is
// the number of mismatched cells. Boundary cells only see the neighbours
// that exist. ED* tolerates intra-read indels (a single indel shifts the
// read by one position, which the +/-1 window absorbs locally), but it is
// NOT symmetric and is NOT a metric: it can under-estimate ED (hiding
// substitutions — fixed by HDAC) and over-estimate ED under consecutive
// indels (fixed by TASR).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

/// ED*(stored, read): mismatched-cell count. Lengths must be equal (the
/// hardware rows are fixed-width).
std::size_t ed_star(const Sequence& stored, const Sequence& read);

/// Word-parallel ED* over 2-bit packed operands (Sequence::packed_words):
/// identical to ed_star() while processing 32 cells per word. `n` is the
/// common sequence length; both vectors must hold ceil(n/32) words with
/// zeroed tail bits (std::invalid_argument when either holds fewer). The
/// scalar-word row count of align/kernels.h; the search passes count whole
/// blocks of the bit-sliced row store instead.
std::size_t ed_star_packed(const std::vector<std::uint64_t>& stored,
                           const std::vector<std::uint64_t>& read,
                           std::size_t n);

/// Rotation direction for sequence-rotation strategies.
enum class RotateDir { Left, Right, Both };

/// Minimum ED* over the original read and its base-by-base rotations
/// 1..rotations in the given direction(s). This is the ideal-arithmetic
/// version of EDAM's SR / ASMCap's TASR inner loop.
std::size_t ed_star_min_rotated(const Sequence& stored, const Sequence& read,
                                std::size_t rotations, RotateDir dir);

/// All rotated variants that the shift registers generate, in search order
/// (original first). Exposed so the accelerator model can account one
/// search operation per element.
std::vector<Sequence> rotation_schedule(const Sequence& read,
                                        std::size_t rotations, RotateDir dir);

}  // namespace asmcap
