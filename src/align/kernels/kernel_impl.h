#pragma once
// Internal: per-tier kernel entry points and the shared scalar-word row
// helpers (the scalar tier's counts, the single-pair wrappers and the
// lane-word forms). Not part of the public API — include align/kernels.h
// instead.
//
// The helpers are `static` (internal linkage), NOT `inline`: this header
// is included by translation units compiled with different ISA flags
// (kernels.cpp at the baseline, kernels_sliced.cpp with -mavx2), and an
// inline (comdat) definition would let the linker keep whichever TU's
// copy it saw first — possibly the AVX2-codegen one — inside the scalar
// dispatch path, breaking the fallback tier on non-AVX2 CPUs. With
// internal linkage every TU calls the copy compiled with its own flags.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "align/kernels.h"
#include "util/lane_flags.h"

namespace asmcap::detail {

/// Per-lane equality of two packed words: low lane bit set iff the 2-bit
/// codes agree.
static inline std::uint64_t lane_eq(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t x = a ^ b;
  return ~(x | (x >> 1)) & kLaneFlags;
}

/// ED* mismatch flags of one packed word `q` of a stored row (word index
/// w) against the view: low lane bit set iff the cell mismatches.
static inline std::uint64_t ed_star_mismatch_word(std::uint64_t q,
                                                  const PackedReadView& view,
                                                  std::size_t w) {
  const std::uint64_t match =
      lane_eq(q, view.r[w]) | (lane_eq(q, view.r_prev[w]) & view.left_ok[w]) |
      (lane_eq(q, view.r_next[w]) & view.right_ok[w]);
  return ~match & view.valid[w];
}

/// Hamming mismatch flags of one packed word (tail lanes of both operands
/// are zero, so they never contribute). Only reads view.r — usable with a
/// neighbours-free view.
static inline std::uint64_t hamming_mismatch_word(std::uint64_t q,
                                                  const PackedReadView& view,
                                                  std::size_t w) {
  const std::uint64_t x = q ^ view.r[w];
  return (x | (x >> 1)) & kLaneFlags;
}

/// Scalar-word ED* count of one row.
static inline std::uint32_t ed_star_row_scalar(const std::uint64_t* row,
                                               const PackedReadView& view) {
  std::uint32_t count = 0;
  for (std::size_t w = 0; w < view.words; ++w)
    count += static_cast<std::uint32_t>(
        std::popcount(ed_star_mismatch_word(row[w], view, w)));
  return count;
}

/// Scalar-word Hamming count of one row.
static inline std::uint32_t hamming_row_scalar(const std::uint64_t* row,
                                               const PackedReadView& view) {
  std::uint32_t count = 0;
  for (std::size_t w = 0; w < view.words; ++w)
    count += static_cast<std::uint32_t>(
        std::popcount(hamming_mismatch_word(row[w], view, w)));
  return count;
}

// Tier entry points (KernelOps::count_block). The scalar tier is always
// compiled; the bit-sliced source (kernels_sliced.cpp) is compiled once
// per SIMD target into namespace avx2 or neon, with that target's flags
// (see CMakeLists.txt), and referenced only when the matching
// ASMCAP_HAVE_* macro is defined.
void count_block_scalar(const SlicedRowStore& rows, std::size_t block,
                        const PackedReadView& read, std::size_t bound,
                        BlockCounts& out);
namespace avx2 {
void count_block(const SlicedRowStore& rows, std::size_t block,
                 const PackedReadView& read, std::size_t bound,
                 BlockCounts& out);
}  // namespace avx2
namespace neon {
void count_block(const SlicedRowStore& rows, std::size_t block,
                 const PackedReadView& read, std::size_t bound,
                 BlockCounts& out);
}  // namespace neon

}  // namespace asmcap::detail
