#pragma once
// Lane-word layout of a row's cell outputs O (paper Fig. 4c): the vector
// of mismatched cells that drives a matchline. Cell i's flag is bit
// 2 * (i % 32) of word i / 32 — the low bit of each 2-bit lane of the
// packed base encoding — so the align/kernels mismatch-word forms emit it
// straight from the packed operands, and the circuit models read it with
// no conversion. The high bit of each lane carries no flag.
//
// Thread-safety: constants and pure functions only.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace asmcap {

/// The flag bit of every 2-bit lane.
inline constexpr std::uint64_t kLaneFlags = 0x5555555555555555ULL;

/// Lane words that cover `cells` cells (32 per word).
constexpr std::size_t lane_word_count(std::size_t cells) {
  return (cells + 31) / 32;
}

/// Flags cell i.
inline void set_lane_flag(std::vector<std::uint64_t>& lane_words,
                          std::size_t i) {
  lane_words[i / 32] |= std::uint64_t{1} << (2 * (i % 32));
}

/// Calls fn(i) for every flagged cell i, in ascending cell order.
template <typename Fn>
void for_each_lane_flag(const std::vector<std::uint64_t>& lane_words, Fn&& fn) {
  for (std::size_t w = 0; w < lane_words.size(); ++w)
    for (std::uint64_t x = lane_words[w] & kLaneFlags; x != 0; x &= x - 1)
      fn(w * 32 + static_cast<std::size_t>(std::countr_zero(x)) / 2);
}

/// Number of flagged cells.
inline std::size_t count_lane_flags(
    const std::vector<std::uint64_t>& lane_words) {
  std::size_t count = 0;
  for (const std::uint64_t word : lane_words)
    count += static_cast<std::size_t>(std::popcount(word & kLaneFlags));
  return count;
}

}  // namespace asmcap
