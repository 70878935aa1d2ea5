#include "align/hamming.h"

#include <cstdint>
#include <stdexcept>

#include "align/kernels.h"

namespace asmcap {

std::size_t hamming_distance(const Sequence& a, const Sequence& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("hamming_distance: length mismatch");
  std::size_t distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    distance += a[i] != b[i] ? 1u : 0u;
  return distance;
}

bool hamming_within(const Sequence& a, const Sequence& b,
                    std::size_t threshold) {
  if (a.size() != b.size())
    throw std::invalid_argument("hamming_within: length mismatch");
  return hamming_packed(a.packed_words(), b.packed_words(), a.size()) <=
         threshold;
}

std::size_t hamming_packed(const std::vector<std::uint64_t>& a,
                           const std::vector<std::uint64_t>& b,
                           std::size_t n) {
  const PackedReadView view(b, n, /*neighbours=*/false);
  std::uint32_t count = 0;
  hamming_packed_block(a.data(), 1, view, &count);
  return count;
}

}  // namespace asmcap
