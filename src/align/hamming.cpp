#include "align/hamming.h"

#include <cstdint>
#include <stdexcept>

#include "align/kernels.h"
#include "align/kernels/kernel_impl.h"

namespace asmcap {

std::size_t hamming_distance(const Sequence& a, const Sequence& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("hamming_distance: length mismatch");
  std::size_t distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    distance += a[i] != b[i] ? 1u : 0u;
  return distance;
}

std::size_t hamming_packed(const std::vector<std::uint64_t>& a,
                           const std::vector<std::uint64_t>& b,
                           std::size_t n) {
  if (a.size() < (n + 31) / 32 || b.size() < (n + 31) / 32)
    throw std::invalid_argument("hamming_packed: fewer than ceil(n/32) words");
  return detail::row_mismatches(a.data(),
                                PackedReadView(b, n, /*neighbours=*/false));
}

}  // namespace asmcap
