#include "align/edstar.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "align/kernels.h"
#include "align/kernels/kernel_impl.h"

namespace asmcap {

namespace {

inline bool cell_matches(const Sequence& stored, const Sequence& read,
                         std::size_t i) {
  const Base q = stored[i];
  if (q == read[i]) return true;                       // O_C
  if (i > 0 && q == read[i - 1]) return true;          // O_L
  if (i + 1 < read.size() && q == read[i + 1]) return true;  // O_R
  return false;
}

}  // namespace

std::size_t ed_star(const Sequence& stored, const Sequence& read) {
  if (stored.size() != read.size())
    throw std::invalid_argument("ed_star: length mismatch");
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < stored.size(); ++i)
    mismatches += cell_matches(stored, read, i) ? 0u : 1u;
  return mismatches;
}

std::size_t ed_star_packed(const std::vector<std::uint64_t>& stored,
                           const std::vector<std::uint64_t>& read,
                           std::size_t n) {
  if (stored.size() < (n + 31) / 32 || read.size() < (n + 31) / 32)
    throw std::invalid_argument("ed_star_packed: fewer than ceil(n/32) words");
  return detail::row_mismatches(stored.data(), PackedReadView(read, n));
}

std::vector<Sequence> rotation_schedule(const Sequence& read,
                                        std::size_t rotations, RotateDir dir) {
  std::vector<Sequence> schedule;
  schedule.push_back(read);
  for (std::size_t k = 1; k <= rotations; ++k) {
    if (dir == RotateDir::Left || dir == RotateDir::Both)
      schedule.push_back(read.rotated_left(k));
    if (dir == RotateDir::Right || dir == RotateDir::Both)
      schedule.push_back(read.rotated_right(k));
  }
  return schedule;
}

std::size_t ed_star_min_rotated(const Sequence& stored, const Sequence& read,
                                std::size_t rotations, RotateDir dir) {
  std::size_t best = ed_star(stored, read);
  for (const Sequence& rotated : rotation_schedule(read, rotations, dir)) {
    best = std::min(best, ed_star(stored, rotated));
    if (best == 0) break;
  }
  return best;
}

}  // namespace asmcap
