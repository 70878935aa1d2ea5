#pragma once
// Exact (Levenshtein) edit distance. The full O(n*m) dynamic program is the
// reference implementation (and the CM-CPU baseline kernel); the banded
// variant with a distance cap is what the evaluation uses for ground truth,
// and the Ukkonen-style early exit makes threshold queries cheap.

#include <cstddef>

#include "genome/sequence.h"

namespace asmcap {

/// Full comparison-matrix edit distance (two-row rolling DP).
std::size_t edit_distance(const Sequence& a, const Sequence& b);

/// Result of a capped computation: `distance` is exact when
/// `within_band` is true; otherwise the true distance exceeds `cap` and
/// `distance` == cap + 1.
struct CappedDistance {
  std::size_t distance = 0;
  bool within_band = false;
  /// DP cells actually evaluated — at most (n+1) * (2*cap+1), but smaller
  /// when the Ukkonen early exit fires or the band clips the matrix edge.
  /// This is what honest host-work accounting charges (the worst-case
  /// band area overstates verification cost on early-terminating rows).
  std::size_t cells = 0;
};

/// Banded edit distance with band half-width `cap` (Ukkonen). Exact for all
/// distances <= cap; reports cap+1 otherwise. Cost O((cap+1) * n).
CappedDistance banded_edit_distance(const Sequence& a, const Sequence& b,
                                    std::size_t cap);

}  // namespace asmcap
