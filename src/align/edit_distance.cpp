#include "align/edit_distance.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace asmcap {

std::size_t edit_distance(const Sequence& a, const Sequence& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::size_t> prev(m + 1);
  std::vector<std::size_t> curr(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t substitution =
          prev[j - 1] + (a[i - 1] == b[j - 1] ? 0u : 1u);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitution});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

CappedDistance banded_edit_distance(const Sequence& a, const Sequence& b,
                                    std::size_t cap) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const std::size_t length_gap = n > m ? n - m : m - n;
  if (length_gap > cap) return {cap + 1, false, 0};

  // Band of diagonals [-cap, +cap] around the main diagonal; cells outside
  // hold "infinity". Offset indexing keeps everything unsigned-safe.
  const std::size_t width = 2 * cap + 1;
  const std::size_t inf = std::numeric_limits<std::size_t>::max() / 2;
  std::vector<std::size_t> prev(width, inf);
  std::vector<std::size_t> curr(width, inf);

  std::size_t cells = 0;

  // Row 0: D[0][j] = j for j <= cap.
  for (std::size_t d = 0; d < width; ++d) {
    // diagonal index d corresponds to j - i = d - cap; at i = 0, j = d - cap.
    if (d >= cap) {
      const std::size_t j = d - cap;
      if (j <= m && j <= cap) {
        prev[d] = j;
        ++cells;
      }
    }
  }

  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(curr.begin(), curr.end(), inf);
    std::size_t row_min = inf;
    for (std::size_t d = 0; d < width; ++d) {
      // j = i + d - cap; skip out-of-range columns.
      const std::ptrdiff_t js =
          static_cast<std::ptrdiff_t>(i) + static_cast<std::ptrdiff_t>(d) -
          static_cast<std::ptrdiff_t>(cap);
      if (js < 0 || js > static_cast<std::ptrdiff_t>(m)) continue;
      const std::size_t j = static_cast<std::size_t>(js);
      std::size_t best = inf;
      if (j == 0) {
        best = i;
      } else {
        // Substitution: D[i-1][j-1] lives at the same diagonal d.
        const std::size_t diag = prev[d];
        if (diag < inf)
          best = diag + (a[i - 1] == b[j - 1] ? 0u : 1u);
        // Deletion from a: D[i-1][j] lives at diagonal d+1.
        if (d + 1 < width && prev[d + 1] < inf)
          best = std::min(best, prev[d + 1] + 1);
        // Insertion into a: D[i][j-1] lives at diagonal d-1.
        if (d >= 1 && curr[d - 1] < inf)
          best = std::min(best, curr[d - 1] + 1);
      }
      curr[d] = best;
      row_min = std::min(row_min, best);
      ++cells;
    }
    if (row_min > cap) return {cap + 1, false, cells};  // Ukkonen early exit.
    std::swap(prev, curr);
  }

  // Final cell (n, m) lies at diagonal m - n + cap.
  const std::size_t final_d = m + cap - n;
  const std::size_t distance = prev[final_d];
  if (distance > cap) return {cap + 1, false, cells};
  return {distance, true, cells};
}

}  // namespace asmcap
