#include "asmcap/sketch.h"

#include <stdexcept>

namespace asmcap {

BankSketch::BankSketch(const std::vector<Sequence>& segments,
                       std::size_t cols)
    : rows_(segments.size()),
      cols_(cols),
      words_((segments.size() + 63) / 64),
      occ_(cols * 4 * words_, 0) {
  if (cols_ == 0) throw std::invalid_argument("BankSketch: zero columns");
  for (std::size_t r = 0; r < rows_; ++r) {
    const Sequence& row = segments[r];
    if (row.size() != cols_)
      throw std::invalid_argument("BankSketch: segment width mismatch");
    for (std::size_t i = 0; i < cols_; ++i) {
      std::uint64_t* bits =
          occ_.data() + (i * 4 + code_of(row[i])) * words_;
      bits[r >> 6] |= std::uint64_t{1} << (r & 63);
    }
  }
}

bool BankSketch::window_alive(const Sequence& read, std::size_t lo,
                              std::size_t hi,
                              std::vector<std::uint64_t>& alive) const {
  // Start with every stored row alive (tail bits beyond rows_ cleared so
  // phantom rows can never keep a window alive).
  alive.assign(words_, ~std::uint64_t{0});
  if (rows_ % 64 != 0)
    alive.back() = (std::uint64_t{1} << (rows_ % 64)) - 1;
  std::uint64_t any = 0;
  for (const std::uint64_t word : alive) any |= word;
  for (std::size_t i = lo; i < hi && any != 0; ++i) {
    // Cell i matches row r iff the row stores one of the read bases the
    // cell sees (Fig. 4c): R[i-1], R[i], R[i+1] — boundary cells see only
    // the neighbours that exist.
    const std::uint8_t centre = code_of(read[i]);
    const std::uint8_t left = i > 0 ? code_of(read[i - 1]) : centre;
    const std::uint8_t right = i + 1 < cols_ ? code_of(read[i + 1]) : centre;
    const std::uint64_t* c = occ(i, centre);
    const std::uint64_t* l = occ(i, left);
    const std::uint64_t* r = occ(i, right);
    any = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      alive[w] &= c[w] | l[w] | r[w];
      any |= alive[w];
    }
  }
  return any != 0;
}

bool BankSketch::may_match(const ExecutionPlan& plan,
                           std::size_t windows) const {
  if (windows == 0 || rows_ == 0) return windows == 0;
  const std::size_t width = cols_ / windows;
  if (width == 0) return true;  // cannot form disjoint windows: no prune
  std::vector<std::uint64_t> alive(words_);
  // A bank must be searched if ANY pass (the original read, or any TASR
  // rotation) has ANY window in which some row accumulates zero ED*
  // mismatches. The HD pass probes the same read as ED* pass 0 and its
  // mismatch count dominates the ED* count, so it needs no extra windows.
  for (const Sequence& pass : plan.ed_star_passes) {
    if (pass.size() != cols_) return true;  // conservative: never prune
    for (std::size_t t = 0; t < windows; ++t)
      if (window_alive(pass, t * width, t * width + width, alive))
        return true;
  }
  return false;
}

}  // namespace asmcap
