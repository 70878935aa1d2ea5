#pragma once
// Charge-domain (capacitive) readout of a whole array, in two forms over
// one model (circuit/capacitor.h's draw and divider):
//
//  * ChargeArrayReadout — one CapacitorBank per row (manufactured once, so
//    mismatch is systematic silicon), a systematic SA offset per row, and
//    one sense amplifier model: the eval/sweep model. A row's mismatched
//    cells arrive as lane words (util/lane_flags.h), settle_row turns them
//    into the settled V_ML, and decide draws the SA noise from the
//    caller's stream. Search energy is a pure function of the mismatch
//    count (matchline(row).search_energy), so callers book it themselves.
//  * ArraySilicon — the same silicon flat, as a bank stores it: one block
//    per array holding every row's capacitances, total and SA offset,
//    written row by row from per-row streams and shared between a bank's
//    epochs (asmcap/accelerator.h).
//
// Thread-safety: the const members are thread-safe — concurrent passes
// share one readout or block, each drawing from its own RNG stream. An
// ArraySilicon is written only before it is shared (a bank publishes its
// blocks as shared_ptr<const ArraySilicon>).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/capacitor.h"
#include "circuit/sense_amp.h"
#include "util/rng.h"

namespace asmcap {

class ChargeArrayReadout {
 public:
  /// Manufactures `rows` matchlines of `cols` cells each.
  ChargeArrayReadout(std::size_t rows, std::size_t cols,
                     const ChargeDomainParams& params, Rng& manufacture_rng);

  /// Systematic settled voltage of a row for the cells flagged in
  /// `lane_words` (cacheable: it depends only on the silicon and the
  /// cells, not on the search). Throws std::out_of_range on a bad row and
  /// std::invalid_argument on a wrong word count.
  double settle_row(std::size_t row,
                    const std::vector<std::uint64_t>& lane_words) const;

  /// SA decision (match iff V_ML <= V_ref(T)) from a settled voltage: adds
  /// SA noise from `search_rng`.
  bool decide(double vml, std::size_t threshold, Rng& search_rng) const;

  std::size_t rows() const { return matchlines_.size(); }
  std::size_t cols() const { return cols_; }
  const ChargeDomainParams& params() const { return params_; }
  const CapacitorBank& matchline(std::size_t row) const {
    return matchlines_.at(row);
  }
  /// Row `row`'s systematic SA offset [V].
  double row_offset(std::size_t row) const { return row_offsets_.at(row); }

 private:
  ChargeDomainParams params_;
  std::size_t cols_;
  std::vector<CapacitorBank> matchlines_;
  std::vector<double> row_offsets_;  ///< systematic per-row SA offsets [V].
  SenseAmp sense_amp_;
};

/// One array's manufactured silicon, flat: row r's capacitances at
/// caps[r * cols, (r + 1) * cols), its total capacitance (summed in
/// ascending cell order) and its systematic SA offset. A row manufactured
/// here from a stream equals row 0 of ChargeArrayReadout(1, cols, params,
/// stream), and settle_row gives what that readout's settle_row does.
/// Rows never written stay zero and must never decide.
struct ArraySilicon {
  ArraySilicon(std::size_t rows, std::size_t width)
      : cols(width), caps(rows * width), totals(rows), offsets(rows) {}

  /// Draws row `row`'s capacitances, then its SA offset, from `rng` — one
  /// fresh stream per row: Rng::normal caches its second deviate, so the
  /// offset must follow the capacitances on the same stream.
  void manufacture_row(std::size_t row, const ChargeDomainParams& params,
                       Rng& rng);
  /// Copies row `from_row` of `from` (same cols) into row `row`.
  void copy_row(std::size_t row, const ArraySilicon& from,
                std::size_t from_row);
  /// Row `row`'s settled V_ML for the cells flagged in `lane_words`
  /// (lane_word_count(cols) words), plus its SA offset.
  double settle_row(std::size_t row,
                    const std::vector<std::uint64_t>& lane_words,
                    double vdd) const;

  std::size_t cols;
  std::vector<double> caps;
  std::vector<double> totals;
  std::vector<double> offsets;  ///< Systematic per-row SA offsets [V].
};

}  // namespace asmcap
