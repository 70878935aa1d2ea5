#pragma once
// Charge-domain (capacitive) readout, in two forms over one model
// (circuit/capacitor.h's draw and divider):
//
//  * ChargeArrayReadout — one CapacitorBank per row (manufactured once, so
//    mismatch is systematic silicon), a systematic SA offset per row, and
//    one sense amplifier model: the eval/sweep model. A row's mismatched
//    cells arrive as lane words (util/lane_flags.h), settle_row turns them
//    into the settled V_ML, and decide draws the SA noise from the
//    caller's stream. Search energy is a pure function of the mismatch
//    count (matchline(row).search_energy), so callers book it themselves.
//  * RowSilicon — one row's silicon, flat, as a noisy bank's pass draws it
//    from the row's own stream the first time the row senses in the noise
//    band (asmcap/backend.h's SiliconMemo keeps it).
//
// Thread-safety: the const members are thread-safe — concurrent passes
// share one readout or row, each drawing from its own RNG stream. A
// RowSilicon is written only by its constructor.

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

/// One row's manufactured silicon: its capacitances, their total
/// (summed in ascending cell order) and its systematic SA offset. Drawn
/// from a stream, it equals row 0 of ChargeArrayReadout(1, cols, params,
/// stream), and settle gives what that readout's settle_row does.
struct RowSilicon {
  /// Draws `cols` capacitances, then the SA offset, from `rng` — one fresh
  /// stream per row: Rng::normal caches its second deviate, so the offset
  /// must follow the capacitances on the same stream.
  RowSilicon(std::size_t cols, const ChargeDomainParams& params, Rng& rng);

  /// The settled V_ML for the cells flagged in `lane_words`
  /// (lane_word_count(cols) words), plus the SA offset.
  double settle(const std::vector<std::uint64_t>& lane_words,
                double vdd) const;

  std::vector<double> caps;
  double total = 0.0;
  double offset = 0.0;  ///< Systematic SA offset [V].
};

}  // namespace asmcap
