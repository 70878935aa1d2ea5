#pragma once
// Current-domain readout (the EDAM sensing path): pre-charged matchlines
// discharged by mismatched cells, sampled after the discharge window.
// Match polarity is inverted relative to the charge domain: the line stays
// *high* when few cells mismatch. Like ChargeArrayReadout it is const
// silicon: a row's mismatched cells arrive as lane words
// (util/lane_flags.h), drop_row gives the systematic nominal discharge,
// and decide_from_drop applies the per-search noise from the caller's
// stream. Search energy is a pure function of the mismatch count
// (matchline(row).search_energy), so callers book it themselves.
//
// Thread-safety: every member is const and thread-safe.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/matchline.h"
#include "circuit/sense_amp.h"
#include "util/rng.h"

namespace asmcap {

class CurrentArrayReadout {
 public:
  CurrentArrayReadout(std::size_t rows, std::size_t cols,
                      const CurrentDomainParams& params, Rng& manufacture_rng);

  /// Systematic (cacheable) nominal discharge of a row for the cells
  /// flagged in `lane_words`. Throws std::out_of_range on a bad row and
  /// std::invalid_argument on a wrong word count.
  double drop_row(std::size_t row,
                  const std::vector<std::uint64_t>& lane_words) const;

  /// Full noisy decision from a nominal drop (match iff the sampled V_ML
  /// >= V_ref(T)): jitter + clamp + S/H noise + SA compare, drawn from
  /// `search_rng` in that order.
  bool decide_from_drop(std::size_t row, double nominal_drop,
                        std::size_t threshold, Rng& search_rng) const;

  std::size_t rows() const { return matchlines_.size(); }
  std::size_t cols() const { return cols_; }
  const CurrentDomainParams& params() const { return params_; }
  const CurrentMatchline& matchline(std::size_t row) const {
    return matchlines_.at(row);
  }

 private:
  CurrentDomainParams params_;
  std::size_t cols_;
  std::vector<CurrentMatchline> matchlines_;
  std::vector<double> row_offsets_;  ///< systematic per-row SA offsets [V].
  SenseAmp sense_amp_;
};

}  // namespace asmcap
