#pragma once
// Charge-domain (capacitive) readout of a whole array: one CapacitorBank per
// row (manufactured once, so mismatch is systematic silicon), a systematic
// SA offset per row, and one sense amplifier model. The readout is const
// silicon: a row's mismatched cells arrive as lane words
// (util/lane_flags.h), settle_row turns them into the settled V_ML, and
// decide draws the SA noise from the caller's stream. Search energy is a
// pure function of the mismatch count (matchline(row).search_energy), so
// callers book it themselves.
//
// Thread-safety: the const members are thread-safe — concurrent passes
// share one readout, each drawing from its own RNG stream.
// remanufacture_row is a control-plane mutation that must not overlap them.

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

  /// Re-manufactures ONE row's analog silicon (capacitor mismatch + the
  /// systematic SA offset) from `rng`. The live-database write path keys
  /// `rng` by the occupant segment's global id, which makes every noisy
  /// decision a pure function of (silicon seed, global segment id, query
  /// stream) — independent of which row, array, or bank the segment
  /// landed in (docs/determinism.md rule 8).
  void remanufacture_row(std::size_t row, Rng& rng);

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

 private:
  ChargeDomainParams params_;
  std::size_t cols_;
  std::vector<CapacitorBank> matchlines_;
  std::vector<double> row_offsets_;  ///< systematic per-row SA offsets [V].
  SenseAmp sense_amp_;
};

}  // namespace asmcap
