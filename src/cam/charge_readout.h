#pragma once
// Charge-domain (capacitive) readout of a whole array: one ChargeMatchline
// per row (manufactured once, so mismatch is systematic silicon) plus one
// sense amplifier per row. Converts digital mismatch masks into noisy match
// decisions and accounts search energy.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/matchline.h"
#include "circuit/sense_amp.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace asmcap {

/// Result of sensing one row.
struct RowDecision {
  bool match = false;
  double vml = 0.0;  ///< The (pre-SA-noise) matchline voltage.
};

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

  /// Senses every row against threshold T: match iff V_ML <= V_ref(T).
  /// `search_rng` supplies the per-decision SA noise. Accumulates energy.
  std::vector<RowDecision> sense(const std::vector<BitVec>& masks,
                                 std::size_t threshold, Rng& search_rng);

  /// Single-row variant.
  RowDecision sense_row(std::size_t row, const BitVec& mask,
                        std::size_t threshold, Rng& search_rng);

  /// Systematic settled voltage of a row for a mask (cacheable: it depends
  /// only on the silicon and the mask, not on the search).
  double settle_row(std::size_t row, const BitVec& mask) const;
  /// Same, from per-lane mismatch flags (the align/kernels mismatch-word
  /// layout); bit-identical to the BitVec form for the same cells.
  double settle_row(std::size_t row, const std::uint64_t* lane_words) const;

  /// SA decision from a cached settled voltage (adds SA noise, charges no
  /// energy — pair with charge_search_energy for ledger purposes).
  bool decide(double vml, std::size_t threshold, Rng& search_rng) const;

  /// Ideal (noise-free) decision used for the `ideal_sensing` mode and for
  /// tests: count <= T exactly.
  static bool ideal_decision(std::size_t n_mis, std::size_t threshold) {
    return n_mis <= threshold;
  }

  std::size_t rows() const { return matchlines_.size(); }
  std::size_t cols() const { return cols_; }
  double consumed_energy() const { return energy_; }
  void reset_energy() { energy_ = 0.0; }
  const ChargeDomainParams& params() const { return params_; }
  const ChargeMatchline& matchline(std::size_t row) const {
    return matchlines_.at(row);
  }

 private:
  ChargeDomainParams params_;
  std::size_t cols_;
  std::vector<ChargeMatchline> matchlines_;
  std::vector<double> row_offsets_;  ///< systematic per-row SA offsets [V].
  SenseAmp sense_amp_;
  double energy_ = 0.0;
};

}  // namespace asmcap
