#pragma once
// Functional model of the ASMCap cell (paper Fig. 4c) and the EDAM cell.
//
// The cell stores one reference base in two 6T SRAM cells. Its comparison
// logic sees the co-located read base and the left/right neighbours on the
// search lines and produces partial results O_C, O_L, O_R. Two MUXes select
// the matching mode: S=1 gives O = !(O_C | O_L | O_R) (ED* mode), S=0 gives
// O = !O_C (Hamming mode). O drives the bottom plate of the matchline
// capacitor: O=1 means *mismatch* (VDD on the plate), O=0 means match.

#include <cstddef>

#include "genome/sequence.h"

namespace asmcap {

/// Matching mode selected by the shared MUX select signal S.
enum class MatchMode { EdStar, Hamming };

/// The three partial comparison results of one cell.
struct PartialMatch {
  bool co_located = false;  ///< O_C
  bool left = false;        ///< O_L (false when the neighbour doesn't exist)
  bool right = false;       ///< O_R
};

/// One ASMCap cell: combinational comparison of a stored base against the
/// read window. Stateless aside from the stored base; the analog capacitor
/// lives in the readout model.
class AsmcapCell {
 public:
  explicit AsmcapCell(Base stored) : stored_(stored) {}

  Base stored() const { return stored_; }

  /// Partial results for the read window around position i. Neighbours
  /// outside the row are "absent" (their SLs are held inactive).
  PartialMatch compare(const Sequence& read, std::size_t i) const;

  /// Cell output O (true = mismatch) in the given mode.
  bool mismatch(const Sequence& read, std::size_t i, MatchMode mode) const;

 private:
  Base stored_;
};

/// The EDAM cell has the same comparison logic but no mode MUX: it always
/// operates in ED* mode (it cannot run HDAC's Hamming search).
class EdamCell {
 public:
  explicit EdamCell(Base stored) : cell_(stored) {}

  bool mismatch(const Sequence& read, std::size_t i) const {
    return cell_.mismatch(read, i, MatchMode::EdStar);
  }

 private:
  AsmcapCell cell_;
};

}  // namespace asmcap
