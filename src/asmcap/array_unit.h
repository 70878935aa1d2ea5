#pragma once
// One ASMCap array unit (Fig. 4b): the functional CAM array, the
// charge-domain readout, and the searchline driver. This is the
// cell-accurate circuit state of one array, which the circuit backend
// drives.

#include <cstddef>
#include <vector>

#include "cam/array.h"
#include "cam/charge_readout.h"
#include "cam/periphery.h"
#include "circuit/process.h"
#include "genome/sequence.h"
#include "util/rng.h"

namespace asmcap {

/// Raw (threshold-independent) result of one array search: per-row mismatch
/// counts and settled matchline voltages. Cacheable by the caller.
struct RawSearch {
  std::vector<std::size_t> counts;
  std::vector<double> vml;
};

class AsmcapArrayUnit {
 public:
  AsmcapArrayUnit(std::size_t rows, std::size_t cols,
                  const ChargeDomainParams& params, bool ideal_sensing,
                  Rng& manufacture_rng);

  std::size_t rows() const { return array_.rows(); }

  /// Live-database write: stores the segment AND re-manufactures the row's
  /// analog silicon from `silicon_rng` (a stream keyed by the segment's
  /// global id), so the row's noisy behaviour travels with the segment
  /// across rows, arrays, and banks.
  void write_row(std::size_t row, const Sequence& segment, Rng& silicon_rng);
  /// Tombstones a row: its matchline reports all-mismatch (count == cols,
  /// exactly zero charge-domain search energy) and it can never decide
  /// 'match'. The row may be re-written later.
  void invalidate_row(std::size_t row) { array_.invalidate_row(row); }

  /// One search operation: drives the read, evaluates every row in the
  /// given mode, and returns counts + settled voltages (systematic analog
  /// state, before SA noise). Const and thread-safe: the SL-driver +
  /// matchline energy of the pass is returned through `energy_joules`, so
  /// concurrent batch workers never mutate shared silicon state.
  RawSearch measure(const Sequence& read, MatchMode mode,
                    double* energy_joules) const;

  /// SA decision for one row's settled voltage (per-search noise applied
  /// unless the unit runs in ideal-sensing mode, where count <= T decides).
  bool decide(std::size_t count, double vml, std::size_t threshold,
              Rng& search_rng) const;

 private:
  CamArray array_;
  ChargeArrayReadout readout_;
  SearchlineDriver sl_driver_;
  bool ideal_sensing_;
};

}  // namespace asmcap
