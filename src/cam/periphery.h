#pragma once
// Array periphery: the searchline buffer/driver (the search path) and the
// cost of a row write through the decoder + wordline driver (the write
// path) — the latency/energy contributions the system model charges for
// driving reads into the SLs and for writes. Both are const cost models:
// callers book the energy they return.

#include <cstddef>

#include "genome/sequence.h"

namespace asmcap {

/// Searchline buffer & driver: converts a read into differential SL levels.
/// Functionally an identity with width checking; the energy/latency numbers
/// feed the system model.
struct SearchlineDriverParams {
  double energy_per_base = 8e-15;  ///< [J] per base per search (both rails).
  double drive_latency = 0.3e-9;   ///< [s], already included in search_time.
};

class SearchlineDriver {
 public:
  SearchlineDriver(std::size_t width, SearchlineDriverParams params = {});

  /// Energy of driving `read` onto the searchlines once. Throws
  /// std::invalid_argument when the read's width differs from the array's.
  double drive_energy(const Sequence& read) const;

  std::size_t width() const { return width_; }

 private:
  std::size_t width_;
  SearchlineDriverParams params_;
};

/// Write-path cost of storing one segment (decoder + WL pulse + SRAM flip).
struct WriteCostParams {
  double energy_per_base = 30e-15;  ///< [J]
  double latency_per_row = 2e-9;    ///< [s]
};

double row_write_energy(std::size_t cols, const WriteCostParams& params = {});

}  // namespace asmcap
