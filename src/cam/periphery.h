#pragma once
// Array periphery: the searchline buffer/driver (the search path) and the
// cost of a row write through the decoder + wordline driver (the write
// path) — the latency/energy contributions the system model charges for
// driving reads into the SLs and for writes. Both are cost parameters:
// callers book the energy they imply.

#include <cstddef>

namespace asmcap {

/// Searchline buffer & driver: converts a read into differential SL levels.
/// Every array holding a live row drives its searchlines once per pass, at
/// energy_per_base per column; the search pass books it.
struct SearchlineDriverParams {
  double energy_per_base = 8e-15;  ///< [J] per base per search (both rails).
  double drive_latency = 0.3e-9;   ///< [s], already included in search_time.
};

/// Write-path cost of storing one segment (decoder + WL pulse + SRAM flip).
struct WriteCostParams {
  double energy_per_base = 30e-15;  ///< [J]
  double latency_per_row = 2e-9;    ///< [s]
};

double row_write_energy(std::size_t cols, const WriteCostParams& params = {});

}  // namespace asmcap
