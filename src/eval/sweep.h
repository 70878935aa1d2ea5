#pragma once
// Threshold-sweep infrastructure. Ground truth and all threshold-
// independent per-pair quantities (exact ED, HD, ED*, rotated ED*s, and the
// systematic analog signals of both sensing schemes) are computed once per
// dataset; each threshold then only replays the cheap decision logic with
// fresh per-search noise. This is what makes the full Fig. 7 sweep run in
// seconds while staying faithful to the hardware models.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "asmcap/config.h"
#include "cam/charge_readout.h"
#include "cam/current_readout.h"
#include "genome/dataset.h"

namespace asmcap {

/// Threshold-independent state of one (query, row) pair.
struct PairSignals {
  std::uint16_t ed = 0;        ///< exact edit distance, capped at ed_cap.
  std::uint16_t hd = 0;        ///< Hamming distance.
  std::uint16_t ed_star = 0;   ///< ED* of the unrotated read.
  double vml_ed_star = 0.0;    ///< ASMCap settled V_ML, ED* mode.
  double vml_hd = 0.0;         ///< ASMCap settled V_ML, HD mode.
  double edam_drop = 0.0;      ///< EDAM nominal discharge, ED* mode.
  /// Rotated-read signals in rotation_schedule order (without the original).
  std::vector<std::uint16_t> rot_ed_star;
  std::vector<double> rot_vml;
  std::vector<double> rot_edam_drop;
};

/// Precomputed signals for a whole dataset: pair (q, r) at index
/// q * rows + r. Owns the manufactured silicon of both accelerators so
/// decisions can be replayed at any threshold.
class DatasetSignals {
 public:
  /// `ed_cap` must be at least the largest threshold that will be swept.
  /// Per-pair precomputation fans out across `workers` threads (every pair
  /// is silicon-deterministic, so the result is worker-count independent).
  /// Throws std::invalid_argument on an empty dataset or when a row or
  /// query differs in width from the first row.
  DatasetSignals(const Dataset& dataset, const AsmcapConfig& config,
                 const CurrentDomainParams& edam_params, std::size_t ed_cap,
                 Rng& rng, std::size_t workers = 1);

  const PairSignals& pair(std::size_t query, std::size_t row) const;
  std::size_t queries() const { return queries_; }
  std::size_t rows() const { return rows_; }
  std::size_t ed_cap() const { return ed_cap_; }
  std::size_t rotations() const { return rotations_; }

  /// Ground truth at a threshold (requires threshold <= ed_cap).
  bool truth(std::size_t query, std::size_t row, std::size_t threshold) const;

  const ChargeArrayReadout& asmcap_readout() const { return *asmcap_readout_; }
  const CurrentArrayReadout& edam_readout() const { return *edam_readout_; }
  const Dataset& dataset() const { return *dataset_; }

 private:
  const Dataset* dataset_;
  std::size_t queries_ = 0;
  std::size_t rows_ = 0;
  std::size_t ed_cap_ = 0;
  std::size_t rotations_ = 0;
  std::vector<PairSignals> pairs_;
  std::unique_ptr<ChargeArrayReadout> asmcap_readout_;
  std::unique_ptr<CurrentArrayReadout> edam_readout_;
};

}  // namespace asmcap
