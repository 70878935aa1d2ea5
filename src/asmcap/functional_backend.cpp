#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"

namespace asmcap {

namespace {

/// Nominal (mismatch-free silicon) charge-domain search energy of one row:
/// paper Eq. 1 with M = 1 and every capacitor at its mean.
double nominal_row_energy(std::size_t n_mis, std::size_t n_cells,
                          const ChargeDomainParams& charge) {
  const double n = static_cast<double>(n_cells);
  const double mis = static_cast<double>(n_mis);
  return mis * (n - mis) / n * charge.cap_mean * charge.vdd * charge.vdd;
}

}  // namespace

FunctionalBackend::FunctionalBackend(const AsmcapConfig& config,
                                     const LiveDirectory& directory,
                                     const PackedRowMatrix& rows)
    : dir_(&directory),
      rows_(&rows),
      cols_(config.array_cols),
      charge_(config.process.charge),
      sl_params_() {}

PassResult FunctionalBackend::run_pass(const Sequence& read, MatchMode mode,
                                       std::size_t threshold,
                                       const Rng& /*query_rng*/,
                                       std::uint64_t /*pass_salt*/) const {
  if (read.size() != cols_)
    throw std::invalid_argument("FunctionalBackend: read width mismatch");
  // Read-derived work once per (read, rotation), then one SIMD-dispatched
  // block sweep over the whole packed slot matrix (tombstoned slots are
  // counted too — cheaper than scattering — and masked below).
  const PackedReadView view(read);
  const std::size_t rows = rows_->rows();
  std::vector<std::uint32_t> counts(rows);
  const KernelOps& ops = active_kernel_ops();
  (mode == MatchMode::Hamming ? ops.hamming_block : ops.ed_star_block)(
      rows_->data(), rows, view, counts.data());

  PassResult result;
  result.decisions.assign(rows, false);
  // Every array holding at least one live row drives its search lines once
  // per pass, whichever backend evaluates the rows; all-dead arrays are
  // never driven (same SL gating as the circuit path).
  result.energy_joules = static_cast<double>(dir_->arrays_in_use()) *
                         sl_params_.energy_per_base *
                         static_cast<double>(cols_);
  for (std::size_t slot = 0; slot < rows; ++slot) {
    if (!dir_->slot_live(slot)) continue;
    result.decisions[slot] = counts[slot] <= threshold;
    result.energy_joules += nominal_row_energy(counts[slot], cols_, charge_);
  }
  return result;
}

}  // namespace asmcap
