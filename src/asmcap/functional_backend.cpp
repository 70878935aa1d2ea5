#include <algorithm>
#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"

namespace asmcap {

namespace {

constexpr std::size_t kWordBits = 64;

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
      sl_params_(),
      row_energy_(config.array_cols + 1) {
  for (std::size_t k = 0; k <= cols_; ++k)
    row_energy_[k] = nominal_row_energy(k, cols_, config.process.charge);
}

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
  result.decisions = BitVec(rows);
  // Every array holding at least one live row drives its search lines once
  // per pass, whichever backend evaluates the rows; all-dead arrays are
  // never driven (same SL gating as the circuit path).
  double energy = static_cast<double>(dir_->arrays_in_use()) *
                  sl_params_.energy_per_base * static_cast<double>(cols_);
  // One decision word per 64 slots. Row energy is added in ascending
  // live-slot order: the floating-point summation order is fixed.
  for (std::size_t w = 0; w < result.decisions.words(); ++w) {
    const std::size_t first = w * kWordBits;
    const std::size_t last = std::min(rows, first + kWordBits);
    const std::uint64_t live = dir_->live.word(w);
    std::uint64_t word = 0;
    for (std::size_t slot = first; slot < last; ++slot) {
      const std::size_t bit = slot - first;
      if (((live >> bit) & 1) == 0) continue;
      word |= std::uint64_t{counts[slot] <= threshold} << bit;
      energy += row_energy_[counts[slot]];
    }
    result.decisions.word(w) = word;
  }
  result.energy_joules = energy;
  return result;
}

}  // namespace asmcap
