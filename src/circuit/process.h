#pragma once
// Process / device parameters for the 65 nm models. All defaults come from
// the paper (§V-A, Table I) and its references: 1.2 V supply, 2 fF MIM
// capacitors with 1.4 % mismatch, 2.5 % current variation in the
// current-domain (EDAM) cells. Substitutes for the Cadence Virtuoso
// circuit-level simulation: the accuracy-relevant behaviour is entirely
// captured by the level statistics these parameters induce.

#include <cstddef>

namespace asmcap {

/// Charge-domain (capacitive, ASMCap) matchline parameters.
struct ChargeDomainParams {
  double vdd = 1.2;              ///< Supply voltage [V].
  double cap_mean = 2e-15;       ///< MIM capacitor mean [F] (2 fF).
  double cap_sigma_rel = 0.014;  ///< Relative capacitor mismatch (1.4 %).
  /// Input-referred sense-amplifier random noise sigma [V]. The stable,
  /// time-independent V_ML lets ASMCap use an offset-cancelled clocked
  /// comparator, so this is small.
  double sa_noise_sigma = 2e-3;
  /// Residual *systematic* per-row SA offset after cancellation [V],
  /// drawn once at manufacture.
  double sa_offset_sigma = 0.5e-3;
  /// Search-line settle + capacitive settle + SA decision [s] (Table I:
  /// 0.9 ns total, no pre-charge and no sample-and-hold).
  double t_sl_drive = 0.3e-9;
  double t_settle = 0.3e-9;
  double t_sense = 0.3e-9;

  double search_time() const { return t_sl_drive + t_settle + t_sense; }
};

/// Current-domain (EDAM) matchline parameters.
struct CurrentDomainParams {
  double vdd = 1.2;                 ///< Supply voltage [V].
  double i_sigma_rel = 0.025;       ///< Per-cell discharge-current mismatch (2.5 %).
  double timing_jitter_rel = 0.01;  ///< Sampling-clock jitter relative to t_sample.
  /// Input-referred SA random noise sigma [V]; the dynamic signal forbids
  /// offset cancellation, so this is larger than the charge-domain SA.
  double sa_noise_sigma = 8e-3;
  /// Systematic per-row SA offset [V]: uncancellable in the dynamic
  /// sensing scheme, drawn once at manufacture. Together with the current
  /// mismatch this is what limits EDAM's usable read length (paper §II-C).
  double sa_offset_sigma = 6e-3;
  /// Sample-and-hold droop / kT/C noise sigma [V].
  double sh_noise_sigma = 6e-3;
  /// Matchline pre-charge, discharge window, and sample phases [s]
  /// (Table I: 2.4 ns total).
  double t_precharge = 0.8e-9;
  double t_discharge = 1.2e-9;
  double t_sample = 0.4e-9;
  /// Matchline capacitance per cell [F] (parasitic drain + wire).
  double ml_cap_per_cell = 0.86e-15;
  /// Nominal per-cell discharge current [A]. Chosen together with
  /// t_discharge so that one mismatch count is worth VDD / 256 at the
  /// sampling instant for the paper's 256-cell rows (full-range mapping).
  double cell_current = 0.86e-6;

  double search_time() const { return t_precharge + t_discharge + t_sample; }
};

/// Layout-derived area parameters (65 nm). Calibrated so the cell areas
/// reproduce Table I; the transistor counts are from the cell schematics
/// (Fig. 4c for ASMCap; EDAM adds the discharge pull-down stack and
/// pre-charge devices and lacks ASMCap's layout optimisations).
struct AreaParams {
  /// Effective layouted area per transistor including local wiring [m^2].
  double transistor_area = 1.0e-12;  // 1.0 um^2
  /// ASMCap cell: 2x 6T SRAM + XOR-style comparison logic (8T) + 2x2 MUX
  /// pass transistors = 24 transistors; dense thanks to layout optimisation
  /// (MIM caps sit on top of the cell: no area penalty).
  std::size_t asmcap_cell_transistors = 24;
  double asmcap_layout_factor = 1.0;
  /// EDAM cell: 2x 6T SRAM + comparison logic + ML discharge stack and
  /// pre-charge devices; less dense layout.
  std::size_t edam_cell_transistors = 26;
  double edam_layout_factor = 1.285;
  /// Periphery (per 256x256 array): SAs, decoder, WL/SL drivers, shift
  /// registers. Fractions of total array area; cells dominate (>99 %).
  double periphery_area_fraction = 0.008;
};

/// One canonical bundle used across the library.
struct ProcessParams {
  ChargeDomainParams charge;
  CurrentDomainParams current;
  AreaParams area;
};

/// Validates parameter sanity (positive times, sigmas in [0,1), ...).
/// Throws std::invalid_argument on violations.
void validate(const ProcessParams& params);

}  // namespace asmcap
