#include "circuit/montecarlo.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "circuit/capacitor.h"
#include "circuit/matchline.h"
#include "util/lane_flags.h"

namespace asmcap {

std::size_t charge_domain_max_states(const ChargeDomainParams& params) {
  if (params.cap_sigma_rel <= 0.0) return ~std::size_t{0};  // ideal devices
  // sqrt(N) <= 1 / (3 sigma_rel)  =>  N <= 1 / (3 sigma_rel)^2
  const double limit = 1.0 / (3.0 * params.cap_sigma_rel);
  return static_cast<std::size_t>(limit * limit);
}

std::size_t current_domain_max_states(const CurrentDomainParams& params) {
  if (params.i_sigma_rel <= 0.0) return ~std::size_t{0};
  // Largest n with 3 sigma_rel (sqrt(n) + sqrt(n+1)) <= 1.
  std::size_t n = 0;
  while (3.0 * params.i_sigma_rel *
             (std::sqrt(static_cast<double>(n + 1)) +
              std::sqrt(static_cast<double>(n + 2))) <=
         1.0)
    ++n;
  return n + 1;  // counts are 1-based levels above zero
}

namespace {

/// `n_mis` distinct random cells of `n_cells`, as lane words.
std::vector<std::uint64_t> random_lane_words(std::size_t n_cells,
                                             std::size_t n_mis, Rng& rng) {
  if (n_mis > n_cells)
    throw std::invalid_argument("random_lane_words: count too big");
  std::vector<std::uint64_t> words(lane_word_count(n_cells), 0);
  // Partial Fisher-Yates over cell indices.
  std::vector<std::size_t> idx(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) idx[i] = i;
  for (std::size_t i = 0; i < n_mis; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n_cells - i));
    std::swap(idx[i], idx[j]);
    set_lane_flag(words, idx[i]);
  }
  return words;
}

}  // namespace

std::vector<LevelStats> mc_charge_levels(const ChargeDomainParams& params,
                                         std::size_t n_cells,
                                         const std::vector<std::size_t>& counts,
                                         std::size_t trials, Rng& rng) {
  std::vector<LevelStats> levels;
  levels.reserve(counts.size());
  for (const std::size_t n_mis : counts) {
    RunningStats stats;
    for (std::size_t t = 0; t < trials; ++t) {
      // Fresh silicon each trial: the variance in Eq. 2 is the ensemble
      // variance across manufactured rows.
      const CapacitorBank row(n_cells, params, rng);
      stats.add(row.actual_vml(random_lane_words(n_cells, n_mis, rng)));
    }
    levels.push_back({n_mis, stats.mean(), stats.stddev()});
  }
  return levels;
}

std::vector<LevelStats> mc_current_levels(const CurrentDomainParams& params,
                                          std::size_t n_cells,
                                          const std::vector<std::size_t>& counts,
                                          std::size_t trials, Rng& rng) {
  std::vector<LevelStats> levels;
  levels.reserve(counts.size());
  for (const std::size_t n_mis : counts) {
    RunningStats stats;
    for (std::size_t t = 0; t < trials; ++t) {
      const CurrentMatchline row(n_cells, params, rng);
      const double drop =
          row.nominal_drop(random_lane_words(n_cells, n_mis, rng));
      stats.add(row.sample_from_drop(drop, rng));
    }
    levels.push_back({n_mis, stats.mean(), stats.stddev()});
  }
  return levels;
}

std::size_t count_separated_pairs(const std::vector<LevelStats>& levels) {
  std::size_t separated = 0;
  for (std::size_t k = 0; k + 1 < levels.size(); ++k) {
    const double gap = std::fabs(levels[k + 1].mean_vml - levels[k].mean_vml);
    if (gap >= 3.0 * (levels[k].sigma_vml + levels[k + 1].sigma_vml))
      ++separated;
  }
  return separated;
}

}  // namespace asmcap
