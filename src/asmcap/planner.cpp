#include "asmcap/planner.h"

namespace asmcap {

QueryPlan QueryPlanner::plan(std::size_t threshold, const ErrorRates& rates,
                             StrategyMode mode) const {
  QueryPlan plan;
  if (hdac_active(mode)) {
    plan.hdac_p = hdac_.probability(rates, threshold);
    plan.hd_search = hdac_.enabled(rates, threshold);
    if (!plan.hd_search) plan.hdac_p = 0.0;  // disabled below min_probability
  }
  if (tasr_active(mode)) {
    plan.tasr_tl = tasr_.lower_bound(rates, config_.array_cols);
    plan.tasr_triggered =
        tasr_.should_rotate(threshold, rates, config_.array_cols);
    if (plan.tasr_triggered) plan.ed_star_searches = tasr_.schedule_length();
  }
  return plan;
}

ExecutionPlan QueryPlanner::build(const Sequence& read, std::size_t threshold,
                                  const ErrorRates& rates,
                                  StrategyMode mode) const {
  ExecutionPlan out;
  out.summary = plan(threshold, rates, mode);
  out.threshold = threshold;
  out.mode = mode;
  out.hd_pass = out.summary.hd_search;
  out.hdac_p = out.summary.hdac_p;
  out.ed_star_passes.push_back(read);
  if (out.summary.tasr_triggered) {
    for (Sequence& rotated : tasr_.schedule(read)) {
      if (rotated == read) continue;  // original already searched
      out.ed_star_passes.push_back(std::move(rotated));
    }
  }
  out.ed_star_views.reserve(out.ed_star_passes.size());
  for (const Sequence& pass : out.ed_star_passes)
    out.ed_star_views.emplace_back(pass);
  if (out.hd_pass) out.hd_view = PackedReadView(read, /*neighbours=*/false);
  return out;
}

}  // namespace asmcap
