#include "eval/sweep.h"

#include <stdexcept>

#include "align/edit_distance.h"
#include "align/edstar.h"
#include "align/kernels.h"
#include "util/lane_flags.h"
#include "util/thread_pool.h"

namespace asmcap {

DatasetSignals::DatasetSignals(const Dataset& dataset,
                               const AsmcapConfig& config,
                               const CurrentDomainParams& edam_params,
                               std::size_t ed_cap, Rng& rng,
                               std::size_t workers)
    : dataset_(&dataset),
      queries_(dataset.queries.size()),
      rows_(dataset.rows.size()),
      ed_cap_(ed_cap),
      rotations_(config.tasr.rotations) {
  if (queries_ == 0 || rows_ == 0)
    throw std::invalid_argument("DatasetSignals: empty dataset");
  const std::size_t cols = dataset.rows.front().size();
  // The rows' private row-major packed cache, read as lane words.
  std::vector<std::vector<std::uint64_t>> packed;
  packed.reserve(rows_);
  for (const Sequence& row : dataset.rows) {
    if (row.size() != cols)
      throw std::invalid_argument("DatasetSignals: rows differ in width");
    packed.push_back(row.packed_words());
  }
  for (const DatasetQuery& query : dataset.queries)
    if (query.read.size() != cols)
      throw std::invalid_argument(
          "DatasetSignals: query width differs from the rows");

  // Manufacture the silicon both accelerators would use for these rows.
  Rng asmcap_silicon = rng.fork(0xA51C);
  Rng edam_silicon = rng.fork(0xEDA2);
  asmcap_readout_ = std::make_unique<ChargeArrayReadout>(
      rows_, cols, config.process.charge, asmcap_silicon);
  edam_readout_ = std::make_unique<CurrentArrayReadout>(
      rows_, cols, edam_params, edam_silicon);

  // Every (query, row) pair depends only on the dataset and the silicon
  // manufactured above, so queries precompute independently and in
  // parallel over the one packed row cache; results are written by index.
  pairs_.resize(queries_ * rows_);
  ThreadPool pool(workers);
  pool.parallel_for(queries_, [&](std::size_t q) {
    const Sequence& read = dataset.queries[q].read;
    // One ED* view per rotation (the original first) and the Hamming view
    // of the original, shared by all rows.
    std::vector<PackedReadView> views;
    for (const Sequence& rotated : rotation_schedule(
             read, config.tasr.rotations, config.tasr.direction))
      views.emplace_back(rotated);
    const PackedReadView hamming_view(read, /*neighbours=*/false);
    std::vector<std::uint64_t> lane_words(lane_word_count(cols));
    for (std::size_t r = 0; r < rows_; ++r) {
      const Sequence& row = dataset.rows[r];
      PairSignals& signals = pairs_[q * rows_ + r];

      signals.ed = static_cast<std::uint16_t>(
          banded_edit_distance(row, read, ed_cap_).distance);

      mismatch_words(packed[r].data(), hamming_view, lane_words.data());
      signals.hd = static_cast<std::uint16_t>(count_lane_flags(lane_words));
      signals.vml_hd = asmcap_readout_->settle_row(r, lane_words);

      mismatch_words(packed[r].data(), views[0], lane_words.data());
      signals.ed_star =
          static_cast<std::uint16_t>(count_lane_flags(lane_words));
      signals.vml_ed_star = asmcap_readout_->settle_row(r, lane_words);
      signals.edam_drop = edam_readout_->drop_row(r, lane_words);

      signals.rot_ed_star.reserve(views.size() - 1);
      signals.rot_vml.reserve(views.size() - 1);
      signals.rot_edam_drop.reserve(views.size() - 1);
      for (std::size_t k = 1; k < views.size(); ++k) {
        mismatch_words(packed[r].data(), views[k], lane_words.data());
        signals.rot_ed_star.push_back(
            static_cast<std::uint16_t>(count_lane_flags(lane_words)));
        signals.rot_vml.push_back(asmcap_readout_->settle_row(r, lane_words));
        signals.rot_edam_drop.push_back(
            edam_readout_->drop_row(r, lane_words));
      }
    }
  });
}

const PairSignals& DatasetSignals::pair(std::size_t query,
                                        std::size_t row) const {
  if (query >= queries_ || row >= rows_)
    throw std::out_of_range("DatasetSignals::pair");
  return pairs_[query * rows_ + row];
}

bool DatasetSignals::truth(std::size_t query, std::size_t row,
                           std::size_t threshold) const {
  if (threshold > ed_cap_)
    throw std::invalid_argument("DatasetSignals::truth: threshold above cap");
  return pair(query, row).ed <= threshold;
}

}  // namespace asmcap
