#include "asmcap/readmapper.h"

#include <limits>
#include <stdexcept>

#include "align/edit_distance.h"
#include "asmcap/service.h"

namespace asmcap {

ReadMapper::ReadMapper(AsmcapConfig config, std::vector<Sequence> segments,
                       std::size_t stride, std::size_t shard_count)
    : accelerator_(config, shard_count),
      segments_(std::move(segments)),
      stride_(stride) {
  if (segments_.empty()) throw std::invalid_argument("ReadMapper: no segments");
  if (stride_ == 0) throw std::invalid_argument("ReadMapper: zero stride");
  accelerator_.load_reference(segments_);
}

std::vector<std::uint64_t> ReadMapper::append_segments(
    const std::vector<Sequence>& segments) {
  const std::vector<std::uint64_t> ids =
      accelerator_.append_segments(segments);
  // Host copies are indexed by (global id - segment_base); auto-assigned
  // ids extend the id space contiguously, so the table extends in step.
  const std::size_t base = accelerator_.config().segment_base;
  segments_.resize(accelerator_.loaded_segments());
  for (std::size_t i = 0; i < ids.size(); ++i)
    segments_[static_cast<std::size_t>(ids[i]) - base] = segments[i];
  return ids;
}

MappedRead ReadMapper::verify(const Sequence& read, const QueryResult& result,
                              std::size_t threshold,
                              std::size_t* dp_cells) const {
  MappedRead out;
  out.candidates = result.matched_segments.size();
  out.accel_latency_seconds = result.latency_seconds;
  out.accel_energy_joules = result.energy_joules;

  // Host verification: exact banded ED on each reported row, keep the best.
  // (The accelerator is a filter; false positives die here, and the exact
  // distance of the winner is recovered.) The DP-cell charge is the cells
  // the banded routine actually evaluated — rows that early-exit cost less
  // than the worst-case band area.
  std::size_t cells = 0;
  std::size_t best_segment = 0;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (const std::size_t segment : result.matched_segments) {
    const CappedDistance capped =
        banded_edit_distance(segments_[segment], read, threshold);
    cells += capped.cells;
    if (capped.within_band && capped.distance < best_distance) {
      best_distance = capped.distance;
      best_segment = segment;
    }
  }
  if (dp_cells != nullptr) *dp_cells = cells;
  if (best_distance == std::numeric_limits<std::size_t>::max()) return out;

  out.mapped = true;
  out.segment = best_segment;
  out.reference_pos = best_segment * stride_;
  out.edit_distance = best_distance;
  out.alignment = align_global(segments_[best_segment], read);
  return out;
}

MappedRead ReadMapper::map(const Sequence& read, std::size_t threshold,
                           StrategyMode mode) {
  const QueryResult result = accelerator_.search(read, threshold, mode);
  std::size_t dp_cells = 0;
  MappedRead out = verify(read, result, threshold, &dp_cells);
  stats_.add(out, dp_cells);
  return out;
}

MappingStats ReadMapper::map_batch(const std::vector<Sequence>& reads,
                                   std::size_t threshold, StrategyMode mode,
                                   std::vector<MappedRead>* out,
                                   std::size_t workers) {
  std::vector<MappedRead> mapped(reads.size());
  std::vector<std::size_t> dp_cells(reads.size(), 0);
  // Streaming filter: each read's exact host verification starts the
  // moment it merges, on the worker that ran its block — host
  // DP overlaps the in-flight accelerator passes of later reads instead
  // of waiting for the whole batch to drain. verify() is const and
  // thread-safe, distinct reads write distinct slots, and the filter
  // results are released as soon as each read is verified
  // (keep_results = false), so accelerator-result memory stays bounded by
  // the admission window.
  SearchService service(accelerator_);
  SearchService::Options options;
  options.workers = workers;
  options.keep_results = false;
  options.on_complete = [&](std::size_t i, const QueryResult& result) {
    mapped[i] = verify(reads[i], result, threshold, &dp_cells[i]);
  };
  // Borrowed: `reads` outlives the wait, so no copy into the ticket.
  service.submit_borrowed(reads, threshold, mode, options)->wait();

  MappingStats batch;
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    batch.add(mapped[i], dp_cells[i]);
    if (out != nullptr) out->push_back(std::move(mapped[i]));
  }
  stats_.merge(batch);
  return batch;
}

}  // namespace asmcap
