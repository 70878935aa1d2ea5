#include "asmcap/ingest.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "asmcap/sharded.h"
#include "genome/stream_reader.h"

namespace asmcap {

SegmentOrigin ReferenceIndex::origin(std::uint64_t id) const {
  if (!contains(id))
    throw std::out_of_range("ReferenceIndex: unknown segment id " +
                            std::to_string(id));
  const std::uint64_t k = id - first_id_;
  // Record 0 starts at 0, so some record starts at or before k.
  const auto record =
      std::upper_bound(starts_.begin(), starts_.end(), k) - 1;
  return SegmentOrigin{
      static_cast<std::uint32_t>(record - starts_.begin()),
      (k - *record) * width_};
}

std::string ReferenceIndex::label(std::uint64_t id) const {
  if (!contains(id)) return "segment:" + std::to_string(id);
  const SegmentOrigin at = origin(id);
  return names_[at.record] + ":" + std::to_string(at.offset);
}

IngestStats ingest_reference(ShardedAccelerator& db, SeqStreamReader& reader,
                             const IngestOptions& options,
                             ReferenceIndex* index) {
  const std::size_t width = db.config().array_cols;
  if (width == 0)
    throw std::invalid_argument("ingest_reference: segment width is zero");
  const std::size_t batch = options.append_batch != 0 ? options.append_batch : 1;

  if (index != nullptr) {
    *index = ReferenceIndex{};
    index->width_ = width;
  }

  IngestStats stats;
  std::vector<Sequence> segments;
  segments.reserve(batch);

  const auto flush = [&]() {
    if (segments.empty()) return;
    const std::vector<std::uint64_t> ids = db.append_segments(segments);
    if (index != nullptr) {
      if (index->segments_ == 0 && !ids.empty())
        index->first_id_ = ids.front();
      for (const std::uint64_t id : ids) {
        // append_segments hands out consecutive ascending ids during an
        // uninterrupted ingest, which keeps the index dense.
        if (id != index->first_id_ + index->segments_)
          throw std::logic_error(
              "ReferenceIndex: non-consecutive segment ids (concurrent "
              "mutation during ingest?)");
        ++index->segments_;
      }
    }
    segments.clear();
  };

  // Tiles are pulled straight off the reader: no record is ever held
  // whole, and each tile joins the batch as soon as it fills.
  SeqRecord header;
  while (reader.next_header(header)) {
    ++stats.records;
    if (index != nullptr) {
      index->names_.push_back(header.id);
      index->starts_.push_back(stats.segments);
    }
    for (std::size_t pos = 0;; pos += width) {
      segments.emplace_back();
      segments.back().reserve(width);
      const std::size_t got = reader.read_bases(segments.back(), width);
      if (got == width) {
        ++stats.segments;
        if (segments.size() >= batch) flush();
        continue;
      }
      // The record ended inside this tile: pad it, or drop its bases.
      if (got != 0 && options.pad_final_tile) {
        segments.back().resize(width);
        ++stats.segments;
        ++stats.padded_segments;
        if (segments.size() >= batch) flush();
      } else {
        segments.pop_back();
        stats.dropped_tail_bases += got;
        if (pos == 0) ++stats.empty_records;
      }
      break;
    }
  }
  flush();
  if (stats.segments != 0) db.compact();

  stats.bases = reader.bases();
  stats.ambiguous_bases = reader.ambiguous_bases();
  return stats;
}

}  // namespace asmcap
