#include "asmcap/ingest.h"

#include <stdexcept>
#include <utility>

#include "asmcap/sharded.h"
#include "genome/stream_reader.h"

namespace asmcap {

const SegmentOrigin& ReferenceIndex::origin(std::uint64_t id) const {
  if (!contains(id))
    throw std::out_of_range("ReferenceIndex: unknown segment id " +
                            std::to_string(id));
  return origins_[id - first_id_];
}

std::string ReferenceIndex::label(std::uint64_t id) const {
  if (!contains(id)) return "segment:" + std::to_string(id);
  const SegmentOrigin& at = origins_[id - first_id_];
  return names_[at.record] + ":" + std::to_string(at.offset);
}

IngestStats ingest_reference(ShardedAccelerator& db, SeqStreamReader& reader,
                             const IngestOptions& options,
                             ReferenceIndex* index) {
  const std::size_t width = db.config().array_cols;
  if (width == 0)
    throw std::invalid_argument("ingest_reference: segment width is zero");
  const std::size_t batch = options.append_batch != 0 ? options.append_batch : 1;

  if (index != nullptr) *index = ReferenceIndex{};

  IngestStats stats;
  std::vector<Sequence> segments;
  std::vector<SegmentOrigin> origins;
  segments.reserve(batch);
  origins.reserve(batch);

  const auto flush = [&]() {
    if (segments.empty()) return;
    const std::vector<std::uint64_t> ids = db.append_segments(segments);
    if (index != nullptr) {
      if (!index->have_first_ && !ids.empty()) {
        index->first_id_ = ids.front();
        index->have_first_ = true;
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        // append_segments hands out consecutive ascending ids during an
        // uninterrupted ingest, which keeps the index dense.
        if (ids[i] != index->first_id_ + index->origins_.size())
          throw std::logic_error(
              "ReferenceIndex: non-consecutive segment ids (concurrent "
              "mutation during ingest?)");
        index->origins_.push_back(origins[i]);
      }
    }
    segments.clear();
    origins.clear();
  };

  // Tiles are pulled straight off the reader: no record is ever held
  // whole, and each tile joins the batch as soon as it fills.
  SeqRecord header;
  while (reader.next_header(header)) {
    ++stats.records;
    const std::uint32_t record_slot =
        index != nullptr ? static_cast<std::uint32_t>(index->names_.size()) : 0;
    if (index != nullptr) index->names_.push_back(header.id);
    for (std::size_t pos = 0;; pos += width) {
      segments.emplace_back();
      segments.back().reserve(width);
      const std::size_t got = reader.read_bases(segments.back(), width);
      if (got == width) {
        origins.push_back(SegmentOrigin{record_slot, pos});
        ++stats.segments;
        if (segments.size() >= batch) flush();
        continue;
      }
      // The record ended inside this tile: pad it, or drop its bases.
      if (got != 0 && options.pad_final_tile) {
        segments.back().resize(width);
        origins.push_back(SegmentOrigin{record_slot, pos});
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
