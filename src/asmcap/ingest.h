#pragma once
// Reference ingestion: tiles streamed FASTA records into the fixed-width
// segments the accelerator database stores, loading them incrementally via
// ShardedAccelerator::append_segments. Tiles are pulled straight off the
// reader (SeqStreamReader::next_header / read_bases), each joining the
// append batch as soon as it fills, so no record is ever held whole: the
// reader side needs O(read buffer + append_batch) memory for any record
// length. On the database side an append copies only the rows it writes
// (asmcap/sharded.h): into the hot bank it stages them in, or, for rows
// that overflow it, once into the fold's block, from which each receiving
// cold bank writes its share. Nothing pins the epochs a load publishes
// (no ticket or db() snapshot runs during ingest_reference unless the
// caller holds one), so every bank is written in place, growing its
// tables geometrically: a bank append without tombstones costs amortised
// O(appended rows), and the load holds one copy of each bank, never two.
// While a pin lives, each bank an append writes is cloned first (flat
// vector copies), as every bank was before. A noisy load costs what an
// ideal one does: an append draws no silicon (a row's is drawn the first
// time it senses in the noise band). The id <->
// (record, offset) mapping is preserved in a ReferenceIndex so search
// results can be reported against the original record names instead of
// raw segment ids.
//
// Determinism: segments are appended in input order, and append_segments
// hands out consecutive ascending ids, so the same input file always
// yields the same id assignment (docs/determinism.md rule 10); by the
// mutation-history invariance of the live database (rule 8), a database
// built this way decides bit-identically to load_reference of the same
// tiles.
//
// Ownership: ingest_reference borrows the accelerator, reader, and index
// for the duration of the call; nothing is retained. Thread-safety: the
// call drives mutating accelerator entry points, so it follows the
// single-mutator rule documented in asmcap/sharded.h — do not ingest
// concurrently with other mutations (concurrent searches are fine).
// Reentrancy: no callbacks into user code.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

class SeqStreamReader;
class ShardedAccelerator;

struct IngestOptions {
  /// Segments per append_segments call — the reader-side memory bound and
  /// the epoch-publish granularity.
  std::size_t append_batch = 512;
  /// A record's trailing partial tile is padded with 'A' to full width
  /// when true (the deterministic policy the CLI uses), dropped when
  /// false.
  bool pad_final_tile = true;
};

struct IngestStats {
  std::size_t records = 0;
  std::size_t bases = 0;
  std::size_t ambiguous_bases = 0;  ///< Non-ACGT characters resolved to 'A'.
  std::size_t segments = 0;
  std::size_t padded_segments = 0;    ///< Final tiles padded to full width.
  std::size_t dropped_tail_bases = 0;  ///< Bases discarded (pad_final_tile off).
  std::size_t empty_records = 0;       ///< Records too short to yield a tile.
};

/// Where a segment's bases came from: `record` indexes the ingested
/// record's name in the ReferenceIndex, `offset` is the 0-based base
/// offset of the tile within that record.
struct SegmentOrigin {
  std::uint32_t record = 0;
  std::uint64_t offset = 0;
};

/// id -> (record name, offset) map for every segment one
/// ingest_reference call appended, held as one entry per record: its name
/// and the number of segments tiled before it. Ids are consecutive from
/// first_id() (append order == input order), so the k-th segment belongs
/// to the last record that starts at or before k (a binary search over
/// the records), at base offset (k - start) * width. A record that yields
/// no segment starts where the next one does, so it is never chosen.
class ReferenceIndex {
 public:
  std::size_t size() const { return segments_; }
  bool empty() const { return segments_ == 0; }
  std::uint64_t first_id() const { return first_id_; }

  /// True when `id` belongs to this ingest run.
  bool contains(std::uint64_t id) const {
    return id >= first_id_ && id - first_id_ < segments_;
  }

  /// Origin of segment `id`. Throws std::out_of_range for foreign ids.
  SegmentOrigin origin(std::uint64_t id) const;

  /// Name of the `record`-th ingested record.
  const std::string& record_name(std::uint32_t record) const {
    return names_.at(record);
  }

  /// Human-readable "record_name:offset" label for segment `id`; falls
  /// back to "segment:<id>" for ids this index does not cover.
  std::string label(std::uint64_t id) const;

 private:
  friend IngestStats ingest_reference(ShardedAccelerator&, SeqStreamReader&,
                                      const IngestOptions&, ReferenceIndex*);
  std::uint64_t first_id_ = 0;
  std::size_t segments_ = 0;
  std::size_t width_ = 0;
  std::vector<std::string> names_;
  /// starts_[r]: segments tiled before record r (non-decreasing).
  std::vector<std::size_t> starts_;
};

/// Streams every record out of `reader`, tiles it into segments of the
/// database's width (config().array_cols, the only width it can search),
/// appends them to `db` in batches, and, when any segment was appended,
/// folds the hot staging banks into cold storage
/// (ShardedAccelerator::compact). When `index` is non-null it is reset and
/// filled with the id mapping. Throws
/// StreamParseError on malformed input, std::runtime_error on an I/O
/// error or a truncated or corrupt gzip input, and DbError
/// (CapacityExceeded) when the reference outgrows the database; the
/// batches appended before the throw stay in `db`.
IngestStats ingest_reference(ShardedAccelerator& db, SeqStreamReader& reader,
                             const IngestOptions& options = {},
                             ReferenceIndex* index = nullptr);

}  // namespace asmcap
