#pragma once
// End-to-end read mapper built on the accelerator: ASMCap answers the
// massively parallel "which rows are within T edits?" question; the host
// then verifies the handful of reported rows exactly and recovers the
// alignment (CIGAR) of the best one. This is the deployment shape the
// paper targets — the accelerator as a high-recall filter in front of a
// conventional verification step.
//
// The filter is a ShardedAccelerator, so the stored database may span
// several banks (shard_count x array_count x array_rows segments); the
// host-side verification is unchanged by sharding because the segments
// stay host-side and match reports arrive re-based to global ids. With
// shard_count == 1 (the default) the filter is the monolithic search: a
// 1-shard router over one bank. map_batch streams through the
// SearchService: each read is verified on the worker that merged it,
// overlapping host DP with the in-flight accelerator passes of later
// reads.
//
// Ownership: the mapper owns its sharded accelerator and a host-side
// copy of the segments. Thread-safety: map/map_batch and stats belong to
// one control thread at a time (they mutate the cumulative stats);
// verify() is const and thread-safe, which is what lets it run inside
// service completion callbacks. Reentrancy: do not call the mapper from
// inside a pool task (util/thread_pool.h).

#include <cstddef>
#include <vector>

#include "align/cigar.h"
#include "asmcap/sharded.h"
#include "genome/sequence.h"

namespace asmcap {

struct MappedRead {
  bool mapped = false;
  std::size_t segment = 0;        ///< Best-scoring stored row (global id).
  std::size_t reference_pos = 0;  ///< segment * stride.
  std::size_t edit_distance = 0;  ///< Exact ED to the best row.
  Alignment alignment;            ///< Global alignment vs the best row.
  std::size_t candidates = 0;     ///< Rows the accelerator reported.
  double accel_latency_seconds = 0.0;
  double accel_energy_joules = 0.0;
};

struct MappingStats {
  std::size_t reads = 0;
  std::size_t mapped = 0;
  std::size_t total_candidates = 0;
  double accel_latency_seconds = 0.0;
  double accel_energy_joules = 0.0;
  std::size_t host_dp_cells = 0;  ///< Verification work done on the host
                                  ///< (actual banded-DP cells evaluated).

  void add(const MappedRead& read, std::size_t dp_cells) {
    ++reads;
    mapped += read.mapped ? 1u : 0u;
    total_candidates += read.candidates;
    accel_latency_seconds += read.accel_latency_seconds;
    accel_energy_joules += read.accel_energy_joules;
    host_dp_cells += dp_cells;
  }
  void merge(const MappingStats& other) {
    reads += other.reads;
    mapped += other.mapped;
    total_candidates += other.total_candidates;
    accel_latency_seconds += other.accel_latency_seconds;
    accel_energy_joules += other.accel_energy_joules;
    host_dp_cells += other.host_dp_cells;
  }

  double mapping_rate() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(mapped) /
                            static_cast<double>(reads);
  }
  double mean_candidates() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(total_candidates) /
                            static_cast<double>(reads);
  }
};

class ReadMapper {
 public:
  /// Stores `segments` (cut from the reference at `stride`) into a fresh
  /// sharded accelerator of `shard_count` banks (1 = one bank, the
  /// monolithic search). The segments are kept host-side for
  /// verification.
  ReadMapper(AsmcapConfig config, std::vector<Sequence> segments,
             std::size_t stride, std::size_t shard_count = 1);

  /// Maps one read: accelerator filter at `threshold`, exact host
  /// verification, traceback of the winner. Accumulates into stats().
  MappedRead map(const Sequence& read, std::size_t threshold,
                 StrategyMode mode = StrategyMode::Full);

  /// Maps a batch, accumulates into stats(), and returns the statistics
  /// of THIS batch. The accelerator filter and the host verification both
  /// fan out across `workers` threads on the session-owned pool; per-read
  /// RNG forking keeps the results identical for any worker count.
  MappingStats map_batch(const std::vector<Sequence>& reads,
                         std::size_t threshold,
                         StrategyMode mode = StrategyMode::Full,
                         std::vector<MappedRead>* out = nullptr,
                         std::size_t workers = 1);

  /// Live-database passthrough: appends segments to the sharded filter
  /// and keeps the host-side verification copies aligned with the global
  /// id space (ids are assigned sequentially, so the host table simply
  /// extends). Returns the new global ids. Control-plane only — never
  /// mutate while a map_batch is in flight on another thread.
  std::vector<std::uint64_t> append_segments(
      const std::vector<Sequence>& segments);
  /// Live-database passthrough: tombstones the given global ids. The
  /// host-side copies stay in place (a dead id is never reported by the
  /// filter, so its copy is simply never read again).
  void remove_segments(const std::vector<std::uint64_t>& ids) {
    accelerator_.remove_segments(ids);
  }

  /// Cumulative statistics over every map()/map_batch() call since
  /// construction (or the last reset_stats()).
  const MappingStats& stats() const { return stats_; }
  void reset_stats() { stats_ = MappingStats{}; }

  ShardedAccelerator& accelerator() { return accelerator_; }
  const ShardedAccelerator& accelerator() const { return accelerator_; }

  void set_error_profile(const ErrorRates& rates) {
    accelerator_.set_error_profile(rates);
  }
  std::size_t stride() const { return stride_; }

 private:
  /// Host-side verification of one accelerator result: exact banded ED on
  /// each reported row, traceback of the winner. Thread-safe; the DP cells
  /// actually evaluated are returned through `dp_cells`.
  MappedRead verify(const Sequence& read, const QueryResult& result,
                    std::size_t threshold, std::size_t* dp_cells) const;

  ShardedAccelerator accelerator_;
  std::vector<Sequence> segments_;
  std::size_t stride_;
  MappingStats stats_;
};

}  // namespace asmcap
