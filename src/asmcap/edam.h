#pragma once
// EDAM accelerator model (Hanhan et al., ISCA 2022) — the primary
// comparator. Same ED* matching logic as ASMCap but with current-domain
// matchline sensing (pre-charge, discharge, sample-and-hold), no Hamming
// mode (no HDAC), and optionally the original unconditional Sequence
// Rotation (SR) strategy. Its pass (a private run_pass) counts the same
// kind of bit-sliced row store with the same kernels as an ASMCap bank's
// and senses the current-domain noise unless config.ideal_sensing.
//
// Ownership: the accelerator owns one bit-sliced row store (row g holds
// segment g, stored once), the manufactured readouts (built only when it
// senses noise), and the session pool.
// Thread-safety: the mutating entry points (load_reference, search_batch)
// belong to one control thread at a time; search() is const and
// thread-safe — it is what search_batch fans across workers.
//
// RNG discipline (docs/determinism.md): EDAM's per-query stream is keyed
// by the READ CONTENT — query_rng = master.fork(content key of the read) —
// and every sensing decision forks from it per (pass, global segment id).
// A decision is therefore a pure function of (seed, read, pass, segment):
// independent of every query that ran before it, of the worker that
// evaluated it, and of whether it ran serially or batched. This is what
// makes search_batch bit-identical to sequential search() calls and what
// fixed the seed-era order-dependent noise (the old pass() loop drew
// sequentially from a shared member stream).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/edstar.h"
#include "align/row_store.h"
#include "asmcap/backend.h"
#include "cam/current_readout.h"
#include "circuit/process.h"
#include "circuit/timing.h"
#include "genome/sequence.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace asmcap {

struct EdamConfig {
  std::size_t array_rows = 256;
  std::size_t array_cols = 256;
  std::size_t array_count = 512;
  CurrentDomainParams current;
  /// EDAM's SR: rotate unconditionally NR times (no threshold awareness).
  bool sr_enabled = false;
  std::size_t sr_rotations = 2;
  RotateDir sr_direction = RotateDir::Both;
  bool ideal_sensing = false;
  std::uint64_t seed = 0xEDA0'EDA0'EDA0'EDA0ULL;

  std::size_t capacity_segments() const { return array_rows * array_count; }
};

struct EdamQueryResult {
  std::vector<bool> decisions;  ///< Per loaded segment.
  std::size_t searches = 1;
  double latency_seconds = 0.0;
  double energy_joules = 0.0;
};

class EdamAccelerator {
 public:
  explicit EdamAccelerator(EdamConfig config);

  /// Loads the reference, segment g into row g. Every width and the
  /// capacity are validated before anything is built: a rejected batch
  /// (std::invalid_argument for a width, DbError otherwise) leaves the
  /// accelerator empty, so a retry behaves like a fresh instance.
  void load_reference(const std::vector<Sequence>& segments);

  /// Searches one read against every loaded segment. Const and
  /// thread-safe; energy is accumulated from per-pass deltas (never from
  /// before/after scans of shared state). The result is a pure function of
  /// (config, loaded reference, read, threshold) — see the RNG note above.
  EdamQueryResult search(const Sequence& read, std::size_t threshold) const;

  /// Searches a batch of reads, fanning them across `workers` threads.
  /// Every read's stream is keyed by its content, so the results are
  /// bit-identical to sequential search() calls, for any worker count and
  /// any query order.
  std::vector<EdamQueryResult> search_batch(const std::vector<Sequence>& reads,
                                            std::size_t threshold,
                                            std::size_t workers = 1);

  /// The session-owned worker pool (see SessionPool), reused across
  /// search_batch calls.
  ThreadPool& worker_pool(std::size_t workers = 0) {
    return pool_.get(workers);
  }

  std::size_t loaded_segments() const { return segments_loaded_; }
  const EdamConfig& config() const { return config_; }
  double search_time() const { return config_.current.search_time(); }

 private:
  void check_read(const Sequence& read) const;
  /// The content-keyed per-query stream (never advances the master).
  Rng query_stream(const Sequence& read) const;
  /// Runs the pass schedule (original + SR rotations), OR-accumulating
  /// decisions and summing per-pass energy.
  EdamQueryResult execute(const Sequence& read, std::size_t threshold,
                          const Rng& query_rng) const;
  /// EDAM's current-domain pass (pre-charge, discharge, sample-and-hold)
  /// over the row store (row g senses on readout g / array_rows, matchline
  /// g % array_rows). The kernels count every row block by block; each
  /// row books its count-pure current-domain energy from row_energy_, in
  /// row order. Under ideal sensing, count <= T decides; otherwise the
  /// pass gathers each 64-row group, and each row's mismatch lane words
  /// give its nominal discharge (drop_row), which decide_from_drop senses
  /// with the row's per-id noise fork (the id is the row index: EDAM loads
  /// once and never moves a row).
  PassResult run_pass(const PackedReadView& read, std::size_t threshold,
                      const Rng& query_rng, std::uint64_t pass_salt) const;

  EdamConfig config_;
  SlicedRowStore rows_;  ///< The one row store the pass counts.
  /// Manufactured silicon: empty under ideal sensing.
  std::vector<CurrentArrayReadout> readouts_;
  /// Current-domain energy of a row with k mismatches, k = 0..cols.
  std::vector<double> row_energy_;
  std::size_t segments_loaded_ = 0;
  Rng rng_;  ///< Master stream: forked per query, never advanced.
  SessionPool pool_;
};

}  // namespace asmcap
