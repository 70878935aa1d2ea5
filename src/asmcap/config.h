#pragma once
// Configuration of the ASMCap accelerator (paper §V-A): 512 arrays of
// 256x256 cells at 1.2 V, HDAC with alpha=200 / beta=0.5, TASR with N_R=2 /
// gamma=2e-4.

#include <cstddef>
#include <cstdint>

#include "align/edstar.h"
#include "circuit/process.h"
#include "genome/edits.h"

namespace asmcap {

/// Which of the two correction strategies are active.
enum class StrategyMode : std::uint8_t {
  Baseline,  ///< pure ED* (ASMCap w/o H. and T.)
  HdacOnly,
  TasrOnly,
  Full,  ///< ASMCap w/ H. and T.
};

bool hdac_active(StrategyMode mode);
bool tasr_active(StrategyMode mode);
const char* to_string(StrategyMode mode);

struct HdacParams {
  double alpha = 200.0;
  double beta = 0.5;
  /// HDAC is disabled (saving its extra cycle) when p falls below this
  /// (paper §IV-A suggests 1 %).
  double min_probability = 0.01;
};

struct TasrParams {
  std::size_t rotations = 2;  ///< N_R
  double gamma = 2e-4;
  RotateDir direction = RotateDir::Both;
};

/// Shard pruning: when enabled, the sharded router skips the banks that
/// provably cannot contain a hit at the query's threshold
/// (AsmcapAccelerator::may_match, which reads the bank's bit-sliced row
/// store and live words; banks build and maintain no sketch or other
/// index for it, so enabling it costs no ingest time or memory).
/// Decisions stay bit-identical to full fan-out (skipped banks contribute
/// no RNG draws by construction); energy drops by exactly the skipped
/// banks' share. There is deliberately NO k-mer length knob: a
/// shared-k-mer filter is unsound for ED* (each cell independently picks
/// a +/-1 neighbour, so an ED* = 0 row may share no k-mer with the read)
/// — the window count is derived from the threshold and, on the noisy
/// circuit path, the bounded-noise margin instead.
struct PruningParams {
  bool enabled = false;
};

/// Live-database knobs (epoch-snapshotted mutable banks, see
/// docs/architecture.md "Live database"). Appends land in a small HOT bank
/// so a trickle of inserts never pays SL-driver energy for a
/// mostly-empty full-size array; when the hot bank fills (or compact() is
/// called) it is folded into the cold banks' free rows at an epoch
/// boundary.
struct LiveParams {
  std::size_t hot_array_rows = 64;
  std::size_t hot_array_count = 4;

  std::size_t hot_capacity_segments() const {
    return hot_array_rows * hot_array_count;
  }
};

struct AsmcapConfig {
  std::size_t array_rows = 256;
  std::size_t array_cols = 256;  ///< == read length m
  std::size_t array_count = 512;
  ProcessParams process;
  HdacParams hdac;
  TasrParams tasr;
  /// Bypass analog noise entirely (functional-simulation mode).
  bool ideal_sensing = false;
  /// Router-level shard pruning (probed on each bank's row store).
  PruningParams pruning;
  /// Seed of the sharded router's master query stream and of the
  /// manufactured-silicon stream. Every written row's analog silicon is
  /// drawn from Rng(seed).fork(0x51C0).fork(global segment id), so a noisy
  /// decision is a pure function of (seed, global id, query stream) —
  /// independent of row, array, and bank placement. The sharded router
  /// builds every bank (hot and cold) with its own seed unchanged, so all
  /// banks share one silicon root — seed 0 included — which is what makes
  /// live-database rebalancing invisible to noisy sensing
  /// (docs/determinism.md rule 8).
  std::uint64_t seed = 0xA5A5'5A5A'C0FF'EE00ULL;
  /// Global id of this bank's first segment. 0 for a standalone
  /// accelerator; the sharded router sets it per bank so that every
  /// per-decision RNG stream is keyed by *global* segment id — which makes
  /// match decisions independent of how segments are placed across banks.
  std::size_t segment_base = 0;
  /// Live-database geometry (used by the sharded router's hot append bank).
  LiveParams live;

  std::size_t capacity_segments() const { return array_rows * array_count; }
  /// Memory capacity in bits (2 bits per base): 512 x 256 x 256 x 2 = 64 Mb.
  std::size_t capacity_bits() const {
    return array_rows * array_cols * array_count * 2;
  }
};

/// HDAC selection probability (paper §IV-A):
///   p = e_s / (e_s + e_id) * exp(-(alpha * e_id + beta * T)).
/// Zero when there are no edits at all.
double hdac_probability(const HdacParams& params, const ErrorRates& rates,
                        std::size_t threshold);

/// TASR trigger lower bound (paper §IV-B): T_l = ceil(gamma / e_id * m).
/// Effectively infinite when e_id == 0 (rotation can never help).
std::size_t tasr_lower_bound(const TasrParams& params, const ErrorRates& rates,
                             std::size_t read_length);

}  // namespace asmcap
