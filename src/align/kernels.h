#pragma once
// SIMD-dispatched counting kernels: the hot path of the search passes (the
// software stand-in for the CAM's massively parallel ED*/HD comparison).
// A kernel counts one 256-row block of the bit-sliced row store
// (align/row_store.h) against one read. The AVX2 and NEON tiers build one
// portable bit-sliced source per target flag set (CMake object
// libraries): each column's mismatch plane for all 256 rows from a
// per-column truth table of the read, Harley–Seal carry-save counters, and
// bit transposes back to per-row counts. The scalar tier gathers each
// 64-row group and counts it row by row with scalar words. The tier is
// selected at runtime by CPU detection and overridable with
// ASMCAP_KERNEL=scalar|avx2|neon for testing.
//
// Bit-identity contract: every tier returns exactly the same counts as the
// scalar tier on every input (counts are exact integers, never
// approximations), so decisions, energy ledgers, and decision digests are
// independent of the tier that computed them — enforced by
// tests/test_kernels.cpp and by the scalar-forced CI leg, and required of
// any future tier (docs/determinism.md).
//
// A PackedReadView holds the read-derived operands — the truth tables,
// neighbour alignments and boundary masks — computed once per (read,
// rotation) instead of once per (segment, read).
//
// Ownership: PackedReadView owns its word storage.
// Thread-safety: all kernel functions are pure and thread-safe; the active
// tier is a single atomic read per dispatch. set_active_kernel_tier is
// safe to call concurrently with kernel execution (tiers are
// count-identical, so a racing dispatch cannot change any result), but is
// intended for tests and startup configuration.
// Reentrancy: nothing here blocks or dispatches to a pool.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/row_store.h"
#include "genome/sequence.h"

namespace asmcap {

/// Implementation tiers, in ascending preference order. A tier is usable
/// when it was compiled in (CMake arch check) AND the running CPU supports
/// it (CPUID at startup).
enum class KernelTier : std::uint8_t { Scalar = 0, Avx2 = 1, Neon = 2 };

const char* to_string(KernelTier tier);

/// Read-derived operands of the ED*/Hamming kernels, precomputed once per
/// (read, rotation) and shared by every stored row compared against it.
/// A view encodes one metric: ED* (`neighbours`, a cell matches R[i-1],
/// R[i] or R[i+1]) or Hamming (R[i] only). It holds the packed read, its
/// +/-1 neighbour alignments (lane shifts with cross-word carries), the
/// boundary/tail lane masks — `words` = ceil(n/32) words each — and the
/// metric's per-column truth tables for the bit-sliced kernels.
struct PackedReadView {
  std::vector<std::uint64_t> r;        ///< Read, 2-bit packed (tail zeroed).
  std::vector<std::uint64_t> r_prev;   ///< R[i-1] aligned into lane i.
  std::vector<std::uint64_t> r_next;   ///< R[i+1] aligned into lane i.
  std::vector<std::uint64_t> left_ok;  ///< Lane mask: cell has a left nbr.
  std::vector<std::uint64_t> right_ok; ///< Lane mask: cell has a right nbr.
  std::vector<std::uint64_t> valid;    ///< Lane mask: cell index < n.
  /// Column j's truth table as four masks, each all ones or zero, at
  /// [4j, 4j + 4): t0, t0^t1, t0^t2, t0^t1^t2^t3, where tc is set iff a
  /// stored base of code c mismatches cell j under the view's metric.
  std::vector<std::uint64_t> columns;
  std::size_t n = 0;                   ///< Sequence length in bases.
  std::size_t words = 0;               ///< ceil(n / 32).
  bool neighbours = true;              ///< ED* (true) or Hamming (false).

  PackedReadView() = default;
  /// `neighbours = false` builds a Hamming view: r/valid and Hamming
  /// truth tables, the ED*-specific alignments and boundary masks left
  /// empty (the Hamming forms never read them).
  explicit PackedReadView(const Sequence& read, bool neighbours = true);
  /// From pre-packed words (Sequence::packed_words layout, tail bits zero).
  /// Throws std::invalid_argument when `read_words` holds fewer than
  /// ceil(n/32) words.
  PackedReadView(const std::vector<std::uint64_t>& read_words, std::size_t n,
                 bool neighbours = true);
};

/// One block's counts: every row's exact mismatched-cell count against
/// the read under the view's metric, and which rows count below a bound.
struct BlockCounts {
  std::uint16_t counts[SlicedRowStore::kBlockRows];
  /// Bit r of word q is set iff counts[64q + r] < the bound.
  std::uint64_t below[SlicedRowStore::kBlockRows / SlicedRowStore::kGroupRows];
};

/// One tier's kernel. count_block fills `out` for the 256 slots
/// 256·block .. of `rows` (read.n must equal rows.cols()). Padding rows
/// past rows.rows() count as stored all-'A' rows; callers mask them out.
struct KernelOps {
  KernelTier tier;
  void (*count_block)(const SlicedRowStore& rows, std::size_t block,
                      const PackedReadView& read, std::size_t bound,
                      BlockCounts& out);
};

// ------------------------------------------------------- tier selection --

/// Tiers compiled into this binary (scalar always; AVX2/NEON per arch),
/// in ascending preference order.
std::vector<KernelTier> compiled_kernel_tiers();

/// True when `tier` was compiled in AND the running CPU executes it.
bool kernel_tier_available(KernelTier tier);

/// Best available tier on this machine (ignores ASMCAP_KERNEL).
KernelTier detect_kernel_tier();

/// Pure resolution of an ASMCAP_KERNEL override: nullptr or "" yields
/// `detected`; "scalar"/"avx2"/"neon" select that tier (throwing
/// std::runtime_error when it is not available); anything else throws
/// std::invalid_argument. Exposed for tests.
KernelTier resolve_kernel_tier(const char* env_value, KernelTier detected);

/// resolve_kernel_tier applied to the current ASMCAP_KERNEL environment
/// value and detect_kernel_tier(). Re-reads the environment on every call;
/// the cached selection below reads it once.
KernelTier resolve_kernel_tier_from_env();

/// The tier the dispatched kernels run on. Initialised on first use from
/// ASMCAP_KERNEL (or CPU detection); subsequent calls are one atomic load.
KernelTier active_kernel_tier();

/// Overrides the active tier (tests, benchmarks). Throws std::runtime_error
/// when the tier is not available in this binary / on this CPU.
void set_active_kernel_tier(KernelTier tier);

/// Implementation table of a compiled tier. Throws std::runtime_error for
/// tiers not compiled into this binary. Runtime CPU support is NOT checked
/// here (callers iterating compiled tiers must check
/// kernel_tier_available before executing).
const KernelOps& kernel_ops(KernelTier tier);

/// Implementation table of the active tier.
const KernelOps& active_kernel_ops();

// ----------------------------------------------------- lane-word forms --

/// Per-word ED* mismatch flags of one stored row against the view: out[w]
/// holds, in the LOW bit of each 2-bit lane, whether that cell mismatches —
/// the cell-output vector O driving the matchline capacitors, in the
/// lane-word layout of util/lane_flags.h. `out` must hold read.words
/// words. Scalar-word implementation (the lane-word consumers, the noisy
/// passes and the Fig. 7 signal cache, are off the counting hot path);
/// counts and lane words always agree. Needs a `neighbours` view.
void ed_star_mismatch_words(const std::uint64_t* row,
                            const PackedReadView& read, std::uint64_t* out);

/// Per-word Hamming mismatch flags, same layout as ed_star_mismatch_words.
void hamming_mismatch_words(const std::uint64_t* row,
                            const PackedReadView& read, std::uint64_t* out);

}  // namespace asmcap
