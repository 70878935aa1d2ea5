#pragma once
// SIMD-dispatched packed comparison kernels: the hot path of the search
// passes (the software stand-in for the CAM's massively parallel ED*/HD
// comparison). One scalar reference implementation plus optional AVX2 and
// NEON tiers, compiled per-file with the right -m flags (CMake object
// libraries), selected at runtime by CPU detection and overridable with
// ASMCAP_KERNEL=scalar|avx2|neon for testing.
//
// Bit-identity contract: every tier returns exactly the same counts as the
// scalar tier on every input (counts are exact integer popcounts, never
// approximations), so decisions, energy ledgers, and decision digests are
// independent of the tier that computed them — enforced by
// tests/test_kernels.cpp and by the scalar-forced CI leg, and required of
// any future tier (docs/determinism.md).
//
// The block kernels take N stored rows against ONE read so the
// read-derived work — neighbour alignments (R[i-1]/R[i+1] lane carries)
// and boundary masks — is computed once per (read, rotation) in a
// PackedReadView instead of once per (segment, read).
//
// Ownership: PackedReadView and PackedRowMatrix own their word storage.
// Thread-safety: all kernel functions are pure and thread-safe; the active
// tier is a single atomic read per dispatch. set_active_kernel_tier is
// safe to call concurrently with kernel execution (tiers are
// count-identical, so a racing dispatch cannot change any result), but is
// intended for tests and startup configuration.
// Reentrancy: nothing here blocks or dispatches to a pool.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

/// Implementation tiers, in ascending preference order. A tier is usable
/// when it was compiled in (CMake arch check) AND the running CPU supports
/// it (CPUID at startup).
enum class KernelTier : std::uint8_t { Scalar = 0, Avx2 = 1, Neon = 2 };

const char* to_string(KernelTier tier);

/// Read-derived operands of the ED*/Hamming kernels, precomputed once per
/// (read, rotation) and shared by every stored row compared against it:
/// the packed read, its +/-1 neighbour alignments (lane shifts with
/// cross-word carries), and the boundary/tail lane masks. All vectors hold
/// `words` = ceil(n/32) words.
struct PackedReadView {
  std::vector<std::uint64_t> r;        ///< Read, 2-bit packed (tail zeroed).
  std::vector<std::uint64_t> r_prev;   ///< R[i-1] aligned into lane i.
  std::vector<std::uint64_t> r_next;   ///< R[i+1] aligned into lane i.
  std::vector<std::uint64_t> left_ok;  ///< Lane mask: cell has a left nbr.
  std::vector<std::uint64_t> right_ok; ///< Lane mask: cell has a right nbr.
  std::vector<std::uint64_t> valid;    ///< Lane mask: cell index < n.
  std::size_t n = 0;                   ///< Sequence length in bases.
  std::size_t words = 0;               ///< ceil(n / 32).

  PackedReadView() = default;
  /// `neighbours = false` builds a Hamming-only view: r/valid only, the
  /// ED*-specific alignments and boundary masks left empty (the Hamming
  /// kernels never read them).
  explicit PackedReadView(const Sequence& read, bool neighbours = true);
  /// From pre-packed words (Sequence::packed_words layout, tail bits zero).
  PackedReadView(const std::vector<std::uint64_t>& read_words, std::size_t n,
                 bool neighbours = true);
};

/// Row-major 2-bit packed segment storage for the block kernels: row g
/// occupies words [g * words_per_row, (g+1) * words_per_row). This is the
/// resident form of the search passes' reference database.
class PackedRowMatrix {
 public:
  PackedRowMatrix() = default;
  /// Empty matrix of `cols`-wide rows, grown by set_row.
  explicit PackedRowMatrix(std::size_t cols)
      : cols_(cols), words_per_row_((cols + 31) / 32) {}
  /// Packs `rows` (each of length `cols`) contiguously. Throws
  /// std::invalid_argument on a width mismatch.
  PackedRowMatrix(const std::vector<Sequence>& rows, std::size_t cols);

  /// (Re)writes row g, growing the matrix with zero rows as needed. Throws
  /// std::invalid_argument on a width mismatch.
  void set_row(std::size_t g, const Sequence& row);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t words_per_row() const { return words_per_row_; }
  const std::uint64_t* data() const { return words_.data(); }
  const std::uint64_t* row(std::size_t g) const {
    return words_.data() + g * words_per_row_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
};

/// One tier's kernel implementations. `rows` is row-major packed storage
/// with `read.words` words per row; counts[g] receives the exact
/// mismatched-cell count of row g against the read. ed_star_block needs a
/// full view; hamming_block reads only view.r (a neighbours-free view is
/// sufficient — this is a contract every tier must keep). Two more rules
/// bind every tier:
///   - it writes every counts[g], g < n_rows, for any n_rows and any width,
///     width 0 included (all zero); callers need not clear `counts`;
///   - it may block rows internally (e.g. sweep each column chunk over a
///     block of rows, storing partial counts and adding to them), so
///     `counts` holds partial sums until the call returns.
struct KernelOps {
  KernelTier tier;
  void (*ed_star_block)(const std::uint64_t* rows, std::size_t n_rows,
                        const PackedReadView& read, std::uint32_t* counts);
  void (*hamming_block)(const std::uint64_t* rows, std::size_t n_rows,
                        const PackedReadView& read, std::uint32_t* counts);
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

// ------------------------------------------------------- block kernels --

/// counts[g] = ED*(row g, read) for g in [0, n_rows): dispatched to the
/// active tier. Exact mismatched-cell counts, identical on every tier.
void ed_star_packed_block(const std::uint64_t* rows, std::size_t n_rows,
                          const PackedReadView& read, std::uint32_t* counts);

/// counts[g] = Hamming(row g, read): dispatched to the active tier.
void hamming_packed_block(const std::uint64_t* rows, std::size_t n_rows,
                          const PackedReadView& read, std::uint32_t* counts);

// ----------------------------------------------------- lane-word forms --

/// Per-word ED* mismatch flags of one stored row against the view: out[w]
/// holds, in the LOW bit of each 2-bit lane, whether that cell mismatches —
/// the cell-output vector O driving the matchline capacitors, in the
/// lane-word layout of util/lane_flags.h. `out` must hold read.words
/// words. Scalar-word implementation (the lane-word consumers, the noisy
/// passes and the Fig. 7 signal cache, are off the counting hot path);
/// counts and lane words always agree.
void ed_star_mismatch_words(const std::uint64_t* row,
                            const PackedReadView& read, std::uint64_t* out);

/// Per-word Hamming mismatch flags, same layout as ed_star_mismatch_words.
void hamming_mismatch_words(const std::uint64_t* row,
                            const PackedReadView& read, std::uint64_t* out);

}  // namespace asmcap
