#include "align/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

#include "align/kernels/kernel_impl.h"

namespace asmcap {

const char* to_string(KernelTier tier) {
  switch (tier) {
    case KernelTier::Scalar: return "scalar";
    case KernelTier::Avx2: return "avx2";
    case KernelTier::Neon: return "neon";
  }
  return "?";
}

// ------------------------------------------------------ PackedReadView --

PackedReadView::PackedReadView(const std::vector<std::uint64_t>& read_words,
                               std::size_t length, bool neighbours)
    : n(length), words((length + 31) / 32) {
  r.assign(read_words.begin(), read_words.begin() + words);
  valid.assign(words, kLaneFlags);
  if (n != 0 && n % 32 != 0)
    valid.back() &= (std::uint64_t{1} << (2 * (n % 32))) - 1;
  if (!neighbours) return;  // Hamming-only view: r/valid suffice
  r_prev.resize(words);
  r_next.resize(words);
  for (std::size_t w = 0; w < words; ++w) {
    // R[i-1] aligned into lane i (shift up one lane, carry across words).
    r_prev[w] = (r[w] << 2) | (w > 0 ? r[w - 1] >> 62 : 0);
    // R[i+1] aligned into lane i (shift down one lane).
    r_next[w] = (r[w] >> 2) | (w + 1 < words ? r[w + 1] << 62 : 0);
  }
  left_ok.assign(words, kLaneFlags);
  right_ok.assign(words, kLaneFlags);
  if (n != 0) {
    left_ok[0] &= ~std::uint64_t{1};  // cell 0 has no left neighbour
    right_ok[(n - 1) / 32] &=         // cell n-1 has no right neighbour
        ~(std::uint64_t{1} << (2 * ((n - 1) % 32)));
  }
}

PackedReadView::PackedReadView(const Sequence& read, bool neighbours)
    : PackedReadView(read.packed_words(), read.size(), neighbours) {}

// ------------------------------------------------------ PackedRowMatrix --

PackedRowMatrix::PackedRowMatrix(const std::vector<Sequence>& rows,
                                 std::size_t cols)
    : PackedRowMatrix(cols) {
  words_.reserve(rows.size() * words_per_row_);
  for (std::size_t g = 0; g < rows.size(); ++g) set_row(g, rows[g]);
}

void PackedRowMatrix::set_row(std::size_t g, const Sequence& row) {
  if (row.size() != cols_)
    throw std::invalid_argument("PackedRowMatrix: row width mismatch");
  if (g >= rows_) {
    rows_ = g + 1;
    words_.resize(rows_ * words_per_row_, 0);
  }
  const std::vector<std::uint64_t> packed = row.packed_words();
  if (!packed.empty())
    std::memcpy(words_.data() + g * words_per_row_, packed.data(),
                packed.size() * sizeof(std::uint64_t));
}

// -------------------------------------------------------- scalar tier --

namespace detail {

void ed_star_block_scalar(const std::uint64_t* rows, std::size_t n_rows,
                          const PackedReadView& read, std::uint32_t* counts) {
  for (std::size_t g = 0; g < n_rows; ++g)
    counts[g] = ed_star_row_scalar(rows + g * read.words, read, 0, read.words);
}

void hamming_block_scalar(const std::uint64_t* rows, std::size_t n_rows,
                          const PackedReadView& read, std::uint32_t* counts) {
  for (std::size_t g = 0; g < n_rows; ++g)
    counts[g] = hamming_row_scalar(rows + g * read.words, read, 0, read.words);
}

}  // namespace detail

// ----------------------------------------------------- dispatch tables --

namespace {

constexpr KernelOps kScalarOps{KernelTier::Scalar,
                               &detail::ed_star_block_scalar,
                               &detail::hamming_block_scalar};
#ifdef ASMCAP_HAVE_AVX2
constexpr KernelOps kAvx2Ops{KernelTier::Avx2, &detail::ed_star_block_avx2,
                             &detail::hamming_block_avx2};
#endif
#ifdef ASMCAP_HAVE_NEON
constexpr KernelOps kNeonOps{KernelTier::Neon, &detail::ed_star_block_neon,
                             &detail::hamming_block_neon};
#endif

/// True when the running CPU can execute the tier's instructions (the
/// compile-time availability is checked separately).
bool cpu_supports(KernelTier tier) {
  switch (tier) {
    case KernelTier::Scalar:
      return true;
    case KernelTier::Avx2:
#if defined(ASMCAP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("popcnt") != 0;
#else
      return false;
#endif
    case KernelTier::Neon:
      // NEON is architecturally mandatory on AArch64: compiled => runnable.
#ifdef ASMCAP_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::atomic<KernelTier> g_active_tier{KernelTier::Scalar};
std::once_flag g_active_init;

}  // namespace

std::vector<KernelTier> compiled_kernel_tiers() {
  std::vector<KernelTier> tiers{KernelTier::Scalar};
#ifdef ASMCAP_HAVE_AVX2
  tiers.push_back(KernelTier::Avx2);
#endif
#ifdef ASMCAP_HAVE_NEON
  tiers.push_back(KernelTier::Neon);
#endif
  return tiers;
}

bool kernel_tier_available(KernelTier tier) {
  for (const KernelTier compiled : compiled_kernel_tiers())
    if (compiled == tier) return cpu_supports(tier);
  return false;
}

KernelTier detect_kernel_tier() {
  KernelTier best = KernelTier::Scalar;
  for (const KernelTier tier : compiled_kernel_tiers())
    if (cpu_supports(tier)) best = tier;  // list is ascending-preference
  return best;
}

KernelTier resolve_kernel_tier(const char* env_value, KernelTier detected) {
  if (env_value == nullptr || env_value[0] == '\0') return detected;
  const std::string name(env_value);
  KernelTier requested;
  if (name == "scalar") {
    requested = KernelTier::Scalar;
  } else if (name == "avx2") {
    requested = KernelTier::Avx2;
  } else if (name == "neon") {
    requested = KernelTier::Neon;
  } else {
    throw std::invalid_argument(
        "ASMCAP_KERNEL: unknown tier '" + name +
        "' (expected scalar, avx2, or neon)");
  }
  if (!kernel_tier_available(requested))
    throw std::runtime_error("ASMCAP_KERNEL: tier '" + name +
                             "' is not available in this binary/CPU");
  return requested;
}

KernelTier resolve_kernel_tier_from_env() {
  return resolve_kernel_tier(std::getenv("ASMCAP_KERNEL"),
                             detect_kernel_tier());
}

KernelTier active_kernel_tier() {
  std::call_once(g_active_init, [] {
    g_active_tier.store(resolve_kernel_tier_from_env(),
                        std::memory_order_relaxed);
  });
  return g_active_tier.load(std::memory_order_relaxed);
}

void set_active_kernel_tier(KernelTier tier) {
  if (!kernel_tier_available(tier))
    throw std::runtime_error(
        std::string("set_active_kernel_tier: tier '") + to_string(tier) +
        "' is not available in this binary/CPU");
  active_kernel_tier();  // force one-time env resolution first
  g_active_tier.store(tier, std::memory_order_relaxed);
}

const KernelOps& kernel_ops(KernelTier tier) {
  switch (tier) {
    case KernelTier::Scalar:
      return kScalarOps;
    case KernelTier::Avx2:
#ifdef ASMCAP_HAVE_AVX2
      return kAvx2Ops;
#else
      break;
#endif
    case KernelTier::Neon:
#ifdef ASMCAP_HAVE_NEON
      return kNeonOps;
#else
      break;
#endif
  }
  throw std::runtime_error(std::string("kernel_ops: tier '") +
                           to_string(tier) +
                           "' is not compiled into this binary");
}

const KernelOps& active_kernel_ops() {
  return kernel_ops(active_kernel_tier());
}

void ed_star_packed_block(const std::uint64_t* rows, std::size_t n_rows,
                          const PackedReadView& read, std::uint32_t* counts) {
  active_kernel_ops().ed_star_block(rows, n_rows, read, counts);
}

void hamming_packed_block(const std::uint64_t* rows, std::size_t n_rows,
                          const PackedReadView& read, std::uint32_t* counts) {
  active_kernel_ops().hamming_block(rows, n_rows, read, counts);
}

// ----------------------------------------------------- lane-word forms --

void ed_star_mismatch_words(const std::uint64_t* row,
                            const PackedReadView& read, std::uint64_t* out) {
  for (std::size_t w = 0; w < read.words; ++w)
    out[w] = detail::ed_star_mismatch_word(row[w], read, w);
}

void hamming_mismatch_words(const std::uint64_t* row,
                            const PackedReadView& read, std::uint64_t* out) {
  for (std::size_t w = 0; w < read.words; ++w)
    out[w] = detail::hamming_mismatch_word(row[w], read, w);
}

}  // namespace asmcap
