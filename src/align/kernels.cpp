#include "align/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
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
                               std::size_t length, bool with_neighbours)
    : n(length), words((length + 31) / 32), neighbours(with_neighbours) {
  if (read_words.size() < words)
    throw std::invalid_argument(
        "PackedReadView: fewer than ceil(n/32) read words");
  r.assign(read_words.begin(),
           read_words.begin() + static_cast<std::ptrdiff_t>(words));
  valid.assign(words, kLaneFlags);
  if (n != 0 && n % 32 != 0)
    valid.back() &= (std::uint64_t{1} << (2 * (n % 32))) - 1;
  if (neighbours) {
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
  // The truth tables, 32 columns at a time: lane i of mis[c] flags that a
  // stored base of code c mismatches cell 32w + i.
  columns.resize(4 * n);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t mis[4];
    for (std::uint64_t c = 0; c < 4; ++c) {
      const std::uint64_t code = c * kLaneFlags;  // code c in every lane
      std::uint64_t match = detail::lane_eq(r[w], code);
      if (neighbours)
        match |= (detail::lane_eq(r_prev[w], code) & left_ok[w]) |
                 (detail::lane_eq(r_next[w], code) & right_ok[w]);
      mis[c] = ~match;
    }
    const std::uint64_t table[4] = {mis[0], mis[0] ^ mis[1], mis[0] ^ mis[2],
                                    mis[0] ^ mis[1] ^ mis[2] ^ mis[3]};
    for (std::size_t j = 32 * w; j < std::min(n, 32 * w + 32); ++j)
      for (std::size_t k = 0; k < 4; ++k)
        columns[4 * j + k] =
            std::uint64_t{0} - ((table[k] >> (2 * (j % 32))) & 1);
  }
}

PackedReadView::PackedReadView(const Sequence& read, bool with_neighbours)
    : PackedReadView(read.packed_words(), read.size(), with_neighbours) {}

// -------------------------------------------------------- scalar tier --

namespace detail {

void count_block_scalar(const SlicedRowStore& rows, std::size_t block,
                        const PackedReadView& read, std::size_t bound,
                        BlockCounts& out) {
  constexpr std::size_t kGroupRows = SlicedRowStore::kGroupRows;
  constexpr std::size_t kGroups = SlicedRowStore::kBlockRows / kGroupRows;
  std::vector<std::uint64_t> group(kGroupRows * read.words);
  for (std::size_t q = 0; q < kGroups; ++q) {
    rows.gather_group(block * kGroups + q, group.data());
    std::uint64_t below = 0;
    for (std::size_t r = 0; r < kGroupRows; ++r) {
      const std::uint64_t* row = group.data() + r * read.words;
      const std::uint32_t count = read.neighbours
                                      ? ed_star_row_scalar(row, read)
                                      : hamming_row_scalar(row, read);
      out.counts[q * kGroupRows + r] = static_cast<std::uint16_t>(count);
      below |= std::uint64_t{count < bound} << r;
    }
    out.below[q] = below;
  }
}

bool window_alive_scalar(const SlicedRowStore& rows,
                         const PackedReadView& read,
                         const std::uint64_t* live, std::size_t lo,
                         std::size_t hi) {
  // Plain words: one 64-row group of each plane at a time, the column's
  // mismatch word from the same truth table the sliced tiers splat.
  constexpr std::size_t kGroups =
      SlicedRowStore::kBlockRows / SlicedRowStore::kGroupRows;
  const std::uint64_t* table = read.columns.data();
  const std::size_t groups = rows.blocks() * kGroups;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint64_t* planes = rows.block(g / kGroups) + g % kGroups;
    std::uint64_t alive = live_group_word(live, rows.rows(), g);
    for (std::size_t j = lo; j < hi && alive != 0; ++j) {
      const std::uint64_t low = planes[SlicedRowStore::kColumnWords * j];
      const std::uint64_t high = planes[SlicedRowStore::kColumnWords * j + 4];
      const std::uint64_t* t = table + 4 * j;
      const std::uint64_t x01 = t[0] ^ (t[1] & low);
      alive &= ~(x01 ^ ((t[2] ^ (t[3] & low)) & high));
    }
    if (alive != 0) return true;
  }
  return false;
}

}  // namespace detail

// ----------------------------------------------------- dispatch tables --

namespace {

constexpr KernelOps kScalarOps{KernelTier::Scalar,
                               &detail::count_block_scalar,
                               &detail::window_alive_scalar};
#ifdef ASMCAP_HAVE_AVX2
constexpr KernelOps kAvx2Ops{KernelTier::Avx2, &detail::avx2::count_block,
                             &detail::avx2::window_alive};
#endif
#ifdef ASMCAP_HAVE_NEON
constexpr KernelOps kNeonOps{KernelTier::Neon, &detail::neon::count_block,
                             &detail::neon::window_alive};
#endif

/// True when the running CPU can execute the tier's instructions (the
/// compile-time availability is checked separately).
bool cpu_supports(KernelTier tier) {
  switch (tier) {
    case KernelTier::Scalar:
      return true;
    case KernelTier::Avx2:
#if defined(ASMCAP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
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
