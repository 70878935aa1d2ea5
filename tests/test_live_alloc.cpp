// Allocation failure in the live database's mutations: failing each
// allocation of each kind of mutation in turn must leave the published
// epoch exactly as it was (db_error.h's strong guarantee), including when
// the mutation was writing its banks in place.
//
// This suite replaces the global operator new and delete with a
// per-thread countdown over malloc/free, which hides the allocation form
// from AddressSanitizer's new/delete mismatch checks. It is a test
// executable of its own so that test_live and every other suite keep
// those checks.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "asmcap/sharded.h"
#include "genome/reference.h"
#include "genome/sequence.h"
#include "live_in_place.h"
#include "util/rng.h"

// Allocation failure on demand: armed with n on a thread, that thread's
// n-th allocation from then on fails (std::bad_alloc; null from the
// nothrow forms) and the arming clears.
namespace {
namespace fault {
thread_local std::size_t countdown = 0;  // 0: disarmed
thread_local bool fired = false;

bool fail_now() {
  if (countdown == 0 || --countdown != 0) return false;
  fired = true;
  return true;
}

void* allocate(std::size_t n) {
  if (fail_now()) throw std::bad_alloc();
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace fault
}  // namespace

void* operator new(std::size_t n) { return fault::allocate(n); }
void* operator new[](std::size_t n) { return fault::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return fault::fail_now() ? nullptr : std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace asmcap {
namespace {

/// The first 50 64-column segments of a random reference.
std::vector<Sequence> reference_rows() {
  Rng rng(2301);
  std::vector<Sequence> rows =
      segment_reference(generate_reference(64 * 50 + 128, {}, rng), 64);
  rows.resize(50);
  return rows;
}

/// Fails each allocation `step` makes in turn, each time on a fresh
/// router from `prefix`: a failed step must leave the published epoch
/// exactly as it was, bank objects included; a step that succeeds must
/// write the banks it writes in place and end like `prefix` + `step`
/// without failures.
void expect_failures_change_nothing(
    const std::function<std::unique_ptr<ShardedAccelerator>()>& prefix,
    const InPlaceStep& step) {
  SCOPED_TRACE(step.what);
  const std::unique_ptr<ShardedAccelerator> reference = prefix();
  step.run(*reference);
  const EpochState want = epoch_state(*reference);
  std::size_t failures = 0;
  for (std::size_t k = 1; k < 10'000; ++k) {
    const std::unique_ptr<ShardedAccelerator> router = prefix();
    const EpochState before = epoch_state(*router);
    bool threw = false;
    fault::fired = false;
    fault::countdown = k;
    try {
      step.run(*router);
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    fault::countdown = 0;
    const EpochState after = epoch_state(*router);
    if (threw) {
      ++failures;
      ASSERT_TRUE(after == before) << "allocation " << k << " failed";
      continue;
    }
    ASSERT_EQ(after.banks.size(), want.banks.size());
    EXPECT_EQ(after.number, want.number);
    for (std::size_t s = 0; s < want.banks.size(); ++s)
      EXPECT_TRUE(after.states[s] == want.states[s])
          << "bank " << s << ", allocation " << k;
    for (const std::size_t s : step.written)
      EXPECT_EQ(after.banks[s], before.banks[s]) << "bank " << s;
    if (!fault::fired) break;  // no allocation left to fail
  }
  EXPECT_GT(failures, 0u);
}

// Failing each allocation of a mutation in turn — among them the room an
// in-place bank makes in its row store, directory and id index — leaves
// the published epoch exactly as it was, bank objects included, even when
// the mutation writes several banks, on ideal and noisy banks alike. Once every allocation succeeds, the mutation writes its banks in
// place and ends as on a router that never failed. The router never asks
// a bank for a slot past its capacity, so the row store's growth cannot
// be made to fail with an impossible size here, as test_kernels does it;
// the last case fails it as an allocation, in an append that crosses
// into a new 256-row block.
TEST(LiveDbAllocation, FailedAllocationLeavesThePublishedEpochUnchanged) {
  const std::vector<Sequence> segments = reference_rows();
  const std::vector<Sequence> first20(segments.begin(), segments.begin() + 20);
  for (const bool ideal : {true, false}) {
    SCOPED_TRACE(ideal ? "ideal" : "noisy");
    const std::vector<InPlaceStep> steps = in_place_steps(segments);
    for (std::size_t i = 0; i < steps.size(); ++i)
      expect_failures_change_nothing(
          [&] {
            auto router =
                std::make_unique<ShardedAccelerator>(in_place_config(ideal), 2);
            router->load_reference(first20);
            for (std::size_t j = 0; j < i; ++j) steps[j].run(*router);
            return router;
          },
          steps[i]);

    // No hot bank: 20 rows go straight into the cold bank's slots 250 on,
    // which its row store's first block cannot hold.
    AsmcapConfig wide = in_place_config(ideal);
    wide.array_count = 8;
    wide.array_rows = 64;
    wide.live.hot_array_rows = 0;
    Rng rng(2313);
    std::vector<Sequence> rows;
    rows.reserve(270);
    for (std::size_t n = 0; n < 270; ++n)
      rows.push_back(Sequence::random(wide.array_cols, rng));
    const std::vector<Sequence> loaded(rows.begin(), rows.begin() + 250);
    const std::vector<Sequence> grown(rows.begin() + 250, rows.end());
    expect_failures_change_nothing(
        [&] {
          auto router = std::make_unique<ShardedAccelerator>(wide, 1);
          router->load_reference(loaded);
          return router;
        },
        {"grow the row store by a block",
         [&](ShardedAccelerator& router) { router.append_segments(grown); },
         {0}});
  }
}

}  // namespace
}  // namespace asmcap
