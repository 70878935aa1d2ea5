#pragma once
// Test helpers for the live database's in-place writes, shared by
// test_live and test_live_alloc: a snapshot of what a bank and the
// published epoch show, and one mutation of each kind of bank write a
// mutation makes. Tests only.
//
// Thread-safety: plain functions of their arguments; read a router only
// from its control thread.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "asmcap/accelerator.h"
#include "asmcap/config.h"
#include "asmcap/sharded.h"
#include "genome/sequence.h"
#include "util/bitvec.h"

namespace asmcap {

/// What a bank shows: slot ids, live bits, live rows and its load
/// ledger.
struct BankState {
  std::vector<std::uint64_t> ids;
  BitVec live;
  std::vector<std::pair<std::uint64_t, Sequence>> rows;
  double load_energy = 0.0;
  double load_latency = 0.0;

  bool operator==(const BankState&) const = default;
};

inline BankState bank_state(const AsmcapAccelerator& bank) {
  return {bank.directory().ids, bank.directory().live, bank.live_segments(),
          bank.load_energy_joules(), bank.load_latency_seconds()};
}

/// The published epoch as the router's accessors show it — number, id
/// space, live count, its bank objects and their states — read without
/// pinning it (a pin would make the next mutation clone).
struct EpochState {
  std::uint64_t number = 0;
  std::size_t id_space = 0;
  std::size_t live = 0;
  std::vector<const AsmcapAccelerator*> banks;
  std::vector<BankState> states;

  bool operator==(const EpochState&) const = default;
};

inline EpochState epoch_state(const ShardedAccelerator& router) {
  EpochState state{router.epoch(), router.loaded_segments(),
                   router.live_segment_count(), {}, {}};
  if (router.epoch() == 0) return state;
  state.banks.reserve(router.active_shards());
  state.states.reserve(router.active_shards());
  for (std::size_t s = 0; s < router.active_shards(); ++s) {
    state.banks.push_back(&router.shard(s));
    state.states.push_back(bank_state(router.shard(s)));
  }
  return state;
}

/// 64-column banks of two 16-row arrays (32 rows each) and a 4-row hot
/// bank.
inline AsmcapConfig in_place_config(bool ideal) {
  AsmcapConfig config;
  config.array_rows = 16;
  config.array_cols = 64;
  config.array_count = 2;
  config.ideal_sensing = ideal;
  config.live.hot_array_rows = 4;
  config.live.hot_array_count = 1;
  return config;
}

/// One mutation of the in-place tests and the banks (indices into the
/// epoch it starts from) that it writes and that stay in the epoch it
/// publishes.
struct InPlaceStep {
  const char* what;
  std::function<void(ShardedAccelerator&)> run;
  std::vector<std::size_t> written;
};

/// From a 2-shard router holding rows 0-19 in two cold banks, with
/// in_place_config's geometry: every kind of bank write a mutation makes.
inline std::vector<InPlaceStep> in_place_steps(
    const std::vector<Sequence>& rows) {
  const auto append = [&rows](std::size_t from, std::size_t to) {
    const std::vector<Sequence> batch(rows.begin() + from, rows.begin() + to);
    return [batch](ShardedAccelerator& router) {
      router.append_segments(batch);
    };
  };
  return {
      {"stage 3 rows in a fresh hot bank", append(20, 23), {}},
      {"fill the hot bank", append(23, 24), {2}},
      // 4 staged + 6 new: the last 2 stay staged, 8 fold into cold bank 0.
      {"fold into one cold bank", append(24, 30), {0}},
      // 2 staged + 20 new: 14 fill cold bank 0, 6 go to cold bank 1.
      {"fold into both cold banks", append(30, 50), {0, 1}},
      {"remove from three banks",
       [](ShardedAccelerator& router) { router.remove_segments({48, 1, 15}); },
       {0, 1, 2}},
      // Id 49 recycles the slot id 1 left in cold bank 0.
      {"compact", [](ShardedAccelerator& router) { router.compact(); }, {0}},
  };
}

}  // namespace asmcap
