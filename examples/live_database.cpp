// Live database walkthrough: growing, shrinking, and compacting a sharded
// reference database while it serves searches. New segments stage in a
// small hot bank (config.live), deletes tombstone rows in place, and
// compact() folds the hot bank into the cold banks at an epoch boundary —
// all without perturbing a single decision: searching any epoch is
// bit-identical to a fresh one-bank router holding exactly that epoch's
// live rows (determinism.md, rule 8). An in-flight SearchService ticket
// stays pinned to the epoch it launched against, so mutations racing a
// search are invisible to it. See docs/architecture.md ("Live database").

#include <cstdio>
#include <vector>

#include "asmcap/db_error.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "genome/reference.h"

using namespace asmcap;

int main() {
  // Two cold banks of 2 x 128-row arrays plus a 64 x 4 hot staging bank.
  AsmcapConfig bank;
  bank.array_rows = 128;
  bank.array_cols = 128;
  bank.array_count = 2;
  bank.ideal_sensing = true;

  Rng rng(0xD8'11FE'7);
  const Sequence reference = generate_reference(128 * 420, {}, rng);
  auto segments = segment_reference(reference, 128);
  segments.resize(416);

  // Day 0: ship with the first 320 segments.
  std::vector<Sequence> initial(segments.begin(), segments.begin() + 320);
  ShardedAccelerator db(bank, 2);
  db.load_reference(initial);
  std::printf("epoch %llu: %zu live / %zu id space\n",
              static_cast<unsigned long long>(db.epoch()),
              db.live_segment_count(), db.loaded_segments());

  ReadSimConfig sim_config;
  sim_config.read_length = 128;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator simulator(reference, sim_config);
  auto make_reads = [&](std::size_t n) {
    std::vector<Sequence> reads;
    reads.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      reads.push_back(simulator.simulate_at(rng.below(416) * 128, rng).read);
    return reads;
  };

  // A ticket launched now is pinned to the current epoch: the mutations
  // below are invisible to it, even if they publish before it completes.
  SearchService service(db);
  SearchService::Options options;
  options.workers = 2;
  auto ticket = service.submit(make_reads(24), 4, StrategyMode::Full, options);

  // Day 1: a new assembly lands — append it (ids are assigned ascending
  // and never reused; the rows stage in the hot bank, no cold rewrite).
  std::vector<Sequence> incoming(segments.begin() + 320, segments.end());
  const auto new_ids = db.append_segments(incoming);
  std::printf("epoch %llu: appended %zu segments (ids %llu..%llu)\n",
              static_cast<unsigned long long>(db.epoch()), new_ids.size(),
              static_cast<unsigned long long>(new_ids.front()),
              static_cast<unsigned long long>(new_ids.back()));

  // Day 2: a batch of contaminated segments is retracted. Tombstoned rows
  // are masked out of every counting and energy path; their ids answer
  // SegmentState::Dead and a second delete is a typed error.
  const std::vector<std::uint64_t> retracted = {17, 42, 203, 321};
  db.remove_segments(retracted);
  std::printf("epoch %llu: retracted %zu segments, %zu live\n",
              static_cast<unsigned long long>(db.epoch()), retracted.size(),
              db.live_segment_count());
  try {
    db.remove_segments({17});
  } catch (const DbError& error) {
    std::printf("  double delete rejected: %s\n", error.what());
  }

  // Fold the hot bank into the cold banks' free rows. Decisions are
  // unchanged: per-row silicon and noise streams follow the global id,
  // not the physical slot.
  const std::uint64_t folded = db.compact();
  std::printf("epoch %llu: compacted (hot bank folded)\n",
              static_cast<unsigned long long>(folded));

  // The pinned ticket saw none of this.
  std::size_t pinned_matches = 0;
  for (const QueryResult& result : ticket->drain())
    pinned_matches += result.matched_segments.size();
  std::printf("pinned ticket: %zu matches against the launch epoch\n",
              pinned_matches);

  // Searches after the mutations see the final epoch — bit-identical to a
  // one-bank router holding exactly its live (id, row) pairs: load every
  // id in order, then retract the same ids. Same seed means the same
  // silicon root and the same sequential query streams (mutations and
  // batches never advance them).
  AsmcapConfig mono_config = bank;
  mono_config.array_count = 4;  // one chip holding the whole database
  ShardedAccelerator replay(mono_config, 1);
  replay.load_reference(segments);
  replay.remove_segments(retracted);

  bool identical = db.live_segments() == replay.live_segments();
  for (const Sequence& read : make_reads(24)) {
    const QueryResult a = db.search(read, 4, StrategyMode::Full);
    const QueryResult b = replay.search(read, 4, StrategyMode::Full);
    identical = identical && a.matched_segments == b.matched_segments &&
                a.decisions == b.decisions;
  }
  std::printf("mutated db == fresh load of live rows: %s\n",
              identical ? "yes" : "NO (bug)");
  return identical ? 0 : 1;
}
