#include "asmcap/sharded.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "asmcap/service.h"

namespace asmcap {

ShardedAccelerator::ShardedAccelerator(AsmcapConfig config,
                                       std::size_t shard_count)
    : config_(config),
      shard_count_(shard_count),
      rates_(ErrorRates::condition_a()),
      next_global_id_(static_cast<std::uint64_t>(config.segment_base)),
      timing_(config.process),
      controller_(config),
      rng_(config.seed) {
  if (shard_count_ == 0)
    throw std::invalid_argument("ShardedAccelerator: zero shards");
}

std::shared_ptr<AsmcapAccelerator> ShardedAccelerator::make_bank(
    bool cold, std::size_t id_floor) const {
  // Every bank keeps the router's seed: ONE silicon stream tree for the
  // whole router, so a row's manufactured silicon is keyed by its global
  // id alone and rebalancing a segment into another bank moves its noisy
  // behaviour with it (determinism rule 8).
  AsmcapConfig bank_config = config_;
  bank_config.segment_base = config_.segment_base + id_floor;
  if (!cold) {
    bank_config.array_rows = config_.live.hot_array_rows;
    bank_config.array_count = config_.live.hot_array_count;
  }
  auto bank = std::make_shared<AsmcapAccelerator>(bank_config);
  bank->set_backend(backend_kind_);
  return bank;
}

void ShardedAccelerator::load_reference(
    const std::vector<Sequence>& segments) {
  if (db_)
    throw DbError(DbErrorKind::AlreadyLoaded,
                  "ShardedAccelerator: reference already loaded");
  if (segments.empty())
    throw std::invalid_argument("ShardedAccelerator: no segments");
  if (segments.size() > capacity_segments())
    throw DbError(DbErrorKind::CapacityExceeded,
                  "ShardedAccelerator: database exceeds the sharded capacity");

  // Contiguous balanced partition: shard s holds count/N segments plus one
  // of the count%N leftovers. Every share fits one bank because
  // ceil(count/N) <= bank capacity whenever count <= N * capacity. A tiny
  // database may populate fewer banks than configured (at most one bank
  // per segment) — empty banks are never built, so every active bank can
  // execute queries.
  const std::size_t total = segments.size();
  const std::size_t shards = std::min(shard_count_, total);
  std::vector<std::size_t> bases(shards + 1, 0);
  for (std::size_t s = 0; s < shards; ++s)
    bases[s + 1] = bases[s] + total / shards + (s < total % shards ? 1u : 0u);

  auto next = std::make_shared<DbEpoch>();
  next->number = 1;
  next->banks.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    // The frozen anchor: bank s's ids are the contiguous global block
    // [segment_base + bases[s], segment_base + bases[s+1]).
    next->banks.push_back(make_bank(true, bases[s]));
    const std::vector<Sequence> block(segments.begin() + bases[s],
                                      segments.begin() + bases[s + 1]);
    next->banks.back()->load_reference(block);
  }
  next->has_hot = false;
  next->id_space = total;
  next->live_count = total;
  next_global_id_ =
      static_cast<std::uint64_t>(config_.segment_base) + total;
  db_ = std::move(next);
}

std::shared_ptr<const DbEpoch> ShardedAccelerator::pin() const {
  if (!db_) return nullptr;
  pins_->fetch_add(1, std::memory_order_relaxed);
  // Should the pointer's control block fail to allocate, the deleter runs
  // at once and counts the pin out again.
  return std::shared_ptr<const DbEpoch>(
      db_.get(), [epoch = db_, pins = pins_](const DbEpoch*) mutable {
        epoch.reset();
        pins->fetch_sub(1, std::memory_order_release);
      });
}

bool ShardedAccelerator::unshared(
    const std::shared_ptr<AsmcapAccelerator>& bank) const {
  // A count read at zero (acquire) follows each pin's release, made after
  // the pin let go of its epoch: every read through those pins, and the
  // epochs' release of their banks, happened before the write this allows.
  return pins_->load(std::memory_order_acquire) == 0 &&
         bank.use_count() == 2;  // the published epoch and the build
}

ShardedAccelerator::EpochBuild ShardedAccelerator::begin_build() const {
  EpochBuild build;
  build.next = db_ ? std::make_shared<DbEpoch>(*db_)
                   : std::make_shared<DbEpoch>();
  ++build.next->number;
  build.owned.assign(build.next->banks.size(), false);
  return build;
}

AsmcapAccelerator& ShardedAccelerator::touch(EpochBuild& build,
                                             std::size_t i) const {
  std::shared_ptr<AsmcapAccelerator>& bank = build.next->banks[i];
  if (!build.owned[i]) {
    if (!unshared(bank))
      bank = std::shared_ptr<AsmcapAccelerator>(bank->clone());
    build.owned[i] = true;
  }
  return *bank;
}

void ShardedAccelerator::publish(EpochBuild& build) {
  for (AsmcapAccelerator::PendingWrite& write : build.writes) write.commit();
  db_ = std::move(build.next);
}

void ShardedAccelerator::fold_into_cold(
    EpochBuild& build, std::span<const Sequence> rows,
    std::span<const std::uint64_t> ids) const {
  DbEpoch& next = *build.next;
  // The hot bank's survivors in ascending id order (the canonical fold
  // order: deterministic whatever slot-recycling history the hot bank
  // had), then the batch's rows: one block, which each receiving cold
  // bank takes its share of. The hot bank is only read and leaves the
  // epoch.
  std::vector<std::pair<std::uint64_t, Sequence>> staged;
  if (next.has_hot) {
    staged = next.banks.back()->live_segments();
    std::sort(staged.begin(), staged.end(),
              [](const std::pair<std::uint64_t, Sequence>& a,
                 const std::pair<std::uint64_t, Sequence>& b) {
                return a.first < b.first;
              });
    next.banks.pop_back();
    build.owned.pop_back();
    next.has_hot = false;
  }
  build.fold_rows.reserve(staged.size() + rows.size());
  build.fold_ids.reserve(staged.size() + rows.size());
  for (auto& [id, row] : staged) {
    build.fold_ids.push_back(id);
    build.fold_rows.push_back(std::move(row));
  }
  build.fold_rows.insert(build.fold_rows.end(), rows.begin(), rows.end());
  build.fold_ids.insert(build.fold_ids.end(), ids.begin(), ids.end());

  // Each cold bank in shard order takes as many rows as it has free, in
  // one append.
  const std::span<const Sequence> fold_rows(build.fold_rows);
  const std::span<const std::uint64_t> fold_ids(build.fold_ids);
  for (std::size_t s = 0, j = 0; j < fold_rows.size(); ++s) {
    if (s == next.banks.size()) {
      // All existing cold banks are full: grow the cold tier (the
      // capacity invariant — live <= cold capacity — guarantees we never
      // need more than shard_count_ banks).
      if (next.banks.size() >= shard_count_)
        throw std::logic_error("ShardedAccelerator: fold overflow");
      next.banks.push_back(make_bank(true, 0));
      build.owned.push_back(true);
    }
    const std::size_t take =
        std::min(next.banks[s]->free_capacity(), fold_rows.size() - j);
    if (take == 0) continue;
    build.writes.push_back(touch(build, s).prepare_append(
        fold_rows.subspan(j, take), fold_ids.subspan(j, take)));
    j += take;
  }
}

std::vector<std::uint64_t> ShardedAccelerator::append_segments(
    const std::vector<Sequence>& segments) {
  if (segments.empty()) return {};
  for (const Sequence& segment : segments)
    if (segment.size() != config_.array_cols)
      throw std::invalid_argument("ShardedAccelerator: segment width mismatch");
  const std::size_t live_now = db_ ? db_->live_count : 0;
  if (live_now + segments.size() > capacity_segments())
    throw DbError(DbErrorKind::CapacityExceeded,
                  "ShardedAccelerator: database exceeds the sharded capacity");

  EpochBuild build = begin_build();
  DbEpoch& next = *build.next;
  const std::size_t n = segments.size();
  std::vector<std::uint64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i)
    ids[i] = next_global_id_ + static_cast<std::uint64_t>(i);

  // Filling the hot bank row by row and folding it whenever it is full
  // would leave the last `keep` rows staged, keep in [1, H] (none when
  // H = 0). So an overflowing append folds the staged rows and the first
  // n - keep new ones in one go, and stages the rest in a fresh hot bank.
  const std::size_t hot_capacity =
      config_.live.hot_array_rows * config_.live.hot_array_count;
  const std::size_t staged =
      next.has_hot ? next.banks.back()->live_segment_count() : 0;
  const std::span<const Sequence> rows(segments);
  const std::span<const std::uint64_t> row_ids(ids);
  std::size_t folded = 0;
  if (staged + n > hot_capacity) {
    const std::size_t keep =
        hot_capacity == 0 ? 0 : (staged + n - 1) % hot_capacity + 1;
    folded = n - keep;
    fold_into_cold(build, rows.first(folded), row_ids.first(folded));
  }
  if (folded < n) {
    if (!next.has_hot) {
      // Fresh hot staging bank (always last).
      next.banks.push_back(make_bank(false, 0));
      build.owned.push_back(true);
      next.has_hot = true;
    }
    build.writes.push_back(touch(build, next.banks.size() - 1)
                               .prepare_append(rows.subspan(folded),
                                               row_ids.subspan(folded)));
  }

  next.id_space = static_cast<std::size_t>(
      next_global_id_ + n - static_cast<std::uint64_t>(config_.segment_base));
  next.live_count = live_now + n;
  publish(build);
  next_global_id_ += n;
  return ids;
}

void ShardedAccelerator::remove_segments(
    const std::vector<std::uint64_t>& ids) {
  check_loaded();
  if (ids.empty())
    throw DbError(DbErrorKind::EmptyMutation,
                  "ShardedAccelerator: remove_segments with no ids");
  // Validate every id against the CURRENT epoch before writing anything:
  // a throw below leaves the published epoch untouched.
  const std::size_t repeat = first_repeat(ids);
  std::vector<std::vector<std::uint64_t>> per_bank(db_->banks.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t id = ids[i];
    if (i == repeat)
      throw DbError(DbErrorKind::DoubleDelete,
                    "ShardedAccelerator: segment already deleted");
    bool found = false;
    for (std::size_t s = 0; s < db_->banks.size() && !found; ++s) {
      switch (db_->banks[s]->segment_state(id)) {
        case SegmentState::Live:
          per_bank[s].push_back(id);
          found = true;
          break;
        case SegmentState::Dead:
          throw DbError(DbErrorKind::DoubleDelete,
                        "ShardedAccelerator: segment already deleted");
        case SegmentState::Unknown:
          break;
      }
    }
    if (!found)
      throw DbError(DbErrorKind::UnknownSegment,
                    "ShardedAccelerator: unknown segment id");
  }

  EpochBuild build = begin_build();
  for (std::size_t s = 0; s < per_bank.size(); ++s)
    if (!per_bank[s].empty())
      build.writes.push_back(touch(build, s).prepare_remove(per_bank[s]));
  build.next->live_count -= ids.size();
  publish(build);
}

std::uint64_t ShardedAccelerator::compact() {
  check_loaded();
  if (!db_->has_hot) return db_->number;  // nothing staged: no new epoch
  EpochBuild build = begin_build();
  fold_into_cold(build, {}, {});
  publish(build);
  return db_->number;
}

SegmentState ShardedAccelerator::segment_state(std::uint64_t id) const {
  if (!db_) return SegmentState::Unknown;
  for (const auto& bank : db_->banks) {
    const SegmentState state = bank->segment_state(id);
    if (state != SegmentState::Unknown) return state;
  }
  return SegmentState::Unknown;
}

std::vector<std::pair<std::uint64_t, Sequence>>
ShardedAccelerator::live_segments() const {
  std::vector<std::pair<std::uint64_t, Sequence>> out;
  if (!db_) return out;
  out.reserve(db_->live_count);
  for (const auto& bank : db_->banks) {
    std::vector<std::pair<std::uint64_t, Sequence>> part =
        bank->live_segments();
    for (auto& entry : part) out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const std::pair<std::uint64_t, Sequence>& a,
               const std::pair<std::uint64_t, Sequence>& b) {
              return a.first < b.first;
            });
  return out;
}

void ShardedAccelerator::set_backend(BackendKind kind) {
  backend_kind_ = kind;
  if (db_)
    for (const auto& bank : db_->banks) bank->set_backend(kind);
}

double ShardedAccelerator::load_energy_joules() const {
  double energy = 0.0;
  if (db_)
    for (const auto& bank : db_->banks)
      energy += bank->load_energy_joules();
  return energy;
}

double ShardedAccelerator::load_latency_seconds() const {
  double latency = 0.0;
  if (db_)
    for (const auto& bank : db_->banks)
      latency = std::max(latency, bank->load_latency_seconds());
  return latency;
}

void ShardedAccelerator::check_loaded() const {
  if (!db_)
    throw DbError(DbErrorKind::NotLoaded,
                  "ShardedAccelerator: no reference loaded");
}

void ShardedAccelerator::check_shard(std::size_t s) const {
  check_loaded();
  if (s >= db_->banks.size())
    throw std::out_of_range("ShardedAccelerator: shard index out of range");
}

std::vector<std::uint32_t> ShardedAccelerator::probe_shards(
    const DbEpoch& db, const ExecutionPlan& plan) const {
  std::vector<std::uint32_t> selected;
  selected.reserve(db.banks.size());
  const std::size_t windows =
      config_.pruning.enabled
          ? pruning_window_count(config_, backend_kind_, plan.threshold)
          : 0;
  // windows == 0 means a sound prune is impossible for this query (or
  // pruning is off): dispatch everything.
  for (std::uint32_t s = 0; s < db.banks.size(); ++s)
    if (windows == 0 || db.banks[s]->may_match(plan, windows))
      selected.push_back(s);
  return selected;
}

QueryResult ShardedAccelerator::merge_subset(
    const DbEpoch& db, const ExecutionPlan& plan,
    const std::vector<QueryResult>& partials,
    const std::vector<std::uint32_t>& shard_ids) const {
  QueryResult merged;
  merged.plan = plan.summary;
  merged.decisions.assign(db.id_space, false);
  const std::uint64_t base =
      static_cast<std::uint64_t>(config_.segment_base);
  for (std::size_t j = 0; j < shard_ids.size(); ++j) {
    const QueryResult& part = partials[j];
    // Bank results are slot-indexed: scatter their matched slots into the
    // global id space through the bank's directory (ids are disjoint
    // across banks).
    const LiveDirectory& dir = db.banks[shard_ids[j]]->directory();
    for (const std::size_t slot : part.matched_segments) {
      const auto g = static_cast<std::size_t>(dir.ids[slot] - base);
      merged.decisions[g] = true;
      merged.matched_segments.push_back(g);
    }
    // Energy is spent in every dispatched bank (ascending shard order
    // keeps the floating-point summation deterministic).
    merged.energy_joules += part.energy_joules;
  }
  std::sort(merged.matched_segments.begin(), merged.matched_segments.end());
  // Banks search in parallel, so a pass completes when the slowest bank
  // does; pass latency is a pure function of the plan's operation count
  // (see TimingModel), so every bank reports this value, and a read
  // pruned on some or all banks reports what a full fan-out would.
  merged.latency_seconds =
      timing_.asmcap_query_latency(plan.summary.total_searches());
  return merged;
}

QueryResult ShardedAccelerator::search(const Sequence& read,
                                       std::size_t threshold,
                                       StrategyMode mode,
                                       std::size_t workers) {
  check_loaded();
  if (read.size() != config_.array_cols)
    throw std::invalid_argument("ShardedAccelerator: read width mismatch");

  // Snapshot the epoch once: the whole query — probe, fan-out, merge —
  // runs against it even if (illegally) interleaved with a mutation.
  const std::shared_ptr<const DbEpoch> db = db_;

  // The sequential stream formula (docs/determinism.md): one next() of
  // the master stream per query. It advances BEFORE the pruning probe, and
  // by the same one step whether or not banks get pruned, so pruning
  // never shifts later queries' streams. Every dispatched bank
  // executes the same plan against the same query stream; global-id RNG
  // keying keeps their draws disjoint, and a pruned bank would have drawn
  // nothing that surviving banks see (streams are pure forks per global
  // segment id) — decisions stay bit-identical to full fan-out.
  const ExecutionPlan plan =
      controller_.planner().build(read, threshold, rates_, mode);
  const Rng query_rng = rng_.fork(rng_.next());

  const std::vector<std::uint32_t> selected = probe_shards(*db, plan);
  std::vector<QueryResult> partials(selected.size());
  worker_pool(workers).parallel_for(selected.size(), [&](std::size_t j) {
    partials[j] = db->banks[selected[j]]->execute(plan, query_rng);
  });
  QueryResult result = merge_subset(*db, plan, partials, selected);
  controller_.record(result.plan, result.latency_seconds,
                     result.energy_joules);
  if (config_.pruning.enabled)
    controller_.record_pruning(selected.size(),
                               db->banks.size() - selected.size());
  return result;
}

std::vector<QueryResult> ShardedAccelerator::search_batch(
    const std::vector<Sequence>& reads, std::size_t threshold,
    StrategyMode mode, std::size_t workers) {
  // Thin blocking wrapper over the streaming service: submit the batch,
  // drain it in read order. The service forks read i's stream from the
  // router's master RNG as (batch epoch << 32) | i (deterministic in read
  // index, independent of worker count, non-perturbing) and records the
  // ledger in read order at drain. Peak partial-result memory is bounded
  // by the admission window instead of reads x shards.
  SearchService service(*this);
  SearchService::Options options;
  options.workers = workers;
  // Borrowed: `reads` outlives the drain, so no copy into the ticket.
  return service.submit_borrowed(reads, threshold, mode, options)->drain();
}

}  // namespace asmcap
