#include "asmcap/accelerator.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>

#include "align/kernels.h"
#include "cam/periphery.h"
#include "circuit/sense_amp.h"

namespace asmcap {

namespace {
// Pass salts for the per-query RNG tree (see backend.h): ED* pass p forks
// stream p; the HD pass and the HDAC selection coins get their own salts,
// out of reach of any realistic rotation-schedule length.
constexpr std::uint64_t kHdPassSalt = 0x4844'0000ULL;
constexpr std::uint64_t kHdacSelectSalt = 0x5E1E'C700ULL;

/// Makes room for `n` elements, at least doubling the capacity when it
/// grows, as push_back does: growing to the exact size on every append
/// would copy the whole table each time.
template <typename Table>
void reserve_geometric(Table& table, std::size_t n) {
  if (n > table.capacity()) table.reserve(std::max(n, 2 * table.capacity()));
}
}  // namespace

AsmcapAccelerator::AsmcapAccelerator(AsmcapConfig config)
    : config_(config),
      planner_(config),
      timing_(config.process),
      pass_(config),
      silicon_(config.ideal_sensing ? nullptr
                                    : std::make_shared<SiliconMemo>()),
      store_(config.array_cols),
      next_auto_id_(static_cast<std::uint64_t>(config.segment_base)) {
  validate(config_.process);
}

std::size_t AsmcapAccelerator::slot_of(std::uint64_t id) const {
  const auto it = std::lower_bound(
      slots_by_id_.begin(), slots_by_id_.end(), id,
      [&](std::size_t slot, std::uint64_t key) { return dir_.ids[slot] < key; });
  return it != slots_by_id_.end() && dir_.ids[*it] == id ? *it : kNoSlot;
}

void AsmcapAccelerator::book_write_cost(std::span<const std::size_t> slots) {
  // Every row write burns decoder+WL+SRAM energy; arrays write their rows
  // in parallel, so the burst latency is set by the fullest touched array
  // (ascending slots: an array's slots are one run).
  std::size_t burst = 0;
  for (std::size_t i = 0, run = 0; i < slots.size(); ++i) {
    run = i > 0 && slots[i] / config_.array_rows ==
                       slots[i - 1] / config_.array_rows
              ? run + 1
              : 1;
    burst = std::max(burst, run);
  }
  const WriteCostParams write_cost;
  load_energy_ += static_cast<double>(slots.size()) *
                  row_write_energy(config_.array_cols, write_cost);
  load_latency_ += static_cast<double>(burst) * write_cost.latency_per_row;
}

void AsmcapAccelerator::load_reference(const std::vector<Sequence>& segments) {
  if (dir_.slots() != 0)
    throw DbError(DbErrorKind::AlreadyLoaded,
                  "AsmcapAccelerator: reference already loaded");
  append_segments(segments);
}

std::vector<std::uint64_t> AsmcapAccelerator::append_segments(
    const std::vector<Sequence>& segments) {
  std::vector<std::uint64_t> ids(segments.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = next_auto_id_ + static_cast<std::uint64_t>(i);
  append_segments(segments, ids);
  return ids;
}

void AsmcapAccelerator::append_segments(
    std::span<const Sequence> segments, std::span<const std::uint64_t> ids) {
  prepare_append(segments, ids).commit();
}

AsmcapAccelerator::PendingWrite AsmcapAccelerator::prepare_append(
    std::span<const Sequence> segments, std::span<const std::uint64_t> ids) {
  if (segments.size() != ids.size())
    throw std::invalid_argument(
        "AsmcapAccelerator: append ids/segments size mismatch");
  PendingWrite write;
  write.bank_ = this;
  write.rows_ = segments;
  write.ids_ = ids;
  if (segments.empty()) return write;
  // Validate everything before touching any state (strong exception
  // safety, see db_error.h).
  for (const Sequence& segment : segments)
    if (segment.size() != config_.array_cols)
      throw std::invalid_argument(
          "AsmcapAccelerator: segment width mismatch");
  const std::size_t repeat = first_repeat(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < static_cast<std::uint64_t>(config_.segment_base))
      throw std::invalid_argument(
          "AsmcapAccelerator: segment id below segment_base");
    if (i == repeat || slot_of(ids[i]) != kNoSlot)
      throw DbError(DbErrorKind::DuplicateId,
                    "AsmcapAccelerator: segment id already known");
  }
  if (dir_.live_count + segments.size() > config_.capacity_segments())
    throw DbError(DbErrorKind::CapacityExceeded,
                  "AsmcapAccelerator: reference exceeds capacity");

  // Target slots, ascending: recycled tombstones first (lowest slot
  // first: the zero bits of the live words, looked for only when the bank
  // has tombstones), then fresh rows. The capacity check above
  // guarantees enough of both.
  const std::size_t n = segments.size();
  const std::size_t old_slots = dir_.slots();
  std::vector<std::size_t>& targets = write.slots_;
  targets.reserve(n);
  if (dir_.live_count < old_slots) {
    const std::uint64_t* live = dir_.live.data();
    for (std::size_t w = 0; w < dir_.live.words() && targets.size() < n; ++w)
      for (std::uint64_t dead = ~live[w];
           dead != 0 && targets.size() < n; dead &= dead - 1) {
        const std::size_t slot =
            64 * w + static_cast<std::size_t>(std::countr_zero(dead));
        if (slot >= old_slots) break;
        targets.push_back(slot);
      }
  }
  for (std::size_t next = old_slots; targets.size() < n; ++next)
    targets.push_back(next);

  // Room for everything commit writes, so that it cannot throw.
  const std::size_t slots = std::max(old_slots, targets.back() + 1);
  store_.reserve(slots);
  reserve_geometric(dir_.ids, slots);
  reserve_geometric(dir_.live, slots);
  reserve_geometric(dir_.array_live,
                    (slots + config_.array_rows - 1) / config_.array_rows);
  reserve_geometric(slots_by_id_, slots_by_id_.size() + n);
  return write;
}

void AsmcapAccelerator::PendingWrite::commit() noexcept {
  if (slots_.empty()) return;
  if (rows_.empty())
    bank_->commit_remove(*this);
  else
    bank_->commit_append(*this);
}

void AsmcapAccelerator::commit_append(const PendingWrite& write) noexcept {
  const std::span<const Sequence> segments = write.rows_;
  const std::span<const std::uint64_t> ids = write.ids_;
  const std::vector<std::size_t>& targets = write.slots_;
  const std::size_t n = targets.size();
  const std::size_t old_slots = dir_.slots();
  if (targets.front() < old_slots) {
    // A recycled slot's previous occupant is forgotten for good (its
    // state becomes Unknown — ids are never resurrected): one pass drops
    // the recycled slots, the tombstoned ones up to the last target, from
    // the id index.
    const std::size_t last = targets.back();
    std::erase_if(slots_by_id_, [&](std::size_t slot) {
      return slot <= last && !dir_.live[slot];
    });
  }
  // The row store takes each run of consecutive target slots in one
  // write (whole 64-row groups transpose at once).
  for (std::size_t i = 0; i < n;) {
    std::size_t end = i + 1;
    while (end < n && targets[end] == targets[end - 1] + 1) ++end;
    store_.write_rows(targets[i], segments.subspan(i, end - i));
    i = end;
  }
  const std::size_t slots = std::max(old_slots, targets.back() + 1);
  dir_.ids.resize(slots, 0);
  dir_.live.resize(slots, false);
  const std::size_t arrays =
      (slots + config_.array_rows - 1) / config_.array_rows;
  if (dir_.array_live.size() < arrays) dir_.array_live.resize(arrays, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = targets[i];
    dir_.ids[slot] = ids[i];
    dir_.live.set(slot);
    ++dir_.array_live[slot / config_.array_rows];
    if (ids[i] + 1 > next_auto_id_) next_auto_id_ = ids[i] + 1;
  }
  dir_.live_count += n;

  // The id index: ascending ids above every indexed one (the router's)
  // extend it at the back; any others sort and merge in once (the merge
  // falls back to an unbuffered one if it cannot get a buffer).
  const auto by_id = [&](std::size_t a, std::size_t b) {
    return dir_.ids[a] < dir_.ids[b];
  };
  const std::size_t indexed = slots_by_id_.size();
  slots_by_id_.insert(slots_by_id_.end(), targets.begin(), targets.end());
  const auto old_end = slots_by_id_.begin() +
                       static_cast<std::ptrdiff_t>(indexed);
  if (!std::is_sorted(indexed == 0 ? old_end : old_end - 1,
                      slots_by_id_.end(), by_id)) {
    std::sort(old_end, slots_by_id_.end(), by_id);
    std::inplace_merge(slots_by_id_.begin(), old_end, slots_by_id_.end(),
                       by_id);
  }
  book_write_cost(targets);
}

void AsmcapAccelerator::remove_segments(
    const std::vector<std::uint64_t>& ids) {
  prepare_remove(ids).commit();
}

AsmcapAccelerator::PendingWrite AsmcapAccelerator::prepare_remove(
    std::span<const std::uint64_t> ids) {
  if (ids.empty())
    throw DbError(DbErrorKind::EmptyMutation,
                  "AsmcapAccelerator: remove_segments with no ids");
  // Validate everything before touching any state.
  const std::size_t repeat = first_repeat(ids);
  PendingWrite write;
  write.bank_ = this;
  std::vector<std::size_t>& slots = write.slots_;
  slots.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    slots[i] = slot_of(ids[i]);
    if (slots[i] == kNoSlot)
      throw DbError(DbErrorKind::UnknownSegment,
                    "AsmcapAccelerator: unknown segment id");
    if (!dir_.live[slots[i]] || i == repeat)
      throw DbError(DbErrorKind::DoubleDelete,
                    "AsmcapAccelerator: segment already deleted");
  }
  std::sort(slots.begin(), slots.end());
  return write;
}

void AsmcapAccelerator::commit_remove(const PendingWrite& write) noexcept {
  for (const std::size_t slot : write.slots_) {
    dir_.live.clear(slot);
    --dir_.array_live[slot / config_.array_rows];
    --dir_.live_count;
  }
  // Tombstoning writes the row's all-mismatch mask: same decoder+WL+SRAM
  // cost as a row write.
  book_write_cost(write.slots_);
}

SegmentState AsmcapAccelerator::segment_state(std::uint64_t id) const {
  const std::size_t slot = slot_of(id);
  if (slot == kNoSlot) return SegmentState::Unknown;
  return dir_.live[slot] ? SegmentState::Live : SegmentState::Dead;
}

std::vector<std::pair<std::uint64_t, Sequence>>
AsmcapAccelerator::live_segments() const {
  std::vector<std::pair<std::uint64_t, Sequence>> out;
  out.reserve(dir_.live_count);
  const std::size_t words = store_.words_per_row();
  std::vector<std::uint64_t> group(SlicedRowStore::kGroupRows * words);
  // The group now in `group` (none yet).
  std::size_t gathered = std::numeric_limits<std::size_t>::max();
  for (std::size_t slot = 0; slot < dir_.slots(); ++slot) {
    if (!dir_.live[slot]) continue;
    if (slot / SlicedRowStore::kGroupRows != gathered) {
      gathered = slot / SlicedRowStore::kGroupRows;
      store_.gather_group(gathered, group.data());
    }
    out.emplace_back(
        dir_.ids[slot],
        Sequence::from_packed_words(
            group.data() + (slot % SlicedRowStore::kGroupRows) * words,
            config_.array_cols));
  }
  return out;
}

std::unique_ptr<AsmcapAccelerator> AsmcapAccelerator::clone() const {
  return std::unique_ptr<AsmcapAccelerator>(new AsmcapAccelerator(*this));
}

std::vector<PassResult> AsmcapAccelerator::run_passes(
    std::span<const PassSpec> passes, std::size_t threshold,
    const Rng& query_rng) const {
  if (dir_.slots() == 0)
    throw DbError(DbErrorKind::NotLoaded,
                  "AsmcapAccelerator: no reference loaded");
  return pass_.run_passes(store_, dir_,
                          senses_noise() ? silicon_.get() : nullptr, passes,
                          threshold, query_rng);
}

QueryResult AsmcapAccelerator::execute(const ExecutionPlan& plan,
                                       const Rng& query_rng) const {
  QueryResult result;
  result.plan = plan.summary;

  // Every pass of the plan in one sweep: the ED* views (the original read,
  // plus the rotation schedule when TASR triggered) with salts 0, 1, ...,
  // then the HD view when HDAC runs.
  const std::size_t ed_star_count = plan.ed_star_views.size();
  std::vector<PassSpec> specs;
  specs.reserve(ed_star_count + 1);
  for (std::size_t p = 0; p < ed_star_count; ++p)
    specs.push_back({&plan.ed_star_views[p], p});
  if (plan.hd_pass) specs.push_back({&plan.hd_view, kHdPassSalt});
  std::vector<PassResult> passes =
      run_passes(specs, plan.threshold, query_rng);

  // Algorithm 2's OR-accumulation over the ED* passes; the read's energy
  // adds the pass energies in pass order.
  double energy = 0.0;
  for (const PassResult& pass : passes) energy += pass.energy_joules;
  BitVec ed_star;
  for (std::size_t p = 0; p < ed_star_count; ++p) {
    if (p == 0)
      ed_star = std::move(passes[p].decisions);
    else
      ed_star |= passes[p].decisions;
  }

  // HDAC pass: HD search and probabilistic selection (Algorithm 1). Only
  // rows where HD and ED* disagree draw a selection coin, forked from the
  // row's global segment id, so the outcome does not depend on which slot
  // or bank stores it (a dead slot decides false on both passes).
  if (plan.hd_pass) {
    const BitVec& hd = passes.back().decisions;
    const Hdac& hdac = planner().hdac();
    const Rng select_rng = query_rng.fork(kHdacSelectSalt);
    BitVec disagree = hd;
    disagree ^= ed_star;
    for (std::size_t g = disagree.find_first(); g < disagree.size();
         g = disagree.find_next(g + 1)) {
      Rng coin = select_rng.fork(dir_.ids[g]);
      ed_star.set(g, hdac.combine(hd[g], ed_star[g], plan.hdac_p, coin));
    }
  }

  result.decisions.assign(ed_star.size(), false);
  for (std::size_t g = ed_star.find_first(); g < ed_star.size();
       g = ed_star.find_next(g + 1)) {
    result.decisions[g] = true;
    result.matched_segments.push_back(g);
  }

  result.latency_seconds =
      timing_.asmcap_query_latency(plan.summary.total_searches());
  result.energy_joules = energy;
  return result;
}

bool AsmcapAccelerator::may_match(const ExecutionPlan& plan,
                                  std::size_t windows) const {
  if (windows == 0) return true;
  const std::size_t cols = config_.array_cols;
  const std::size_t width = cols / windows;
  if (width == 0) return true;  // cannot form disjoint windows: no prune
  // A bank must be searched if ANY pass has ANY window in which some live
  // row accumulates zero ED* mismatches.
  const auto window_alive = active_kernel_ops().window_alive;
  for (const PackedReadView& view : plan.ed_star_views) {
    if (view.n != cols) return true;  // conservative: never prune
    for (std::size_t t = 0; t < windows; ++t)
      if (window_alive(store_, view, dir_.live.data(), t * width,
                       t * width + width))
        return true;
  }
  return false;
}

std::size_t pruning_window_count(const AsmcapConfig& config,
                                 BackendKind backend,
                                 std::size_t threshold) {
  const std::size_t m = config.array_cols;
  std::size_t windows = threshold + 1;  // ideal decision: count <= T
  if (backend == BackendKind::Circuit && !config.ideal_sensing) {
    // Noisy sensing can flip a count slightly above T back to 'match'.
    // K = the band's miss side: rows below K stay prunable by the
    // K-window pigeonhole, rows at or above K can never flip. No certain
    // miss at all means no sound prune.
    const std::size_t k =
        charge_decision_band(config.process.charge, m, threshold).miss_from;
    if (k > m) return 0;
    windows = std::max(windows, k);
  }
  if (m / windows == 0) return 0;  // window width would be zero
  return windows;
}

}  // namespace asmcap
