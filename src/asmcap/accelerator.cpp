#include "asmcap/accelerator.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_set>

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
// Salt of the construction-time array silicon streams (silicon_root_ fork
// per array index). Kept far above any global segment id so the per-row
// streams (forked per id) and the per-array streams never collide. The
// construction-time draw is decision-irrelevant — every written row is
// re-manufactured from its per-id stream, and unwritten rows never decide
// — it only has to be deterministic per array so the write path and
// set_backend manufacture identical silicon in any order.
constexpr std::uint64_t kUnitSalt = 0x517E'C0DE'0000'0000ULL;
}  // namespace

AsmcapAccelerator::AsmcapAccelerator(AsmcapConfig config)
    : config_(config),
      planner_(config),
      timing_(config.process),
      silicon_root_(Rng(config.seed).fork(0x51C0)),
      store_(config.array_cols),
      next_auto_id_(static_cast<std::uint64_t>(config.segment_base)) {
  validate(config_.process);
  backend_ = std::make_unique<CircuitBackend>(config_, readouts_, dir_,
                                              store_, senses_noise());
}

void AsmcapAccelerator::build_row_silicon(std::size_t slot, std::uint64_t id) {
  const std::size_t a = slot / config_.array_rows;
  while (readouts_.size() <= a) {
    Rng unit_rng = silicon_root_.fork(
        kUnitSalt + static_cast<std::uint64_t>(readouts_.size()));
    readouts_.emplace_back(config_.array_rows, config_.array_cols,
                           config_.process.charge, unit_rng);
  }
  // The row's analog silicon is a pure function of its global id: the
  // segment decides identically in whichever slot, array, or bank it
  // lands, and whenever its silicon is built (docs/determinism.md
  // rule 8).
  Rng silicon = silicon_root_.fork(id);
  readouts_[a].remanufacture_row(slot % config_.array_rows, silicon);
}

void AsmcapAccelerator::write_slot(std::size_t slot, std::uint64_t id) {
  const std::size_t a = slot / config_.array_rows;
  if (slot < dir_.slots() && !dir_.live[slot]) {
    // Recycling a tombstoned slot: the previous occupant's id is forgotten
    // for good (its state becomes Unknown — ids are never resurrected).
    id_to_slot_.erase(dir_.ids[slot]);
  }
  if (slot >= dir_.slots()) {
    dir_.ids.resize(slot + 1, 0);
    dir_.live.resize(slot + 1, false);
  }
  if (a >= dir_.array_live.size()) dir_.array_live.resize(a + 1, 0);
  if (senses_noise()) build_row_silicon(slot, id);
  dir_.ids[slot] = id;
  dir_.live.set(slot);
  ++dir_.array_live[a];
  ++dir_.live_count;
  id_to_slot_[id] = slot;
  if (id != static_cast<std::uint64_t>(config_.segment_base) + slot)
    identity_layout_ = false;
  if (id + 1 > next_auto_id_) next_auto_id_ = id + 1;
}

void AsmcapAccelerator::book_write_cost(std::size_t count,
                                        std::size_t burst_rows) {
  // Every row write burns decoder+WL+SRAM energy; arrays write their rows
  // in parallel, so the burst latency is set by the fullest touched array.
  const WriteCostParams write_cost;
  load_energy_ += static_cast<double>(count) *
                  row_write_energy(config_.array_cols, write_cost);
  load_latency_ +=
      static_cast<double>(burst_rows) * write_cost.latency_per_row;
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
    const std::vector<Sequence>& segments,
    const std::vector<std::uint64_t>& ids) {
  if (segments.size() != ids.size())
    throw std::invalid_argument(
        "AsmcapAccelerator: append ids/segments size mismatch");
  if (segments.empty()) return;
  // Validate everything before touching any state (strong exception
  // safety, see db_error.h).
  for (const Sequence& segment : segments)
    if (segment.size() != config_.array_cols)
      throw std::invalid_argument(
          "AsmcapAccelerator: segment width mismatch");
  std::unordered_set<std::uint64_t> fresh;
  fresh.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    if (id < static_cast<std::uint64_t>(config_.segment_base))
      throw std::invalid_argument(
          "AsmcapAccelerator: segment id below segment_base");
    if (id_to_slot_.count(id) != 0 || !fresh.insert(id).second)
      throw DbError(DbErrorKind::DuplicateId,
                    "AsmcapAccelerator: segment id already known");
  }
  if (dir_.live_count + segments.size() > config_.capacity_segments())
    throw DbError(DbErrorKind::CapacityExceeded,
                  "AsmcapAccelerator: reference exceeds capacity");

  // Target slots: recycled tombstones first (lowest slot first), then
  // fresh rows. The capacity check above guarantees enough of both.
  std::vector<std::size_t> targets;
  targets.reserve(segments.size());
  for (std::size_t slot = 0;
       slot < dir_.slots() && targets.size() < segments.size(); ++slot)
    if (!dir_.live[slot]) targets.push_back(slot);
  for (std::size_t next = dir_.slots(); targets.size() < segments.size();
       ++next)
    targets.push_back(next);

  // The row store takes each run of consecutive target slots in one
  // write (whole 64-row groups transpose at once).
  const std::span<const Sequence> rows(segments);
  for (std::size_t i = 0; i < targets.size();) {
    std::size_t end = i + 1;
    while (end < targets.size() && targets[end] == targets[end - 1] + 1)
      ++end;
    store_.write_rows(targets[i], rows.subspan(i, end - i));
    i = end;
  }
  std::vector<std::size_t> burst_per_array;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    write_slot(targets[i], ids[i]);
    const std::size_t a = targets[i] / config_.array_rows;
    if (a >= burst_per_array.size()) burst_per_array.resize(a + 1, 0);
    ++burst_per_array[a];
  }
  book_write_cost(segments.size(),
                  *std::max_element(burst_per_array.begin(),
                                    burst_per_array.end()));
}

void AsmcapAccelerator::remove_segments(
    const std::vector<std::uint64_t>& ids) {
  if (ids.empty())
    throw DbError(DbErrorKind::EmptyMutation,
                  "AsmcapAccelerator: remove_segments with no ids");
  // Validate everything before touching any state.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    const auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end())
      throw DbError(DbErrorKind::UnknownSegment,
                    "AsmcapAccelerator: unknown segment id");
    if (!dir_.live[it->second] || !seen.insert(id).second)
      throw DbError(DbErrorKind::DoubleDelete,
                    "AsmcapAccelerator: segment already deleted");
  }
  std::vector<std::size_t> burst_per_array;
  for (const std::uint64_t id : ids) {
    const std::size_t slot = id_to_slot_.at(id);
    const std::size_t a = slot / config_.array_rows;
    dir_.live.clear(slot);
    --dir_.array_live[a];
    --dir_.live_count;
    if (a >= burst_per_array.size()) burst_per_array.resize(a + 1, 0);
    ++burst_per_array[a];
  }
  // Tombstoning writes the row's all-mismatch mask: same decoder+WL+SRAM
  // cost as a row write.
  book_write_cost(ids.size(),
                  *std::max_element(burst_per_array.begin(),
                                    burst_per_array.end()));
}

SegmentState AsmcapAccelerator::segment_state(std::uint64_t id) const {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return SegmentState::Unknown;
  return dir_.live[it->second] ? SegmentState::Live : SegmentState::Dead;
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

void AsmcapAccelerator::set_backend(BackendKind kind) {
  const bool was_noisy = senses_noise();
  backend_kind_ = kind;
  if (senses_noise() == was_noisy) return;
  backend_ = std::make_unique<CircuitBackend>(config_, readouts_, dir_,
                                              store_, senses_noise());
  if (!senses_noise()) {
    readouts_.clear();
    readouts_.shrink_to_fit();
    return;
  }
  // Build what a Circuit-from-birth bank with this history decides with:
  // each live row's silicon from its per-id stream. Dead and unwritten
  // rows are masked out of every decision, with zero matchline energy,
  // and all-dead arrays are never driven, so neither their silicon nor
  // whether they exist can show.
  for (std::size_t slot = 0; slot < dir_.slots(); ++slot)
    if (dir_.live[slot]) build_row_silicon(slot, dir_.ids[slot]);
}

std::unique_ptr<AsmcapAccelerator> AsmcapAccelerator::clone() const {
  auto copy = std::make_unique<AsmcapAccelerator>(config_);
  // Assign in place: the copy's backend already points at its own
  // members, so a memberwise copy needs no rebinding. Switching the empty
  // copy builds no silicon.
  copy->set_backend(backend_kind_);
  copy->readouts_ = readouts_;
  copy->dir_ = dir_;
  copy->store_ = store_;
  copy->id_to_slot_ = id_to_slot_;
  copy->next_auto_id_ = next_auto_id_;
  copy->identity_layout_ = identity_layout_;
  copy->load_energy_ = load_energy_;
  copy->load_latency_ = load_latency_;
  return copy;
}

const ExecutionBackend& AsmcapAccelerator::backend() const {
  check_loaded();
  return *backend_;
}

void AsmcapAccelerator::check_loaded() const {
  if (dir_.slots() == 0)
    throw DbError(DbErrorKind::NotLoaded,
                  "AsmcapAccelerator: no reference loaded");
}

QueryResult AsmcapAccelerator::execute(const ExecutionPlan& plan,
                                       const Rng& query_rng) const {
  const ExecutionBackend& backend = this->backend();

  QueryResult result;
  result.plan = plan.summary;

  // ED* pass(es): the original read, plus the rotation schedule when TASR
  // triggered (Algorithm 2's OR-accumulation), each on the plan's view.
  BitVec ed_star;
  double energy = 0.0;
  for (std::size_t p = 0; p < plan.ed_star_views.size(); ++p) {
    PassResult pass =
        backend.run_pass(plan.ed_star_views[p], plan.threshold, query_rng, p);
    energy += pass.energy_joules;
    if (p == 0)
      ed_star = std::move(pass.decisions);
    else
      ed_star |= pass.decisions;
  }

  // HDAC pass: HD search and probabilistic selection (Algorithm 1). Only
  // rows where HD and ED* disagree draw a selection coin, forked from the
  // row's global segment id, so the outcome does not depend on which slot
  // or bank stores it (a dead slot decides false on both passes).
  if (plan.hd_pass) {
    const PassResult hd =
        backend.run_pass(plan.hd_view, plan.threshold, query_rng, kHdPassSalt);
    energy += hd.energy_joules;
    const Hdac& hdac = planner().hdac();
    const Rng select_rng = query_rng.fork(kHdacSelectSalt);
    BitVec disagree = hd.decisions;
    disagree ^= ed_star;
    for (std::size_t g = disagree.find_first(); g < disagree.size();
         g = disagree.find_next(g + 1)) {
      Rng coin = select_rng.fork(dir_.ids[g]);
      ed_star.set(g, hdac.combine(hd.decisions[g], ed_star[g], plan.hdac_p,
                                  coin));
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
