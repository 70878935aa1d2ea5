#include "asmcap/edam.h"

#include <algorithm>
#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/db_error.h"
#include "circuit/matchline.h"

namespace asmcap {

namespace {

/// FNV-1a over the packed words + length: the content key of a read. Two
/// equal sequences always key the same query stream, which is what makes
/// EDAM decisions query-order-invariant (docs/determinism.md).
std::uint64_t content_key(const Sequence& read) {
  std::uint64_t hash = 0xcbf2'9ce4'8422'2325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffULL;
      hash *= 0x0000'0100'0000'01b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(read.size()));
  for (const std::uint64_t word : read.packed_words()) mix(word);
  return hash;
}

}  // namespace

EdamAccelerator::EdamAccelerator(EdamConfig config)
    : config_(config), row_energy_(config.array_cols + 1), rng_(config.seed) {
  if (config_.array_rows == 0 || config_.array_cols == 0 ||
      config_.array_count == 0)
    throw std::invalid_argument("EdamAccelerator: empty geometry");
  for (std::size_t k = 0; k <= config_.array_cols; ++k)
    row_energy_[k] =
        current_row_search_energy(k, config_.array_cols, config_.current);
}

void EdamAccelerator::load_reference(const std::vector<Sequence>& segments) {
  // Same typed error path as the live ASMCap database (asmcap/db_error.h),
  // so callers comparing the two accelerators branch on one error model.
  if (segments_loaded_ != 0)
    throw DbError(DbErrorKind::AlreadyLoaded,
                  "EdamAccelerator: reference already loaded");
  if (segments.size() > config_.capacity_segments())
    throw DbError(DbErrorKind::CapacityExceeded,
                  "EdamAccelerator: capacity exceeded");
  for (const Sequence& segment : segments)
    if (segment.size() != config_.array_cols)
      throw std::invalid_argument("EdamAccelerator: segment width mismatch");

  rows_ = SlicedRowStore(segments, config_.array_cols);
  // Ideal sensing decides from counts alone, so it never manufactures
  // silicon it would not read.
  if (!config_.ideal_sensing) {
    const std::size_t arrays_in_use =
        (segments.size() + config_.array_rows - 1) / config_.array_rows;
    Rng manufacture = rng_.fork(0xEDA1);
    readouts_.reserve(arrays_in_use);
    for (std::size_t a = 0; a < arrays_in_use; ++a)
      readouts_.emplace_back(config_.array_rows, config_.array_cols,
                             config_.current, manufacture);
  }
  segments_loaded_ = segments.size();
}

void EdamAccelerator::check_read(const Sequence& read) const {
  if (segments_loaded_ == 0)
    throw std::logic_error("EdamAccelerator: no reference loaded");
  if (read.size() != config_.array_cols)
    throw std::invalid_argument("EdamAccelerator: read width mismatch");
}

Rng EdamAccelerator::query_stream(const Sequence& read) const {
  return rng_.fork(content_key(read));
}

EdamQueryResult EdamAccelerator::execute(const Sequence& read,
                                         std::size_t threshold,
                                         const Rng& query_rng) const {
  EdamQueryResult result;
  // Pass 0: the original read. Each pass's read view is built once and
  // counted against the whole store.
  PassResult pass = run_pass(PackedReadView(read), threshold, query_rng, 0);
  BitVec decisions = std::move(pass.decisions);
  result.energy_joules = pass.energy_joules;
  result.searches = 1;

  if (config_.sr_enabled) {
    // Unconditional SR: OR over all rotated searches, whatever T is. This
    // is exactly what TASR's T_l guard improves upon. Every rotation pass
    // evaluates (and pays for) the full bank; pass p forks stream p.
    std::uint64_t pass_salt = 1;
    for (const Sequence& rotated :
         rotation_schedule(read, config_.sr_rotations, config_.sr_direction)) {
      if (rotated == read) continue;
      const PassResult extra = run_pass(PackedReadView(rotated), threshold,
                                        query_rng, pass_salt++);
      decisions |= extra.decisions;
      result.energy_joules += extra.energy_joules;
      ++result.searches;
    }
  }
  result.decisions.assign(decisions.size(), false);
  for (std::size_t g = decisions.find_first(); g < decisions.size();
       g = decisions.find_next(g + 1))
    result.decisions[g] = true;
  result.latency_seconds =
      static_cast<double>(result.searches) * config_.current.search_time();
  return result;
}

PassResult EdamAccelerator::run_pass(const PackedReadView& view,
                                     std::size_t threshold,
                                     const Rng& query_rng,
                                     std::uint64_t pass_salt) const {
  // The active tier counts the store block by block (check_read checked
  // the read's width against the rows').
  const bool sense_noise = !config_.ideal_sensing;
  const std::size_t rows = rows_.rows();
  const auto count_block = active_kernel_ops().count_block;
  const Rng pass_rng = query_rng.fork(pass_salt);
  std::vector<std::uint64_t> group_words(
      sense_noise ? SlicedRowStore::kGroupRows * view.words : 0);
  std::vector<std::uint64_t> lane_words(sense_noise ? view.words : 0);
  BlockCounts block;

  PassResult result;
  result.decisions = BitVec(rows);
  for (std::size_t w = 0; w < result.decisions.words(); ++w) {
    const std::size_t first = w * SlicedRowStore::kGroupRows;
    const std::size_t last = std::min(rows, first + SlicedRowStore::kGroupRows);
    const std::size_t in_block = first % SlicedRowStore::kBlockRows;
    if (in_block == 0)
      count_block(rows_, first / SlicedRowStore::kBlockRows, view,
                  threshold + 1, block);
    const std::uint16_t* counts = block.counts + in_block;
    for (std::size_t bit = 0; bit < last - first; ++bit)
      result.energy_joules += row_energy_[counts[bit]];
    if (!sense_noise) {
      // count <= T, padding rows past the last one masked out.
      const std::uint64_t rows_in_word =
          last - first == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << (last - first)) - 1;
      result.decisions.word(w) =
          block.below[in_block / SlicedRowStore::kGroupRows] & rows_in_word;
      continue;
    }
    // Sensing noise keyed by global segment id: placement-invariant.
    rows_.gather_group(w, group_words.data());
    std::uint64_t word = 0;
    for (std::size_t bit = 0; bit < last - first; ++bit) {
      const std::size_t g = first + bit;
      mismatch_words(group_words.data() + bit * view.words, view,
                     lane_words.data());
      const CurrentArrayReadout& readout = readouts_[g / config_.array_rows];
      const std::size_t r = g % config_.array_rows;
      Rng decide_rng = pass_rng.fork(static_cast<std::uint64_t>(g));
      word |= std::uint64_t{readout.decide_from_drop(
                  r, readout.drop_row(r, lane_words), threshold, decide_rng)}
              << bit;
    }
    result.decisions.word(w) = word;
  }
  return result;
}

EdamQueryResult EdamAccelerator::search(const Sequence& read,
                                        std::size_t threshold) const {
  check_read(read);
  return execute(read, threshold, query_stream(read));
}

std::vector<EdamQueryResult> EdamAccelerator::search_batch(
    const std::vector<Sequence>& reads, std::size_t threshold,
    std::size_t workers) {
  for (const Sequence& read : reads) check_read(read);
  if (reads.empty()) {
    if (segments_loaded_ == 0)
      throw std::logic_error("EdamAccelerator: no reference loaded");
    return {};
  }
  std::vector<EdamQueryResult> results(reads.size());
  worker_pool(workers).parallel_for(reads.size(), [&](std::size_t i) {
    results[i] = execute(reads[i], threshold, query_stream(reads[i]));
  });
  return results;
}

}  // namespace asmcap
