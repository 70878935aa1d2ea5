#pragma once
// Typed error path of the live-database mutation API, shared by every
// layer that owns reference state: AsmcapAccelerator and
// ShardedAccelerator (load_reference / append_segments / remove_segments /
// compact) and EdamAccelerator (load_reference). One exception type with a
// machine-readable kind replaces the bare std::logic_error /
// std::length_error mix the one-shot loaders used to throw, so callers can
// branch on WHAT went wrong (capacity vs unknown id vs double delete)
// instead of parsing message strings. DbError derives from
// std::logic_error, so pre-existing catch sites keep working.
//
// Mutation calls are validated in full BEFORE any state changes: a DbError
// thrown from append/remove leaves the database (and the published epoch)
// exactly as it was — strong exception safety at the mutation seam. The
// guarantee also covers allocation failure (std::bad_alloc,
// std::length_error), including when the router writes unpinned banks in
// place: every bank write is prepared — validated, with everything it
// writes allocated — before any is committed, and a commit cannot throw
// (AsmcapAccelerator::PendingWrite). The validation loops walk the ids in
// call order and report the first bad position; first_repeat finds the
// repeated ids among them without a hash set.
//
// Thread-safety: DbError is a plain exception value; construction and
// inspection are thread-safe like any other exception object. Mutation
// entry points that throw it are control-plane only (one thread at a
// time), like every other mutating accelerator call.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace asmcap {

/// What a database mutation rejected.
enum class DbErrorKind {
  AlreadyLoaded,     ///< load_reference on a non-empty database.
  NotLoaded,         ///< search/inspect before any reference exists.
  CapacityExceeded,  ///< load/append beyond the geometry's row capacity.
  UnknownSegment,    ///< delete of an id the database never held
                     ///< (or whose row was already recycled).
  DoubleDelete,      ///< delete of an id that is already tombstoned.
  DuplicateId,       ///< append with an id that is already live / repeated.
  EmptyMutation,     ///< a mutation call with no segments / ids.
};

const char* to_string(DbErrorKind kind);

class DbError : public std::logic_error {
 public:
  DbError(DbErrorKind kind, const std::string& message)
      : std::logic_error(message), kind_(kind) {}

  DbErrorKind kind() const { return kind_; }

 private:
  DbErrorKind kind_;
};

inline const char* to_string(DbErrorKind kind) {
  switch (kind) {
    case DbErrorKind::AlreadyLoaded: return "already-loaded";
    case DbErrorKind::NotLoaded: return "not-loaded";
    case DbErrorKind::CapacityExceeded: return "capacity-exceeded";
    case DbErrorKind::UnknownSegment: return "unknown-segment";
    case DbErrorKind::DoubleDelete: return "double-delete";
    case DbErrorKind::DuplicateId: return "duplicate-id";
    case DbErrorKind::EmptyMutation: return "empty-mutation";
  }
  return "?";
}

/// Position of the first id in `ids` that repeats an earlier one, or
/// ids.size() when all are distinct: where a mutation call reports
/// DuplicateId / DoubleDelete for a repeat. Strictly ascending ids (what
/// the sharded router passes) cost one scan; any other order sorts
/// (id, position) pairs once.
inline std::size_t first_repeat(std::span<const std::uint64_t> ids) {
  if (std::adjacent_find(ids.begin(), ids.end(),
                         std::greater_equal<>()) == ids.end())
    return ids.size();
  std::vector<std::pair<std::uint64_t, std::size_t>> order(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) order[i] = {ids[i], i};
  std::sort(order.begin(), order.end());
  std::size_t first = ids.size();
  for (std::size_t i = 1; i < order.size(); ++i)
    if (order[i].first == order[i - 1].first)
      first = std::min(first, order[i].second);
  return first;
}

}  // namespace asmcap
