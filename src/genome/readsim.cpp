#include "genome/readsim.h"

#include <stdexcept>

namespace asmcap {

ReadSimulator::ReadSimulator(const Sequence& reference, ReadSimConfig config)
    : reference_(reference), config_(config) {
  if (config_.read_length == 0)
    throw std::invalid_argument("ReadSimulator: zero read length");
  if (reference_.size() < 2 * config_.read_length)
    throw std::invalid_argument(
        "ReadSimulator: reference must be at least twice the read length");
}

SimulatedRead ReadSimulator::simulate(Rng& rng) const {
  // Keep a read-length margin at the end so repadding can always extend.
  const std::size_t max_origin = reference_.size() - 2 * config_.read_length;
  return simulate_at(static_cast<std::size_t>(rng.below(max_origin + 1)), rng);
}

SimulatedRead ReadSimulator::simulate_at(std::size_t origin, Rng& rng) const {
  if (origin + config_.read_length > reference_.size())
    throw std::out_of_range("ReadSimulator::simulate_at: origin too large");

  const Sequence window = reference_.subseq(origin, config_.read_length);
  EditedSequence edited = inject_edits(window, config_.rates, rng);

  SimulatedRead out;
  out.origin = origin;
  out.edits = std::move(edited.edits);
  for (const Edit& e : out.edits) {
    switch (e.kind) {
      case EditKind::Substitution: ++out.substitutions; break;
      case EditKind::Insertion: ++out.insertions; break;
      case EditKind::Deletion: ++out.deletions; break;
    }
  }
  out.read = std::move(edited.seq);

  if (config_.repad_to_length) {
    // Trim overhang from insertions.
    if (out.read.size() > config_.read_length)
      out.read = out.read.subseq(0, config_.read_length);
    // Extend with the bases that follow the window (deletions shortened it).
    std::size_t next = origin + config_.read_length;
    while (out.read.size() < config_.read_length) {
      if (next >= reference_.size())
        throw std::logic_error("ReadSimulator: ran off reference while repadding");
      out.read.push_back(reference_[next++]);
    }
  }
  return out;
}

}  // namespace asmcap
