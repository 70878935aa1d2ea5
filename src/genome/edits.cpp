#include "genome/edits.h"

#include <algorithm>
#include <stdexcept>

namespace asmcap {

std::size_t EditedSequence::count(EditKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(edits.begin(), edits.end(),
                    [kind](const Edit& e) { return e.kind == kind; }));
}

Base substitute_base(Base current, double transition_fraction, Rng& rng) {
  if (rng.bernoulli(transition_fraction)) return transition_of(current);
  // Transversion: the two bases of the other ring class, equally likely.
  // complement(b) and transition_of(complement(b)) are exactly those two.
  const Base tv1 = complement(current);
  const Base tv2 = transition_of(tv1);
  return rng.bernoulli(0.5) ? tv1 : tv2;
}

EditedSequence inject_edits(const Sequence& original, const ErrorRates& rates,
                            Rng& rng) {
  if (rates.total() > 1.0)
    throw std::invalid_argument("inject_edits: rates sum above 1");
  EditedSequence out;
  out.seq.reserve(original.size() + 8);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double u = rng.uniform();
    if (u < rates.insertion) {
      // Insertion *before* base i, then the original base survives.
      const Base inserted = base_from_code(static_cast<std::uint8_t>(rng.below(4)));
      out.seq.push_back(inserted);
      out.seq.push_back(original[i]);
      out.edits.push_back({EditKind::Insertion, i, inserted});
    } else if (u < rates.insertion + rates.deletion) {
      out.edits.push_back({EditKind::Deletion, i, Base::A});
      // Base i dropped.
    } else if (u < rates.insertion + rates.deletion + rates.substitution) {
      const Base replacement =
          substitute_base(original[i], rates.transition_fraction, rng);
      out.seq.push_back(replacement);
      out.edits.push_back({EditKind::Substitution, i, replacement});
    } else {
      out.seq.push_back(original[i]);
    }
  }
  return out;
}

EditedSequence inject_indel_burst(const Sequence& original, EditKind kind,
                                  std::size_t run_length, Rng& rng) {
  if (kind == EditKind::Substitution)
    throw std::invalid_argument("inject_indel_burst: kind must be an indel");
  if (original.empty() || run_length == 0) return {original, {}};
  EditedSequence out;
  if (kind == EditKind::Deletion) {
    if (run_length >= original.size())
      throw std::invalid_argument("inject_indel_burst: run too long");
    const std::size_t pos = static_cast<std::size_t>(
        rng.below(original.size() - run_length + 1));
    for (std::size_t i = 0; i < original.size(); ++i) {
      if (i >= pos && i < pos + run_length) {
        out.edits.push_back({EditKind::Deletion, i, Base::A});
      } else {
        out.seq.push_back(original[i]);
      }
    }
  } else {
    const std::size_t pos =
        static_cast<std::size_t>(rng.below(original.size() + 1));
    for (std::size_t i = 0; i <= original.size(); ++i) {
      if (i == pos) {
        for (std::size_t r = 0; r < run_length; ++r) {
          const Base inserted =
              base_from_code(static_cast<std::uint8_t>(rng.below(4)));
          out.seq.push_back(inserted);
          out.edits.push_back({EditKind::Insertion, i, inserted});
        }
      }
      if (i < original.size()) out.seq.push_back(original[i]);
    }
  }
  return out;
}

EditedSequence inject_substitutions(const Sequence& original, std::size_t count,
                                    Rng& rng) {
  if (count > original.size())
    throw std::invalid_argument("inject_substitutions: count exceeds length");
  // Choose `count` distinct positions by partial Fisher-Yates over indices.
  std::vector<std::size_t> positions(original.size());
  for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.below(positions.size() - i));
    std::swap(positions[i], positions[j]);
  }
  positions.resize(count);
  std::sort(positions.begin(), positions.end());

  EditedSequence out;
  out.seq = original;
  for (std::size_t pos : positions) {
    const Base replacement = substitute_base(original[pos], 1.0 / 3.0, rng);
    out.seq.set(pos, replacement);
    out.edits.push_back({EditKind::Substitution, pos, replacement});
  }
  return out;
}

}  // namespace asmcap
