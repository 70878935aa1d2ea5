#include "genome/reference.h"

#include <stdexcept>

namespace asmcap {

namespace {

/// Draws one base from the stationary distribution implied by gc_content.
Base draw_base(double gc_content, Rng& rng) {
  const double u = rng.uniform();
  const double at_half = (1.0 - gc_content) / 2.0;
  const double gc_half = gc_content / 2.0;
  if (u < at_half) return Base::A;
  if (u < 2 * at_half) return Base::T;
  if (u < 2 * at_half + gc_half) return Base::G;
  return Base::C;
}

}  // namespace

Sequence generate_reference(std::size_t length, const ReferenceModel& model,
                            Rng& rng) {
  if (model.gc_content < 0.0 || model.gc_content > 1.0)
    throw std::invalid_argument("generate_reference: gc_content out of range");
  if (model.repeat_bias < 0.0 || model.repeat_bias >= 1.0)
    throw std::invalid_argument("generate_reference: repeat_bias out of range");

  Sequence genome;
  genome.reserve(length);
  Base previous = draw_base(model.gc_content, rng);
  genome.push_back(previous);
  while (genome.size() < length) {
    // First-order Markov chain: with probability repeat_bias repeat the
    // previous base, otherwise draw from the stationary distribution.
    Base next = rng.bernoulli(model.repeat_bias)
                    ? previous
                    : draw_base(model.gc_content, rng);
    genome.push_back(next);
    previous = next;
  }

  // Paste imperfect duplicated segments over the backbone to emulate
  // repetitive DNA: the duplicated copies are what make distinct reference
  // rows resemble each other, the regime where ED*'s hiding behaviour and
  // the correction strategies matter.
  if (model.duplication_fraction > 0.0 && model.duplication_length > 0 &&
      length > 2 * model.duplication_length) {
    const auto copies = static_cast<std::size_t>(
        model.duplication_fraction * static_cast<double>(length) /
        static_cast<double>(model.duplication_length));
    for (std::size_t c = 0; c < copies; ++c) {
      const std::size_t src = static_cast<std::size_t>(
          rng.below(length - model.duplication_length));
      const std::size_t dst = static_cast<std::size_t>(
          rng.below(length - model.duplication_length));
      for (std::size_t i = 0; i < model.duplication_length; ++i) {
        Base b = genome[src + i];
        if (rng.bernoulli(model.duplication_divergence))
          b = base_from_code(static_cast<std::uint8_t>(rng.below(4)));
        genome.set(dst + i, b);
      }
    }
  }
  return genome;
}

std::vector<Sequence> segment_reference(const Sequence& reference,
                                        std::size_t segment_length,
                                        std::size_t stride) {
  if (segment_length == 0)
    throw std::invalid_argument("segment_reference: zero segment length");
  if (stride == 0) stride = segment_length;
  std::vector<Sequence> segments;
  for (std::size_t pos = 0; pos + segment_length <= reference.size();
       pos += stride)
    segments.push_back(reference.subseq(pos, segment_length));
  return segments;
}

ReferenceStats measure_reference(const Sequence& reference) {
  ReferenceStats stats;
  stats.length = reference.size();
  if (reference.empty()) return stats;
  std::size_t gc = 0;
  std::size_t adjacent_equal = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const Base b = reference[i];
    if (b == Base::G || b == Base::C) ++gc;
    if (i > 0 && reference[i - 1] == b) ++adjacent_equal;
  }
  stats.gc_content = static_cast<double>(gc) / static_cast<double>(stats.length);
  stats.adjacent_equal =
      stats.length < 2 ? 0.0
                       : static_cast<double>(adjacent_equal) /
                             static_cast<double>(stats.length - 1);
  return stats;
}

}  // namespace asmcap
