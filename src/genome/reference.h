#pragma once
// Synthetic reference-genome generator. Substitutes for the NCBI human
// genome used in the paper: it reproduces the local statistics the ASMCap
// accuracy results depend on (base composition, short-range correlation,
// repeated segments) while remaining fully deterministic from a seed.

#include <cstddef>
#include <vector>

#include "genome/sequence.h"
#include "util/rng.h"

namespace asmcap {

/// Parameters of the synthetic genome model.
struct ReferenceModel {
  /// Overall GC content (human ~0.41).
  double gc_content = 0.41;
  /// First-order Markov persistence: probability that the next base repeats
  /// the previous one beyond its stationary probability. Human DNA exhibits
  /// mild short-range correlation; 0 yields an i.i.d. sequence.
  double repeat_bias = 0.05;
  /// Fraction of the genome covered by duplicated segments (tandem and
  /// interspersed repeats, human ~0.5 for repetitive classes overall; we
  /// default lower because only exact-ish repeats matter for matching).
  double duplication_fraction = 0.1;
  /// Length of each duplicated segment.
  std::size_t duplication_length = 300;
  /// Per-base divergence applied to duplicated copies (imperfect repeats).
  double duplication_divergence = 0.02;
};

/// Generates a synthetic reference of the given length.
Sequence generate_reference(std::size_t length, const ReferenceModel& model,
                            Rng& rng);

/// Cuts a reference into consecutive fixed-length segments (the rows stored
/// in the CAM arrays). A final partial window is discarded, matching how the
/// accelerator tiles the reference. `stride` defaults to `segment_length`
/// (non-overlapping); smaller strides produce overlapping rows.
std::vector<Sequence> segment_reference(const Sequence& reference,
                                        std::size_t segment_length,
                                        std::size_t stride = 0);

/// Summary statistics used by tests to validate the generator.
struct ReferenceStats {
  double gc_content = 0.0;
  /// Probability that adjacent bases are equal.
  double adjacent_equal = 0.0;
  std::size_t length = 0;
};

ReferenceStats measure_reference(const Sequence& reference);

}  // namespace asmcap
