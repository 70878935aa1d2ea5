#pragma once
// Edit-injection model: applies substitutions, insertions, and deletions at
// configurable per-base rates, recording the exact edit trace. This is the
// sequencing-error/genetic-variation model behind the paper's Condition A
// (substitution-dominant) and Condition B (indel-dominant) datasets.

#include <cstddef>
#include <vector>

#include "genome/sequence.h"
#include "util/rng.h"

namespace asmcap {

/// Per-base error rates. The paper's conditions:
///   Condition A: es = 1%,   ei = ed = 0.05%
///   Condition B: es = 0.1%, ei = ed = 0.5%
struct ErrorRates {
  double substitution = 0.0;  ///< e_s
  double insertion = 0.0;     ///< e_i
  double deletion = 0.0;      ///< e_d
  /// Probability that a substitution is a *transition* (A<->G, C<->T).
  /// 1/3 is the uniform-replacement value; real genomes/sequencers sit
  /// near 2/3 (the classic ts/tv ratio of ~2).
  double transition_fraction = 1.0 / 3.0;

  double indel() const { return insertion + deletion; }
  double total() const { return substitution + insertion + deletion; }

  static ErrorRates condition_a() { return {0.01, 0.0005, 0.0005}; }
  static ErrorRates condition_b() { return {0.001, 0.005, 0.005}; }
};

enum class EditKind : std::uint8_t { Substitution, Insertion, Deletion };

/// One applied edit, positioned in the coordinate system of the *original*
/// sequence (before any edits).
struct Edit {
  EditKind kind;
  std::size_t position;  ///< Original-sequence offset the edit applies at.
  Base base;             ///< New base (substitution/insertion); unused for deletion.
};

/// The outcome of injecting edits into a sequence.
struct EditedSequence {
  Sequence seq;             ///< The edited sequence (length may differ).
  std::vector<Edit> edits;  ///< Edits in left-to-right order.

  std::size_t count(EditKind kind) const;
  /// The exact number of edits applied == a (possibly loose) upper bound on
  /// the edit distance to the original.
  std::size_t edit_count() const { return edits.size(); }
};

/// Injects edits i.i.d. per original base: each base independently suffers a
/// substitution with probability es (to a uniformly random *different*
/// base), is preceded by an inserted uniform base with probability ei, and
/// is deleted with probability ed. Events are mutually exclusive per base in
/// this model (rates are small, so the difference from independent events is
/// negligible, and exclusivity keeps the edit trace an exact ED upper
/// bound).
EditedSequence inject_edits(const Sequence& original, const ErrorRates& rates,
                            Rng& rng);

/// Injects a *burst* of `run_length` consecutive insertions (or deletions)
/// at a random position — the consecutive-indel scenario that motivates
/// TASR (paper Fig. 6).
EditedSequence inject_indel_burst(const Sequence& original, EditKind kind,
                                  std::size_t run_length, Rng& rng);

/// Injects exactly `count` substitutions at distinct random positions — the
/// substitution-dominant scenario that motivates HDAC (paper Fig. 5).
EditedSequence inject_substitutions(const Sequence& original, std::size_t count,
                                    Rng& rng);

/// The transition partner of a base (A<->G, C<->T).
constexpr Base transition_of(Base b) {
  return base_from_code(static_cast<std::uint8_t>(code_of(b) ^ 0x2u));
}

/// True iff a->b is a transition (purine<->purine or pyrimidine<->pyrimidine).
constexpr bool is_transition(Base a, Base b) {
  return a != b && transition_of(a) == b;
}

/// Draws a replacement base != current with the given transition bias.
Base substitute_base(Base current, double transition_fraction, Rng& rng);

}  // namespace asmcap
