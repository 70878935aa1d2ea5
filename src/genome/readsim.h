#pragma once
// Read simulator: extracts windows from a reference and passes them through
// the edit-injection model, producing reads with known ground-truth origin.
// Mirrors the paper's setup: 256-base reads extracted from random positions
// in the (human) reference, then edits randomly injected.

#include <cstddef>
#include <vector>

#include "genome/edits.h"
#include "genome/sequence.h"
#include "util/rng.h"

namespace asmcap {

/// A simulated read with its provenance.
struct SimulatedRead {
  Sequence read;                ///< Exactly `read_length` bases.
  std::size_t origin = 0;       ///< Reference offset the window was taken from.
  std::vector<Edit> edits;      ///< Edits applied to the window.
  std::size_t substitutions = 0;
  std::size_t insertions = 0;
  std::size_t deletions = 0;
};

struct ReadSimConfig {
  std::size_t read_length = 256;
  ErrorRates rates;
  /// When edits change the window length, the read is trimmed (if longer) or
  /// extended with subsequent reference bases (if shorter) back to
  /// read_length, which is how fixed-length sequencers behave.
  bool repad_to_length = true;
};

class ReadSimulator {
 public:
  ReadSimulator(const Sequence& reference, ReadSimConfig config);

  /// One read from a uniformly random window.
  SimulatedRead simulate(Rng& rng) const;

  /// One read from the window starting at `origin`.
  SimulatedRead simulate_at(std::size_t origin, Rng& rng) const;

  const Sequence& reference() const { return reference_; }
  const ReadSimConfig& config() const { return config_; }

 private:
  const Sequence& reference_;
  ReadSimConfig config_;
};

}  // namespace asmcap
