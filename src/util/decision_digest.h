#pragma once
// FNV-1a digest over decision streams: the fingerprint that the tests'
// decision pins compare.
//
// Thread-safety: DecisionDigest is a plain value with no shared state.

#include <cstdint>

namespace asmcap {

/// FNV-1a accumulator over decision streams. Every pin hashes decisions
/// through this one definition, so a digest is comparable across kernel
/// tiers, worker counts, and compilers.
class DecisionDigest {
 public:
  /// Hashes one match decision.
  void add(bool decision) { add_byte(decision ? 0x9E : 0x3B); }

  /// Hashes a 64-bit value (e.g. a per-read result digest), little-endian.
  void add_u64(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte)
      add_byte(static_cast<std::uint8_t>(v >> (8 * byte)));
  }

  std::uint64_t value() const { return hash_; }

 private:
  void add_byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001B3ULL;
  }

  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace asmcap
