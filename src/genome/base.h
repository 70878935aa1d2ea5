#pragma once
// DNA base alphabet: 2-bit encoding, ASCII conversion, complementing.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace asmcap {

/// The four DNA bases in their canonical 2-bit encoding.
enum class Base : std::uint8_t { A = 0, C = 1, G = 2, T = 3 };

inline constexpr int kBaseCount = 4;

/// 2-bit code of a base.
constexpr std::uint8_t code_of(Base b) { return static_cast<std::uint8_t>(b); }

/// Base from a 2-bit code (masked to 2 bits, never throws).
constexpr Base base_from_code(std::uint8_t code) {
  return static_cast<Base>(code & 0x3u);
}

/// ASCII character of a base ('A','C','G','T').
char to_char(Base b);

/// Flag bit of a kBaseDecode entry: the byte is not one of ACGTacgt.
inline constexpr std::uint8_t kAmbiguousBase = 0x4;

/// The one byte -> base decode table every text path reads: entry c holds
/// the 2-bit code of 'A'/'a' (0), 'C'/'c' (1), 'G'/'g' (2) and 'T'/'t' (3),
/// and kAmbiguousBase with code 0 ('A', the deterministic resolution) for
/// every other byte value.
inline constexpr std::array<std::uint8_t, 256> kBaseDecode = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kAmbiguousBase);
  const char upper[] = "ACGT";
  for (std::uint8_t code = 0; code < kBaseCount; ++code) {
    table[static_cast<unsigned char>(upper[code])] = code;
    table[static_cast<unsigned char>(upper[code] - 'A' + 'a')] = code;
  }
  return table;
}();

/// kBaseDecode entry of one byte.
constexpr std::uint8_t decode_base(char c) {
  return kBaseDecode[static_cast<unsigned char>(c)];
}

/// Parses an ASCII base (case-insensitive). Returns nullopt for anything
/// outside {A,C,G,T}; ambiguity codes like 'N' are not representable in the
/// 2-bit alphabet and must be resolved by the caller.
constexpr std::optional<Base> base_from_char(char c) {
  const std::uint8_t entry = decode_base(c);
  if ((entry & kAmbiguousBase) != 0) return std::nullopt;
  return base_from_code(entry);
}

/// Watson-Crick complement (A<->T, C<->G).
constexpr Base complement(Base b) {
  return static_cast<Base>(3u - static_cast<std::uint8_t>(b));
}

/// Human-readable alphabet, e.g. for diagnostics: "ACGT".
std::string_view alphabet();

}  // namespace asmcap
