#include "genome/base.h"

namespace asmcap {

char to_char(Base b) {
  static constexpr char kChars[kBaseCount] = {'A', 'C', 'G', 'T'};
  return kChars[code_of(b)];
}

std::string_view alphabet() { return "ACGT"; }

}  // namespace asmcap
