#pragma once
// Whitespace trimming for the FASTA/FASTQ readers (genome/fasta.cpp and the
// streaming reader, which strips the same bytes on its bulk path).

#include <string_view>

namespace asmcap {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

}  // namespace asmcap
