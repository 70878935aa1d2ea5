#pragma once
// Minimal FASTA / FASTQ I/O so real genome data (e.g. NCBI downloads) can be
// dropped into the experiments in place of the synthetic reference.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

/// Splits a header line (text after '>' / '@') into `id` (up to the first
/// whitespace) and `comment` (the trimmed remainder, possibly empty).
/// Shared by the whole-file readers below and genome/stream_reader.h so
/// both parse headers identically.
void split_seq_header(std::string_view line, std::string& id,
                      std::string& comment);

struct FastaRecord {
  std::string id;       ///< Text after '>' up to the first whitespace.
  std::string comment;  ///< Remainder of the header line (may be empty).
  Sequence seq;
};

/// Parses FASTA from a stream. Ambiguity codes ('N' etc.) are resolved
/// deterministically to 'A' and counted; the count is reported through
/// `ambiguous_bases` when non-null so callers can warn.
std::vector<FastaRecord> read_fasta(std::istream& in,
                                    std::size_t* ambiguous_bases = nullptr);

/// Reads a FASTA file from disk. Throws std::runtime_error if unreadable.
std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         std::size_t* ambiguous_bases = nullptr);

/// Writes records in FASTA with the given line wrap width.
void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t wrap = 70);

void write_fasta_file(const std::string& path,
                      const std::vector<FastaRecord>& records,
                      std::size_t wrap = 70);

struct FastqRecord {
  std::string id;
  Sequence seq;
  std::string quality;  ///< Phred+33; same length as seq.
};

/// Parses 4-line FASTQ records. Throws std::runtime_error on malformed input.
/// Ambiguity codes resolve to 'A' as in read_fasta; their count goes to
/// `ambiguous_bases` when non-null.
std::vector<FastqRecord> read_fastq(std::istream& in,
                                    std::size_t* ambiguous_bases = nullptr);

/// Writes FASTQ; if a record's quality string is empty a constant 'I'
/// (Q40) string is emitted.
void write_fastq(std::ostream& out, const std::vector<FastqRecord>& records);

}  // namespace asmcap
