#include "genome/fasta.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/strings.h"

namespace asmcap {

void split_seq_header(std::string_view line, std::string& id,
                      std::string& comment) {
  line = trim(line);
  const std::size_t space = line.find_first_of(" \t");
  if (space == std::string_view::npos) {
    id = std::string(line);
    comment.clear();
  } else {
    id = std::string(line.substr(0, space));
    comment = std::string(trim(line.substr(space + 1)));
  }
}

std::vector<FastaRecord> read_fasta(std::istream& in,
                                    std::size_t* ambiguous_bases) {
  std::vector<FastaRecord> records;
  std::size_t ambiguous = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view view = trim(line);
    if (view.empty()) continue;
    if (view.front() == '>') {
      records.emplace_back();
      split_seq_header(view.substr(1), records.back().id,
                       records.back().comment);
      continue;
    }
    if (records.empty())
      throw std::runtime_error("FASTA: sequence data before any header");
    for (char c : view) {
      if (const auto base = base_from_char(c)) {
        records.back().seq.push_back(*base);
      } else {
        ++ambiguous;
        records.back().seq.push_back(Base::A);
      }
    }
  }
  if (ambiguous_bases != nullptr) *ambiguous_bases = ambiguous;
  return records;
}

std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         std::size_t* ambiguous_bases) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open FASTA file: " + path);
  return read_fasta(in, ambiguous_bases);
}

void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t wrap) {
  if (wrap == 0) wrap = 70;
  for (const auto& record : records) {
    out << '>' << record.id;
    if (!record.comment.empty()) out << ' ' << record.comment;
    out << '\n';
    const std::string text = record.seq.to_string();
    for (std::size_t pos = 0; pos < text.size(); pos += wrap)
      out << text.substr(pos, wrap) << '\n';
  }
}

void write_fasta_file(const std::string& path,
                      const std::vector<FastaRecord>& records,
                      std::size_t wrap) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write FASTA file: " + path);
  write_fasta(out, records, wrap);
}

std::vector<FastqRecord> read_fastq(std::istream& in,
                                    std::size_t* ambiguous_bases) {
  std::vector<FastqRecord> records;
  std::size_t ambiguous = 0;
  std::string header;
  while (std::getline(in, header)) {
    if (trim(header).empty()) continue;
    if (header.empty() || header[0] != '@')
      throw std::runtime_error("FASTQ: expected '@' header, got: " + header);
    std::string seq_line;
    std::string plus_line;
    std::string qual_line;
    if (!std::getline(in, seq_line) || !std::getline(in, plus_line) ||
        !std::getline(in, qual_line))
      throw std::runtime_error("FASTQ: truncated record: " + header);
    if (plus_line.empty() || plus_line[0] != '+')
      throw std::runtime_error("FASTQ: missing '+' separator: " + header);
    FastqRecord record;
    record.id = std::string(trim(std::string_view(header).substr(1)));
    std::string comment_unused;
    split_seq_header(std::string_view(header).substr(1), record.id,
                     comment_unused);
    for (char c : trim(seq_line)) {
      const auto base = base_from_char(c);
      ambiguous += base ? 0 : 1;
      record.seq.push_back(base.value_or(Base::A));
    }
    record.quality = std::string(trim(qual_line));
    if (record.quality.size() != record.seq.size())
      throw std::runtime_error("FASTQ: quality length mismatch: " + header);
    records.push_back(std::move(record));
  }
  if (ambiguous_bases != nullptr) *ambiguous_bases = ambiguous;
  return records;
}

void write_fastq(std::ostream& out, const std::vector<FastqRecord>& records) {
  for (const auto& record : records) {
    out << '@' << record.id << '\n'
        << record.seq.to_string() << '\n'
        << "+\n";
    if (record.quality.empty())
      out << std::string(record.seq.size(), 'I') << '\n';
    else
      out << record.quality << '\n';
  }
}

}  // namespace asmcap
