#pragma once
// Buffered, single-pass FASTA/FASTQ record streaming in the kseq style
// real aligners use: arbitrarily large inputs are parsed through one
// fixed 64 KiB buffer instead of the whole-file vectors that
// read_fasta/read_fastq (genome/fasta.h) return.
//
//   SeqStreamReader reader("reads.fastq.gz");
//   SeqRecord record;
//   while (reader.next(record)) consume(record);
//
// The format is auto-detected from the first non-blank byte ('>' FASTA,
// '@' FASTQ); gzip-compressed files are transparently decompressed when
// the build found zlib (ASMCAP_HAVE_ZLIB, see CMakeLists.txt) and
// rejected with a clear error otherwise. A gzip file that ends inside its
// stream (a truncated download) is an error, not a shorter file. The
// parser accepts multi-line (wrapped) FASTA sequence data, tolerates CRLF
// line endings and blank lines between records, and reports malformed
// input as StreamParseError carrying the 1-based line number of the
// offending line.
//
// One block scanner serves every entry point. Line ends are found with
// memchr inside the buffer; header, '+' and quality lines are copied out,
// but sequence bytes never are: each line's run of bases (trimmed of
// leading and trailing whitespace as util/strings.h trim() does in the C
// locale, CR included) is decoded in place through the one 256-entry
// table in genome/base.h and packed four bases per byte straight into the
// destination Sequence. Only whitespace
// that straddles a buffer refill is held back, as a count, until the rest
// of its line shows whether it is interior or trailing. A FASTA line whose
// first non-space byte is '>' starts the next record.
//
// next() and read_chunk() return whole records. The tile pull,
// next_header() then read_bases(), returns a record's bases a few at a
// time, so a caller that packs fixed-width tiles (asmcap/ingest.h) holds
// O(buffer + one tile) of a FASTA record's data for any record length — a
// single unwrapped multi-megabase line included (a FASTQ record's quality
// line is still copied whole). next() is next_header() plus one unbounded
// read_bases(), so both paths share one scanner, one decode loop and one
// set of errors.
//
// Record content is BIT-IDENTICAL to the whole-file readers: identical
// header id/comment splitting, identical base decoding, and the same
// deterministic ambiguity policy — every character outside {A,C,G,T}
// (case-insensitive), e.g. the IUPAC 'N', an interior space or a NUL, is
// resolved to 'A' and counted in ambiguous_bases() so callers can warn
// (tests/test_stream_reader.cpp round-trips through write_fasta/write_fastq
// to pin the parity down; tests/test_stream_fuzz.cpp checks mutated inputs
// against the whole-file readers and a pinned digest of their outcomes).
//
// Ownership: the path constructor owns the underlying file/gzip handle;
// the istream constructor borrows the stream, which must outlive the
// reader. Thread-safety: a reader is a single-consumer cursor — all
// methods belong to one thread at a time (confine a reader to the
// ingestion thread; hand the records off, not the reader). Reentrancy:
// nothing here blocks on a pool or calls back into user code. After a
// throw the reader's position and totals are unspecified.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "genome/sequence.h"

namespace asmcap {

/// One FASTA or FASTQ record in the unified streaming shape. FASTA
/// records leave `quality` empty; FASTQ records carry their Phred+33
/// quality string (same length as seq, enforced at parse time).
struct SeqRecord {
  std::string id;       ///< Header text up to the first whitespace.
  std::string comment;  ///< Remainder of the header line (may be empty).
  Sequence seq;
  std::string quality;
};

enum class SeqFormat : std::uint8_t { Unknown, Fasta, Fastq };

const char* to_string(SeqFormat format);

/// Malformed-input error carrying the input name and the 1-based line
/// number of the offending line (what() embeds both).
class StreamParseError : public std::runtime_error {
 public:
  StreamParseError(const std::string& name, std::size_t line,
                   const std::string& message);
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

class SeqStreamReader {
 public:
  /// Opens a file, auto-detecting gzip from the magic bytes (requires
  /// zlib in the build; throws std::runtime_error otherwise, and when the
  /// file cannot be opened).
  explicit SeqStreamReader(const std::string& path);

  /// Streams from a borrowed istream (no gzip auto-detection); `name` is
  /// used in error messages.
  explicit SeqStreamReader(std::istream& in, std::string name = "<stream>");

  ~SeqStreamReader();
  SeqStreamReader(const SeqStreamReader&) = delete;
  SeqStreamReader& operator=(const SeqStreamReader&) = delete;

  /// Parses the next record into `record` (contents replaced). Returns
  /// false at clean end-of-input; throws StreamParseError on malformed
  /// input.
  bool next(SeqRecord& record);

  /// Tile pull, step 1: starts the next record. Fills record.id and
  /// record.comment, clears record.seq and record.quality, and leaves the
  /// bases to read_bases(). Any unread bases of the previous record are
  /// skipped. Returns false at clean end-of-input.
  bool next_header(SeqRecord& record);

  /// Tile pull, step 2: appends up to `n` of the current record's next
  /// bases to `out` and returns how many. Fewer than `n` means the record
  /// has ended; a FASTQ record's '+' and quality lines are then read and
  /// checked. Returns 0 when no record is open.
  std::size_t read_bases(Sequence& out, std::size_t n);

  /// Batch form of next(): up to `max_records` records (fewer at end of
  /// input; empty once exhausted). The concatenation of read_chunk calls
  /// is identical to the next() stream for any chunk size.
  std::vector<SeqRecord> read_chunk(std::size_t max_records);

  /// Detected input format (Unknown until the first next(), read_chunk()
  /// or next_header() call touches the input).
  SeqFormat format() const { return format_; }

  const std::string& name() const { return name_; }
  /// 1-based number of the last line consumed (0 before any input). The
  /// FASTA header that ends a record belongs to the next record's start.
  std::size_t line() const { return line_; }

  /// Running totals over everything parsed so far.
  std::size_t records() const { return records_; }
  std::size_t bases() const { return bases_; }
  /// Characters outside {A,C,G,T} deterministically resolved to 'A'
  /// (FASTA and FASTQ sequence lines alike).
  std::size_t ambiguous_bases() const { return ambiguous_; }

 private:
  struct ByteSource;
  struct FileSource;
  struct IstreamSource;
#ifdef ASMCAP_HAVE_ZLIB
  struct GzipSource;
#endif

  /// Where the scanner stands inside the current record's sequence.
  enum class Scan : std::uint8_t {
    Idle,       ///< No record open.
    LineStart,  ///< At a line start, or inside its leading whitespace.
    InLine,     ///< Past the line's first non-space byte.
  };

  [[noreturn]] void fail(std::size_t line, const std::string& message) const;
  /// Refills the buffer from the source. False at end of input.
  bool refill();
  /// Next raw line, copied and CR-stripped, counting line_. False at end
  /// of input.
  bool read_line(std::string& out);
  /// Next non-blank line. False at end of input.
  bool next_content_line(std::string& out);
  void detect_format(const std::string& first_line);
  /// Finds the current record's next run of sequence bytes, [pos_, pos_ +
  /// run_). False once the record's sequence has ended.
  bool next_run();
  /// Closes the record: FASTQ '+' and quality lines, then the count.
  void end_record();

  std::string name_;
  std::unique_ptr<ByteSource> source_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;

  SeqFormat format_ = SeqFormat::Unknown;
  std::size_t line_ = 0;
  bool line_open_ = false;  ///< Bytes of an uncounted line are consumed.

  Scan scan_ = Scan::Idle;
  std::size_t run_ = 0;   ///< Bytes left in the run at pos_.
  std::size_t held_ = 0;  ///< Whitespace before the run, from refills.
  bool seq_missing_ = false;  ///< A FASTQ record ended before its line 2.
  std::size_t record_bases_ = 0;
  std::string header_;  ///< The open record's header line, for errors.
  std::size_t header_line_ = 0;
  std::string separator_;  ///< FASTQ '+' line.
  std::string quality_;    ///< FASTQ quality, trimmed, until next() takes it.

  std::size_t records_ = 0;
  std::size_t bases_ = 0;
  std::size_t ambiguous_ = 0;
};

}  // namespace asmcap
