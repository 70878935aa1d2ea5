#include "genome/stream_reader.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <limits>
#include <utility>

#include "genome/fasta.h"
#include "util/strings.h"

#ifdef ASMCAP_HAVE_ZLIB
#include <zlib.h>
#endif

namespace asmcap {

namespace {

constexpr std::size_t kBufferSize = 64 * 1024;

std::string error_prefix(const std::string& name, std::size_t line) {
  return name + ":" + std::to_string(line) + ": ";
}

/// The bytes trim() (util/strings.h) strips in the C locale, minus the
/// line end itself.
constexpr bool is_blank(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r' && c != '\n');
}

}  // namespace

const char* to_string(SeqFormat format) {
  switch (format) {
    case SeqFormat::Fasta:
      return "FASTA";
    case SeqFormat::Fastq:
      return "FASTQ";
    default:
      return "unknown";
  }
}

StreamParseError::StreamParseError(const std::string& name, std::size_t line,
                                   const std::string& message)
    : std::runtime_error(error_prefix(name, line) + message), line_(line) {}

// ------------------------------------------------------------ byte sources --

struct SeqStreamReader::ByteSource {
  virtual ~ByteSource() = default;
  /// Up to `n` bytes into `out`; 0 means end of input. Throws
  /// std::runtime_error on an I/O error.
  virtual std::size_t read(char* out, std::size_t n) = 0;
};

struct SeqStreamReader::FileSource : SeqStreamReader::ByteSource {
  FileSource(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~FileSource() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  std::size_t read(char* out, std::size_t n) override {
    const std::size_t got = std::fread(out, 1, n, file_);
    if (got < n && std::ferror(file_) != 0)
      throw std::runtime_error("I/O error reading " + path_);
    return got;
  }
  std::FILE* file_;
  std::string path_;
};

struct SeqStreamReader::IstreamSource : SeqStreamReader::ByteSource {
  explicit IstreamSource(std::istream& in) : in_(&in) {}
  std::size_t read(char* out, std::size_t n) override {
    in_->read(out, static_cast<std::streamsize>(n));
    if (in_->bad()) throw std::runtime_error("I/O error reading stream");
    return static_cast<std::size_t>(in_->gcount());
  }
  std::istream* in_;
};

#ifdef ASMCAP_HAVE_ZLIB
struct SeqStreamReader::GzipSource : SeqStreamReader::ByteSource {
  GzipSource(gzFile file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~GzipSource() override {
    if (file_ != nullptr) gzclose(file_);
  }
  std::size_t read(char* out, std::size_t n) override {
    const int got = gzread(file_, out, static_cast<unsigned>(n));
    if (got > 0) return static_cast<std::size_t>(got);
    int errnum = Z_OK;
    const char* message = gzerror(file_, &errnum);
    if (got < 0)
      throw std::runtime_error("gzip error reading " + path_ + ": " +
                               (message != nullptr ? message : "?"));
    // zlib reports input that ends inside a gzip stream as Z_BUF_ERROR at
    // end of input, not as a read error.
    if (errnum == Z_BUF_ERROR)
      throw std::runtime_error("truncated gzip input " + path_ +
                               ": it ends inside a gzip stream");
    return 0;
  }
  gzFile file_;
  std::string path_;
};
#endif

// ---------------------------------------------------------------- reader --

SeqStreamReader::SeqStreamReader(const std::string& path) : name_(path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    throw std::runtime_error("cannot open sequence file: " + path);
  unsigned char magic[2] = {0, 0};
  const std::size_t got = std::fread(magic, 1, 2, file);
  const bool gzipped = got == 2 && magic[0] == 0x1F && magic[1] == 0x8B;
  if (gzipped) {
    std::fclose(file);
#ifdef ASMCAP_HAVE_ZLIB
    gzFile gz = gzopen(path.c_str(), "rb");
    if (gz == nullptr)
      throw std::runtime_error("cannot open gzip sequence file: " + path);
    source_ = std::make_unique<GzipSource>(gz, path);
#else
    throw std::runtime_error("gzip-compressed input but this build has no "
                             "zlib (decompress first): " +
                             path);
#endif
  } else {
    std::rewind(file);
    source_ = std::make_unique<FileSource>(file, path);
  }
  buffer_.resize(kBufferSize);
}

SeqStreamReader::SeqStreamReader(std::istream& in, std::string name)
    : name_(std::move(name)), source_(std::make_unique<IstreamSource>(in)) {
  buffer_.resize(kBufferSize);
}

SeqStreamReader::~SeqStreamReader() = default;

void SeqStreamReader::fail(std::size_t line,
                           const std::string& message) const {
  throw StreamParseError(name_, line, message);
}

bool SeqStreamReader::refill() {
  if (eof_) return false;
  pos_ = 0;
  end_ = source_->read(buffer_.data(), buffer_.size());
  eof_ = end_ == 0;
  return !eof_;
}

bool SeqStreamReader::read_line(std::string& out) {
  out.clear();
  bool any = line_open_;
  while (pos_ != end_ || refill()) {
    const char* begin = buffer_.data() + pos_;
    const auto* newline =
        static_cast<const char*>(std::memchr(begin, '\n', end_ - pos_));
    const std::size_t take =
        newline != nullptr ? static_cast<std::size_t>(newline - begin)
                           : end_ - pos_;
    out.append(begin, take);
    any = true;
    pos_ += take;
    if (newline != nullptr) {
      ++pos_;
      break;
    }
  }
  if (!any) return false;
  if (!out.empty() && out.back() == '\r') out.pop_back();
  ++line_;
  line_open_ = false;
  return true;
}

bool SeqStreamReader::next_content_line(std::string& out) {
  while (read_line(out)) {
    if (!trim(out).empty()) return true;
  }
  return false;
}

void SeqStreamReader::detect_format(const std::string& first_line) {
  const std::string_view view = trim(first_line);
  if (view.front() == '>') {
    format_ = SeqFormat::Fasta;
  } else if (view.front() == '@') {
    format_ = SeqFormat::Fastq;
  } else {
    fail(line_, std::string("unrecognised format: first byte '") +
                    view.front() +
                    "' is neither '>' (FASTA) nor '@' (FASTQ)");
  }
}

bool SeqStreamReader::next(SeqRecord& record) {
  if (!next_header(record)) return false;
  read_bases(record.seq, std::numeric_limits<std::size_t>::max());
  record.quality.swap(quality_);  // next_header() left record's empty.
  return true;
}

bool SeqStreamReader::next_header(SeqRecord& record) {
  if (scan_ != Scan::Idle) {
    Sequence rest;
    while (read_bases(rest, kBufferSize) == kBufferSize) rest.clear();
  }
  if (!next_content_line(header_)) return false;
  if (format_ == SeqFormat::Unknown) detect_format(header_);
  // A FASTA record starts at a line whose first non-space byte is '>'; a
  // FASTQ header must open with '@' itself.
  if (format_ == SeqFormat::Fastq && header_.front() != '@')
    fail(line_, "FASTQ: expected '@' header, got: " + header_);
  header_line_ = line_;
  split_seq_header(trim(header_).substr(1), record.id, record.comment);
  record.seq.clear();
  record.quality.clear();
  scan_ = Scan::LineStart;
  run_ = 0;
  held_ = 0;
  record_bases_ = 0;
  seq_missing_ = false;
  return true;
}

bool SeqStreamReader::next_run() {
  const bool fasta = format_ == SeqFormat::Fasta;
  for (;;) {
    if (pos_ == end_ && !refill()) {
      // End of input ends the record; a partial last line still counts.
      seq_missing_ = !line_open_ && scan_ == Scan::LineStart;
      if (line_open_) ++line_;
      line_open_ = false;
      held_ = 0;
      return false;
    }
    const char* data = buffer_.data();
    if (scan_ == Scan::LineStart) {
      while (pos_ != end_ && is_blank(data[pos_])) ++pos_;
      if (pos_ == end_) {
        line_open_ = true;
        continue;
      }
      if (data[pos_] == '\n') {  // A blank line: FASTA skips it.
        ++pos_;
        ++line_;
        line_open_ = false;
        if (!fasta) return false;
        continue;
      }
      if (fasta && data[pos_] == '>') return false;  // The next header.
      scan_ = Scan::InLine;
      line_open_ = true;
    }
    // Inside a line: its end in this buffer, and its last non-space byte.
    const char* begin = data + pos_;
    const auto* newline =
        static_cast<const char*>(std::memchr(begin, '\n', end_ - pos_));
    const char* stop = newline != nullptr ? newline : data + end_;
    const char* last = stop;
    while (last != begin && is_blank(last[-1])) --last;
    if (last != begin) {
      run_ = static_cast<std::size_t>(last - begin);
      return true;
    }
    if (newline == nullptr) {  // Interior or trailing: the refill decides.
      held_ += static_cast<std::size_t>(stop - begin);
      pos_ = end_;
      continue;
    }
    pos_ = static_cast<std::size_t>(newline - data) + 1;
    ++line_;
    line_open_ = false;
    held_ = 0;
    scan_ = Scan::LineStart;
    if (!fasta) return false;  // FASTQ sequence is exactly one line.
  }
}

std::size_t SeqStreamReader::read_bases(Sequence& out, std::size_t n) {
  std::size_t got = 0;
  bool ended = false;
  while (got < n && scan_ != Scan::Idle) {
    if (run_ == 0) {
      ended = !next_run();
      if (ended) break;
    } else if (held_ != 0) {  // Whitespace a refill split off a run.
      const std::size_t k = std::min(held_, n - got);
      out.resize(out.size() + k);
      ambiguous_ += k;
      held_ -= k;
      got += k;
    } else {
      const std::size_t k = std::min(run_, n - got);
      ambiguous_ += out.append_text({buffer_.data() + pos_, k});
      pos_ += k;
      run_ -= k;
      got += k;
    }
  }
  bases_ += got;
  record_bases_ += got;
  if (ended) end_record();
  return got;
}

void SeqStreamReader::end_record() {
  scan_ = Scan::Idle;
  if (format_ == SeqFormat::Fastq) {
    if (seq_missing_ || !read_line(separator_) || !read_line(quality_))
      fail(line_, "FASTQ: truncated record (header at line " +
                      std::to_string(header_line_) + "): " + header_);
    if (separator_.empty() || separator_[0] != '+')
      fail(line_ - 1, "FASTQ: missing '+' separator: " + header_);
    quality_ = std::string(trim(quality_));
    if (quality_.size() != record_bases_)
      fail(line_, "FASTQ: quality length mismatch: " + header_);
  }
  ++records_;
}

std::vector<SeqRecord> SeqStreamReader::read_chunk(std::size_t max_records) {
  std::vector<SeqRecord> chunk;
  chunk.reserve(max_records);
  SeqRecord record;
  while (chunk.size() < max_records && next(record))
    chunk.push_back(std::move(record));
  return chunk;
}

}  // namespace asmcap
