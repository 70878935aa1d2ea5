// Deterministic, structure-aware fuzzer for the streaming FASTA/FASTQ
// reader (genome/stream_reader.h) and reference ingestion
// (asmcap/ingest.h). Cases come from util/rng, with no corpus: valid FASTA
// and FASTQ (wrapped and unwrapped, multi-record, lower case, IUPAC codes,
// CRLF, blank lines, records past the 64 KiB read buffer), then mutated
// (header edits, truncation, inserted NUL/CR/space bytes, stray '>', '@'
// and '+', deleted and duplicated lines, extreme lines, random bytes).
//
// Oracle: every case has one of two outcomes.
//   * It parses. next(), read_chunk() and ingest_reference's tiles then
//     give exactly what read_fasta/read_fastq and whole-record tiling
//     give, ambiguity counts included.
//   * It throws StreamParseError with a line number inside the input, the
//     same error through next(), read_chunk() and ingest_reference.
// Gzip cases (zlib builds) compress a valid case, then truncate it (the
// reader must throw its truncated-gzip error) or flip one byte (the
// outcome is the intact records or an exception, never other records).
//
// kPinnedDigest hashes the outcomes of the first repetition's plain-text
// cases. It was computed on the line-copying reader that the block
// scanner replaced, so it checks the scanner against that reader byte for
// byte. Each --gtest_repeat repetition continues the seeded case stream,
// so a longer run (the sanitizer CI leg repeats 20 times) covers new
// cases; only the first repetition is compared with the digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#ifdef ASMCAP_HAVE_ZLIB
#include <zlib.h>
#endif

#include "asmcap/ingest.h"
#include "asmcap/sharded.h"
#include "genome/fasta.h"
#include "genome/stream_reader.h"
#include "util/rng.h"

namespace asmcap {
namespace {

constexpr std::size_t kCasesPerRepetition = 240;
constexpr std::uint64_t kPinnedDigest = 0x4076dae15440f537;
constexpr std::uint64_t kPinnedSweepDigest = 0xe95a7a0e885bca90;
/// The reader's buffer size: longer inputs exercise refills.
constexpr std::size_t kRefillBytes = std::size_t{64} << 10;

/// FNV-1a over the outcome fields, each length-prefixed.
class OutcomeDigest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i)
      byte(static_cast<unsigned char>(value >> (8 * i)));
  }
  void add(std::string_view text) {
    add(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001B3ull;
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

// ------------------------------------------------------------ generator --

struct Style {
  bool fastq = false;
  bool crlf = false;
  bool lower = false;
  bool iupac = false;
  bool blank_lines = false;
  std::size_t wrap = 0;  ///< 0: one line per record.
};

std::size_t record_length(Rng& rng) {
  const std::uint64_t roll = rng.below(48);
  if (roll == 0) return kRefillBytes + rng.below(kRefillBytes);
  if (roll < 4) return 0;
  return rng.below(300);
}

std::string random_bases(Rng& rng, const Style& style, std::size_t n) {
  static constexpr char kIupac[] = "NNNNRYKMSWBDHV";
  std::string bases(n, 'A');
  for (char& c : bases) {
    c = "ACGT"[rng.below(4)];
    if (style.iupac && rng.below(24) == 0) c = kIupac[rng.below(14)];
    if (style.lower && rng.below(3) == 0)
      c = static_cast<char>(c + ('a' - 'A'));
  }
  return bases;
}

std::string random_word(Rng& rng, std::size_t max_len) {
  static constexpr char kChars[] = "abcxyzABCXYZ0189_.|:-=";
  std::string word(1 + rng.below(max_len), 'a');
  for (char& c : word) c = kChars[rng.below(sizeof(kChars) - 1)];
  return word;
}

/// Appends the pieces, then one line ending.
template <typename... Pieces>
void add_line(std::string& text, const std::string& eol,
              const Pieces&... pieces) {
  (text += ... += pieces);
  text += eol;
}

/// One valid FASTA or FASTQ image.
std::string generate(Rng& rng) {
  Style style;
  style.fastq = rng.below(3) == 0;
  style.crlf = rng.below(4) == 0;
  style.lower = rng.below(4) == 0;
  style.iupac = rng.below(3) == 0;
  style.blank_lines = rng.below(4) == 0;
  style.wrap =
      rng.below(3) == 0 ? 0 : 1 + rng.below(rng.below(2) == 0 ? 12 : 120);
  const std::string eol = style.crlf ? "\r\n" : "\n";

  std::string text;
  const std::size_t records = rng.below(6);
  for (std::size_t r = 0; r < records; ++r) {
    // One draw per statement: operands of a + chain are unsequenced, and
    // the case stream must not depend on the compiler.
    if (style.blank_lines && rng.below(3) == 0) {
      if (rng.below(2) != 0) text += " \t";
      text += eol;
    }
    std::string header = random_word(rng, 12);
    if (rng.below(2) == 0) {
      header += rng.below(2) == 0 ? ' ' : '\t';
      header += random_word(rng, 8);
      header += ' ';
      header += random_word(rng, 8);
    }
    const std::string seq = random_bases(rng, style, record_length(rng));
    if (style.fastq) {
      std::string quality(seq.size(), 'I');
      for (char& q : quality) q = static_cast<char>('!' + rng.below(94));
      const bool named_separator = rng.below(2) != 0;
      add_line(text, eol, '@', header);
      add_line(text, eol, seq);
      add_line(text, eol, '+', named_separator ? header : std::string());
      add_line(text, eol, quality);
      continue;
    }
    add_line(text, eol, '>', header);
    const std::size_t wrap = style.wrap == 0 ? seq.size() : style.wrap;
    for (std::size_t pos = 0; pos < seq.size(); pos += wrap) {
      add_line(text, eol, std::string_view(seq).substr(pos, wrap));
      if (style.blank_lines && rng.below(16) == 0) text += eol;
    }
  }
  // No final EOL, unless that would drop an empty last line.
  if (!text.empty() && rng.below(8) == 0 &&
      text.compare(text.size() - std::min<std::size_t>(2, text.size()),
                   std::string::npos, "\n\n") != 0)
    text.pop_back();
  return text;
}

// ------------------------------------------------------------- mutators --

std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts;
  if (!text.empty()) starts.push_back(0);
  for (std::size_t i = 0; i + 1 < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  return starts;
}

std::size_t line_end(const std::string& text, std::size_t start) {
  const std::size_t newline = text.find('\n', start);
  return newline == std::string::npos ? text.size() : newline + 1;
}

void mutate(std::string& text, Rng& rng) {
  const std::vector<std::size_t> starts = line_starts(text);
  const std::size_t at = rng.below(text.size() + 1);
  switch (rng.below(9)) {
    case 0: {  // Header edit.
      std::vector<std::size_t> headers;
      for (const std::size_t s : starts)
        if (text[s] == '>' || text[s] == '@') headers.push_back(s);
      if (headers.empty()) break;
      const std::size_t h = headers[rng.below(headers.size())];
      switch (rng.below(4)) {
        case 0:
          text[h] = "@>+ N\t"[rng.below(6)];
          break;
        case 1:
          text.insert(h, rng.below(2) == 0 ? " " : "\r\t ");
          break;
        case 2:
          text.insert(h + 1, " ");
          break;
        default:
          text.erase(h + 1, line_end(text, h) - h - 1);
          text.insert(h + 1, "\n");
          break;
      }
      break;
    }
    case 1:  // Truncation at a random byte.
      text.resize(at);
      break;
    case 2: {  // NUL, CR and space bytes.
      static constexpr char kBytes[] = {'\0', '\r', ' ', '\r'};
      const std::size_t n = 1 + rng.below(4);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pos = rng.below(text.size() + 1);
        text.insert(pos, 1, kBytes[rng.below(4)]);
      }
      break;
    }
    case 3: {  // A stray marker, at a line start half the time.
      const std::size_t pos = rng.below(2) == 0 && !starts.empty()
                                  ? starts[rng.below(starts.size())]
                                  : at;
      text.insert(pos, 1, ">@+"[rng.below(3)]);
      break;
    }
    case 4:  // Delete a line.
      if (!starts.empty()) {
        const std::size_t s = starts[rng.below(starts.size())];
        text.erase(s, line_end(text, s) - s);
      }
      break;
    case 5:  // Duplicate a line.
      if (!starts.empty()) {
        const std::size_t s = starts[rng.below(starts.size())];
        text.insert(s, text.substr(s, line_end(text, s) - s));
      }
      break;
    case 6: {  // An extreme line: bases or whitespace past a buffer refill.
      Style style;
      style.lower = rng.below(2) == 0;
      style.iupac = true;
      const std::string run =
          rng.below(4) == 0
              ? std::string(kRefillBytes + rng.below(64), ' ')
              : random_bases(rng, style,
                             kRefillBytes + rng.below(kRefillBytes));
      text.insert(at, run);
      break;
    }
    case 7:  // One random byte overwritten.
      if (!text.empty())
        text[rng.below(text.size())] = static_cast<char>(rng.below(256));
      break;
    default: {  // A few blanks at a random byte.
      const std::string blanks[] = {" ", "\t ", " \r", "\r\r", " \v\f"};
      text.insert(at, blanks[rng.below(5)]);
      break;
    }
  }
}

// -------------------------------------------------------------- outcome --

/// What one input yields: its records and totals, or its parse error.
struct Outcome {
  bool parsed = false;
  SeqFormat format = SeqFormat::Unknown;
  std::vector<SeqRecord> records;
  std::size_t bases = 0;
  std::size_t ambiguous = 0;
  std::size_t error_line = 0;
  std::string error;
};

Outcome stream_outcome(const std::string& text) {
  std::istringstream in(text);
  SeqStreamReader reader(in, "fuzz");
  Outcome out;
  try {
    SeqRecord record;
    while (reader.next(record)) out.records.push_back(record);
    out.parsed = true;
    out.format = reader.format();
    out.bases = reader.bases();
    out.ambiguous = reader.ambiguous_bases();
    EXPECT_EQ(reader.records(), out.records.size());
  } catch (const StreamParseError& e) {
    out.error_line = e.line();
    out.error = e.what();
  }
  return out;
}

void add_to_digest(OutcomeDigest& digest, const Outcome& outcome) {
  digest.add(outcome.parsed ? 1 : 0);
  if (!outcome.parsed) {
    digest.add(outcome.error_line);
    digest.add(outcome.error);
    return;
  }
  digest.add(static_cast<std::uint64_t>(outcome.format));
  digest.add(outcome.records.size());
  for (const SeqRecord& record : outcome.records) {
    digest.add(record.id);
    digest.add(record.comment);
    digest.add(record.seq.to_string());
    digest.add(record.quality);
  }
  digest.add(outcome.bases);
  digest.add(outcome.ambiguous);
}

std::size_t line_count(const std::string& text) {
  const auto newlines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  return newlines + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

void expect_same_records(const std::vector<SeqRecord>& got,
                         const std::vector<SeqRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "record " << i;
    EXPECT_EQ(got[i].comment, want[i].comment) << "record " << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << "record " << i;
    EXPECT_EQ(got[i].quality, want[i].quality) << "record " << i;
  }
}

/// Whole-file readers agree with the streamed records.
void expect_whole_file_parity(const std::string& text, const Outcome& outcome) {
  std::istringstream in(text);
  std::size_t ambiguous = 0;
  if (outcome.format == SeqFormat::Fastq) {
    const std::vector<FastqRecord> whole = read_fastq(in, &ambiguous);
    ASSERT_EQ(outcome.records.size(), whole.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(outcome.records[i].id, whole[i].id);
      EXPECT_EQ(outcome.records[i].seq, whole[i].seq);
      EXPECT_EQ(outcome.records[i].quality, whole[i].quality);
    }
  } else {
    const std::vector<FastaRecord> whole = read_fasta(in, &ambiguous);
    ASSERT_EQ(outcome.records.size(), whole.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(outcome.records[i].id, whole[i].id);
      EXPECT_EQ(outcome.records[i].comment, whole[i].comment);
      EXPECT_EQ(outcome.records[i].seq, whole[i].seq);
      EXPECT_TRUE(outcome.records[i].quality.empty());
    }
  }
  EXPECT_EQ(outcome.ambiguous, ambiguous);
  std::size_t bases = 0;
  for (const SeqRecord& record : outcome.records) bases += record.seq.size();
  EXPECT_EQ(outcome.bases, bases);
}

/// read_chunk(k) calls, concatenated, give the next() stream or its error.
void expect_chunk_parity(const std::string& text, const Outcome& outcome,
                         std::size_t chunk) {
  std::istringstream in(text);
  SeqStreamReader reader(in, "fuzz");
  std::vector<SeqRecord> records;
  try {
    for (;;) {
      std::vector<SeqRecord> block = reader.read_chunk(chunk);
      if (block.empty()) break;
      for (SeqRecord& record : block) records.push_back(std::move(record));
    }
  } catch (const StreamParseError& e) {
    EXPECT_FALSE(outcome.parsed) << e.what();
    EXPECT_EQ(e.line(), outcome.error_line);
    EXPECT_EQ(std::string(e.what()), outcome.error);
    return;
  }
  ASSERT_TRUE(outcome.parsed) << outcome.error;
  expect_same_records(records, outcome.records);
}

/// Tiles of whole records: what ingest_reference must append.
struct Tiling {
  std::vector<Sequence> tiles;
  std::vector<SegmentOrigin> origins;
  IngestStats stats;
};

Tiling tile_records(const Outcome& outcome, std::size_t width, bool pad) {
  Tiling out;
  out.stats.records = outcome.records.size();
  out.stats.bases = outcome.bases;
  out.stats.ambiguous_bases = outcome.ambiguous;
  for (std::size_t r = 0; r < outcome.records.size(); ++r) {
    const Sequence& seq = outcome.records[r].seq;
    std::size_t pos = 0;
    for (; pos + width <= seq.size(); pos += width) {
      out.tiles.push_back(seq.subseq(pos, width));
      out.origins.push_back({static_cast<std::uint32_t>(r), pos});
    }
    const std::size_t tail = seq.size() - pos;
    if (tail != 0 && pad) {
      Sequence tile = seq.subseq(pos, tail);
      while (tile.size() < width) tile.push_back(Base::A);
      out.tiles.push_back(std::move(tile));
      out.origins.push_back({static_cast<std::uint32_t>(r), pos});
      ++out.stats.padded_segments;
    } else {
      out.stats.dropped_tail_bases += tail;
    }
    if (seq.size() == 0 || (pos == 0 && !pad)) ++out.stats.empty_records;
  }
  out.stats.segments = out.tiles.size();
  return out;
}

/// ingest_reference over the same bytes, `width` bases per tile: the
/// whole-record tiling, or the next() stream's error.
void expect_ingest_parity(const std::string& text, const Outcome& outcome,
                          std::size_t width, Rng& rng) {
  IngestOptions options;
  options.pad_final_tile = rng.below(4) != 0;
  options.append_batch = 1 + rng.below(700);

  const std::size_t upper = text.size() / width + line_count(text) + 1;
  AsmcapConfig config;
  config.array_rows = 64;
  config.array_cols = width;
  config.array_count = upper / (2 * config.array_rows) + 1;
  config.ideal_sensing = true;
  ShardedAccelerator db(config, 2);

  std::istringstream in(text);
  SeqStreamReader reader(in, "fuzz");
  ReferenceIndex index;
  IngestStats stats;
  try {
    stats = ingest_reference(db, reader, options, &index);
  } catch (const StreamParseError& e) {
    EXPECT_FALSE(outcome.parsed) << e.what();
    EXPECT_EQ(e.line(), outcome.error_line);
    EXPECT_EQ(std::string(e.what()), outcome.error);
    return;
  }
  ASSERT_TRUE(outcome.parsed) << outcome.error;

  const Tiling want = tile_records(outcome, width, options.pad_final_tile);
  EXPECT_EQ(stats.records, want.stats.records);
  EXPECT_EQ(stats.bases, want.stats.bases);
  EXPECT_EQ(stats.ambiguous_bases, want.stats.ambiguous_bases);
  EXPECT_EQ(stats.segments, want.stats.segments);
  EXPECT_EQ(stats.padded_segments, want.stats.padded_segments);
  EXPECT_EQ(stats.dropped_tail_bases, want.stats.dropped_tail_bases);
  EXPECT_EQ(stats.empty_records, want.stats.empty_records);

  auto live = db.live_segments();
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(live.size(), want.tiles.size());
  ASSERT_EQ(index.size(), want.tiles.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    // Rule 10: ids follow tiling order.
    EXPECT_EQ(live[i].first, index.first_id() + i);
    EXPECT_EQ(live[i].second, want.tiles[i]) << "tile " << i;
    const SegmentOrigin& origin = index.origin(live[i].first);
    EXPECT_EQ(origin.record, want.origins[i].record);
    EXPECT_EQ(origin.offset, want.origins[i].offset);
  }
  for (std::size_t r = 0; r < outcome.records.size(); ++r)
    EXPECT_EQ(index.record_name(static_cast<std::uint32_t>(r)),
              outcome.records[r].id);
}

// ----------------------------------------------------------------- gzip --

#ifdef ASMCAP_HAVE_ZLIB
std::string gzip_bytes(const std::string& text, const std::string& path) {
  gzFile gz = gzopen(path.c_str(), "wb");
  EXPECT_NE(gz, nullptr);
  if (!text.empty()) {
    EXPECT_EQ(gzwrite(gz, text.data(), static_cast<unsigned>(text.size())),
              static_cast<int>(text.size()));
  }
  gzclose(gz);
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Records of a gzip file, or the error it throws.
std::vector<SeqRecord> gzip_records(const std::string& path) {
  SeqStreamReader reader(path);
  std::vector<SeqRecord> records;
  SeqRecord record;
  while (reader.next(record)) records.push_back(record);
  return records;
}

void check_gzip_case(const std::string& text, const Outcome& intact, Rng& rng,
                     std::size_t case_index) {
  const std::string path = testing::TempDir() + "stream_fuzz_" +
                           std::to_string(case_index) + ".fa.gz";
  const std::string bytes = gzip_bytes(text, path);
  switch (rng.below(3)) {
    case 0:  // Intact: the plain-text records.
      expect_same_records(gzip_records(path), intact.records);
      break;
    case 1: {  // Truncated, mid-stream or in the trailer.
      const std::size_t cut = rng.below(2) == 0
                                  ? 2 + rng.below(bytes.size() - 2)
                                  : bytes.size() - 1 - rng.below(8);
      write_bytes(path, bytes.substr(0, cut));
      try {
        gzip_records(path);
        ADD_FAILURE() << "truncated gzip (" << cut << " of " << bytes.size()
                      << " bytes) parsed without error";
      } catch (const StreamParseError& e) {
        ADD_FAILURE() << "truncated gzip raised a parse error: " << e.what();
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("truncated gzip"), std::string::npos) << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
      }
      break;
    }
    default: {  // One byte flipped past the fixed header.
      std::string damaged = bytes;
      damaged[10 + rng.below(damaged.size() - 10)] ^=
          static_cast<char>(1 + rng.below(255));
      write_bytes(path, damaged);
      // zlib's checks, or the parser on garbage, may reject it; whatever
      // it yields must be the intact records.
      std::vector<SeqRecord> records;
      bool rejected = false;
      try {
        records = gzip_records(path);
      } catch (const std::runtime_error&) {
        rejected = true;
      }
      if (!rejected) expect_same_records(records, intact.records);
      break;
    }
  }
  std::remove(path.c_str());
}
#endif

// ---------------------------------------------------------------- suite --

void check_case(const std::string& text, const Outcome& outcome,
                std::size_t width, Rng& rng) {
  if (!outcome.parsed) {
    EXPECT_GE(outcome.error_line, 1u) << outcome.error;
    EXPECT_LE(outcome.error_line, line_count(text)) << outcome.error;
  } else {
    expect_whole_file_parity(text, outcome);
  }
  expect_chunk_parity(text, outcome, 1 + rng.below(4));
  expect_ingest_parity(text, outcome, width, rng);
}

TEST(StreamFuzz, OutcomesMatchWholeFileReadersAndPinnedDigest) {
  // Persists across --gtest_repeat repetitions: each continues the stream.
  // Gzip cases draw from their own stream, so the plain-text cases (and
  // the digest) are the same with and without zlib.
  static Rng rng(0xF0222);
  static Rng gzip_rng(0x6219);
  static std::size_t repetition = 0;
  OutcomeDigest digest;
  std::size_t parsed = 0;
  for (std::size_t c = 0; c < kCasesPerRepetition; ++c) {
    std::string text = generate(rng);
    const std::string valid = text;
    const bool mutated = rng.below(4) != 0;
    if (mutated) {
      const std::size_t mutations = 1 + rng.below(3);
      for (std::size_t m = 0; m < mutations; ++m) mutate(text, rng);
    }
    SCOPED_TRACE(testing::Message()
                 << "repetition " << repetition << " case " << c);
    const Outcome outcome = stream_outcome(text);
    if (!mutated) {
      ASSERT_TRUE(outcome.parsed) << outcome.error;
    }
    parsed += outcome.parsed ? 1 : 0;
    digest.add(c);
    add_to_digest(digest, outcome);
    // Narrow tiles on small inputs; large ones would make the database
    // the bottleneck.
    static constexpr std::size_t kWidths[] = {8, 16, 24, 64, 128};
    const std::size_t width =
        text.size() > kRefillBytes / 4 ? 128 : kWidths[rng.below(5)];
    check_case(text, outcome, width, rng);
#ifdef ASMCAP_HAVE_ZLIB
    if (c % 4 == 0) check_gzip_case(valid, stream_outcome(valid), gzip_rng, c);
#endif
  }
  // Both outcomes occur in bulk, or the mutators have stopped biting.
  EXPECT_GT(parsed, kCasesPerRepetition / 4);
  EXPECT_LT(parsed, kCasesPerRepetition * 15 / 16);
  if (repetition++ == 0) {
    EXPECT_EQ(digest.value(), kPinnedDigest)
        << std::hex << "outcome digest 0x" << digest.value();
  }
}

// A buffer refill inside every byte of a tricky stretch: the stretch
// starts at each offset before the 64 KiB boundary in turn, after a valid
// filler whose last line is padded to place it.
TEST(StreamFuzz, RefillBoundarySweepMatchesPinnedDigest) {
  struct Stretch {
    std::string head;  ///< Once, before the filler.
    std::string body;  ///< Repeated up to the boundary.
    std::string tail;  ///< Swept across the boundary.
  };
  const std::string fasta_line(69, 'C');
  const std::string fastq_record =
      "@f\n" + std::string(999, 'G') + "\n+\n" + std::string(999, 'I') + "\n";
  const Stretch stretches[] = {
      {">f\n", fasta_line + "\n",
       "AC GT \r\n \t>h two\r\n  gg\vN \r\n\r\n>\r\nAC"},
      {">f\n", fasta_line + "\n", "ACGTTGCA  \r\n  \r\n>last\n"},
      {"", fastq_record,
       "@r one\r\nAC GT\r\n+r\r\n!!!!!\r\n\r\n@s\nA\n+\nI"},
      {"", fastq_record, "@r\nACGT\nIIII\n+\nACGT\n"},
  };
  OutcomeDigest digest;
  Rng rng(0xB0DA);
  for (const Stretch& stretch : stretches) {
    for (std::size_t shift = 0; shift <= stretch.tail.size(); ++shift) {
      std::string text = stretch.head;
      while (text.size() + stretch.body.size() + shift <= kRefillBytes)
        text += stretch.body;
      // Trailing spaces on a quality line are trimmed; on a FASTA line
      // extra bases only lengthen the record.
      const char pad = stretch.head.empty() ? ' ' : 'T';
      text.insert(text.size() - 1, kRefillBytes - shift - text.size(), pad);
      text += stretch.tail;
      SCOPED_TRACE(testing::Message()
                   << "stretch " << stretch.tail << " shift " << shift);
      const Outcome outcome = stream_outcome(text);
      add_to_digest(digest, outcome);
      check_case(text, outcome, 128, rng);
    }
  }
  EXPECT_EQ(digest.value(), kPinnedSweepDigest)
      << std::hex << "outcome digest 0x" << digest.value();
}

}  // namespace
}  // namespace asmcap
