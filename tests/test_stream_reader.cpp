// Streaming FASTA/FASTQ reader (genome/stream_reader.h) and the ingestion
// pipeline built on it (asmcap/ingest.h): parity with the whole-file
// readers, chunked reassembly identity, malformed-input line numbers,
// truncated gzip input, the tile pull and its bounded memory on a giant
// record, and the CLI-path bit-identity gate — streamed ingest + service
// pump decides exactly like load_reference + search_batch.

#include "genome/stream_reader.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#ifdef ASMCAP_HAVE_ZLIB
#include <zlib.h>
#endif

#include "asmcap/ingest.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/fasta.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/rng.h"

// A counting global operator new for the bounded-memory test: live and
// peak bytes of every heap allocation in this binary.
namespace {
namespace heap {
std::atomic<std::size_t> live{0};
std::atomic<std::size_t> peak{0};

void* allocate(std::size_t n) {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t size = malloc_usable_size(p);
  const std::size_t now = live.fetch_add(size) + size;
  std::size_t seen = peak.load();
  while (now > seen && !peak.compare_exchange_weak(seen, now)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  live.fetch_sub(malloc_usable_size(p));
  std::free(p);
}
}  // namespace heap
}  // namespace

void* operator new(std::size_t n) { return heap::allocate(n); }
void* operator new[](std::size_t n) { return heap::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return heap::allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { heap::release(p); }
void operator delete[](void* p) noexcept { heap::release(p); }
void operator delete(void* p, std::size_t) noexcept { heap::release(p); }
void operator delete[](void* p, std::size_t) noexcept { heap::release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  heap::release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  heap::release(p);
}

namespace asmcap {
namespace {

std::vector<SeqRecord> stream_all(const std::string& text) {
  std::istringstream in(text);
  SeqStreamReader reader(in);
  std::vector<SeqRecord> records;
  SeqRecord record;
  while (reader.next(record)) records.push_back(record);
  return records;
}

/// Deterministic multi-record FASTA content with injected 'N's.
std::vector<FastaRecord> sample_fasta_records() {
  Rng rng(0x5EED);
  std::vector<FastaRecord> records(3);
  records[0].id = "chr1";
  records[0].comment = "first synthetic record";
  records[0].seq = generate_reference(301, {}, rng);  // Wraps unevenly.
  records[1].id = "chr2";
  records[1].seq = generate_reference(64, {}, rng);
  records[2].id = "chr3";
  records[2].comment = "tail";
  records[2].seq = generate_reference(17, {}, rng);
  return records;
}

TEST(StreamReader, FastaParityWithWholeFileReader) {
  const auto records = sample_fasta_records();
  std::ostringstream image;
  write_fasta(image, records, 60);
  // Inject ambiguity: replace a base with 'N' in the serialised form so
  // both readers see the same bytes.
  std::string text = image.str();
  const std::size_t base_pos = text.find('\n') + 3;
  text[base_pos] = 'N';

  std::istringstream whole_in(text);
  std::size_t whole_ambiguous = 0;
  const auto whole = read_fasta(whole_in, &whole_ambiguous);

  std::istringstream stream_in(text);
  SeqStreamReader reader(stream_in, "parity.fa");
  std::vector<SeqRecord> streamed;
  SeqRecord record;
  while (reader.next(record)) streamed.push_back(record);

  EXPECT_EQ(reader.format(), SeqFormat::Fasta);
  ASSERT_EQ(streamed.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(streamed[i].id, whole[i].id);
    EXPECT_EQ(streamed[i].comment, whole[i].comment);
    EXPECT_EQ(streamed[i].seq.to_string(), whole[i].seq.to_string());
    EXPECT_TRUE(streamed[i].quality.empty());
  }
  EXPECT_EQ(reader.ambiguous_bases(), whole_ambiguous);
  EXPECT_EQ(reader.records(), whole.size());
}

TEST(StreamReader, FastqParityWithWholeFileReader) {
  Rng rng(0xFA57);
  std::vector<FastqRecord> records(4);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].id = "read" + std::to_string(i);
    records[i].seq = Sequence::random(48, rng);
    records[i].quality = std::string(48, static_cast<char>('!' + i));
  }
  std::ostringstream image;
  write_fastq(image, records);
  std::string text = image.str();
  // An 'N' in a sequence line: both readers resolve it to 'A'.
  const std::size_t seq_pos = text.find('\n') + 5;
  text[seq_pos] = 'N';

  std::istringstream whole_in(text);
  const auto whole = read_fastq(whole_in);

  std::istringstream stream_in(text);
  SeqStreamReader reader(stream_in, "parity.fq");
  std::vector<SeqRecord> streamed;
  SeqRecord record;
  while (reader.next(record)) streamed.push_back(record);

  EXPECT_EQ(reader.format(), SeqFormat::Fastq);
  ASSERT_EQ(streamed.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(streamed[i].id, whole[i].id);
    EXPECT_EQ(streamed[i].seq.to_string(), whole[i].seq.to_string());
    EXPECT_EQ(streamed[i].quality, whole[i].quality);
  }
  EXPECT_EQ(reader.ambiguous_bases(), 1u);
}

TEST(StreamReader, ChunkedReassemblyIsIdentical) {
  const auto records = sample_fasta_records();
  std::ostringstream image;
  write_fasta(image, records, 13);  // Awkward wrap width.
  const std::string text = image.str();

  const std::vector<SeqRecord> whole = stream_all(text);
  for (const std::size_t chunk : {1u, 2u, 7u, 100u}) {
    std::istringstream in(text);
    SeqStreamReader reader(in);
    std::vector<SeqRecord> reassembled;
    for (;;) {
      std::vector<SeqRecord> block = reader.read_chunk(chunk);
      if (block.empty()) break;
      for (SeqRecord& record : block)
        reassembled.push_back(std::move(record));
    }
    ASSERT_EQ(reassembled.size(), whole.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(reassembled[i].id, whole[i].id);
      EXPECT_EQ(reassembled[i].seq.to_string(), whole[i].seq.to_string());
    }
  }
}

TEST(StreamReader, ToleratesCrlfAndBlankLines) {
  const std::string text =
      ">a first\r\nACGT\r\nAC\r\n\r\n>b\r\n\r\nGGTT\r\n";
  const auto records = stream_all(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, "a");
  EXPECT_EQ(records[0].comment, "first");
  EXPECT_EQ(records[0].seq.to_string(), "ACGTAC");
  EXPECT_EQ(records[1].id, "b");
  EXPECT_EQ(records[1].seq.to_string(), "GGTT");

  const std::string fastq = "@r1 x\r\nACGT\r\n+\r\nIIII\r\n";
  const auto reads = stream_all(fastq);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].id, "r1");
  EXPECT_EQ(reads[0].comment, "x");
  EXPECT_EQ(reads[0].seq.to_string(), "ACGT");
  EXPECT_EQ(reads[0].quality, "IIII");
}

TEST(StreamReader, EmptyRecordYieldsEmptySequence) {
  const auto records = stream_all(">a\n>b\nACGT\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, "a");
  EXPECT_TRUE(records[0].seq.empty());
  EXPECT_EQ(records[1].seq.to_string(), "ACGT");
}

TEST(StreamReader, UnknownLeadingByteFailsWithLineNumber) {
  std::istringstream in("\n\nACGT\n");
  SeqStreamReader reader(in, "bad.txt");
  SeqRecord record;
  try {
    reader.next(record);
    FAIL() << "expected StreamParseError";
  } catch (const StreamParseError& e) {
    EXPECT_EQ(e.line(), 3u);  // First non-blank line.
    EXPECT_NE(std::string(e.what()).find("bad.txt:3"), std::string::npos);
  }
}

TEST(StreamReader, TruncatedFastqFailsWithLineNumber) {
  std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n");
  SeqStreamReader reader(in, "trunc.fq");
  SeqRecord record;
  ASSERT_TRUE(reader.next(record));
  try {
    reader.next(record);
    FAIL() << "expected StreamParseError";
  } catch (const StreamParseError& e) {
    EXPECT_EQ(e.line(), 6u);  // Input ended at line 6.
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos);
  }
}

TEST(StreamReader, FastqSeparatorAndQualityErrors) {
  {
    std::istringstream in("@r1\nACGT\nIIII\nACGT\n");
    SeqStreamReader reader(in);
    SeqRecord record;
    EXPECT_THROW(reader.next(record), StreamParseError);
  }
  {
    std::istringstream in("@r1\nACGT\n+\nIII\n");
    SeqStreamReader reader(in);
    SeqRecord record;
    try {
      reader.next(record);
      FAIL() << "expected StreamParseError";
    } catch (const StreamParseError& e) {
      EXPECT_EQ(e.line(), 4u);
      EXPECT_NE(std::string(e.what()).find("quality length"),
                std::string::npos);
    }
  }
}

TEST(StreamReader, FastaSequenceBeforeHeaderMatchesWholeFileError) {
  // The whole-file reader throws "FASTA: sequence data before any header"
  // only when the format is already known to be FASTA; the streaming
  // reader's format detection rejects the same input up front.
  std::istringstream in("ACGT\n>late\nAC\n");
  SeqStreamReader reader(in);
  SeqRecord record;
  EXPECT_THROW(reader.next(record), StreamParseError);
}

TEST(StreamReader, CountsLinesAcrossBufferRefills) {
  // A record body far larger than one 64 KiB buffer refill: line
  // accounting and content must both survive the boundary.
  Rng rng(0xB16);
  const Sequence big = generate_reference(200'000, {}, rng);
  std::vector<FastaRecord> records(1);
  records[0].id = "big";
  records[0].seq = big;
  std::ostringstream image;
  write_fasta(image, records, 80);
  const auto streamed = stream_all(image.str());
  ASSERT_EQ(streamed.size(), 1u);
  EXPECT_EQ(streamed[0].seq.to_string(), big.to_string());
}

TEST(StreamReader, RejectsMissingFile) {
  EXPECT_THROW(SeqStreamReader("/nonexistent/no-such-file.fa"),
               std::runtime_error);
}

TEST(StreamReader, ReadsPlainFileByPath) {
  const std::string path = testing::TempDir() + "stream_reader_plain.fa";
  {
    std::ofstream out(path);
    out << ">p one\nACGT\nGG\n";
  }
  SeqStreamReader reader(path);
  SeqRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.id, "p");
  EXPECT_EQ(record.seq.to_string(), "ACGTGG");
  EXPECT_FALSE(reader.next(record));
  std::remove(path.c_str());
}

#ifdef ASMCAP_HAVE_ZLIB
TEST(StreamReader, GzipRoundTripByMagicDetection) {
  const auto records = sample_fasta_records();
  std::ostringstream image;
  write_fasta(image, records, 42);
  const std::string text = image.str();

  const std::string path = testing::TempDir() + "stream_reader_test.fa.gz";
  gzFile gz = gzopen(path.c_str(), "wb");
  ASSERT_NE(gz, nullptr);
  ASSERT_EQ(gzwrite(gz, text.data(), static_cast<unsigned>(text.size())),
            static_cast<int>(text.size()));
  gzclose(gz);

  SeqStreamReader reader(path);  // gzip auto-detected from magic bytes.
  std::vector<SeqRecord> streamed;
  SeqRecord record;
  while (reader.next(record)) streamed.push_back(record);
  ASSERT_EQ(streamed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(streamed[i].id, records[i].id);
    EXPECT_EQ(streamed[i].seq.to_string(), records[i].seq.to_string());
  }
  std::remove(path.c_str());
}

// A gzip file cut short must fail loudly, naming the file, whether the cut
// lands mid-stream or only drops the 8-byte trailer (CRC and length).
void expect_truncated_gzip_fails(const std::string& text,
                                 const std::string& name) {
  const std::string path = testing::TempDir() + name;
  gzFile gz = gzopen(path.c_str(), "wb");
  ASSERT_NE(gz, nullptr);
  ASSERT_EQ(gzwrite(gz, text.data(), static_cast<unsigned>(text.size())),
            static_cast<int>(text.size()));
  gzclose(gz);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 20u);
  for (const std::size_t cut : {bytes.size() / 2, bytes.size() - 4,
                                bytes.size() - 8}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    SeqStreamReader reader(path);
    SeqRecord record;
    try {
      while (reader.next(record)) {
      }
      ADD_FAILURE() << name << " cut to " << cut << " of " << bytes.size()
                    << " bytes parsed as " << reader.records()
                    << " records without error";
    } catch (const StreamParseError& e) {
      ADD_FAILURE() << name << " cut to " << cut
                    << " bytes raised a parse error: " << e.what();
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("truncated gzip"), std::string::npos) << what;
      EXPECT_NE(what.find(path), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(StreamReader, TruncatedGzipFastaFails) {
  Rng rng(0x7C0);
  std::vector<FastaRecord> records(2);
  records[0].id = "chr1";
  records[0].seq = generate_reference(60'000, {}, rng);
  records[1].id = "chr2";
  records[1].seq = generate_reference(40'000, {}, rng);
  std::ostringstream image;
  write_fasta(image, records, 70);
  expect_truncated_gzip_fails(image.str(), "stream_reader_cut.fa.gz");
}

TEST(StreamReader, TruncatedGzipFastqFails) {
  Rng rng(0x7C1);
  std::vector<FastqRecord> records(400);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].id = "read" + std::to_string(i);
    records[i].seq = Sequence::random(150, rng);
  }
  std::ostringstream image;
  write_fastq(image, records);
  expect_truncated_gzip_fails(image.str(), "stream_reader_cut.fq.gz");
}
#endif

// ------------------------------------------------------------- tile pull --

TEST(StreamReader, TilePullSplitsRecordsAtAnyWidth) {
  const std::string text = ">a one\nACGTN\nacg\n\n>b\n>c\r\nTT  GG\r\n";
  std::istringstream in(text);
  SeqStreamReader reader(in, "pull.fa");
  SeqRecord header;
  Sequence tile;

  ASSERT_TRUE(reader.next_header(header));
  EXPECT_EQ(header.id, "a");
  EXPECT_EQ(header.comment, "one");
  EXPECT_EQ(reader.read_bases(tile, 3), 3u);
  EXPECT_EQ(tile.to_string(), "ACG");
  EXPECT_EQ(reader.read_bases(tile, 3), 3u);  // Appends: 'N' -> 'A'.
  EXPECT_EQ(tile.to_string(), "ACGTAA");
  tile.clear();
  EXPECT_EQ(reader.read_bases(tile, 3), 2u);  // The record ends.
  EXPECT_EQ(tile.to_string(), "CG");
  EXPECT_EQ(reader.read_bases(tile, 3), 0u);  // No record open.
  EXPECT_EQ(reader.records(), 1u);

  ASSERT_TRUE(reader.next_header(header));
  EXPECT_EQ(header.id, "b");
  tile.clear();
  EXPECT_EQ(reader.read_bases(tile, 8), 0u);  // Empty record.

  // An unread record is skipped by the next next_header()/next().
  ASSERT_TRUE(reader.next_header(header));
  EXPECT_EQ(header.id, "c");
  EXPECT_FALSE(reader.next_header(header));
  EXPECT_EQ(reader.records(), 3u);
  EXPECT_EQ(reader.bases(), 14u);  // Interior spaces count as bases.
  EXPECT_EQ(reader.ambiguous_bases(), 3u);
}

TEST(StreamReader, TilePullChecksFastqQualityAtRecordEnd) {
  std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nIII\n");
  SeqStreamReader reader(in, "pull.fq");
  SeqRecord header;
  Sequence tile;
  ASSERT_TRUE(reader.next_header(header));
  EXPECT_EQ(reader.read_bases(tile, 4), 4u);
  EXPECT_EQ(reader.read_bases(tile, 4), 0u);
  ASSERT_TRUE(reader.next_header(header));
  EXPECT_EQ(header.id, "r2");
  tile.clear();
  try {
    reader.read_bases(tile, 8);
    FAIL() << "expected StreamParseError";
  } catch (const StreamParseError& e) {
    EXPECT_EQ(e.line(), 8u);
    EXPECT_NE(std::string(e.what()).find("quality length"),
              std::string::npos);
  }
}

/// A single-record FASTA of `bases` bases generated on demand, with no
/// file and no whole-record string: a 4 KiB pseudo-random block (one 'N'
/// in it) repeats, wrapped every `wrap` bases (0: one line).
class GiantFastaBuf : public std::streambuf {
 public:
  static constexpr std::size_t kBlock = 4096;

  GiantFastaBuf(std::size_t bases, std::size_t wrap)
      : bases_(bases), wrap_(wrap), chunk_(std::size_t{64} << 10) {
    Rng rng(0x61A7);
    block_.resize(kBlock);
    for (char& c : block_) c = "ACGT"[rng.below(4)];
    block_[kBlock / 3] = 'N';
  }

  /// The base at `pos` as text.
  char base_at(std::size_t pos) const { return block_[pos % kBlock]; }

 protected:
  int_type underflow() override {
    std::size_t n = 0;
    const auto put = [&](const char* text, std::size_t len) {
      std::memcpy(chunk_.data() + n, text, len);
      n += len;
    };
    if (!header_done_) {
      put(">giant one record\n", 18);
      header_done_ = true;
    }
    while (chunk_.size() - n > 1 && emitted_ < bases_) {
      if (wrap_ != 0 && column_ == wrap_) {
        put("\n", 1);
        column_ = 0;
        continue;
      }
      std::size_t len = std::min({chunk_.size() - n, bases_ - emitted_,
                                  kBlock - emitted_ % kBlock});
      if (wrap_ != 0) len = std::min(len, wrap_ - column_);
      put(block_.data() + emitted_ % kBlock, len);
      emitted_ += len;
      column_ += len;
    }
    if (emitted_ == bases_ && !footer_done_ && n < chunk_.size()) {
      put("\n", 1);
      footer_done_ = true;
    }
    if (n == 0) return traits_type::eof();
    setg(chunk_.data(), chunk_.data(), chunk_.data() + n);
    return traits_type::to_int_type(chunk_[0]);
  }

 private:
  std::size_t bases_;
  std::size_t wrap_;
  std::vector<char> chunk_;
  std::string block_;
  std::size_t emitted_ = 0;
  std::size_t column_ = 0;
  bool header_done_ = false;
  bool footer_done_ = false;
};

// The tile pull holds O(buffer + tile) whatever the record length: a
// 64 Mbp record, wrapped or as one line, streams in well under 4 MiB of
// heap growth (the line-copying reader held the whole line as a 64 MB
// string and the record as a 16 MiB Sequence).
TEST(StreamReader, GiantRecordStreamsInBoundedMemory) {
  constexpr std::size_t kBases = std::size_t{64} << 20;
  constexpr std::size_t kWidth = 128;
  for (const std::size_t wrap : {std::size_t{70}, std::size_t{0}}) {
    SCOPED_TRACE("wrap " + std::to_string(wrap));
    GiantFastaBuf source(kBases, wrap);
    std::istream in(&source);
    const std::size_t baseline = heap::live.load();
    heap::peak.store(baseline);

    SeqStreamReader reader(in, "giant.fa");
    SeqRecord header;
    ASSERT_TRUE(reader.next_header(header));
    EXPECT_EQ(header.id, "giant");
    Sequence tile;
    tile.reserve(kWidth);
    std::size_t tiles = 0;
    std::size_t got = 0;
    do {
      tile.clear();
      got = reader.read_bases(tile, kWidth);
      // Spot-check tiles spread over the record, and the last one.
      if (tiles % 4099 == 0 || got < kWidth) {
        std::string want(got, 'A');
        for (std::size_t i = 0; i < got; ++i)
          want[i] = source.base_at(tiles * kWidth + i);
        Sequence expected;
        expected.append_text(want);
        EXPECT_EQ(tile, expected) << "tile " << tiles;
      }
      tiles += got == kWidth ? 1 : 0;
    } while (got == kWidth);
    EXPECT_FALSE(reader.next_header(header));

    EXPECT_EQ(tiles, kBases / kWidth);
    EXPECT_EQ(reader.bases(), kBases);
    EXPECT_EQ(reader.ambiguous_bases(), kBases / GiantFastaBuf::kBlock);
    const std::size_t growth = heap::peak.load() - baseline;
    EXPECT_LT(growth, std::size_t{4} << 20) << growth << " bytes";
  }
}

// ---------------------------------------------------------------- ingest --

TEST(Ingest, TilesRecordsAndIndexesOrigins) {
  AsmcapConfig config;
  config.array_rows = 8;
  config.array_cols = 16;
  config.array_count = 4;
  config.ideal_sensing = true;
  ShardedAccelerator db(config, 2);

  // chrA: 2 full tiles + 5-base tail (padded); chrB: exactly 1 tile.
  Rng rng(0x716E);
  std::vector<FastaRecord> records(2);
  records[0].id = "chrA";
  records[0].seq = generate_reference(37, {}, rng);
  records[1].id = "chrB";
  records[1].seq = generate_reference(16, {}, rng);
  std::ostringstream image;
  write_fasta(image, records, 70);

  std::istringstream in(image.str());
  SeqStreamReader reader(in, "index.fa");
  ReferenceIndex index;
  IngestOptions options;
  options.append_batch = 2;  // Force multiple append calls.
  const IngestStats stats = ingest_reference(db, reader, options, &index);

  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.segments, 4u);
  EXPECT_EQ(stats.padded_segments, 1u);
  EXPECT_EQ(stats.bases, 53u);
  EXPECT_EQ(db.live_segment_count(), 4u);
  // Ingest ends by folding the hot staging bank into cold storage, so
  // nothing is left staged and compact() publishes no new epoch.
  const std::uint64_t ingested_epoch = db.epoch();
  EXPECT_EQ(db.compact(), ingested_epoch);

  ASSERT_EQ(index.size(), 4u);
  const std::uint64_t first = index.first_id();
  EXPECT_EQ(index.label(first), "chrA:0");
  EXPECT_EQ(index.label(first + 1), "chrA:16");
  EXPECT_EQ(index.label(first + 2), "chrA:32");  // The padded tail tile.
  EXPECT_EQ(index.label(first + 3), "chrB:0");
  EXPECT_EQ(index.origin(first + 3).record, 1u);
  EXPECT_EQ(index.origin(first + 3).offset, 0u);
  EXPECT_FALSE(index.contains(first + 4));
  EXPECT_EQ(index.label(first + 4), "segment:" + std::to_string(first + 4));
  EXPECT_THROW(index.origin(first + 4), std::out_of_range);

  // Padded tail content: original bases then 'A' padding.
  const auto live = db.live_segments();
  ASSERT_EQ(live.size(), 4u);
  const std::string tail = live[2].second.to_string();
  EXPECT_EQ(tail.substr(0, 5), records[0].seq.to_string().substr(32));
  EXPECT_EQ(tail.substr(5), std::string(11, 'A'));
}

TEST(Ingest, DropTailPolicyCounts) {
  AsmcapConfig config;
  config.array_rows = 8;
  config.array_cols = 16;
  config.array_count = 4;
  ShardedAccelerator db(config, 1);

  std::istringstream in(">only\nACGTACGTACGTACGTACG\n");  // 16 + 3 bases.
  SeqStreamReader reader(in);
  IngestOptions options;
  options.pad_final_tile = false;
  const IngestStats stats = ingest_reference(db, reader, options, nullptr);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.padded_segments, 0u);
  EXPECT_EQ(stats.dropped_tail_bases, 3u);
}

// The acceptance gate: a database built by streamed ingestion decides
// bit-identically to load_reference of the same tiles, and the CLI-style
// service pump (chunked submits, in-order streaming callbacks) delivers
// decisions bit-identical to search_batch.
TEST(Ingest, ServiceIngestionBitIdentical) {
  const std::size_t width = 64;
  const std::size_t tiles = 24;
  const std::size_t n_reads = 20;
  const std::size_t threshold = 6;

  AsmcapConfig config;
  config.array_rows = 8;
  config.array_cols = width;
  config.array_count = 4;
  config.ideal_sensing = true;
  const std::size_t shards = 2;

  Rng rng(0xB17);
  Sequence reference = generate_reference(width * tiles, {}, rng);
  const std::vector<Sequence> tile_seqs = segment_reference(reference, width);
  ASSERT_EQ(tile_seqs.size(), tiles);

  ReadSimConfig sim_config;
  sim_config.read_length = width;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator simulator(reference, sim_config);
  std::vector<Sequence> reads;
  for (std::size_t i = 0; i < n_reads; ++i)
    reads.push_back(
        simulator.simulate_at(rng.below(tiles - 1) * width, rng).read);

  // Reference arm: in-memory tiles, synchronous batch.
  ShardedAccelerator frozen(config, shards);
  frozen.load_reference(tile_seqs);
  const std::vector<QueryResult> expected =
      frozen.search_batch(reads, threshold, StrategyMode::Full, 2);

  // CLI arm: serialise to FASTA bytes, stream-ingest, chunked service
  // pump with in-order callbacks and released results.
  std::vector<FastaRecord> fasta(1);
  fasta[0].id = "ref";
  fasta[0].seq = reference;
  std::ostringstream image;
  write_fasta(image, fasta, 61);
  std::istringstream fasta_in(image.str());
  SeqStreamReader reader(fasta_in, "ref.fa");

  ShardedAccelerator grown(config, shards);
  ReferenceIndex index;
  const IngestStats stats = ingest_reference(grown, reader, {}, &index);
  ASSERT_EQ(stats.segments, tiles);
  ASSERT_EQ(stats.padded_segments, 0u);

  SearchService service(grown);
  std::vector<std::vector<bool>> decisions(n_reads);
  std::size_t delivered = 0;
  const std::size_t chunk = 7;  // Deliberately not a divisor of n_reads.
  for (std::size_t start = 0; start < n_reads; start += chunk) {
    const std::size_t end = std::min(start + chunk, n_reads);
    ServiceOptions options;
    options.workers = 2;
    options.max_in_flight = 3;
    options.in_order = true;
    options.keep_results = false;
    options.on_complete = [&, start](std::size_t i,
                                     const QueryResult& result) {
      decisions[start + i] = result.decisions;
      ++delivered;
    };
    auto ticket = service.submit(
        std::vector<Sequence>(reads.begin() + start, reads.begin() + end),
        threshold, StrategyMode::Full, options);
    ticket->wait();
  }

  EXPECT_EQ(delivered, n_reads);
  for (std::size_t i = 0; i < n_reads; ++i) {
    EXPECT_EQ(decisions[i], expected[i].decisions) << "read " << i;
    // Matched ids resolve through the index to the ingested record.
    for (std::size_t id = 0; id < decisions[i].size(); ++id) {
      if (decisions[i][id]) {
        EXPECT_EQ(index.label(id).rfind("ref:", 0), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace asmcap
