// asmcap_search — end-to-end CLI over the ingestion pipeline: stream a
// reference FASTA into the sharded live database, pump read chunks from
// FASTA/FASTQ through SearchService::submit under a bounded admission
// window, and stream one TSV/JSON line per read as it completes. Peak
// memory is O(chunk + in-flight), independent of input size.
//
// User guide: docs/cli.md (flags, output schema, exit codes). The
// deterministic output columns (read, status, matches, hits) are golden-
// file-gated by tools/check_e2e.sh; decisions are bit-identical to
// ShardedAccelerator::search_batch on the same records
// (tests/test_stream_reader.cpp ServiceIngestionBitIdentical).

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "align/kernels.h"
#include "asmcap/db_error.h"
#include "asmcap/ingest.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/stream_reader.h"

namespace {

using namespace asmcap;

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitDb = 4;

struct CliOptions {
  std::string reference;
  std::string reads;
  std::string output;  ///< Empty = stdout.
  std::size_t threshold = 12;
  StrategyMode mode = StrategyMode::Full;
  BackendKind backend = BackendKind::Functional;
  bool noisy = false;
  std::size_t shards = 4;
  std::size_t workers = 1;
  std::size_t array_rows = 256;
  std::size_t arrays = 512;
  std::size_t width = 256;
  std::size_t chunk = 1024;
  std::size_t max_in_flight = 0;
  ServiceClass service_class = ServiceClass::Normal;
  double deadline_seconds = 0.0;
  bool prune = false;
  std::string kernel;  ///< Empty = ASMCAP_KERNEL / CPU detection.
  bool json = false;
  std::uint64_t seed = 0xA5A5'5A5A'C0FF'EE00ULL;
  std::size_t max_hits = 8;
};

void print_usage(std::ostream& out) {
  out << "usage: asmcap_search --reference REF.fa[.gz] --reads READS.{fa,fq}[.gz] [options]\n"
         "\n"
         "Streams reads through the ASMCap search service against a reference\n"
         "FASTA, one TSV/JSON result line per read. Full guide: docs/cli.md.\n"
         "\n"
         "required:\n"
         "  --reference PATH   reference FASTA (gzip ok when built with zlib)\n"
         "  --reads PATH       reads, FASTA or FASTQ (auto-detected; gzip ok)\n"
         "options:\n"
         "  --threshold N      match threshold T in bases (default 12)\n"
         "  --mode M           full | baseline | hdac | tasr (default full)\n"
         "  --backend B        functional | circuit (default functional)\n"
         "  --noisy            sense the analog noise model; needs --backend circuit\n"
         "                     (default ideal sensing)\n"
         "  --shards N         database shard count (default 4)\n"
         "  --workers N        worker threads (0 = one per hardware thread; default 1)\n"
         "  --array-rows N     rows per CAM array (default 256)\n"
         "  --arrays N         arrays per shard (default 512)\n"
         "  --width N          segment/read width in bases (default 256)\n"
         "  --chunk N          reads per submitted chunk (default 1024)\n"
         "  --max-in-flight N  admission window in reads (0 = 2 x workers x 8; default 0)\n"
         "  --class C          interactive | normal | bulk (default normal)\n"
         "  --deadline S       per-chunk deadline in seconds (0 = none)\n"
         "  --prune            skip banks that provably cannot match a read\n"
         "  --kernel K         scalar | avx2 | neon (default: ASMCAP_KERNEL or CPU)\n"
         "  --format F         tsv | json (default tsv)\n"
         "  --output PATH      write results to PATH instead of stdout\n"
         "  --seed N           deterministic RNG seed, 0 to 2^64-1\n"
         "                     (default 11936045733246922240)\n"
         "  --max-hits N       matched-segment labels printed per read (default 8)\n"
         "  --help             this text\n"
         "exit codes: 0 ok, 1 runtime error, 2 usage, 3 input parse error,\n"
         "            4 database error (e.g. reference exceeds capacity)\n";
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "asmcap_search: " << message << "\n";
  std::cerr << "asmcap_search: try --help\n";
  std::exit(kExitUsage);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  try {
    // std::stoull skips leading whitespace and wraps a '-' around
    // (-1 -> 2^64 - 1), so a sign is refused before it parses.
    const std::size_t first = value.find_first_not_of(" \t\n\v\f\r");
    if (first != std::string::npos && value[first] == '-')
      throw std::invalid_argument("negative");
    return std::stoull(value);
  } catch (const std::exception&) {
    usage_error(flag + " expects a non-negative integer, got '" + value + "'");
  }
}

std::size_t parse_size(const std::string& flag, const std::string& value) {
  return static_cast<std::size_t>(parse_u64(flag, value));
}

double parse_seconds(const std::string& flag, const std::string& value) {
  try {
    const double parsed = std::stod(value);
    if (parsed < 0) throw std::invalid_argument("negative");
    return parsed;
  } catch (const std::exception&) {
    usage_error(flag + " expects a non-negative number, got '" + value + "'");
  }
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions options;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc)
      usage_error(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(kExitOk);
    } else if (arg == "--reference") {
      options.reference = need_value(i);
    } else if (arg == "--reads") {
      options.reads = need_value(i);
    } else if (arg == "--output") {
      options.output = need_value(i);
    } else if (arg == "--threshold") {
      options.threshold = parse_size(arg, need_value(i));
    } else if (arg == "--mode") {
      const std::string value = need_value(i);
      if (value == "full") options.mode = StrategyMode::Full;
      else if (value == "baseline") options.mode = StrategyMode::Baseline;
      else if (value == "hdac") options.mode = StrategyMode::HdacOnly;
      else if (value == "tasr") options.mode = StrategyMode::TasrOnly;
      else usage_error("--mode must be full|baseline|hdac|tasr, got '" + value + "'");
    } else if (arg == "--backend") {
      const std::string value = need_value(i);
      if (value == "functional") options.backend = BackendKind::Functional;
      else if (value == "circuit") options.backend = BackendKind::Circuit;
      else usage_error("--backend must be functional|circuit, got '" + value + "'");
    } else if (arg == "--noisy") {
      options.noisy = true;
    } else if (arg == "--shards") {
      options.shards = parse_size(arg, need_value(i));
      if (options.shards == 0) usage_error("--shards must be >= 1");
    } else if (arg == "--workers") {
      options.workers = parse_size(arg, need_value(i));
    } else if (arg == "--array-rows") {
      options.array_rows = parse_size(arg, need_value(i));
      if (options.array_rows == 0) usage_error("--array-rows must be >= 1");
    } else if (arg == "--arrays") {
      options.arrays = parse_size(arg, need_value(i));
      if (options.arrays == 0) usage_error("--arrays must be >= 1");
    } else if (arg == "--width") {
      options.width = parse_size(arg, need_value(i));
      if (options.width == 0) usage_error("--width must be >= 1");
    } else if (arg == "--chunk") {
      options.chunk = parse_size(arg, need_value(i));
      if (options.chunk == 0) usage_error("--chunk must be >= 1");
    } else if (arg == "--max-in-flight") {
      options.max_in_flight = parse_size(arg, need_value(i));
    } else if (arg == "--class") {
      const std::string value = need_value(i);
      if (value == "interactive") options.service_class = ServiceClass::Interactive;
      else if (value == "normal") options.service_class = ServiceClass::Normal;
      else if (value == "bulk") options.service_class = ServiceClass::Bulk;
      else usage_error("--class must be interactive|normal|bulk, got '" + value + "'");
    } else if (arg == "--deadline") {
      options.deadline_seconds = parse_seconds(arg, need_value(i));
    } else if (arg == "--prune") {
      options.prune = true;
    } else if (arg == "--kernel") {
      options.kernel = need_value(i);
    } else if (arg == "--format") {
      const std::string value = need_value(i);
      if (value == "tsv") options.json = false;
      else if (value == "json") options.json = true;
      else usage_error("--format must be tsv|json, got '" + value + "'");
    } else if (arg == "--seed") {
      options.seed = parse_u64(arg, need_value(i));
    } else if (arg == "--max-hits") {
      options.max_hits = parse_size(arg, need_value(i));
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  if (options.reference.empty()) usage_error("--reference is required");
  if (options.reads.empty()) usage_error("--reads is required");
  // Only the circuit backend senses noise: the functional backend would
  // silently run ideal sensing.
  if (options.noisy && options.backend != BackendKind::Circuit)
    usage_error("--noisy needs --backend circuit");
  return options;
}

/// Appends `text` to `out` with JSON string escapes.
void append_json_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Appends `value` exactly as `std::ostream << value` prints it at the
/// default precision (printf's %g, 6 significant digits).
void append_number(std::string& out, double value) {
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, value,
                    std::chars_format::general, 6).ptr;
  out.append(buf, end);
}

void append_number(std::string& out, std::size_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// One output row in chunk order; filled either immediately (skipped
/// reads) or by the in-order completion callback.
struct Row {
  std::string id;
  const char* status = "ok";
  bool ready = false;
  std::size_t matches = 0;
  /// Shown labels in the requested format, comma-joined: bare (TSV, plus
  /// ",..." when truncated) or quoted (JSON); empty when none.
  std::string hits;
  double latency = 0.0;
  double energy = 0.0;
};

struct RunTotals {
  std::size_t reads = 0;
  std::size_t done = 0;
  std::size_t skipped = 0;
  std::size_t aborted = 0;
  std::size_t matched = 0;  ///< Reads with >= 1 matched segment.
  double latency = 0.0;
  double energy = 0.0;
};

/// Writes `row` as one TSV or JSON line, formatted into `line` (a buffer
/// reused across rows).
void emit_row(std::ostream& out, bool json, const Row& row,
              std::string& line) {
  line.clear();
  if (json) {
    line += "{\"read\":\"";
    append_json_escaped(line, row.id);
    line += "\",\"status\":\"";
    line += row.status;
    line += "\",\"matches\":";
    append_number(line, row.matches);
    line += ",\"hits\":[";
    line += row.hits;
    line += "],\"latency_s\":";
    append_number(line, row.latency);
    line += ",\"energy_j\":";
    append_number(line, row.energy);
    line += "}\n";
  } else {
    line += row.id;
    line += '\t';
    line += row.status;
    line += '\t';
    append_number(line, row.matches);
    line += '\t';
    if (row.hits.empty())
      line += '-';
    else
      line += row.hits;
    line += '\t';
    append_number(line, row.latency);
    line += '\t';
    append_number(line, row.energy);
    line += '\n';
  }
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

void fill_row(Row& row, const QueryResult& result, const ReferenceIndex& index,
              std::size_t max_hits, bool json) {
  row.status = "ok";
  row.matches = result.matched_segments.size();
  row.latency = result.latency_seconds;
  row.energy = result.energy_joules;
  const std::size_t shown = std::min(max_hits, row.matches);
  for (std::size_t h = 0; h < shown; ++h) {
    if (h != 0) row.hits += ',';
    const std::string label = index.label(result.matched_segments[h]);
    if (json) {
      row.hits += '"';
      append_json_escaped(row.hits, label);
      row.hits += '"';
    } else {
      row.hits += label;
    }
  }
  if (!json && shown < row.matches) row.hits += ",...";
}

/// This process's peak resident set so far, in MiB: VmHWM from
/// /proc/self/status. Empty where that file cannot be read (non-Linux).
std::optional<double> peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return std::nullopt;
}

int run(const CliOptions& options) {
  // ------------------------------------------------------ configuration --
  AsmcapConfig config;
  config.array_rows = options.array_rows;
  config.array_cols = options.width;
  config.array_count = options.arrays;
  config.ideal_sensing = !options.noisy;
  config.pruning.enabled = options.prune;
  config.seed = options.seed;

  if (!options.kernel.empty())
    set_active_kernel_tier(
        resolve_kernel_tier(options.kernel.c_str(), detect_kernel_tier()));

  ShardedAccelerator db(config, options.shards);
  db.set_backend(options.backend);

  // ---------------------------------------------------------- reference --
  SeqStreamReader reference(options.reference);
  ReferenceIndex index;
  const IngestStats ingest = ingest_reference(db, reference, {}, &index);
  if (ingest.ambiguous_bases != 0)
    std::cerr << "asmcap_search: warning: reference has "
              << ingest.ambiguous_bases
              << " ambiguous bases (non-ACGT, e.g. 'N'), deterministically "
                 "resolved to 'A' (see docs/cli.md)\n";
  std::cerr << "asmcap_search: reference " << options.reference << ": "
            << ingest.records << " records, " << ingest.bases << " bases -> "
            << ingest.segments << " segments of width " << options.width
            << " (" << ingest.padded_segments << " padded) across "
            << options.shards << " shards\n";
  if (ingest.segments == 0) {
    std::cerr << "asmcap_search: reference yielded no segments\n";
    return kExitError;
  }

  // -------------------------------------------------------------- output --
  std::ofstream file_out;
  if (!options.output.empty()) {
    file_out.open(options.output);
    if (!file_out) {
      std::cerr << "asmcap_search: cannot write " << options.output << "\n";
      return kExitError;
    }
  }
  std::ostream& out = options.output.empty() ? std::cout : file_out;
  if (!options.json)
    out << "read\tstatus\tmatches\thits\tlatency_s\tenergy_j\n";

  // ---------------------------------------------------------- read pump --
  // One ticket per chunk; the next chunk is read from disk while the
  // current ticket executes, and in-order streaming callbacks emit rows
  // as reads merge, so peak memory is O(chunk + in-flight) regardless of
  // input size.
  SearchService service(db);
  SeqStreamReader reads(options.reads);
  RunTotals totals;
  bool width_warned = false;
  std::string line;  ///< Row formatting buffer, reused for every row.

  std::vector<SeqRecord> chunk = reads.read_chunk(options.chunk);
  while (!chunk.empty()) {
    std::vector<Row> rows(chunk.size());
    std::vector<Sequence> submit;
    std::vector<std::size_t> slot_of;  ///< submit index -> chunk slot.
    submit.reserve(chunk.size());
    slot_of.reserve(chunk.size());
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      rows[i].id = std::move(chunk[i].id);
      if (chunk[i].seq.size() != options.width) {
        rows[i].status = "skipped";
        rows[i].ready = true;
        ++totals.skipped;
        if (!width_warned) {
          std::cerr << "asmcap_search: warning: skipping read '"
                    << rows[i].id << "' with length "
                    << chunk[i].seq.size() << " != --width "
                    << options.width
                    << " (further skips counted silently)\n";
          width_warned = true;
        }
      } else {
        submit.push_back(std::move(chunk[i].seq));
        slot_of.push_back(i);
      }
    }
    totals.reads += chunk.size();

    std::mutex flush_mutex;
    std::size_t next_flush = 0;
    auto flush_ready = [&]() {
      while (next_flush < rows.size() && rows[next_flush].ready) {
        emit_row(out, options.json, rows[next_flush], line);
        ++next_flush;
      }
    };

    if (!submit.empty()) {
      ServiceOptions service_options;
      service_options.workers = options.workers;
      service_options.max_in_flight = options.max_in_flight;
      service_options.service_class = options.service_class;
      service_options.deadline_seconds = options.deadline_seconds;
      service_options.in_order = true;
      service_options.keep_results = false;
      service_options.on_complete = [&](std::size_t i,
                                        const QueryResult& result) {
        // in_order serialises delivery, but the lock also covers the
        // post-wait flush on the control thread.
        std::lock_guard<std::mutex> lock(flush_mutex);
        Row& row = rows[slot_of[i]];
        fill_row(row, result, index, options.max_hits, options.json);
        row.ready = true;
        if (!result.matched_segments.empty()) ++totals.matched;
        totals.latency += result.latency_seconds;
        totals.energy += result.energy_joules;
        ++totals.done;
        flush_ready();
      };

      auto ticket = service.submit(std::move(submit), options.threshold,
                                   options.mode, service_options);
      // Overlap the next chunk's disk read with this chunk's execution.
      std::vector<SeqRecord> next = reads.read_chunk(options.chunk);
      ticket->wait();
      {
        std::lock_guard<std::mutex> lock(flush_mutex);
        for (std::size_t i = 0; i < slot_of.size(); ++i) {
          Row& row = rows[slot_of[i]];
          if (row.ready) continue;
          switch (ticket->outcome(i)) {
            case ReadOutcome::Expired: row.status = "expired"; break;
            case ReadOutcome::Cancelled: row.status = "cancelled"; break;
            default: row.status = "failed"; break;
          }
          row.ready = true;
          ++totals.aborted;
        }
        flush_ready();
      }
      chunk = std::move(next);
    } else {
      flush_ready();
      chunk = reads.read_chunk(options.chunk);
    }
  }

  if (reads.ambiguous_bases() != 0)
    std::cerr << "asmcap_search: warning: reads have "
              << reads.ambiguous_bases()
              << " ambiguous bases, deterministically resolved to 'A'\n";
  std::cerr << "asmcap_search: " << totals.reads << " reads ("
            << to_string(reads.format()) << "): " << totals.done << " done ("
            << totals.matched << " matched), " << totals.skipped
            << " skipped, " << totals.aborted << " aborted; model latency "
            << totals.latency << " s, energy " << totals.energy << " J";
  if (const std::optional<double> peak = peak_rss_mib()) {
    char text[32];
    std::snprintf(text, sizeof text, "%.1f", *peak);
    std::cerr << "; peak RSS " << text << " MiB";
  }
  std::cerr << "\n";
  out.flush();
  if (!out) {
    std::cerr << "asmcap_search: write failure\n";
    return kExitError;
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse_args(argc, argv);
  try {
    return run(options);
  } catch (const StreamParseError& e) {
    std::cerr << "asmcap_search: " << e.what() << "\n";
    return kExitParse;
  } catch (const DbError& e) {
    std::cerr << "asmcap_search: database error: " << e.what() << "\n";
    return kExitDb;
  } catch (const std::exception& e) {
    std::cerr << "asmcap_search: " << e.what() << "\n";
    return kExitError;
  }
}
