// bench_layers — the in-process side of the end-to-end benchmark
// (bench/e2e/run_benchmark.py). It takes asmcap_search's workload flags and
// files and runs the pipeline the CLI runs: ingest_reference into the
// sharded live database, then the chunked SearchService pump with in-order
// callbacks that format the CLI's read/status/matches/hits rows. The
// harness checks the CLI's rows against these for every seed it runs.
//
// With --trace PATH it also times every layer from outside, around the
// calls into its public functions, and replays the write path, planner,
// sketch probe and bank execute on the same inputs. Spans (name, start,
// end, parent, request id = ticket index) stay in memory and are written
// to PATH as Chrome trace-event JSON at exit; the per-layer metrics are
// the last stdout line, one JSON object.
//
//   bench_layers --reference REF.fa --reads READS.fq --rows ROWS.tsv
//                [--trace TRACE.json] [asmcap_search workload flags]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "align/kernels.h"
#include "asmcap/ingest.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "asmcap/sketch.h"
#include "genome/stream_reader.h"
#include "util/rng.h"

namespace {

using namespace asmcap;
using Clock = std::chrono::steady_clock;

/// Every 16th submitted read is replayed through the planner, the sketch
/// and a serial execute: enough samples for stable means, cheap enough to
/// keep a traced run within a few seconds.
constexpr std::size_t kSampleEvery = 16;

/// asmcap_search's --array-rows and --seed defaults; no workload sets them.
constexpr std::size_t kArrayRows = 256;
constexpr std::uint64_t kSeed = 0xA5A5'5A5A'C0FF'EE00ULL;

struct Options {
  std::string reference;
  std::string reads;
  std::string rows;
  std::string trace;  ///< Empty: rows only, no spans and no replays.
  // asmcap_search's defaults, so an omitted flag means the same thing.
  std::size_t threshold = 12;
  BackendKind backend = BackendKind::Functional;
  bool noisy = false;
  std::size_t shards = 4;
  std::size_t workers = 1;
  std::size_t arrays = 512;
  std::size_t width = 256;
  std::size_t chunk = 1024;
  bool prune = false;
  std::size_t max_hits = 8;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_layers: " << message << "\n"
            << "usage: bench_layers --reference REF.fa --reads READS.fq "
               "--rows ROWS.tsv [--trace TRACE.json] [asmcap_search flags]\n";
  std::exit(2);
}

std::size_t parse_size(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(value, &used);
    if (used != value.size() || value.front() == '-')
      throw std::invalid_argument("trailing characters");
    return static_cast<std::size_t>(parsed);
  } catch (const std::exception&) {
    usage_error(flag + " expects a non-negative integer, got '" + value + "'");
  }
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--reference") options.reference = value();
    else if (arg == "--reads") options.reads = value();
    else if (arg == "--rows") options.rows = value();
    else if (arg == "--trace") options.trace = value();
    else if (arg == "--threshold") options.threshold = parse_size(arg, value());
    else if (arg == "--noisy") options.noisy = true;
    else if (arg == "--shards") options.shards = parse_size(arg, value());
    else if (arg == "--workers") options.workers = parse_size(arg, value());
    else if (arg == "--arrays") options.arrays = parse_size(arg, value());
    else if (arg == "--width") options.width = parse_size(arg, value());
    else if (arg == "--chunk") options.chunk = parse_size(arg, value());
    else if (arg == "--prune") options.prune = true;
    else if (arg == "--max-hits") options.max_hits = parse_size(arg, value());
    else if (arg == "--backend") {
      const std::string kind = value();
      if (kind == "functional") options.backend = BackendKind::Functional;
      else if (kind == "circuit") options.backend = BackendKind::Circuit;
      else usage_error("--backend must be functional|circuit");
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  if (options.reference.empty() || options.reads.empty() ||
      options.rows.empty())
    usage_error("--reference, --reads and --rows are required");
  if (options.shards == 0 || options.arrays == 0 || options.width == 0 ||
      options.chunk == 0)
    usage_error("--shards, --arrays, --width and --chunk must be >= 1");
  return options;
}

/// In-memory span recorder. The control thread opens and closes layer
/// spans; the in-order callback opens and closes one emit span per read,
/// on a service worker (or inline on the control thread with one worker).
/// One mutex serialises both, and its cost is part of the tracing overhead
/// the harness reports. Disabled, every call is a no-op.
class Tracer {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  std::size_t open(const char* name, std::size_t parent,
                   std::uint64_t request = 0) {
    if (!enabled_) return kNone;
    const double now = micros();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, now, now, parent, request, thread_slot()});
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    if (id == kNone) return;
    const double now = micros();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end_us = now;
  }

  /// Duration of one closed span, in seconds (0 with tracing off).
  double seconds(std::size_t id) const {
    if (id == kNone) return 0.0;
    std::lock_guard<std::mutex> lock(mutex_);
    return (spans_.at(id).end_us - spans_.at(id).start_us) * 1e-6;
  }

  /// Summed and longest duration of every span called `name`, in seconds.
  std::pair<double, double> total_and_max(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    double longest = 0.0;
    for (const Span& span : spans_) {
      if (name != span.name) continue;
      const double length = (span.end_us - span.start_us) * 1e-6;
      total += length;
      longest = std::max(longest, length);
    }
    return {total, longest};
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << std::fixed << std::setprecision(3)
        << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t id = 0; id < spans_.size(); ++id) {
      const Span& span = spans_[id];
      const long long parent =
          span.parent == kNone ? -1 : static_cast<long long>(span.parent);
      out << (id == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << span.thread << ",\"ts\":" << span.start_us
          << ",\"dur\":" << span.end_us - span.start_us
          << ",\"args\":{\"id\":" << id << ",\"parent\":" << parent
          << ",\"request\":" << span.request << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("write failure on trace " + path);
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::size_t parent;
    std::uint64_t request;
    std::size_t thread;
  };

  double micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Small dense thread number for the trace viewer's rows (mutex held).
  std::size_t thread_slot() {
    const auto [it, inserted] =
        threads_.emplace(std::this_thread::get_id(), threads_.size());
    (void)inserted;
    return it->second;
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::size_t> threads_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::size_t parent,
        std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::size_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

/// Runs fn(span id) inside a span and returns the span's duration in
/// seconds (0 with tracing off).
template <typename Fn>
double timed(Tracer& tracer, const char* name, std::size_t parent, Fn&& fn) {
  std::size_t id = Tracer::kNone;
  {
    const Scope span(tracer, name, parent);
    id = span.id();
    fn(id);
  }
  return tracer.seconds(id);
}

/// The CLI's TSV row columns 1-4 (tools/asmcap_search.cpp fill_row and
/// emit_row), labels through the same ReferenceIndex::label.
std::string format_row(const std::string& id, const QueryResult& result,
                       const ReferenceIndex& index, std::size_t max_hits) {
  std::ostringstream line;
  line << id << "\tok\t" << result.matched_segments.size() << '\t';
  if (result.matched_segments.empty()) {
    line << '-';
  } else {
    const std::size_t shown =
        std::min(max_hits, result.matched_segments.size());
    for (std::size_t h = 0; h < shown; ++h) {
      if (h != 0) line << ',';
      line << index.label(result.matched_segments[h]);
    }
    if (shown < result.matched_segments.size()) line << ",...";
  }
  line << '\n';
  return line.str();
}

const char* outcome_name(ReadOutcome outcome) {
  switch (outcome) {
    case ReadOutcome::Expired: return "expired";
    case ReadOutcome::Cancelled: return "cancelled";
    default: return "failed";
  }
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

struct PumpResult {
  std::size_t reads = 0;
  std::size_t done = 0;
  std::size_t not_ok = 0;
  std::size_t peak_in_flight = 0;
  std::vector<double> queue_wait;  ///< Seconds, one per Done read.
  std::vector<double> execution;
  std::vector<double> merge;
  std::vector<Sequence> samples;   ///< Every kSampleEvery-th submitted read.
};

/// The CLI's read pump: one in-order ticket per chunk, the next chunk read
/// between submit and wait, one row per read.
PumpResult pump(ShardedAccelerator& db, const ReferenceIndex& index,
                const Options& options, Tracer& tracer, std::size_t parent,
                std::ostream& rows) {
  PumpResult out;
  const bool tracing = !options.trace.empty();
  SearchService service(db);
  SeqStreamReader reader(options.reads);
  std::vector<SeqRecord> chunk;
  {
    const Scope span(tracer, "reader.read_chunk", parent);
    chunk = reader.read_chunk(options.chunk);
  }
  std::uint64_t request = 0;
  std::size_t submitted = 0;
  while (!chunk.empty()) {
    out.reads += chunk.size();
    std::vector<std::string> ids;
    std::vector<Sequence> batch;
    for (SeqRecord& record : chunk) {
      if (record.seq.size() != options.width) {
        rows << record.id << "\tskipped\t0\t-\n";
        ++out.not_ok;
        continue;
      }
      if (tracing && submitted % kSampleEvery == 0)
        out.samples.push_back(record.seq);
      ++submitted;
      ids.push_back(std::move(record.id));
      batch.push_back(std::move(record.seq));
    }
    if (batch.empty()) {
      const Scope span(tracer, "reader.read_chunk", parent);
      chunk = reader.read_chunk(options.chunk);
      continue;
    }

    const Scope ticket_span(tracer, "service.ticket", parent, request);
    ServiceOptions service_options;
    service_options.workers = options.workers;
    service_options.in_order = true;
    service_options.keep_results = false;
    // In-order delivery is serialised, so the rows stream needs no lock;
    // wait() returning implies every delivery has finished.
    service_options.on_complete = [&](std::size_t i,
                                      const QueryResult& result) {
      const Scope span(tracer, "emit", ticket_span.id(), request);
      rows << format_row(ids[i], result, index, options.max_hits);
    };
    std::shared_ptr<SearchTicket> ticket;
    {
      const Scope span(tracer, "service.submit", ticket_span.id(), request);
      ticket = service.submit(std::move(batch), options.threshold,
                              StrategyMode::Full, service_options);
    }
    std::vector<SeqRecord> next;
    {
      const Scope span(tracer, "reader.read_chunk", parent);
      next = reader.read_chunk(options.chunk);
    }
    {
      const Scope span(tracer, "service.wait", ticket_span.id(), request);
      ticket->wait();
    }
    for (std::size_t i = 0; i < ticket->size(); ++i) {
      const ReadOutcome outcome = ticket->outcome(i);
      if (outcome == ReadOutcome::Done) {
        ++out.done;
      } else {
        rows << ids[i] << '\t' << outcome_name(outcome) << "\t0\t-\n";
        ++out.not_ok;
      }
    }
    if (tracing) {
      for (const ReadTiming& timing : ticket->read_timings()) {
        if (timing.outcome != ReadOutcome::Done) continue;
        out.queue_wait.push_back(timing.started - timing.submitted);
        out.execution.push_back(timing.executed - timing.started);
        out.merge.push_back(timing.merged - timing.executed);
      }
      out.peak_in_flight = std::max(out.peak_in_flight,
                                    ticket->peak_in_flight());
    }
    ++request;
    chunk = std::move(next);
  }
  return out;
}

std::size_t passes_of(const ExecutionPlan& plan) {
  return plan.ed_star_passes.size() + (plan.hd_pass ? 1 : 0);
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// Replays the write path on a fresh router: the ingested segments, in id
/// order, through append_segments in ingest-sized batches, then compact()
/// and one clone() of the largest bank.
void replay_bank_writes(const ShardedAccelerator& db,
                        const AsmcapConfig& config, const Options& options,
                        Tracer& tracer, std::size_t root, Metrics& metrics) {
  const auto live = db.live_segments();
  ShardedAccelerator replay(config, options.shards);
  replay.set_backend(options.backend);
  const std::size_t batch_size = IngestOptions{}.append_batch;
  {
    const Scope write_span(tracer, "replay.bank_write", root);
    std::vector<Sequence> batch;
    batch.reserve(batch_size);
    for (std::size_t i = 0; i < live.size(); ++i) {
      batch.push_back(live[i].second);
      if (batch.size() == batch_size || i + 1 == live.size()) {
        const Scope span(tracer, "bank_write.append", write_span.id());
        replay.append_segments(batch);
        batch.clear();
      }
    }
    const Scope span(tracer, "bank_write.compact", write_span.id());
    replay.compact();
  }
  if (replay.live_segments() != live)
    throw std::runtime_error(
        "write-path replay diverged from the ingested database");

  std::size_t largest = 0;
  for (std::size_t s = 1; s < replay.active_shards(); ++s)
    if (replay.shard_segments(s) > replay.shard_segments(largest))
      largest = s;
  const AsmcapAccelerator& bank = replay.shard(largest);
  std::unique_ptr<AsmcapAccelerator> copy;
  const double clone_s = timed(tracer, "bank_write.clone", root,
                               [&](std::size_t) { copy = bank.clone(); });
  if (copy->live_segment_count() != bank.live_segment_count())
    throw std::runtime_error("clone() lost rows");

  const auto [append_s, append_max_s] =
      tracer.total_and_max("bank_write.append");
  metrics.emplace_back("bank_write.append_s", append_s);
  metrics.emplace_back("bank_write.append_max_ms", append_max_s * 1e3);
  metrics.emplace_back("bank_write.compact_s",
                       tracer.total_and_max("bank_write.compact").first);
  metrics.emplace_back("bank_write.epochs",
                       static_cast<double>(replay.epoch()));
  metrics.emplace_back("bank_write.clone_ms", clone_s * 1e3);
  metrics.emplace_back("bank.active_banks",
                       static_cast<double>(db.active_shards()));
}

/// Replays the sampled reads through the router's planner, every bank's
/// sketch probe, and a serial execute on each bank the router would
/// dispatch. Returns the serial execute seconds per read.
double replay_reads(const ShardedAccelerator& db, const Options& options,
                    const std::vector<Sequence>& samples, Tracer& tracer,
                    std::size_t root, Metrics& metrics) {
  if (samples.empty()) throw std::runtime_error("no sampled reads to replay");
  const double n = static_cast<double>(samples.size());
  std::vector<ExecutionPlan> plans;
  plans.reserve(samples.size());
  const double plan_s = timed(tracer, "replay.plan", root, [&](std::size_t) {
    for (const Sequence& read : samples)
      plans.push_back(db.controller().planner().build(
          read, options.threshold, db.error_profile(), StrategyMode::Full));
  });
  std::size_t passes = 0;
  for (const ExecutionPlan& plan : plans) passes += passes_of(plan);
  metrics.emplace_back("plan.passes_per_read",
                       static_cast<double>(passes) / n);
  metrics.emplace_back("plan.us_per_read", plan_s * 1e6 / n);

  // Banks without a maintained sketch (pruning off) get one built from
  // their live rows, so the probe cost is measured on every workload.
  const std::size_t banks = db.active_shards();
  std::vector<std::unique_ptr<BankSketch>> built;
  std::vector<const BankSketch*> sketches;
  for (std::size_t s = 0; s < banks; ++s) {
    if (db.shard(s).sketch() != nullptr) {
      sketches.push_back(db.shard(s).sketch());
      continue;
    }
    std::vector<Sequence> rows;
    for (auto& entry : db.shard(s).live_segments())
      rows.push_back(std::move(entry.second));
    built.push_back(std::make_unique<BankSketch>(rows, options.width));
    sketches.push_back(built.back().get());
  }
  const std::size_t windows =
      pruning_window_count(db.config(), options.backend, options.threshold);
  std::vector<std::vector<std::size_t>> dispatch(plans.size());
  const double sketch_s =
      timed(tracer, "replay.sketch", root, [&](std::size_t) {
        for (std::size_t p = 0; p < plans.size(); ++p)
          for (std::size_t s = 0; s < banks; ++s)
            if (sketches[s]->may_match(plans[p], windows) || !options.prune)
              dispatch[p].push_back(s);
      });
  metrics.emplace_back("sketch.probe_us_per_bank",
                       sketch_s * 1e6 / (n * static_cast<double>(banks)));

  const Rng stream(kSeed);
  double row_passes = 0.0;
  bool shapes_ok = true;
  const double execute_s =
      timed(tracer, "replay.execute", root, [&](std::size_t) {
        for (std::size_t p = 0; p < plans.size(); ++p) {
          for (const std::size_t s : dispatch[p]) {
            const QueryResult result =
                db.shard(s).execute(plans[p], stream.fork(p));
            shapes_ok = shapes_ok &&
                        result.decisions.size() == db.shard_segments(s);
            row_passes += static_cast<double>(db.shard_segments(s) *
                                              passes_of(plans[p]));
          }
        }
      });
  if (!shapes_ok)
    throw std::runtime_error("execute() returned a result of the wrong shape");
  // Computed bytes: one packed row (2 bits per base, whole 64-bit words)
  // read per row pass, whichever backend executes it.
  const double bytes_per_row =
      static_cast<double>((options.width + 31) / 32 * sizeof(std::uint64_t));
  metrics.emplace_back("execute.ms_per_read", execute_s * 1e3 / n);
  metrics.emplace_back("execute.row_passes_per_s", row_passes / execute_s);
  metrics.emplace_back("execute.computed_gb_per_s",
                       row_passes * bytes_per_row / 1e9 / execute_s);
  return execute_s / n;
}

int run(const Options& options) {
  AsmcapConfig config;
  config.array_rows = kArrayRows;
  config.array_cols = options.width;
  config.array_count = options.arrays;
  config.ideal_sensing = !options.noisy;
  config.pruning.enabled = options.prune;
  config.seed = kSeed;

  const bool tracing = !options.trace.empty();
  Tracer tracer(tracing);
  const std::size_t root = tracer.open("bench_layers", Tracer::kNone);
  Metrics metrics;

  std::ofstream rows(options.rows);
  if (!rows) throw std::runtime_error("cannot write " + options.rows);

  if (tracing) {
    const double pass_s =
        timed(tracer, "reader.reference_pass", root, [&](std::size_t) {
          SeqStreamReader reader(options.reference);
          SeqRecord record;
          while (reader.next(record)) {
          }
        });
    const double bytes =
        static_cast<double>(std::filesystem::file_size(options.reference));
    metrics.emplace_back("reader.ref_mb_per_s", bytes / 1e6 / pass_s);
  }

  ShardedAccelerator db(config, options.shards);
  db.set_backend(options.backend);
  ReferenceIndex index;
  IngestStats ingest;
  const double ingest_s = timed(tracer, "ingest", root, [&](std::size_t) {
    SeqStreamReader reference(options.reference);
    ingest = ingest_reference(db, reference, {}, &index);
  });
  if (ingest.segments == 0) throw std::runtime_error("reference is empty");

  PumpResult pumped;
  const double pump_s =
      timed(tracer, "service.pump", root, [&](std::size_t span) {
        pumped = pump(db, index, options, tracer, span, rows);
      });
  rows.flush();
  if (!rows) throw std::runtime_error("write failure on " + options.rows);

  if (tracing) {
    const double done = static_cast<double>(pumped.done);
    metrics.emplace_back("reader.read_chunk_s",
                         tracer.total_and_max("reader.read_chunk").first);
    metrics.emplace_back("ingest.s", ingest_s);
    metrics.emplace_back("ingest.segments_per_s",
                         static_cast<double>(ingest.segments) / ingest_s);

    const ExecutionTotals& totals = db.totals();
    const double pruned = static_cast<double>(totals.banks_pruned);
    const double probes =
        static_cast<double>(totals.banks_probed) + pruned;
    metrics.emplace_back("sketch.prune_rate",
                         probes == 0.0 ? 0.0 : pruned / probes);
    metrics.emplace_back(
        "emit.us_per_read",
        done == 0.0 ? 0.0 : tracer.total_and_max("emit").first * 1e6 / done);

    replay_bank_writes(db, config, options, tracer, root, metrics);
    const double execute_s_per_read =
        replay_reads(db, options, pumped.samples, tracer, root, metrics);

    const std::size_t workers = options.workers != 0
                                    ? options.workers
                                    : ThreadPool::hardware_workers();
    metrics.emplace_back("service.pump_s", pump_s);
    metrics.emplace_back("service.submit_ms",
                         tracer.total_and_max("service.submit").first * 1e3);
    metrics.emplace_back("service.parallel_efficiency",
                         execute_s_per_read * done /
                             (static_cast<double>(workers) * pump_s));
    metrics.emplace_back("service.queue_wait_p99_ms",
                         percentile(pumped.queue_wait, 0.99) * 1e3);
    metrics.emplace_back("service.execution_p50_ms",
                         percentile(pumped.execution, 0.50) * 1e3);
    metrics.emplace_back("service.execution_p99_ms",
                         percentile(pumped.execution, 0.99) * 1e3);
    metrics.emplace_back("service.merge_p99_ms",
                         percentile(pumped.merge, 0.99) * 1e3);
    metrics.emplace_back("service.peak_in_flight",
                         static_cast<double>(pumped.peak_in_flight));
    tracer.close(root);
    tracer.write(options.trace);
  }

  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "{\"kernel_tier\":\""
            << to_string(active_kernel_tier()) << "\",\"reads\":"
            << pumped.reads << ",\"not_ok\":" << pumped.not_ok
            << ",\"percentile_samples\":" << pumped.execution.size()
            << ",\"metrics\":{";
  for (std::size_t m = 0; m < metrics.size(); ++m)
    std::cout << (m == 0 ? "" : ",") << '"' << metrics[m].first
              << "\":" << metrics[m].second;
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "bench_layers: " << e.what() << "\n";
    return 1;
  }
}
