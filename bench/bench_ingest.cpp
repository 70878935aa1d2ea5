// Ingestion-pipeline benchmark (plain chrono, no external deps): the
// streaming FASTA/FASTQ reader and the end-to-end CLI path (stream ->
// ingest -> service pump -> results) against the in-memory search_batch
// reference.
//
//   ./bench_ingest [reads] [tiles] [shards] [workers]
//
// Four timed arms:
//   * reader    — SeqStreamReader over an in-memory FASTQ image
//                 (reader-only throughput: reads/s);
//   * ingest    — ingest_reference builds the sharded database from a
//                 streamed FASTA image (segments/s);
//   * e2e       — chunked SearchService submissions pump every read
//                 through the bounded admission window exactly like
//                 tools/asmcap_search (end-to-end reads/s, in-order
//                 streaming callbacks);
//   * batch     — the same records searched via load_reference +
//                 search_batch, the in-memory reference timing.
//
// Exits 2 on a bad argument, and 1 when the service pump takes outside
// 0.2-20x the in-memory batch's time. Decisions are not checked here:
// tests/test_workload_pins.cpp pins this workload's (`bench_ingest 256 96
// 2 2`) and checks that streamed ingest plus the service pump decide as
// the in-memory batch does.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "asmcap/ingest.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/fasta.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "genome/stream_reader.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace asmcap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::size_t n_reads =
      args.size() > 0 ? std::strtoull(args[0].c_str(), nullptr, 10) : 512;
  const std::size_t n_tiles =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 128;
  const std::size_t shards =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 2;
  const std::size_t workers =
      args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : 2;
  const std::size_t width = 128;
  const std::size_t threshold = 8;
  const std::size_t chunk = 64;
  if (n_reads == 0 || n_tiles < 2 || shards == 0 || workers == 0) {
    std::fprintf(stderr,
                 "usage: bench_ingest [reads>0] [tiles>=2] [shards>0] "
                 "[workers>0]\n");
    return 2;
  }

  AsmcapConfig bank;
  bank.array_rows = 64;
  bank.array_cols = width;
  const std::size_t per_shard = (n_tiles + shards - 1) / shards;
  bank.array_count = (per_shard + bank.array_rows - 1) / bank.array_rows + 1;
  bank.ideal_sensing = true;

  // Deterministic workload: one FASTA record tiling exactly, FASTQ reads
  // simulated from tile-aligned windows.
  Rng rng(0x1463'57EA);
  std::vector<FastaRecord> reference(1);
  reference[0].id = "ref0";
  reference[0].seq = generate_reference(width * n_tiles, {}, rng);
  const std::vector<Sequence> tiles =
      segment_reference(reference[0].seq, width);

  ReadSimConfig sim_config;
  sim_config.read_length = width;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator simulator(reference[0].seq, sim_config);
  std::vector<FastqRecord> read_records(n_reads);
  std::vector<Sequence> read_seqs;
  read_seqs.reserve(n_reads);
  for (std::size_t i = 0; i < n_reads; ++i) {
    read_records[i].id = "read" + std::to_string(i);
    // Origins avoid the final tile so repadding after deletions always
    // has reference slack to extend into.
    read_records[i].seq =
        simulator.simulate_at(rng.below(n_tiles - 1) * width, rng).read;
    read_seqs.push_back(read_records[i].seq);
  }

  // In-memory file images: the reader parses real bytes, but the bench
  // stays filesystem-independent and fully deterministic.
  std::ostringstream fasta_image;
  write_fasta(fasta_image, reference, 70);
  std::ostringstream fastq_image;
  write_fastq(fastq_image, read_records);
  const std::string fasta_text = fasta_image.str();
  const std::string fastq_text = fastq_image.str();

  std::printf(
      "workload: %zu reads x %zu tiles (width %zu), T=%zu, functional "
      "backend, %zu shards x %zu arrays, %zu workers (%zu hardware)\n\n",
      n_reads, n_tiles, width, threshold, shards, bank.array_count, workers,
      ThreadPool::hardware_workers());

  // --- Reader arm: parse the FASTQ image, count everything. ---------------
  double reader_seconds = 0.0;
  {
    std::istringstream in(fastq_text);
    SeqStreamReader reader(in, "bench.fq");
    SeqRecord record;
    const auto start = Clock::now();
    while (reader.next(record)) {
    }
    reader_seconds = seconds_since(start);
  }

  // --- Batch arm (reference): load_reference + search_batch. --------------
  ShardedAccelerator frozen(bank, shards);
  frozen.set_backend(BackendKind::Functional);
  frozen.load_reference(tiles);
  frozen.set_error_profile(sim_config.rates);
  const auto batch_start = Clock::now();
  frozen.search_batch(read_seqs, threshold, StrategyMode::Full, workers);
  const double batch_seconds = seconds_since(batch_start);

  // --- End-to-end arm: stream -> ingest -> service pump. ------------------
  ShardedAccelerator grown(bank, shards);
  grown.set_backend(BackendKind::Functional);
  const auto ingest_start = Clock::now();
  std::istringstream fasta_in(fasta_text);
  SeqStreamReader fasta_reader(fasta_in, "bench.fa");
  const IngestStats ingest = ingest_reference(grown, fasta_reader);
  const double ingest_seconds = seconds_since(ingest_start);
  grown.set_error_profile(sim_config.rates);

  const auto e2e_start = Clock::now();
  std::size_t streamed = 0;
  {
    std::istringstream fastq_in(fastq_text);
    SeqStreamReader fastq_reader(fastq_in, "bench.fq");
    SearchService service(grown);
    ServiceOptions options;
    options.workers = workers;
    options.in_order = true;
    options.keep_results = false;
    // The CLI's emit step minus the TSV write; in-order delivery runs the
    // re-sequencer and is serialised.
    options.on_complete = [&streamed](std::size_t, const QueryResult&) {
      ++streamed;
    };
    std::vector<SeqRecord> block = fastq_reader.read_chunk(chunk);
    while (!block.empty()) {
      std::vector<Sequence> submit;
      submit.reserve(block.size());
      for (SeqRecord& record : block) submit.push_back(std::move(record.seq));
      auto ticket = service.submit(std::move(submit), threshold,
                                   StrategyMode::Full, options);
      block = fastq_reader.read_chunk(chunk);  // Overlap with execution.
      ticket->wait();
    }
  }
  const double e2e_seconds = seconds_since(e2e_start);

  const double service_overhead = e2e_seconds / batch_seconds;

  Table table({"arm", "wall time", "rate"});
  table.new_row()
      .add_cell("stream reader (FASTQ parse)")
      .add_cell(format_si(reader_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / reader_seconds,
                          " reads/s"));
  table.new_row()
      .add_cell("reference ingest (stream+tile+append)")
      .add_cell(format_si(ingest_seconds, "s"))
      .add_cell(format_si(
          static_cast<double>(ingest.segments) / ingest_seconds,
          " segments/s"));
  table.new_row()
      .add_cell("end-to-end service pump")
      .add_cell(format_si(e2e_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / e2e_seconds,
                          " reads/s"));
  table.new_row()
      .add_cell("in-memory search_batch")
      .add_cell(format_si(batch_seconds, "s"))
      .add_cell(format_si(static_cast<double>(n_reads) / batch_seconds,
                          " reads/s"));
  table.print(std::cout);

  std::printf(
      "\nservice-pump overhead %.2fx over search_batch (%zu reads streamed)\n",
      service_overhead, streamed);

  if (service_overhead < 0.2 || service_overhead > 20.0) {
    std::fprintf(stderr,
                 "FAIL: service-pump overhead %.2fx outside [0.2, 20]\n",
                 service_overhead);
    return 1;
  }
  return 0;
}
