// Decision pins on the timing drivers' CI workloads. Each test rebuilds
// one canonical workload exactly (Rng seeds, geometry, threshold, and the
// argv CI runs its driver with), pins its decision digest and checks the
// equivalences the workload exists to show:
//
//   BatchEngine      bench_batch 200 512 4
//   ShardedRouter    1,024 segments over 4 shards, 16 reads, 2 workers
//   HdacCoinsUnderPruning  1,024 segments over 4 shards, 48 deletion reads
//   ServicePipeline  bench_service 192 512 32 2 2 0
//   LiveDatabase     bench_live 1024 16 4 2
//   StreamedIngest   bench_ingest 256 96 2 2
//
// The digests pin the RNG stream formulas as well as the kernel counts:
// perturbing HDAC's selection salt fails five of the six tests (not
// ShardedRouter, whose reads never reach a coin), the batch stream fork
// ((epoch << 32) | read) the three batch workloads, and the sequential
// search() fork the sequential ones. A digest change is a
// behaviour change. The drivers themselves only time these paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "align/kernels.h"
#include "asmcap/edam.h"
#include "asmcap/ingest.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/fasta.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "genome/stream_reader.h"
#include "util/decision_digest.h"

namespace asmcap {
namespace {

/// Restores the active kernel tier on scope exit.
struct TierGuard {
  KernelTier saved = active_kernel_tier();
  ~TierGuard() { set_active_kernel_tier(saved); }
};

std::vector<KernelTier> available_tiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier tier : compiled_kernel_tiers())
    if (kernel_tier_available(tier)) tiers.push_back(tier);
  return tiers;
}

/// A reference of width * (segments + 2) bases and its first `segments`
/// width-wide tiles, drawn from `rng` as every driver drew them.
struct Database {
  Sequence reference;
  std::vector<Sequence> segments;
};

Database make_database(std::size_t width, std::size_t segments, Rng& rng) {
  Database db;
  db.reference = generate_reference(width * (segments + 2), {}, rng);
  db.segments = segment_reference(db.reference, width);
  db.segments.resize(segments);
  return db;
}

/// `count` Condition-A reads of `width` bases, each from a width-aligned
/// origin drawn from [0, origins).
std::vector<Sequence> simulate_reads(const Sequence& reference,
                                     std::size_t width, std::size_t origins,
                                     std::size_t count, Rng& rng) {
  ReadSimConfig sim_config;
  sim_config.read_length = width;
  sim_config.rates = ErrorRates::condition_a();
  const ReadSimulator simulator(reference, sim_config);
  std::vector<Sequence> reads;
  reads.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    reads.push_back(simulator.simulate_at(rng.below(origins) * width, rng).read);
  return reads;
}

/// A noise-free bank of `arrays` arrays of rows x cols cells.
AsmcapConfig ideal_bank(std::size_t rows, std::size_t cols,
                        std::size_t arrays) {
  AsmcapConfig config;
  config.array_rows = rows;
  config.array_cols = cols;
  config.array_count = arrays;
  config.ideal_sensing = true;
  return config;
}

/// A router over `segments` with the Condition-A error profile set.
std::unique_ptr<ShardedAccelerator> make_router(
    const AsmcapConfig& config, std::size_t shards,
    const std::vector<Sequence>& segments,
    BackendKind kind = BackendKind::Circuit) {
  auto router = std::make_unique<ShardedAccelerator>(config, shards);
  router->set_backend(kind);
  router->load_reference(segments);
  router->set_error_profile(ErrorRates::condition_a());
  return router;
}

/// Digest over every decision of every result, in read order.
template <typename Result>
std::uint64_t decision_digest(const std::vector<Result>& results) {
  DecisionDigest digest;
  for (const Result& result : results)
    for (const bool decision : result.decisions) digest.add(decision);
  return digest.value();
}

/// Digest over the first `ids` decisions of every result: the frozen id
/// range, whatever the scratch appends grew the id space to.
std::uint64_t digest_prefix(const std::vector<QueryResult>& results,
                            std::size_t ids) {
  DecisionDigest digest;
  for (const QueryResult& result : results)
    for (std::size_t i = 0; i < ids && i < result.decisions.size(); ++i)
      digest.add(result.decisions[i]);
  return digest.value();
}

/// Order-insensitive per-read digest of a result (count, XOR of ids).
std::uint64_t read_digest(const QueryResult& result) {
  std::uint64_t d = static_cast<std::uint64_t>(result.matched_segments.size())
                    << 32;
  for (const std::size_t id : result.matched_segments)
    d ^= 0x9E37'79B9'7F4A'7C15ULL * (id + 1);
  return d;
}

std::vector<QueryResult> search_each(ShardedAccelerator& router,
                                     const std::vector<Sequence>& reads,
                                     std::size_t threshold,
                                     std::size_t workers) {
  std::vector<QueryResult> results;
  results.reserve(reads.size());
  for (const Sequence& read : reads)
    results.push_back(
        router.search(read, threshold, StrategyMode::Full, workers));
  return results;
}

void expect_same_decisions(const std::vector<QueryResult>& got,
                           const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].decisions, want[i].decisions) << "read " << i;
    EXPECT_EQ(got[i].matched_segments, want[i].matched_segments)
        << "read " << i;
  }
}

// 1-shard Functional-kind search_batch and EDAM search_batch, digested in
// that order through add_u64, on every available kernel tier. A
// Circuit-kind batch forks the same per-read streams and must decide
// identically; EDAM's content-keyed streams make serial search() calls
// equal its batch.
TEST(WorkloadPins, BatchEngine) {
  constexpr std::size_t kThreshold = 4;
  constexpr std::size_t kWorkers = 4;
  Rng rng(0xBA7C'BE4C);
  const Database db = make_database(256, 512, rng);
  const std::vector<Sequence> reads =
      simulate_reads(db.reference, 256, 512, 200, rng);
  const AsmcapConfig config = ideal_bank(256, 256, 2);
  EdamConfig edam_config;
  edam_config.array_rows = config.array_rows;
  edam_config.array_cols = config.array_cols;
  edam_config.array_count = config.array_count;
  edam_config.ideal_sensing = true;

  TierGuard guard;
  std::vector<QueryResult> functional;
  std::vector<EdamQueryResult> edam_batch;
  for (const KernelTier tier : available_tiers()) {
    set_active_kernel_tier(tier);
    functional = make_router(config, 1, db.segments, BackendKind::Functional)
                     ->search_batch(reads, kThreshold, StrategyMode::Full,
                                    kWorkers);
    EdamAccelerator edam(edam_config);
    edam.load_reference(db.segments);
    edam_batch = edam.search_batch(reads, kThreshold, kWorkers);
    DecisionDigest combined;
    combined.add_u64(decision_digest(functional));
    combined.add_u64(decision_digest(edam_batch));
    EXPECT_EQ(combined.value(), 0xb7d3989b742b0294ULL)
        << to_string(tier) << " tier: " << std::hex << combined.value();
  }

  const std::vector<QueryResult> circuit =
      make_router(config, 1, db.segments)
          ->search_batch(reads, kThreshold, StrategyMode::Full, kWorkers);
  expect_same_decisions(circuit, functional);

  EdamAccelerator edam(edam_config);
  edam.load_reference(db.segments);
  std::vector<EdamQueryResult> edam_serial;
  edam_serial.reserve(reads.size());
  for (const Sequence& read : reads)
    edam_serial.push_back(edam.search(read, kThreshold));
  EXPECT_EQ(decision_digest(edam_serial), decision_digest(edam_batch));
}

// Sequential search() through a 4-shard router, 2 workers per read. A
// 1-shard router over the same database, and the 4-shard layout with sketch
// pruning on, must decide identically with the same global match ids.
TEST(WorkloadPins, ShardedRouter) {
  constexpr std::size_t kThreshold = 4;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kWorkers = 2;
  Rng rng(0x5AA2'DED1);
  const Database db = make_database(256, 1024, rng);
  const std::vector<Sequence> reads =
      simulate_reads(db.reference, 256, 1024, 16, rng);
  const AsmcapConfig bank = ideal_bank(256, 256, 1);
  AsmcapConfig pruned_bank = bank;
  pruned_bank.pruning.enabled = true;

  auto sharded = make_router(bank, kShards, db.segments);
  const std::vector<QueryResult> results =
      search_each(*sharded, reads, kThreshold, kWorkers);
  EXPECT_EQ(decision_digest(results), 0x452fb302a8188690ULL)
      << std::hex << decision_digest(results);

  auto mono = make_router(ideal_bank(256, 256, 4), 1, db.segments);
  expect_same_decisions(search_each(*mono, reads, kThreshold, 1), results);

  auto pruned = make_router(pruned_bank, kShards, db.segments);
  expect_same_decisions(search_each(*pruned, reads, kThreshold, kWorkers),
                        results);

  // Model values, not timings: the share of bank probes the sketch skipped
  // and the energy that saved.
  const ExecutionTotals& totals = pruned->totals();
  const std::size_t probes = totals.banks_probed + totals.banks_pruned;
  ASSERT_GT(probes, 0u);
  const double prune_rate = static_cast<double>(totals.banks_pruned) /
                            static_cast<double>(probes);
  EXPECT_GE(prune_rate, 0.5);
  EXPECT_LE(prune_rate, 1.0);
  const double full_energy = sharded->totals().energy_joules;
  ASSERT_GT(full_energy, 0.0);
  const double savings = (full_energy - totals.energy_joules) / full_energy;
  EXPECT_GE(savings, 0.4);
  EXPECT_LE(savings, 1.0);
}

// Sequential search() through 4 shards, pruning off and on, over reads
// that each carry one deletion against a stored row: that row's ED* stays
// within T while its Hamming distance does not, so HDAC's selection coin
// decides it. The ShardedRouter reads above never reach a coin; this
// digest pins the coin salt on the sequential and the pruned path.
TEST(WorkloadPins, HdacCoinsUnderPruning) {
  constexpr std::size_t kThreshold = 4;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kWidth = 128;
  Rng rng(0x4DAC'C014);
  const Database db = make_database(kWidth, 1024, rng);
  std::vector<Sequence> reads;
  for (std::size_t i = 0; i < 48; ++i) {
    Sequence read = db.reference.subseq(rng.below(1024) * kWidth, kWidth + 1);
    read.erase(8 + rng.below(kWidth - 16));
    reads.push_back(read);
  }
  const AsmcapConfig bank = ideal_bank(64, kWidth, 4);
  AsmcapConfig pruned_bank = bank;
  pruned_bank.pruning.enabled = true;

  auto full = make_router(bank, kShards, db.segments);
  const std::vector<QueryResult> results =
      search_each(*full, reads, kThreshold, 2);
  EXPECT_EQ(decision_digest(results), 0x3c799f9ef5e3b2b5ULL)
      << std::hex << decision_digest(results);
  auto pruned = make_router(pruned_bank, kShards, db.segments);
  expect_same_decisions(search_each(*pruned, reads, kThreshold, 2), results);
  EXPECT_GT(pruned->totals().banks_pruned, 0u);

  // Without HDAC the same reads decide from ED* alone: the reads where
  // that differs are the ones a coin decided.
  auto ed_star_only = make_router(bank, kShards, db.segments);
  std::size_t coin_decided = 0;
  for (std::size_t i = 0; i < reads.size(); ++i)
    if (ed_star_only->search(reads[i], kThreshold, StrategyMode::TasrOnly)
            .decisions != results[i].decisions)
      ++coin_decided;
  EXPECT_GT(coin_decided, 0u);
}

// Per-read digests of six 32-read chunks submitted as streaming tickets to
// a SearchService over 2 shards, 2 workers each. Synchronous search_batch
// per chunk must equal them. A bulk batch of all 192 reads plus a 32-read
// interactive latecomer must decide identically whether the service runs
// them FIFO or prioritized, and no ticket may overrun its admission window.
TEST(WorkloadPins, ServicePipeline) {
  constexpr std::size_t kThreshold = 4;
  constexpr std::size_t kChunk = 32;
  constexpr std::size_t kChunks = 6;
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kShards = 2;
  Rng rng(0x5E47'1CE5);
  const Database db = make_database(128, 512, rng);
  const AsmcapConfig bank = ideal_bank(128, 128, 2);

  Rng read_rng(0xD1'6E57);
  std::vector<std::vector<Sequence>> chunks;
  chunks.reserve(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c)
    chunks.push_back(simulate_reads(db.reference, 128, 512, kChunk, read_rng));
  const std::vector<Sequence> interactive_reads =
      simulate_reads(db.reference, 128, 512, kChunk, read_rng);

  auto sync_router = make_router(bank, kShards, db.segments);
  std::vector<std::uint64_t> sync_digests;
  for (const std::vector<Sequence>& reads : chunks)
    for (const QueryResult& result : sync_router->search_batch(
             reads, kThreshold, StrategyMode::Full, kWorkers))
      sync_digests.push_back(read_digest(result));

  auto stream_router = make_router(bank, kShards, db.segments);
  SearchService service(*stream_router);
  std::vector<std::uint64_t> stream_digests(kChunks * kChunk, 0);
  std::vector<std::shared_ptr<SearchTicket>> tickets;
  for (std::size_t c = 0; c < kChunks; ++c) {
    SearchService::Options options;
    options.workers = kWorkers;
    options.keep_results = false;
    options.on_complete = [&stream_digests, c](std::size_t i,
                                               const QueryResult& result) {
      stream_digests[c * kChunk + i] = read_digest(result);
    };
    tickets.push_back(service.submit(chunks[c], kThreshold,
                                     StrategyMode::Full, options));
  }
  for (const auto& ticket : tickets) {
    ticket->wait();
    EXPECT_LE(ticket->peak_in_flight(), ticket->max_in_flight());
  }
  DecisionDigest combined;
  for (const std::uint64_t d : stream_digests) combined.add_u64(d);
  EXPECT_EQ(combined.value(), 0x4d8883bab57aa8cdULL)
      << std::hex << combined.value();
  EXPECT_EQ(sync_digests, stream_digests);

  std::vector<Sequence> bulk_reads;
  for (const std::vector<Sequence>& reads : chunks)
    bulk_reads.insert(bulk_reads.end(), reads.begin(), reads.end());
  // Fresh routers put the bulk batch at epoch 1 and the interactive batch
  // at epoch 2 in both arms, so their digests compare read for read.
  const auto run_mixed = [&](bool prioritized) {
    std::vector<std::uint64_t> digests(bulk_reads.size() + kChunk, 0);
    auto router = make_router(bank, kShards, db.segments);
    SearchService::Config config;
    config.max_in_flight_reads = 2 * kWorkers;
    SearchService mixed(*router, config);
    SearchService::Options options;
    options.workers = kWorkers;
    options.keep_results = false;
    const auto digest_into = [&digests](std::size_t base) {
      return [&digests, base](std::size_t i, const QueryResult& result) {
        digests[base + i] = read_digest(result);
      };
    };
    options.service_class =
        prioritized ? ServiceClass::Bulk : ServiceClass::Normal;
    options.on_complete = digest_into(0);
    auto bulk =
        mixed.submit(bulk_reads, kThreshold, StrategyMode::Full, options);
    options.service_class =
        prioritized ? ServiceClass::Interactive : ServiceClass::Normal;
    options.on_complete = digest_into(bulk_reads.size());
    if (!prioritized) bulk->wait();  // FIFO: the latecomer waits for bulk.
    auto interactive = mixed.submit(interactive_reads, kThreshold,
                                    StrategyMode::Full, options);
    interactive->wait();
    bulk->wait();
    for (const auto& ticket : {bulk, interactive})
      EXPECT_LE(ticket->peak_in_flight(), ticket->max_in_flight());
    return digests;
  };
  EXPECT_EQ(run_mixed(false), run_mixed(true));
}

// Sequential search() through a 4-shard router, 2 workers per read, over a
// database loaded in one call. The same database grown live (half loaded,
// half appended in 64-segment chunks, then compacted) and a churned copy
// (a scratch block deleted and re-appended before every read) must decide
// identically on the frozen id range.
TEST(WorkloadPins, LiveDatabase) {
  constexpr std::size_t kThreshold = 4;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kSegments = 1024;
  Rng rng(0x11FE'DB01);
  const Database db = make_database(256, kSegments, rng);
  const std::vector<Sequence> reads =
      simulate_reads(db.reference, 256, kSegments, 16, rng);
  // One array of headroom per bank for the scratch block and hot appends.
  const AsmcapConfig bank = ideal_bank(256, 256, 2);

  auto frozen = make_router(bank, kShards, db.segments);
  const std::uint64_t frozen_digest = digest_prefix(
      search_each(*frozen, reads, kThreshold, kWorkers), kSegments);
  EXPECT_EQ(frozen_digest, 0xe5c54add6ae49390ULL)
      << std::hex << frozen_digest;

  const std::size_t half = kSegments / 2;
  auto live = make_router(
      bank, kShards,
      std::vector<Sequence>(db.segments.begin(), db.segments.begin() + half));
  for (std::size_t i = half; i < kSegments; i += 64)
    live->append_segments(std::vector<Sequence>(
        db.segments.begin() + i,
        db.segments.begin() + std::min(i + 64, kSegments)));
  live->compact();
  EXPECT_EQ(digest_prefix(search_each(*live, reads, kThreshold, kWorkers),
                          kSegments),
            frozen_digest);

  auto churny = make_router(bank, kShards, db.segments);
  const std::vector<Sequence> scratch(db.segments.begin(),
                                      db.segments.begin() + 8);
  std::vector<std::uint64_t> scratch_ids = churny->append_segments(scratch);
  std::vector<QueryResult> churned;
  for (const Sequence& read : reads) {
    churny->remove_segments(scratch_ids);
    scratch_ids = churny->append_segments(scratch);
    churned.push_back(
        churny->search(read, kThreshold, StrategyMode::Full, kWorkers));
  }
  EXPECT_EQ(digest_prefix(churned, kSegments), frozen_digest);
}

// Load plus search_batch of 256 FASTQ reads against 96 tiles of one FASTA
// record (width 128, T = 8, 2 shards, 2 workers). Ingesting the FASTA text
// through SeqStreamReader and pumping the FASTQ text through the service in
// 64-read in-order tickets must decide identically, read by read.
TEST(WorkloadPins, StreamedIngest) {
  constexpr std::size_t kWidth = 128;
  constexpr std::size_t kTiles = 96;
  constexpr std::size_t kReads = 256;
  constexpr std::size_t kThreshold = 8;
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kWorkers = 2;
  Rng rng(0x1463'57EA);
  std::vector<FastaRecord> reference(1);
  reference[0].id = "ref0";
  reference[0].seq = generate_reference(kWidth * kTiles, {}, rng);
  // Origins avoid the final tile, as the driver drew them.
  const std::vector<Sequence> read_seqs =
      simulate_reads(reference[0].seq, kWidth, kTiles - 1, kReads, rng);
  std::vector<FastqRecord> read_records(kReads);
  for (std::size_t i = 0; i < kReads; ++i) {
    read_records[i].id = "read" + std::to_string(i);
    read_records[i].seq = read_seqs[i];
  }
  std::ostringstream fasta_text;
  write_fasta(fasta_text, reference, 70);
  std::ostringstream fastq_text;
  write_fastq(fastq_text, read_records);
  const AsmcapConfig bank = ideal_bank(64, kWidth, 2);

  {
    std::istringstream in(fastq_text.str());
    SeqStreamReader reader(in, "pins.fq");
    SeqRecord record;
    while (reader.next(record)) {
    }
    EXPECT_EQ(reader.records(), kReads);
  }

  const std::uint64_t batch_digest = decision_digest(
      make_router(bank, kShards, segment_reference(reference[0].seq, kWidth),
                  BackendKind::Functional)
          ->search_batch(read_seqs, kThreshold, StrategyMode::Full,
                         kWorkers));
  EXPECT_EQ(batch_digest, 0xa183e8fb326c6c32ULL) << std::hex << batch_digest;

  ShardedAccelerator grown(bank, kShards);
  grown.set_backend(BackendKind::Functional);
  std::istringstream fasta_in(fasta_text.str());
  SeqStreamReader fasta_reader(fasta_in, "pins.fa");
  ingest_reference(grown, fasta_reader);
  grown.set_error_profile(ErrorRates::condition_a());

  DecisionDigest stream_digest;
  std::size_t streamed = 0;
  std::istringstream fastq_in(fastq_text.str());
  SeqStreamReader fastq_reader(fastq_in, "pins.fq");
  SearchService service(grown);
  ServiceOptions options;
  options.workers = kWorkers;
  options.in_order = true;
  options.keep_results = false;
  options.on_complete = [&](std::size_t, const QueryResult& result) {
    for (const bool decision : result.decisions) stream_digest.add(decision);
    ++streamed;
  };
  for (std::vector<SeqRecord> block = fastq_reader.read_chunk(64);
       !block.empty(); block = fastq_reader.read_chunk(64)) {
    std::vector<Sequence> submit;
    submit.reserve(block.size());
    for (SeqRecord& record : block) submit.push_back(std::move(record.seq));
    service.submit(std::move(submit), kThreshold, StrategyMode::Full, options)
        ->wait();
  }
  EXPECT_EQ(streamed, kReads);
  EXPECT_EQ(stream_digest.value(), batch_digest);
}

}  // namespace
}  // namespace asmcap
