// asmcap_testgen — deterministic FASTA/FASTQ generator behind the
// end-to-end CLI gate (tools/check_e2e.sh). Writes a multi-record,
// line-wrapped reference FASTA and a FASTQ read set simulated from
// tile-aligned windows of that reference (condition-A error rates), so a
// known fraction of reads matches when searched at the same width. Fully
// deterministic from --seed: the committed golden file
// (tests/golden/e2e_search.tsv) depends on it.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "genome/edits.h"
#include "genome/fasta.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/rng.h"

namespace {

using namespace asmcap;

struct GenOptions {
  std::string reference_out;
  std::string reads_out;
  std::size_t width = 128;       ///< Tile width == read length.
  std::size_t records = 2;       ///< Reference records.
  std::size_t tiles = 8;         ///< Tiles per reference record.
  std::size_t reads = 32;        ///< Simulated reads.
  std::uint64_t seed = 7;
  std::size_t wrap = 60;         ///< FASTA line wrap.
  bool inject_ambiguous = false; ///< Sprinkle a few 'N's into the FASTA.
};

[[noreturn]] void usage(const char* self) {
  std::cerr << "usage: " << self
            << " REFERENCE.fa READS.fq [--width N] [--records N] [--tiles N]"
               " [--reads N] [--seed N] [--wrap N] [--ambiguous]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  GenOptions options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--width") options.width = std::stoul(value());
    else if (arg == "--records") options.records = std::stoul(value());
    else if (arg == "--tiles") options.tiles = std::stoul(value());
    else if (arg == "--reads") options.reads = std::stoul(value());
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--wrap") options.wrap = std::stoul(value());
    else if (arg == "--ambiguous") options.inject_ambiguous = true;
    else if (arg.rfind("--", 0) == 0) usage(argv[0]);
    else positional.push_back(arg);
  }
  if (positional.size() != 2 || options.width == 0 || options.records == 0 ||
      options.tiles < 2)
    usage(argv[0]);
  options.reference_out = positional[0];
  options.reads_out = positional[1];

  Rng rng(options.seed);
  const ReferenceModel model;

  // Reference: `records` records of `tiles` full-width tiles each, so the
  // whole reference tiles exactly (no padding) at --width.
  std::vector<FastaRecord> reference(options.records);
  Sequence flat;  // Concatenation, for simulating reads per record.
  std::vector<Sequence> record_seqs;
  for (std::size_t r = 0; r < options.records; ++r) {
    Rng stream = rng.fork(r + 1);
    reference[r].id = "ref" + std::to_string(r);
    reference[r].comment = "synthetic record " + std::to_string(r);
    reference[r].seq =
        generate_reference(options.width * options.tiles, model, stream);
    record_seqs.push_back(reference[r].seq);
  }
  write_fasta_file(options.reference_out, reference, options.wrap);

  // Reads: round-robin over records; tile-aligned origins with
  // condition-A errors, so most reads land within a small threshold of
  // their source tile. Every read is exactly --width bases.
  std::FILE* fq = std::fopen(options.reads_out.c_str(), "wb");
  if (fq == nullptr) {
    std::cerr << "asmcap_testgen: cannot write " << options.reads_out << "\n";
    return 1;
  }
  ReadSimConfig sim_config;
  sim_config.read_length = options.width;
  sim_config.rates = ErrorRates::condition_a();
  Rng read_rng = rng.fork(0xEAD);
  for (std::size_t i = 0; i < options.reads; ++i) {
    const std::size_t record = i % options.records;
    ReadSimulator simulator(record_seqs[record], sim_config);
    // The final tile is never an origin: it is the repad slack the
    // simulator extends into when deletions shorten the window.
    const std::size_t tile = read_rng.below(options.tiles - 1);
    Rng stream = read_rng.fork(i + 1);
    const SimulatedRead read =
        simulator.simulate_at(tile * options.width, stream);
    std::string text = read.read.to_string();
    if (options.inject_ambiguous && i % 5 == 0 && !text.empty())
      text[text.size() / 2] = 'N';
    std::fprintf(fq, "@read%zu ref%zu:%zu\n%s\n+\n%s\n", i, record,
                 tile * options.width, text.c_str(),
                 std::string(text.size(), 'I').c_str());
  }
  std::fclose(fq);

  std::cerr << "asmcap_testgen: wrote " << options.records << "x"
            << options.tiles << " tiles (width " << options.width << ") to "
            << options.reference_out << ", " << options.reads << " reads to "
            << options.reads_out << " (seed " << options.seed << ")\n";
  return 0;
}
