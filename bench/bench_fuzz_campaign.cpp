// Soundness-fuzzing campaign driver.
//
//   bench_fuzz_campaign --seed 0x2a --cases 1000 --shrink --corpus tests/corpus --journal fuzz_journal.log
//
// Generates `cases` synthetic programs from the root seed and runs each
// through the differential oracle battery (sim-vs-IPET, must/may/persistence
// vs concrete traces, Theorem 1, sparse ILP vs structural WCET). Violations
// are delta-debug shrunk and written as self-contained repros. Exit code 1
// iff any UNEXPLAINED violation occurred (explained = an armed fault site).
//
// Flags beyond the common set:
//   --seed N          root seed (decimal or 0x hex; default 1)
//   --cases N         programs to generate (default 200)
//   --shrink/--no-shrink   minimize repros (default on)
//   --rotation N      cache-config rotation stride; 0 pins k7 (default 5)
//   --fault-every N   arm a compute-path fault on every n-th case (default 0)
//   --corpus DIR      write repros here ("" = don't)
//   --journal FILE    checkpoint/resume journal
//   --trace-cases     per-case verdict lines on stderr
//   --write-exemplars DIR   write the first passing case per oracle-relevant
//                     shape plus one injected-fault violation as corpus
//                     seeds, then exit (used once to seed tests/corpus)

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/corpus.hpp"
#include "gen/generator.hpp"
#include "support/rng.hpp"

namespace {

std::uint64_t parse_u64(const std::string& s) {
  return std::stoull(s, nullptr, s.rfind("0x", 0) == 0 ? 16 : 10);
}

/// Seeds `dir` with committed corpus entries: three pass exemplars of
/// different shapes (distinct seeds and knob draws) and one injected-fault
/// violation that pins the triage/replay path.
int write_exemplars(const std::string& dir, std::uint64_t root) {
  using namespace ucp;
  int written = 0;
  for (std::uint32_t i = 0; written < 3 && i < 64; ++i) {
    const std::uint64_t case_seed = split_seed(root, i);
    Rng knob_rng(split_seed(case_seed, 0));
    const gen::GenKnobs knobs = gen::sample_knobs(knob_rng);
    const std::uint64_t gen_seed = split_seed(case_seed, 1);
    fuzz::CorpusEntry entry;
    entry.seed = gen_seed;
    entry.knobs = knobs.to_string();
    entry.program = gen::generate_program(gen_seed, knobs);
    entry.config_id = "k" + std::to_string(7 + 11 * written);
    if (!fuzz::replay_corpus_entry(entry).ok()) continue;  // skipped case
    char name[64];
    std::snprintf(name, sizeof name, "%s/pass_%016" PRIx64 ".ucp",
                  dir.c_str(), gen_seed);
    const Status s = fuzz::write_corpus_entry(name, entry);
    if (!s.ok()) {
      std::cerr << "error: " << s.message() << "\n";
      return 1;
    }
    std::cout << "wrote " << name << "\n";
    ++written;
  }
  // One injected-fault violation: fuzz.oracle is armed at replay time via
  // the `# fault` header, so this entry reproduces forever.
  {
    const std::uint64_t case_seed = split_seed(root, 101);
    Rng knob_rng(split_seed(case_seed, 0));
    const gen::GenKnobs knobs = gen::sample_knobs(knob_rng);
    const std::uint64_t gen_seed = split_seed(case_seed, 1);
    fuzz::CorpusEntry entry;
    entry.seed = gen_seed;
    entry.knobs = knobs.to_string();
    entry.program = gen::generate_program(gen_seed, knobs);
    entry.expect = fuzz::Oracle::kInjected;
    entry.fault_site = "fuzz.oracle";
    entry.detail = "forced violation via the fuzz.oracle fault site";
    const Status ok = fuzz::replay_corpus_entry(entry);
    if (!ok.ok()) {
      std::cerr << "error: injected exemplar does not replay: "
                << ok.message() << "\n";
      return 1;
    }
    char name[64];
    std::snprintf(name, sizeof name, "%s/violation_injected.ucp", dir.c_str());
    const Status s = fuzz::write_corpus_entry(name, entry);
    if (!s.ok()) {
      std::cerr << "error: " << s.message() << "\n";
      return 1;
    }
    std::cout << "wrote " << name << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ucp;
  fuzz::CampaignOptions options;
  std::string metrics_path;
  std::string exemplar_dir;
  bool profile = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed" && i + 1 < argc) {
      options.seed = parse_u64(argv[++i]);
    } else if (a == "--cases" && i + 1 < argc) {
      options.cases = static_cast<std::uint32_t>(parse_u64(argv[++i]));
    } else if (a == "--shrink") {
      options.shrink = true;
    } else if (a == "--no-shrink") {
      options.shrink = false;
    } else if (a == "--rotation" && i + 1 < argc) {
      options.config_rotation =
          static_cast<std::uint32_t>(parse_u64(argv[++i]));
    } else if (a == "--fault-every" && i + 1 < argc) {
      options.fault_every = static_cast<std::uint32_t>(parse_u64(argv[++i]));
    } else if (a == "--large-scale" && i + 1 < argc) {
      options.large_scale = static_cast<std::uint32_t>(parse_u64(argv[++i]));
    } else if (a == "--corpus" && i + 1 < argc) {
      options.corpus_dir = argv[++i];
    } else if (a == "--journal" && i + 1 < argc) {
      options.journal_path = argv[++i];
    } else if (a == "--trace-cases") {
      options.trace = true;
    } else if (a == "--progress" && i + 1 < argc) {
      options.progress_every =
          static_cast<std::uint32_t>(parse_u64(argv[++i]));
    } else if (a == "--threads" && i + 1 < argc) {
      options.threads = static_cast<std::uint32_t>(parse_u64(argv[++i]));
    } else if (a == "--shard" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t slash = spec.find('/');
      if (slash == std::string::npos) {
        std::cerr << "--shard expects i/N (e.g. --shard 0/4)\n";
        return 2;
      }
      options.shard_index =
          static_cast<std::uint32_t>(parse_u64(spec.substr(0, slash)));
      options.shard_count =
          static_cast<std::uint32_t>(parse_u64(spec.substr(slash + 1)));
      if (options.shard_count == 0 ||
          options.shard_index >= options.shard_count) {
        std::cerr << "--shard " << spec << ": need 0 <= i < N\n";
        return 2;
      }
    } else if (a == "--write-exemplars" && i + 1 < argc) {
      exemplar_dir = argv[++i];
    } else if (a.rfind("--metrics=", 0) == 0) {
      metrics_path = a.substr(10);
    } else if (a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(8);
    } else if (a == "--profile") {
      profile = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n"
                << "usage: " << argv[0]
                << " [--seed N] [--cases N] [--shrink|--no-shrink]"
                   " [--rotation N] [--fault-every N] [--large-scale N]"
                   " [--corpus DIR]"
                   " [--journal FILE] [--trace-cases] [--progress N]"
                   " [--threads N] [--shard i/N]"
                   " [--write-exemplars DIR] [--metrics=FILE]"
                   " [--trace=FILE] [--profile]\n";
      return 2;
    }
  }

  bench::ObsSession obs(trace_path, metrics_path, profile);
  if (!exemplar_dir.empty()) return write_exemplars(exemplar_dir, options.seed);

  const fuzz::CampaignResult result = fuzz::run_campaign(options);

  std::cout << "fuzz campaign: seed=0x" << std::hex << options.seed
            << std::dec << " cases=" << result.verdicts.size()
            << " (resumed " << result.resumed << ")\n"
            << "  violations:  " << result.violations << " ("
            << result.unexplained << " unexplained)\n"
            << "  skipped:     " << result.skipped << "\n"
            << "  faulted:     " << result.faulted << "\n"
            << "  shrunk:      " << result.shrunk << "\n"
            << "  fingerprint: " << result.fingerprint << "\n";
  if (!result.journal_note.empty())
    std::cout << "  journal:     " << result.journal_note << "\n";
  for (const std::string& p : result.repro_paths)
    std::cout << "  repro:       " << p << "\n";

  if (result.unexplained > 0) {
    std::cerr << "error: " << result.unexplained
              << " unexplained soundness violation(s)\n";
    for (const auto& v : result.verdicts)
      if (v.violated() && v.fault_site.empty())
        std::cerr << "  " << v.line() << "\n    " << v.note << "\n";
    return 1;
  }
  return 0;
}
