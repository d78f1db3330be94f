// Soundness-fuzzer suites: the differential oracle battery, the
// delta-debug shrinker, corpus round-tripping + committed-corpus replay,
// and campaign determinism / resume / fault-crossing.

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <algorithm>
#include <csignal>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "energy/model.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"
#include "gen/generator.hpp"
#include "ir/builder.hpp"
#include "ir/text_codec.hpp"
#include "ir/verify.hpp"
#include "support/fault_injection.hpp"
#include "support/rng.hpp"

namespace ucp {
namespace {

using fuzz::Oracle;

fuzz::OracleOptions k7_options() {
  fuzz::OracleOptions options;
  const cache::NamedCacheConfig& named = cache::paper_cache_config("k7");
  options.config = named.config;
  options.timing = energy::derive_timing(named.config, energy::TechNode::k45nm);
  return options;
}

ir::Program generated(std::uint64_t seed) {
  Rng rng(split_seed(seed, 0));
  const gen::GenKnobs knobs = gen::sample_knobs(rng);
  return gen::generate_program(split_seed(seed, 1), knobs);
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name + "." + std::to_string(::getpid())) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

// --- oracles ---------------------------------------------------------------

TEST(Oracles, NamesRoundTrip) {
  for (const Oracle o :
       {Oracle::kNone, Oracle::kRuntime, Oracle::kSimVsIpet, Oracle::kMustHit,
        Oracle::kMustMiss, Oracle::kPersistence, Oracle::kTheorem1,
        Oracle::kCertificate, Oracle::kInjected})
    EXPECT_EQ(fuzz::oracle_from_name(fuzz::oracle_name(o)), o);
  EXPECT_THROW(fuzz::oracle_from_name("bogus"), InvalidArgument);
}

TEST(Oracles, GeneratedProgramsPassTheBattery) {
  const fuzz::OracleOptions options = k7_options();
  int full_runs = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    fault::disarm_all();
    const fuzz::OracleReport report =
        fuzz::check_program(generated(seed), options);
    EXPECT_FALSE(report.violated())
        << "seed " << seed << ": " << fuzz::oracle_name(report.violation)
        << " — " << report.detail;
    if (report.pipeline_ok) {
      ++full_runs;
      EXPECT_GT(report.checks_run, 0u);
      EXPECT_LE(report.sim_mem_cycles, report.tau_original) << "seed " << seed;
    }
  }
  EXPECT_GT(full_runs, 0) << "every case skipped; oracle battery never ran";
}

TEST(Oracles, InjectedFaultForcesExplainedViolation) {
  fault::ScopedFault fault("fuzz.oracle");
  const fuzz::OracleReport report =
      fuzz::check_program(generated(3), k7_options());
  EXPECT_EQ(report.violation, Oracle::kInjected);
}

TEST(Oracles, ArmedSimFaultIsASkipNotAViolation) {
  fault::ScopedFault fault("sim.step");
  const fuzz::OracleReport report =
      fuzz::check_program(generated(3), k7_options());
  EXPECT_FALSE(report.violated()) << report.detail;
  EXPECT_FALSE(report.pipeline_ok);
}

TEST(Oracles, VerdictIsDeterministic) {
  const fuzz::OracleOptions options = k7_options();
  const ir::Program p = generated(5);
  const fuzz::OracleReport a = fuzz::check_program(p, options);
  const fuzz::OracleReport b = fuzz::check_program(p, options);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.tau_original, b.tau_original);
  EXPECT_EQ(a.tau_optimized, b.tau_optimized);
  EXPECT_EQ(a.sim_mem_cycles, b.sim_mem_cycles);
  EXPECT_EQ(a.instructions, b.instructions);
}

// --- shrinker --------------------------------------------------------------

TEST(Shrink, RebuildReachableDropsOrphanBlocks) {
  const ir::Program p = generated(7);
  ir::Program copy(p);
  // Orphan: a block nothing points at. rebuild must drop it and keep the
  // rest verifying.
  const ir::BlockId orphan = copy.add_block("orphan");
  {
    ir::Instruction halt;
    halt.op = ir::Opcode::kHalt;
    copy.append(orphan, halt);
  }
  const ir::Program rebuilt = fuzz::rebuild_reachable(copy);
  EXPECT_EQ(rebuilt.num_blocks(), p.num_blocks());
  EXPECT_TRUE(ir::verify_issues(rebuilt).empty());
  EXPECT_EQ(ir::to_text(rebuilt), ir::to_text(p));
}

TEST(Shrink, MinimizesToThePredicateCore) {
  const ir::Program p = generated(11);
  // Synthetic predicate: "program still contains a store". The minimum is
  // tiny; the shrinker should get far below the input size.
  const auto has_store = [](const ir::Program& candidate) {
    for (ir::BlockId b = 0; b < candidate.num_blocks(); ++b)
      for (const auto& in : candidate.block(b).instrs)
        if (in.op == ir::Opcode::kStore) return true;
    return false;
  };
  ASSERT_TRUE(has_store(p));
  const fuzz::ShrinkResult r = fuzz::shrink_program(p, has_store);
  EXPECT_TRUE(r.reproduced);
  EXPECT_FALSE(r.aborted);
  EXPECT_GT(r.accepted, 0u);
  EXPECT_TRUE(has_store(r.program));
  EXPECT_TRUE(ir::verify_issues(r.program).empty());
  std::size_t before = 0, after = 0;
  for (ir::BlockId b = 0; b < p.num_blocks(); ++b)
    before += p.block(b).instrs.size();
  for (ir::BlockId b = 0; b < r.program.num_blocks(); ++b)
    after += r.program.block(b).instrs.size();
  EXPECT_LT(after, before);
}

TEST(Shrink, UnreproducibleInputIsReturnedUnshrunk) {
  const ir::Program p = generated(11);
  const fuzz::ShrinkResult r =
      fuzz::shrink_program(p, [](const ir::Program&) { return false; });
  EXPECT_FALSE(r.reproduced);
  EXPECT_EQ(r.checks, 1u);
  EXPECT_EQ(ir::to_text(r.program), ir::to_text(p));
}

TEST(Shrink, ShrinkFaultAbortsCleanly) {
  fault::ScopedFault fault("fuzz.shrink");
  const ir::Program p = generated(11);
  const fuzz::ShrinkResult r =
      fuzz::shrink_program(p, [](const ir::Program&) { return true; });
  EXPECT_TRUE(r.reproduced);
  EXPECT_TRUE(r.aborted);
  EXPECT_TRUE(ir::verify_issues(r.program).empty());
}

// --- corpus ----------------------------------------------------------------

TEST(Corpus, EntryRoundTripsThroughText) {
  fuzz::CorpusEntry entry;
  entry.name = "roundtrip";
  entry.seed = 0xdeadbeef;
  entry.knobs = "blocks=12 depth=2";
  entry.expect = Oracle::kTheorem1;
  entry.detail = "example detail line";
  entry.fault_site = "fuzz.oracle";
  entry.config_id = "k13";
  entry.program = generated(13);

  const std::string text = fuzz::corpus_to_text(entry);
  const fuzz::CorpusEntry back = fuzz::corpus_from_text(text, "roundtrip");
  EXPECT_EQ(back.seed, entry.seed);
  EXPECT_EQ(back.knobs, entry.knobs);
  EXPECT_EQ(back.expect, entry.expect);
  EXPECT_EQ(back.detail, entry.detail);
  EXPECT_EQ(back.fault_site, entry.fault_site);
  EXPECT_EQ(back.config_id, entry.config_id);
  EXPECT_EQ(ir::to_text(back.program), ir::to_text(entry.program));
  // Byte-stable: serializing the parsed entry reproduces the text.
  EXPECT_EQ(fuzz::corpus_to_text(back), text);
}

TEST(Corpus, WriteReadReplay) {
  TempFile file("corpus_entry");
  fuzz::CorpusEntry entry;
  entry.seed = 42;
  entry.program = generated(42);
  ASSERT_TRUE(fuzz::write_corpus_entry(file.path, entry).ok());
  const auto read = fuzz::read_corpus_entry(file.path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  const Status replayed = fuzz::replay_corpus_entry(*read);
  EXPECT_TRUE(replayed.ok()) << replayed.message();
}

TEST(Corpus, MalformedFileIsRejected) {
  TempFile file("corpus_bad");
  {
    std::ofstream out(file.path);
    out << "just some text\n";
  }
  EXPECT_FALSE(fuzz::read_corpus_entry(file.path).ok());
  EXPECT_FALSE(fuzz::read_corpus_entry(file.path + ".missing").ok());
}

// Every committed repro in tests/corpus must replay exactly as recorded —
// this is the regression gate past campaign findings feed into.
TEST(Corpus, CommittedCorpusReplays) {
  const std::vector<std::string> files =
      fuzz::list_corpus_files(UCP_CORPUS_DIR);
  ASSERT_FALSE(files.empty()) << "no committed corpus under " UCP_CORPUS_DIR;
  for (const std::string& path : files) {
    fault::disarm_all();
    const auto entry = fuzz::read_corpus_entry(path);
    ASSERT_TRUE(entry.ok()) << path << ": " << entry.status().message();
    const Status replayed = fuzz::replay_corpus_entry(*entry);
    EXPECT_TRUE(replayed.ok()) << path << ": " << replayed.message();
  }
}

// Every file under tests/corpus/adversarial is a codec attack: malformed,
// truncated, oversized or limit-busting IR text harvested from hardening
// work. The checked parser must reject each with a structured
// kMalformedInput Status — never an exception, abort, or hang. The plain
// list_corpus_files glob skips these (they are .txt, not .ucp repros).
TEST(Corpus, AdversarialCodecCorpusRejectsStructurally) {
  const std::string dir = std::string(UCP_CORPUS_DIR) + "/adversarial";
  std::vector<std::string> files;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".txt") == 0)
        files.push_back(dir + "/" + name);
    }
    ::closedir(d);
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no adversarial corpus under " << dir;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto parsed = ir::from_text_checked(text);
    EXPECT_FALSE(parsed.ok()) << path << " unexpectedly parsed";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedInput)
          << path << ": " << parsed.status().message();
      EXPECT_FALSE(parsed.status().message().empty()) << path;
    }
  }
}

// Tightened CodecLimits must trip as structured rejections on otherwise
// valid programs — the daemon leans on these caps to bound per-request work.
TEST(Corpus, CodecLimitsRejectStructurally) {
  const ir::Program program = generated(0xc0dec);
  const std::string text = ir::to_text(program);
  ASSERT_TRUE(ir::from_text_checked(text).ok());

  const auto expect_rejected = [&](const ir::CodecLimits& limits,
                                   const char* what) {
    const auto parsed = ir::from_text_checked(text, limits);
    ASSERT_FALSE(parsed.ok()) << what;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedInput) << what;
  };
  ir::CodecLimits limits;
  limits.max_bytes = 16;
  expect_rejected(limits, "max_bytes");
  limits = {};
  limits.max_lines = 4;
  expect_rejected(limits, "max_lines");
  limits = {};
  limits.max_blocks = 1;
  expect_rejected(limits, "max_blocks");
  limits = {};
  limits.max_instructions = 2;
  expect_rejected(limits, "max_instructions");
  limits = {};
  limits.max_name_bytes = 1;
  expect_rejected(limits, "max_name_bytes");
}

// --- campaign --------------------------------------------------------------

fuzz::CampaignOptions small_campaign() {
  fuzz::CampaignOptions options;
  options.seed = 0x5eed;
  options.cases = 12;
  options.shrink = false;
  return options;
}

TEST(Campaign, DeterministicAcrossRunsAndTraceFlag) {
  fault::disarm_all();
  fuzz::CampaignOptions options = small_campaign();
  const fuzz::CampaignResult a = fuzz::run_campaign(options);
  options.trace = true;  // per-case stderr lines must not change verdicts
  const fuzz::CampaignResult b = fuzz::run_campaign(options);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.verdicts.size(), b.verdicts.size());
  EXPECT_EQ(a.unexplained, 0u);
  for (std::size_t i = 0; i < a.verdicts.size(); ++i)
    EXPECT_EQ(a.verdicts[i].line(), b.verdicts[i].line()) << "case " << i;
}

TEST(Campaign, LargeScaleCaseIsLargeDeterministicAndClean) {
  // The fuzz_smoke option: the final case's knobs are replaced by the
  // scaled-program recipe. It must dwarf every sampled-knob case, stay
  // deterministic, and come back violation-free like any other case.
  fault::disarm_all();
  fuzz::CampaignOptions options = small_campaign();
  options.large_scale = 10;
  const fuzz::CampaignResult a = fuzz::run_campaign(options);
  const fuzz::CampaignResult b = fuzz::run_campaign(options);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.unexplained, 0u);
  ASSERT_EQ(a.verdicts.size(), options.cases);
  const fuzz::CaseVerdict& large = a.verdicts.back();
  EXPECT_FALSE(large.violated());
  EXPECT_TRUE(large.pipeline_ok);

  // Pin the override recipe by regenerating the designated case outside
  // the campaign: same seed split, scaled knobs. The program must be
  // statically large — the sampled knobs never approach 240 blocks.
  const std::uint64_t case_seed =
      split_seed(options.seed, options.cases - 1);
  const ir::Program large_program = gen::generate_program(
      split_seed(case_seed, 1), gen::scaled_knobs(options.large_scale));
  EXPECT_GE(large_program.num_blocks(), 150u);

  // Only the designated case changes relative to a plain campaign: the
  // override draws nothing from the sampled streams.
  fuzz::CampaignOptions plain = small_campaign();
  const fuzz::CampaignResult base = fuzz::run_campaign(plain);
  ASSERT_EQ(base.verdicts.size(), a.verdicts.size());
  for (std::size_t i = 0; i + 1 < a.verdicts.size(); ++i)
    EXPECT_EQ(a.verdicts[i].line(), base.verdicts[i].line()) << "case " << i;
  EXPECT_NE(large.line(), base.verdicts.back().line());
}

TEST(Campaign, VerdictLinesParseBack) {
  fault::disarm_all();
  const fuzz::CampaignResult r = fuzz::run_campaign(small_campaign());
  for (const fuzz::CaseVerdict& v : r.verdicts) {
    fuzz::CaseVerdict back;
    ASSERT_TRUE(fuzz::CaseVerdict::parse(v.line(), back)) << v.line();
    EXPECT_EQ(back.line(), v.line());
  }
}

TEST(Campaign, JournalResumeContinuesBitIdentical) {
  fault::disarm_all();
  TempFile journal("fuzz_journal");

  fuzz::CampaignOptions options = small_campaign();
  options.journal_path = journal.path;
  options.cases = 6;
  const fuzz::CampaignResult first = fuzz::run_campaign(options);
  EXPECT_EQ(first.resumed, 0u);

  // Same campaign, extended: the 6 journaled verdicts are reused, and the
  // final fingerprint equals an uninterrupted 12-case run.
  options.cases = 12;
  const fuzz::CampaignResult resumed = fuzz::run_campaign(options);
  EXPECT_EQ(resumed.resumed, 6u);

  fuzz::CampaignOptions fresh = small_campaign();
  fresh.cases = 12;
  const fuzz::CampaignResult uninterrupted = fuzz::run_campaign(fresh);
  EXPECT_EQ(resumed.fingerprint, uninterrupted.fingerprint);
}

TEST(Campaign, TornJournalTailIsDiscarded) {
  fault::disarm_all();
  TempFile journal("fuzz_torn_journal");
  fuzz::CampaignOptions options = small_campaign();
  options.journal_path = journal.path;
  const fuzz::CampaignResult first = fuzz::run_campaign(options);

  // Chop mid-record, as a crash between write and fsync would.
  std::ifstream in(journal.path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(contents.size(), 40u);
  std::ofstream out(journal.path, std::ios::binary | std::ios::trunc);
  out << contents.substr(0, contents.size() - 25);
  out.close();

  const fuzz::CampaignResult resumed = fuzz::run_campaign(options);
  EXPECT_GT(resumed.resumed, 0u);
  EXPECT_LT(resumed.resumed, options.cases);
  EXPECT_EQ(resumed.fingerprint, first.fingerprint);
}

TEST(Campaign, MismatchedOptionsResetTheJournal) {
  fault::disarm_all();
  TempFile journal("fuzz_reset_journal");
  fuzz::CampaignOptions options = small_campaign();
  options.journal_path = journal.path;
  fuzz::run_campaign(options);

  options.seed += 1;  // different campaign; journal must not be reused
  const fuzz::CampaignResult r = fuzz::run_campaign(options);
  EXPECT_EQ(r.resumed, 0u);
  EXPECT_NE(r.journal_note.find("reset"), std::string::npos)
      << r.journal_note;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(Campaign, KilledMidAppendResumesToTheSameFingerprint) {
  fault::disarm_all();
  TempFile journal("fuzz_kill_journal");
  fuzz::CampaignOptions options = small_campaign();
  options.journal_path = journal.path;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // The third append writes a torn record, fsyncs it and dies by SIGKILL.
    fault::arm("io.journal_kill", /*skip=*/2);
    fuzz::run_campaign(options);
    std::_Exit(42);  // only reached if the fault never fired
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited normally; the kill fault did not fire";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  const fuzz::CampaignResult resumed = fuzz::run_campaign(options);
  EXPECT_EQ(resumed.resumed, 2u) << resumed.journal_note;
  EXPECT_NE(resumed.journal_note.find("torn tail truncated"),
            std::string::npos)
      << resumed.journal_note;
  EXPECT_EQ(resumed.fingerprint,
            fuzz::run_campaign(small_campaign()).fingerprint);
}

TEST(Campaign, OpeningAValidJournalLeavesItsBytesUnchanged) {
  fault::disarm_all();
  TempFile journal("fuzz_unchanged_journal");
  fuzz::CampaignOptions options = small_campaign();
  options.journal_path = journal.path;
  fuzz::run_campaign(options);
  const std::string bytes = slurp(journal.path);
  ASSERT_FALSE(bytes.empty());

  // Every case resumes, none runs: the journal must not be rewritten.
  const fuzz::CampaignResult again = fuzz::run_campaign(options);
  EXPECT_EQ(again.resumed, options.cases);
  EXPECT_EQ(slurp(journal.path), bytes);
}

TEST(Campaign, ThreadCountInvariantJournalAndFingerprint) {
  // Workers finish cases in any order; the commit frontier appends the
  // verdicts in index order, so a 4-thread campaign writes the 1-thread
  // journal byte for byte.
  fault::disarm_all();
  TempFile serial_journal("fuzz_threads1_journal");
  TempFile pooled_journal("fuzz_threads4_journal");
  fuzz::CampaignOptions serial = small_campaign();
  serial.journal_path = serial_journal.path;
  fuzz::CampaignOptions pooled = serial;
  pooled.journal_path = pooled_journal.path;
  pooled.threads = 4;
  const fuzz::CampaignResult a = fuzz::run_campaign(serial);
  const fuzz::CampaignResult b = fuzz::run_campaign(pooled);

  EXPECT_EQ(a.unexplained, 0u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.verdicts.size(), serial.cases);
  ASSERT_EQ(b.verdicts.size(), serial.cases);
  for (std::size_t i = 0; i < a.verdicts.size(); ++i)
    EXPECT_EQ(a.verdicts[i].line(), b.verdicts[i].line()) << "case " << i;
  const std::string bytes = slurp(serial_journal.path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(slurp(pooled_journal.path), bytes);
}

TEST(Campaign, VersionOneJournalResetsWithAVersionReason) {
  fault::disarm_all();
  TempFile journal("fuzz_v1_journal");
  fuzz::CampaignOptions options = small_campaign();
  options.journal_path = journal.path;
  const fuzz::CampaignResult first = fuzz::run_campaign(options);

  // v1 journals separated the checksum with a tab; relabel the header as v1
  // and check that its rows are not reinterpreted.
  std::string bytes = slurp(journal.path);
  const std::string magic = "# ucp-fuzz-journal v2 ";
  ASSERT_EQ(bytes.rfind(magic, 0), 0u) << bytes.substr(0, 80);
  bytes.replace(0, magic.size(), "# ucp-fuzz-journal v1 ");
  std::ofstream(journal.path, std::ios::binary | std::ios::trunc) << bytes;

  const fuzz::CampaignResult r = fuzz::run_campaign(options);
  EXPECT_EQ(r.resumed, 0u);
  EXPECT_NE(r.journal_note.find("reset (journal format v1, expected v2)"),
            std::string::npos)
      << r.journal_note;
  EXPECT_EQ(r.fingerprint, first.fingerprint);
}

// Crossing the oracles with the fault registry: every armed compute-path
// fault must come back explained (a skip, an identity degradation, or the
// kInjected verdict) — never as an unexplained violation.
TEST(Campaign, ArmedFaultsNeverProduceUnexplainedViolations) {
  fault::disarm_all();
  fuzz::CampaignOptions options = small_campaign();
  options.cases = 24;
  options.fault_every = 3;
  const fuzz::CampaignResult r = fuzz::run_campaign(options);
  EXPECT_EQ(r.unexplained, 0u);
  EXPECT_EQ(r.faulted, 8u);
  bool saw_injected = false;
  for (const fuzz::CaseVerdict& v : r.verdicts) {
    if (v.violated()) {
      EXPECT_FALSE(v.fault_site.empty()) << v.line();
    }
    if (v.violation == Oracle::kInjected) saw_injected = true;
  }
  EXPECT_TRUE(saw_injected) << "fault rotation never hit fuzz.oracle";
  fault::disarm_all();
}

TEST(Campaign, CleanCampaignWritesNoRepros) {
  fault::disarm_all();
  const std::string dir = testing::TempDir() + "fuzz_corpus_clean." +
                          std::to_string(::getpid());
  ::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());
  fuzz::CampaignOptions options = small_campaign();
  options.corpus_dir = dir;
  const fuzz::CampaignResult r = fuzz::run_campaign(options);
  EXPECT_EQ(r.unexplained, 0u);
  EXPECT_TRUE(r.repro_paths.empty());
  EXPECT_TRUE(fuzz::list_corpus_files(dir).empty());
  ::system(("rm -rf '" + dir + "'").c_str());
}

// An injected (explained) violation is still written as a repro — carrying
// its `# fault` header — and that repro replays against the expectation.
TEST(Campaign, InjectedViolationIsWrittenAsReplayableRepro) {
  fault::disarm_all();
  const std::string dir = testing::TempDir() + "fuzz_corpus_repro." +
                          std::to_string(::getpid());
  ::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());

  fuzz::CampaignOptions options = small_campaign();
  options.cases = 8;       // with fault_every=1, case index 7 arms fuzz.oracle
  options.fault_every = 1;
  options.corpus_dir = dir;
  const fuzz::CampaignResult r = fuzz::run_campaign(options);
  EXPECT_EQ(r.unexplained, 0u);
  ASSERT_FALSE(r.repro_paths.empty());

  fault::disarm_all();
  const auto entry = fuzz::read_corpus_entry(r.repro_paths.front());
  ASSERT_TRUE(entry.ok()) << entry.status().message();
  EXPECT_EQ(entry->expect, Oracle::kInjected);
  EXPECT_EQ(entry->fault_site, "fuzz.oracle");
  const Status replayed = fuzz::replay_corpus_entry(*entry);
  EXPECT_TRUE(replayed.ok()) << replayed.message();
  ::system(("rm -rf '" + dir + "'").c_str());
}

}  // namespace
}  // namespace ucp
