// Kill/resume and supervision integration tests for the journaled sweep
// runtime: a sweep hard-killed (SIGKILL) mid-append resumes from the last
// durable row and reproduces the uninterrupted result set bit-identically;
// torn tails and stale checkpoints are truncated or reset, never trusted;
// a journal write failure disables checkpointing but not the sweep; the
// retry ladder recovers supervisor cancellations; and an auditor violation
// quarantines deterministically. The RecordLog cases pin the durable log
// every journal is built on: checksums, torn tails, version and header
// resets, annotations and write-fault deactivation.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "exp/journal.hpp"
#include "support/fault_injection.hpp"
#include "support/record_log.hpp"

namespace ucp::exp {
namespace {

/// Same small deterministic grid as the fault suite: fdct reaches the
/// optimizer's candidate walk, bs covers the no-candidate path; one thread
/// so the first journal append (and the first fault hit) is deterministic.
SweepOptions journaled_sweep(const std::string& journal) {
  SweepOptions options;
  options.programs = {"bs", "fdct"};
  options.config_stride = 12;  // k1, k13, k25
  options.techs = {energy::TechNode::k45nm};
  options.threads = 1;
  options.progress_every = 0;
  options.journal_path = journal;
  return options;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name + "." + std::to_string(::getpid())) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string reference_fingerprint() {
  fault::disarm_all();
  const Sweep sweep = run_sweep(journaled_sweep(""));
  EXPECT_TRUE(sweep.report.clean());
  return sweep_results_fingerprint(sweep.results);
}

TEST(Recovery, KillDuringJournalAppendResumesBitIdentical) {
  TempFile journal("recovery_kill_journal");
  const std::string want = reference_fingerprint();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: the second journal append writes a torn record (the full row
    // minus its tail), fsyncs it, and dies by raise(SIGKILL) — the closest
    // reproducible stand-in for a power cut mid-checkpoint.
    fault::arm("io.journal_kill", /*skip=*/1);
    run_sweep(journaled_sweep(journal.path));
    std::_Exit(42);  // only reached if the fault never fired
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited normally; the kill fault did not fire";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Resume in this (never-armed) process: the torn tail is truncated, the
  // durable rows are reused, only the missing rows are recomputed — and the
  // combined result set is bit-identical to the uninterrupted run.
  const Sweep resumed = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_GT(resumed.report.resumed_rows, 0u);
  EXPECT_LT(resumed.report.resumed_rows, resumed.report.total);
  EXPECT_EQ(sweep_results_fingerprint(resumed.results), want);
}

TEST(Recovery, TornTailIsTruncatedAndRecomputed) {
  TempFile journal("recovery_torn_journal");
  fault::disarm_all();
  const Sweep first = run_sweep(journaled_sweep(journal.path));
  ASSERT_TRUE(first.report.clean());
  const std::string want = sweep_results_fingerprint(first.results);

  // Chop the file mid-record, as a crash between write and fsync would.
  std::ifstream in(journal.path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(contents.size(), 32u);
  std::ofstream out(journal.path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - 9));
  out.close();

  const Sweep resumed = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_GT(resumed.report.resumed_rows, 0u);
  EXPECT_LT(resumed.report.resumed_rows, resumed.report.total);
  EXPECT_EQ(sweep_results_fingerprint(resumed.results), want);
}

TEST(Recovery, CompleteJournalResumesEveryRow) {
  TempFile journal("recovery_full_journal");
  fault::disarm_all();
  const Sweep first = run_sweep(journaled_sweep(journal.path));
  ASSERT_TRUE(first.report.clean());

  const Sweep resumed = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_EQ(resumed.report.resumed_rows, resumed.report.total);
  EXPECT_EQ(sweep_results_fingerprint(resumed.results),
            sweep_results_fingerprint(first.results));
}

TEST(Recovery, StaleSelectionFingerprintResetsJournal) {
  TempFile journal("recovery_stale_journal");
  fault::disarm_all();
  SweepOptions narrow = journaled_sweep(journal.path);
  narrow.programs = {"bs"};
  ASSERT_TRUE(run_sweep(narrow).report.clean());

  // A different program selection changes the selection fingerprint: the
  // old checkpoint is worthless and must be reset, not reinterpreted.
  const Sweep second = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(second.report.clean());
  EXPECT_EQ(second.report.resumed_rows, 0u);
  EXPECT_NE(second.report.journal_note.find("reset"), std::string::npos)
      << second.report.journal_note;
}

TEST(Recovery, OlderJournalFormatResetsWithVersionReason) {
  TempFile journal("recovery_version_journal");
  fault::disarm_all();
  ASSERT_TRUE(run_sweep(journaled_sweep(journal.path)).report.clean());

  // Relabel the header as format v4, leaving grid and selection intact: the
  // rows must not be reinterpreted, and the reset must name the version
  // rather than blame the fingerprints.
  std::ifstream in(journal.path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::string magic = "# ucp-sweep-journal v5 ";
  ASSERT_EQ(contents.rfind(magic, 0), 0u) << contents.substr(0, 80);
  contents.replace(0, magic.size(), "# ucp-sweep-journal v4 ");
  std::ofstream out(journal.path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();

  const Sweep second = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(second.report.clean());
  EXPECT_EQ(second.report.resumed_rows, 0u);
  EXPECT_NE(second.report.journal_note.find(
                "journal reset (journal format v4, expected v5)"),
            std::string::npos)
      << second.report.journal_note;
}

TEST(Recovery, JournalWriteFaultDisablesJournalNotTheSweep) {
  TempFile journal("recovery_wfault_journal");
  const std::string want = reference_fingerprint();

  fault::arm("io.journal_write");
  const Sweep sweep = run_sweep(journaled_sweep(journal.path));
  fault::disarm_all();

  // Checkpointing stops, the sweep (and its results) do not.
  EXPECT_TRUE(sweep.report.clean());
  EXPECT_EQ(sweep_results_fingerprint(sweep.results), want);
  EXPECT_NE(sweep.report.journal_note.find("disabled"), std::string::npos)
      << sweep.report.journal_note;
}

TEST(Recovery, LadderRecoversFromSupervisorCancellation) {
  const std::string want = reference_fingerprint();

  SweepOptions supervised = journaled_sweep("");
  supervised.max_attempts = 3;
  fault::arm("supervisor.cancel");
  const Sweep sweep = run_sweep(supervised);
  fault::disarm_all();

  // The cancelled first attempt is retried with a fresh token and recovers
  // cleanly; a recovered row is flagged (attempts, degradation_level) but
  // carries the same metrics as an unfaulted run.
  EXPECT_TRUE(sweep.report.clean());
  EXPECT_GE(sweep.report.retried, 1u);
  EXPECT_GE(sweep.report.recovered, 1u);
  EXPECT_EQ(sweep_results_fingerprint(sweep.results), want);
  for (const UseCaseResult& r : sweep.results) {
    if (r.attempts <= 1) continue;
    EXPECT_EQ(r.degradation_level, 1u);
    EXPECT_EQ(r.outcome, CaseOutcome::kCompleted);
  }
}

TEST(Recovery, InjectedAuditMismatchQuarantinesDeterministically) {
  const SweepOptions options = journaled_sweep("");
  fault::disarm_all();
  fault::arm("audit.mismatch");
  const Sweep a = run_sweep(options);
  fault::arm("audit.mismatch");
  const Sweep b = run_sweep(options);
  fault::disarm_all();

  // Exactly one case (the first audited one — single-threaded, one-shot
  // fault) is demoted to a quarantined degraded row shipping the original
  // binary, and the demotion is deterministic across runs.
  ASSERT_FALSE(a.report.clean());
  EXPECT_EQ(a.report.audit_violations, 1u);
  std::size_t demoted = 0;
  for (const UseCaseResult& r : a.results) {
    if (r.fail_code != ErrorCode::kAuditFailed) continue;
    ++demoted;
    EXPECT_EQ(r.outcome, CaseOutcome::kDegraded);
    EXPECT_EQ(r.fail_stage, "audit");
    EXPECT_TRUE(r.audit.violated);
    EXPECT_EQ(r.optimized.tau_wcet, r.original.tau_wcet);
    EXPECT_TRUE(r.report.insertions.empty());
  }
  EXPECT_EQ(demoted, 1u);
  EXPECT_EQ(sweep_results_fingerprint(a.results),
            sweep_results_fingerprint(b.results));
}

TEST(Recovery, JournalRowRoundTripsQuarantinedRows) {
  // The journal must reproduce quarantined rows exactly, or a resumed sweep
  // would silently launder a degraded case back to healthy-looking.
  fault::disarm_all();
  fault::arm("core.reanalyze");
  const Sweep sweep = run_sweep(journaled_sweep(""));
  fault::disarm_all();
  ASSERT_FALSE(sweep.report.clean());

  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const std::string line = SweepJournal::journal_row(sweep.results[i], i);
    std::size_t index = 0;
    UseCaseResult parsed;
    ASSERT_TRUE(SweepJournal::parse_journal_row(line, index, parsed))
        << line;
    EXPECT_EQ(index, i);
    EXPECT_EQ(sweep_cache_row(parsed), sweep_cache_row(sweep.results[i]));
    EXPECT_EQ(parsed.outcome, sweep.results[i].outcome);
    EXPECT_EQ(parsed.fail_code, sweep.results[i].fail_code);
    EXPECT_EQ(parsed.attempts, sweep.results[i].attempts);
    EXPECT_EQ(parsed.degradation_level, sweep.results[i].degradation_level);
  }
}

TEST(Recovery, ResumedRowsKeepTheirConfiguration) {
  // Journal rows name their configuration by id; a resumed row must carry
  // the configuration itself, or per-size figures lose it.
  TempFile journal("recovery_config_journal");
  fault::disarm_all();
  const Sweep first = run_sweep(journaled_sweep(journal.path));
  const Sweep resumed = run_sweep(journaled_sweep(journal.path));
  ASSERT_EQ(resumed.report.resumed_rows, resumed.report.total);
  ASSERT_EQ(resumed.results.size(), first.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i)
    EXPECT_EQ(resumed.results[i].config.to_string(),
              first.results[i].config.to_string());
  const auto a = aggregate_by_size(first.results);
  const auto b = aggregate_by_size(resumed.results);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].capacity_bytes, b[i].capacity_bytes);
    EXPECT_EQ(a[i].cases, b[i].cases);
    EXPECT_EQ(a[i].mean_energy_ratio, b[i].mean_energy_ratio);
  }
}

TEST(Recovery, InterruptBeforeRunQuarantinesUnrunRowsAndKeepsTheJournal) {
  // Two techs per task, so the kept journal prefix can end inside a task.
  TempFile journal("recovery_interrupt_journal");
  fault::disarm_all();
  SweepOptions options = journaled_sweep(journal.path);
  options.techs = {energy::TechNode::k45nm, energy::TechNode::k32nm};
  const Sweep full = run_sweep(options);
  ASSERT_TRUE(full.report.clean());
  const std::string want_fp = sweep_results_fingerprint(full.results);
  const std::string full_bytes = slurp(journal.path);

  // Keep the header and the first five rows: two whole tasks and half of
  // the third in schedule order.
  constexpr std::size_t kKeptRows = 5;
  std::size_t cut = 0;
  for (std::size_t line = 0; line < 1 + kKeptRows; ++line) {
    cut = full_bytes.find('\n', cut);
    ASSERT_NE(cut, std::string::npos);
    ++cut;
  }
  ASSERT_LT(cut, full_bytes.size());
  const std::string partial = full_bytes.substr(0, cut);
  spit(journal.path, partial);

  request_sweep_interrupt();
  const Sweep interrupted = run_sweep(options);
  clear_sweep_interrupt();
  EXPECT_TRUE(interrupted.report.interrupted);
  EXPECT_EQ(interrupted.report.resumed_rows, kKeptRows);
  ASSERT_EQ(interrupted.results.size(), full.results.size());
  std::size_t quarantined = 0;
  for (const UseCaseResult& r : interrupted.results) {
    if (!r.quarantined()) continue;
    ++quarantined;
    EXPECT_EQ(r.fail_stage, "interrupted") << r.program << "/" << r.config_id;
    EXPECT_EQ(r.fail_code, ErrorCode::kCancelled);
  }
  EXPECT_EQ(quarantined, full.results.size() - kKeptRows);
  EXPECT_EQ(slurp(journal.path), partial);

  const Sweep resumed = run_sweep(options);
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_FALSE(resumed.report.interrupted);
  EXPECT_EQ(resumed.report.resumed_rows, kKeptRows);
  EXPECT_EQ(sweep_results_fingerprint(resumed.results), want_fp);
  EXPECT_EQ(slurp(journal.path), full_bytes);
}

// --- RecordLog: the durable log under every journal -------------------------

const support::RecordLog::Format kLogFormat{"ucp-test-log", 2, " key=1",
                                            "key changed"};

/// Opens `log` at `path`, accepting every record; returns the bodies read.
std::vector<std::string> open_log(support::RecordLog& log,
                                  const std::string& path,
                                  const support::RecordLog::Format& format =
                                      kLogFormat) {
  std::vector<std::string> bodies;
  const Status opened =
      log.open(path, format, [&](std::string_view body) {
        bodies.emplace_back(body);
        return true;
      });
  EXPECT_TRUE(opened.ok()) << opened.message();
  return bodies;
}

/// A log at `path` holding the records "r0", "r1", "r2".
std::string three_record_log(const std::string& path) {
  support::RecordLog log({});
  open_log(log, path);
  EXPECT_TRUE(log.append({"r0", "r1"}).ok());
  EXPECT_TRUE(log.append({"r2"}).ok());
  log.close();
  return slurp(path);
}

TEST(RecordLog, RecordsRoundTripAndReopeningRewritesNothing) {
  TempFile f("record_log_roundtrip");
  support::RecordLog log({});
  EXPECT_TRUE(open_log(log, f.path).empty());
  EXPECT_TRUE(log.created());
  const std::string cell = "a,b\\c\nd";
  ASSERT_TRUE(log.append({"x," + support::escape_cell(cell)}).ok());
  log.close();
  const std::string bytes = slurp(f.path);
  EXPECT_EQ(bytes.rfind("# ucp-test-log v2 key=1\n", 0), 0u) << bytes;

  const std::vector<std::string> bodies = open_log(log, f.path);
  EXPECT_FALSE(log.created());
  EXPECT_FALSE(log.truncated());
  log.close();
  ASSERT_EQ(bodies.size(), 1u);
  const std::vector<std::string> cells = support::split_cells(bodies[0]);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(support::unescape_cell(cells[1]), cell);
  EXPECT_EQ(slurp(f.path), bytes);
}

TEST(RecordLog, ChecksumFlipTruncatesFromTheBadRecord) {
  TempFile f("record_log_flip");
  std::string bytes = three_record_log(f.path);
  const std::size_t r1 = bytes.find("r1,");
  ASSERT_NE(r1, std::string::npos);
  bytes[r1 + 1] = '7';  // body "r7" no longer matches its checksum
  spit(f.path, bytes);

  support::RecordLog log({});
  const std::vector<std::string> bodies = open_log(log, f.path);
  EXPECT_TRUE(log.truncated());
  log.close();
  EXPECT_EQ(bodies, std::vector<std::string>{"r0"});
  EXPECT_EQ(slurp(f.path), bytes.substr(0, r1));
}

TEST(RecordLog, RowWithoutItsNewlineIsTornAndAppendsResume) {
  TempFile f("record_log_torn");
  const std::string bytes = three_record_log(f.path);
  // Only the final newline is lost: the checksum still holds, but a line
  // without its newline is torn by definition.
  spit(f.path, bytes.substr(0, bytes.size() - 1));

  support::RecordLog log({});
  EXPECT_EQ(open_log(log, f.path), (std::vector<std::string>{"r0", "r1"}));
  EXPECT_TRUE(log.truncated());
  ASSERT_TRUE(log.append({"r2"}).ok());
  log.close();
  EXPECT_EQ(slurp(f.path), bytes);
}

TEST(RecordLog, StaleVersionResetsWithVersionReason) {
  TempFile f("record_log_version");
  support::RecordLog::Format v1 = kLogFormat;
  v1.version = 1;
  {
    support::RecordLog log({});
    open_log(log, f.path, v1);
    ASSERT_TRUE(log.append({"old"}).ok());
  }
  support::RecordLog log({});
  EXPECT_TRUE(open_log(log, f.path).empty());
  EXPECT_EQ(log.reset_reason(), "journal format v1, expected v2");
  EXPECT_TRUE(log.created());
  log.close();
  EXPECT_EQ(slurp(f.path), kLogFormat.header() + "\n");
}

TEST(RecordLog, ForeignOrChangedHeaderResets) {
  TempFile f("record_log_foreign");
  spit(f.path, "total garbage, not a log\nr0,0000000000000000\n");
  support::RecordLog log({});
  EXPECT_TRUE(open_log(log, f.path).empty());
  EXPECT_EQ(log.reset_reason(), "not a ucp-test-log file");
  log.close();

  support::RecordLog::Format other = kLogFormat;
  other.fields = " key=2";
  EXPECT_TRUE(open_log(log, f.path, other).empty());
  EXPECT_EQ(log.reset_reason(), "key changed");
  log.close();

  spit(f.path, "");
  EXPECT_TRUE(open_log(log, f.path).empty());
  EXPECT_EQ(log.reset_reason(), "empty or torn header");
}

TEST(RecordLog, AnnotationsAreSkippedOnResume) {
  TempFile f("record_log_annotate");
  support::RecordLog log({});
  open_log(log, f.path);
  ASSERT_TRUE(log.append({"r0"}).ok());
  ASSERT_TRUE(log.annotate("metrics {\"a\": 1}\nsecond line").ok());
  ASSERT_TRUE(log.append({"r1"}).ok());
  log.close();
  EXPECT_NE(slurp(f.path).find("\n# metrics {\"a\": 1} second line\n"),
            std::string::npos);
  EXPECT_EQ(open_log(log, f.path), (std::vector<std::string>{"r0", "r1"}));
  EXPECT_FALSE(log.truncated());
}

TEST(RecordLog, WriteFaultDeactivatesButAnnotationFaultDoesNot) {
  TempFile f("record_log_wfault");
  fault::disarm_all();
  support::RecordLog log({"io.journal_write", nullptr});
  open_log(log, f.path);
  {
    fault::ScopedFault annotation("obs.sink_write");
    EXPECT_FALSE(log.annotate("dropped").ok());
  }
  EXPECT_TRUE(log.active());
  {
    fault::ScopedFault write("io.journal_write");
    EXPECT_FALSE(log.append({"r0"}).ok());
  }
  EXPECT_FALSE(log.active());
  EXPECT_FALSE(log.append({"r1"}).ok());
  EXPECT_TRUE(open_log(log, f.path).empty());
  EXPECT_FALSE(log.truncated());
}

TEST(RecordLog, RejectedSweepRowsAreTruncatedLikeATornTail) {
  // Rows whose checksum holds but that the sweep's policy rejects are cut
  // like a torn tail: a divergent repeat of a row (a row may repeat only
  // byte for byte, after a task was re-appended), a row for a foreign
  // configuration, and a row that does not parse.
  TempFile journal("recovery_rejected_journal");
  fault::disarm_all();
  const Sweep first = run_sweep(journaled_sweep(journal.path));
  ASSERT_TRUE(first.report.clean());
  const std::string bytes = slurp(journal.path);
  const std::string twin = SweepJournal::journal_row(first.results[0], 0);

  UseCaseResult divergent = first.results[0];
  divergent.attempts = 2;
  UseCaseResult foreign = first.results[0];
  foreign.config_id = "k99";
  for (const std::string& bad :
       {SweepJournal::journal_row(divergent, 0),
        SweepJournal::journal_row(foreign, 0),
        support::seal_record("row,0,bs,not-a-number")}) {
    spit(journal.path, bytes + twin + "\n" + bad + "\n");
    const Sweep resumed = run_sweep(journaled_sweep(journal.path));
    EXPECT_EQ(resumed.report.resumed_rows, resumed.report.total);
    EXPECT_NE(resumed.report.journal_note.find("torn tail truncated"),
              std::string::npos)
        << resumed.report.journal_note;
    EXPECT_EQ(sweep_results_fingerprint(resumed.results),
              sweep_results_fingerprint(first.results));
    // The identical repeat survives; the rejected row is gone.
    EXPECT_EQ(slurp(journal.path), bytes + twin + "\n");
  }
}

}  // namespace
}  // namespace ucp::exp
