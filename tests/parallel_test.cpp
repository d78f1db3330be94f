// Parallel-determinism suite: the sweep's bit-identity claims must hold at
// every thread count and across process shards. Pins (a) thread-count
// invariance of the result fingerprint AND the journal file bytes, (b) the
// shard/merge round trip — two shard journals merged back into a byte-
// identical full-grid journal with identical row-derived metrics, (c)
// SIGKILL + resume of one shard feeding a still-bit-identical merge, and
// the two support/parallel primitives the sweep runs on: (d) the
// deterministic lowest-failing-index error discipline of
// support::parallel_for_index and (e) support::CommitFrontier's in-order,
// one-committer-at-a-time commits.
//
// Journal byte comparisons run with obs disabled: an obs-enabled sweep
// appends a trailing `# metrics {...}` annotation (a comment, excluded from
// resume and from the merge), which a merged journal does not carry. The
// annotation itself leaves out wall-clock series, so (f) whole obs-enabled
// journals written by separate bench processes are byte-identical too.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "exp/journal.hpp"
#include "obs/metrics.hpp"
#include "support/fault_injection.hpp"
#include "support/parallel.hpp"

namespace ucp::exp {
namespace {

/// Reduced but non-trivial grid: three programs of different weight classes
/// (fdct reaches the optimizer's candidate walk, bs covers the no-candidate
/// path, crc adds a third weight) x three configurations x both tech nodes
/// = 18 rows over 9 tasks, enough for a 2-shard split to own >= 4 tasks
/// each and for threads {1,2,4} to actually interleave.
SweepOptions reduced_sweep(std::uint32_t threads,
                           const std::string& journal = "") {
  SweepOptions options;
  options.programs = {"bs", "fdct", "crc"};
  options.config_stride = 12;  // k1, k13, k25
  options.threads = threads;
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Row-derived metrics snapshot of a result set: what publish_sweep_metrics
/// emits when the report is re-derived purely from the rows. Two result
/// sets with bit-identical rows must produce byte-identical snapshots.
std::string row_metrics_snapshot(const std::vector<UseCaseResult>& results) {
  Sweep view;
  view.results = results;
  view.report = derive_row_report(results);
  obs::set_enabled(true);
  obs::registry().reset_values();
  publish_sweep_metrics(view);
  const std::string json = obs::snapshot_json(obs::registry().snapshot());
  obs::set_enabled(false);
  obs::registry().reset_values();
  return json;
}

TEST(Parallel, ThreadCountInvariantFingerprintAndJournalBytes) {
  obs::set_enabled(false);
  fault::disarm_all();
  std::string want_fp;
  std::string want_journal;
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    TempFile journal("parallel_threads_journal");
    const Sweep sweep = run_sweep(reduced_sweep(threads, journal.path));
    ASSERT_TRUE(sweep.report.clean()) << "threads=" << threads;
    EXPECT_EQ(sweep.report.threads_used, threads);
    const std::string fp = sweep_results_fingerprint(sweep.results);
    const std::string bytes = read_file(journal.path);
    ASSERT_FALSE(bytes.empty());
    if (want_fp.empty()) {
      want_fp = fp;
      want_journal = bytes;
      continue;
    }
    EXPECT_EQ(fp, want_fp) << "fingerprint diverged at threads=" << threads;
    EXPECT_EQ(bytes, want_journal)
        << "journal bytes diverged at threads=" << threads;
  }
}

/// Runs bench_table2_configs with `args` in a fresh process, its output
/// discarded; returns the exit code (-1 if it did not exit normally).
int run_table2_bench(const std::vector<std::string>& args) {
  const pid_t child = ::fork();
  if (child < 0) return -1;
  if (child == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    std::vector<char*> argv{const_cast<char*>(UCP_BENCH_TABLE2_PATH)};
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(UCP_BENCH_TABLE2_PATH, argv.data());
    std::_Exit(127);
  }
  int wstatus = 0;
  if (::waitpid(child, &wstatus, 0) != child) return -1;
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

TEST(Parallel, ObsEnabledJournalIsByteIdenticalAcrossRunsAndThreads) {
  // Each run is its own process, so each starts from an empty metrics
  // registry exactly as an operator's run does; --metrics turns obs on.
  auto journal_of = [](const std::string& tag, std::uint32_t threads) {
    TempFile journal("parallel_obs_journal_" + tag);
    TempFile metrics("parallel_obs_metrics_" + tag);
    const int code = run_table2_bench(
        {"--sweep=6", "--programs", "bs,crc", "--threads",
         std::to_string(threads), "--journal", journal.path,
         "--metrics=" + metrics.path});
    EXPECT_EQ(code, 0) << tag;
    return read_file(journal.path);
  };
  const std::string first = journal_of("a4", 4);
  const std::string second = journal_of("b4", 4);
  const std::string serial = journal_of("c1", 1);
  ASSERT_NE(first.find("\n# metrics {"), std::string::npos)
      << "obs-enabled sweep wrote no metrics annotation";
  EXPECT_EQ(first, second) << "two threads=4 runs wrote different journals";
  EXPECT_EQ(first, serial) << "threads=1 and threads=4 journals differ";
}

TEST(Parallel, TwoShardMergeIsByteIdenticalToSingleProcess) {
  obs::set_enabled(false);
  fault::disarm_all();

  TempFile single_journal("parallel_single_journal");
  const Sweep single = run_sweep(reduced_sweep(2, single_journal.path));
  ASSERT_TRUE(single.report.clean());
  const std::string want_fp = sweep_results_fingerprint(single.results);
  const std::string want_bytes = read_file(single_journal.path);

  TempFile shard0_journal("parallel_shard0_journal");
  TempFile shard1_journal("parallel_shard1_journal");
  SweepOptions shard0 = reduced_sweep(2, shard0_journal.path);
  shard0.shard_index = 0;
  shard0.shard_count = 2;
  SweepOptions shard1 = reduced_sweep(2, shard1_journal.path);
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  const Sweep s0 = run_sweep(shard0);
  const Sweep s1 = run_sweep(shard1);
  ASSERT_TRUE(s0.report.clean());
  ASSERT_TRUE(s1.report.clean());
  EXPECT_EQ(s0.results.size() + s1.results.size(), single.results.size());

  TempFile merged_journal("parallel_merged_journal");
  const auto merged = merge_sweep_journals(
      {shard0_journal.path, shard1_journal.path}, reduced_sweep(1),
      merged_journal.path);
  ASSERT_TRUE(merged.ok()) << merged.status().message();
  EXPECT_EQ(merged->shard_count, 2u);
  EXPECT_EQ(merged->rows, single.results.size());
  EXPECT_EQ(merged->fingerprint, want_fp);
  EXPECT_EQ(sweep_results_fingerprint(merged->results), want_fp);
  EXPECT_EQ(read_file(merged_journal.path), want_bytes)
      << "merged journal is not byte-identical to the single-process one";

  // Row-derived metrics of the merged grid are indistinguishable from the
  // single-process sweep's.
  EXPECT_EQ(row_metrics_snapshot(merged->results),
            row_metrics_snapshot(single.results));

  // Incomplete or overlapping shard sets must be rejected, never guessed at.
  TempFile reject_out("parallel_reject_out");
  const auto missing = merge_sweep_journals({shard0_journal.path},
                                            reduced_sweep(1), reject_out.path);
  EXPECT_FALSE(missing.ok());
  const auto duplicate = merge_sweep_journals(
      {shard0_journal.path, shard0_journal.path}, reduced_sweep(1),
      reject_out.path);
  EXPECT_FALSE(duplicate.ok());
}

TEST(Parallel, MergeRejectionsCarryStructuredDiagnostics) {
  // Every merge rejection must name the offending file and (for row-level
  // corruption) the row, as machine-checkable fields — operators of a
  // sharded fleet triage from the diagnostic, not by parsing prose.
  obs::set_enabled(false);
  fault::disarm_all();

  TempFile shard0_journal("parallel_diag0_journal");
  TempFile shard1_journal("parallel_diag1_journal");
  SweepOptions shard0 = reduced_sweep(2, shard0_journal.path);
  shard0.shard_index = 0;
  shard0.shard_count = 2;
  SweepOptions shard1 = reduced_sweep(2, shard1_journal.path);
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  ASSERT_TRUE(run_sweep(shard0).report.clean());
  ASSERT_TRUE(run_sweep(shard1).report.clean());

  auto read_lines = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  };
  auto write_lines = [](const std::string& path,
                        const std::vector<std::string>& lines) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  };
  const std::vector<std::string> shard0_lines = read_lines(shard0_journal.path);
  ASSERT_GE(shard0_lines.size(), 3u);

  using Reason = MergeDiagnostic::Reason;
  MergeDiagnostic diagnostic;

  // missing-file: a path that does not exist.
  auto gone = merge_sweep_journals({"/nonexistent/journal"}, reduced_sweep(1),
                                   "", &diagnostic);
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(diagnostic.reason, Reason::kMissingFile);
  EXPECT_EQ(diagnostic.file, "/nonexistent/journal");
  EXPECT_STREQ(merge_reason_name(diagnostic.reason), "missing-file");

  // duplicate-shard: the same shard journal offered twice — the *second*
  // occurrence is the offender.
  auto duplicate = merge_sweep_journals(
      {shard0_journal.path, shard0_journal.path}, reduced_sweep(1), "",
      &diagnostic);
  EXPECT_FALSE(duplicate.ok());
  EXPECT_EQ(diagnostic.reason, Reason::kDuplicateShard);
  EXPECT_EQ(diagnostic.file, shard0_journal.path);
  EXPECT_STREQ(merge_reason_name(diagnostic.reason), "duplicate-shard");

  // missing-shard: only half the fleet reported. No single file to blame.
  auto missing = merge_sweep_journals({shard0_journal.path}, reduced_sweep(1),
                                      "", &diagnostic);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(diagnostic.reason, Reason::kMissingShard);
  EXPECT_TRUE(diagnostic.file.empty());
  EXPECT_STREQ(merge_reason_name(diagnostic.reason), "missing-shard");

  // checksum: flip the checksum field of shard 0's second data row. The
  // diagnostic reports the 0-based data-row position within that file.
  {
    TempFile corrupt("parallel_diag_checksum");
    std::vector<std::string> lines = shard0_lines;
    std::string& row = lines[2];  // header + first row precede it
    row.back() = row.back() == '0' ? '1' : '0';
    write_lines(corrupt.path, lines);
    auto torn = merge_sweep_journals({corrupt.path, shard1_journal.path},
                                     reduced_sweep(1), "", &diagnostic);
    EXPECT_FALSE(torn.ok());
    EXPECT_EQ(diagnostic.reason, Reason::kChecksum);
    EXPECT_EQ(diagnostic.file, corrupt.path);
    EXPECT_TRUE(diagnostic.has_row);
    EXPECT_EQ(diagnostic.row_index, 1u);
    EXPECT_STREQ(merge_reason_name(diagnostic.reason), "checksum");
  }

  // divergent: re-serialize an existing row with altered content (valid
  // checksum, same grid index, different bytes) and append it.
  {
    TempFile corrupt("parallel_diag_divergent");
    std::vector<std::string> lines = shard0_lines;
    std::size_t index = 0;
    UseCaseResult r;
    ASSERT_TRUE(SweepJournal::parse_journal_row(lines[1], index, r));
    r.optimized.tau_wcet += 1;
    lines.push_back(SweepJournal::journal_row(r, index));
    write_lines(corrupt.path, lines);
    auto divergent = merge_sweep_journals({corrupt.path, shard1_journal.path},
                                          reduced_sweep(1), "", &diagnostic);
    EXPECT_FALSE(divergent.ok());
    EXPECT_EQ(diagnostic.reason, Reason::kDivergent);
    EXPECT_EQ(diagnostic.file, corrupt.path);
    EXPECT_TRUE(diagnostic.has_row);
    EXPECT_EQ(diagnostic.row_index, index);
    EXPECT_STREQ(merge_reason_name(diagnostic.reason), "divergent");
  }

  // gap: drop shard 0's last row cleanly — every file parses, but the grid
  // has a hole; the diagnostic names the first missing grid row.
  {
    TempFile corrupt("parallel_diag_gap");
    std::vector<std::string> lines = shard0_lines;
    std::size_t dropped_index = 0;
    UseCaseResult r;
    ASSERT_TRUE(
        SweepJournal::parse_journal_row(lines.back(), dropped_index, r));
    lines.pop_back();
    write_lines(corrupt.path, lines);
    auto gap = merge_sweep_journals({corrupt.path, shard1_journal.path},
                                    reduced_sweep(1), "", &diagnostic);
    EXPECT_FALSE(gap.ok());
    EXPECT_EQ(diagnostic.reason, Reason::kGap);
    EXPECT_TRUE(diagnostic.has_row);
    EXPECT_EQ(diagnostic.row_index, dropped_index);
    EXPECT_STREQ(merge_reason_name(diagnostic.reason), "gap");
  }

  // bad-header: a shard journal of an older format version is not merged,
  // whatever its fingerprints say.
  {
    TempFile old_format("parallel_diag_version");
    std::vector<std::string> lines = shard0_lines;
    const std::string magic = "# ucp-sweep-journal v5 ";
    ASSERT_EQ(lines[0].rfind(magic, 0), 0u) << lines[0];
    lines[0].replace(0, magic.size(), "# ucp-sweep-journal v4 ");
    write_lines(old_format.path, lines);
    auto stale = merge_sweep_journals({old_format.path, shard1_journal.path},
                                      reduced_sweep(1), "", &diagnostic);
    EXPECT_FALSE(stale.ok());
    EXPECT_EQ(diagnostic.reason, Reason::kBadHeader);
    EXPECT_EQ(diagnostic.file, old_format.path);
    EXPECT_FALSE(diagnostic.has_row);
    EXPECT_STREQ(merge_reason_name(diagnostic.reason), "bad-header");
  }

  // A clean merge leaves the diagnostic at kNone.
  auto clean = merge_sweep_journals({shard0_journal.path, shard1_journal.path},
                                    reduced_sweep(1), "", &diagnostic);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  EXPECT_EQ(diagnostic.reason, Reason::kNone);
}

TEST(Parallel, KilledShardResumesAndMergesBitIdentical) {
  obs::set_enabled(false);
  fault::disarm_all();

  TempFile reference_journal("parallel_ref_journal");
  const Sweep reference = run_sweep(reduced_sweep(1, reference_journal.path));
  ASSERT_TRUE(reference.report.clean());
  const std::string want_fp = sweep_results_fingerprint(reference.results);
  const std::string want_bytes = read_file(reference_journal.path);

  TempFile shard0_journal("parallel_kill0_journal");
  TempFile shard1_journal("parallel_kill1_journal");
  SweepOptions shard0 = reduced_sweep(1, shard0_journal.path);
  shard0.shard_index = 0;
  shard0.shard_count = 2;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: the second journal append of shard 0 writes a torn record and
    // dies by raise(SIGKILL) — a power cut mid-checkpoint on one shard of a
    // fleet.
    fault::arm("io.journal_kill", /*skip=*/1);
    run_sweep(shard0);
    std::_Exit(42);  // only reached if the fault never fired
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited normally; the kill fault did not fire";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Resume shard 0 in this (never-armed) process; run shard 1 cleanly.
  const Sweep resumed = run_sweep(shard0);
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_GT(resumed.report.resumed_rows, 0u);
  EXPECT_LT(resumed.report.resumed_rows, resumed.results.size());

  SweepOptions shard1 = reduced_sweep(1, shard1_journal.path);
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  ASSERT_TRUE(run_sweep(shard1).report.clean());

  TempFile merged_journal("parallel_kill_merged");
  const auto merged = merge_sweep_journals(
      {shard0_journal.path, shard1_journal.path}, reduced_sweep(1),
      merged_journal.path);
  ASSERT_TRUE(merged.ok()) << merged.status().message();
  EXPECT_EQ(merged->fingerprint, want_fp);
  EXPECT_EQ(read_file(merged_journal.path), want_bytes);
}

TEST(Parallel, LowestFailingIndexWinsAtEveryThreadCount) {
  // Failure is a deterministic property of the index (13 and 57 both
  // throw); the surfaced exception must be index 13's at every thread
  // count, exactly as with threads == 1 — even when a worker hits 57 first.
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      std::vector<std::atomic<char>> ran(100);
      std::string caught;
      try {
        support::parallel_for_index(
            ran.size(), threads, [&](std::size_t i, std::uint32_t) {
              ran[i].store(1, std::memory_order_relaxed);
              if (i == 13 || i == 57)
                throw std::runtime_error("fail@" + std::to_string(i));
            });
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
      EXPECT_EQ(caught, "fail@13") << "threads=" << threads;
      // Indices below the lowest failing one would all have run under the
      // sequential semantics, so they must have run here too.
      for (std::size_t i = 0; i < 13; ++i)
        EXPECT_TRUE(ran[i].load(std::memory_order_relaxed))
            << "index " << i << " abandoned at threads=" << threads;
    }
  }
}

void spin_for(std::chrono::microseconds span) {
  const auto until = std::chrono::steady_clock::now() + span;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Parallel, CommitFrontierCommitsEachIndexOnceInOrder) {
  // Workers finish indices out of order (uneven per-index work); the
  // frontier must hand [0, n) to its commit callback exactly once, in index
  // order, one commit at a time, and never commit past an index that was
  // not marked done.
  constexpr std::size_t kN = 3000;
  constexpr std::size_t kHole = 2000;  // marked only after the pool drains
  for (const std::uint32_t threads : {4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::mutex ranges_mutex;  // keeps the record sound even if commits overlap
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::atomic<bool> in_commit{false};
    std::atomic<std::size_t> overlaps{0};
    support::CommitFrontier frontier(
        kN, [&](std::size_t begin, std::size_t end) {
          if (in_commit.exchange(true)) overlaps.fetch_add(1);
          {
            std::lock_guard<std::mutex> lock(ranges_mutex);
            ranges.emplace_back(begin, end);
          }
          // Hold the commit open long enough for other workers to finish
          // indices and reach done() meanwhile.
          spin_for(std::chrono::microseconds(20));
          in_commit.store(false);
        });
    auto expect_prefix = [&](std::size_t want_end) {
      std::lock_guard<std::mutex> lock(ranges_mutex);
      std::size_t next = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, next);
        EXPECT_LT(begin, end);
        next = end;
      }
      EXPECT_EQ(next, want_end);
    };

    support::parallel_for_index(kN, threads, [&](std::size_t i,
                                                 std::uint32_t) {
      spin_for(std::chrono::microseconds((i * 7919) % 13));
      if (i != kHole) frontier.done(i);
    });
    expect_prefix(kHole);  // the unmarked index stops every later commit
    frontier.done(kHole);
    expect_prefix(kN);
    EXPECT_EQ(overlaps.load(), 0u);
  }
}

TEST(Parallel, ShardedInstrumentsSumExactlyAcrossThreads) {
  // Counter/Histogram shard per thread and merge on read; concurrent
  // recording must lose nothing once the writers are quiescent.
  obs::Counter counter;
  obs::Histogram histogram;
  constexpr std::size_t kEvents = 8000;
  std::uint64_t want_sum = 0;
  for (std::size_t i = 0; i < kEvents; ++i) want_sum += i % 17;
  support::parallel_for_index(kEvents, 8, [&](std::size_t i, std::uint32_t) {
    counter.increment();
    histogram.record(i % 17);
  });
  EXPECT_EQ(counter.value(), kEvents);
  EXPECT_EQ(histogram.count(), kEvents);
  EXPECT_EQ(histogram.sum(), want_sum);
  std::uint64_t bucketed = 0;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b)
    bucketed += histogram.bucket(b);
  EXPECT_EQ(bucketed, kEvents);
}

}  // namespace
}  // namespace ucp::exp
