// Failure-containment property tests: arm every registered fault site in
// turn and assert the sweep survives — no crash, no silent wrong numbers.
// A compute-path fault quarantines exactly the affected use case(s); a
// degraded case ships the original binary, so its metrics equal the
// baseline and Theorem 1 holds trivially (wcet_ratio == 1).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"
#include "gen/generator.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "ir/text_codec.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite/suite.hpp"
#include "support/fault_injection.hpp"
#include "support/rng.hpp"

namespace ucp::exp {
namespace {

SweepOptions small_sweep() {
  SweepOptions options;
  // fdct/k1 evaluates optimizer candidates, so the grid reaches every
  // compute-path site (core.reanalyze fires only during a candidate
  // re-analysis); bs never optimizes and covers the no-candidate path.
  options.programs = {"bs", "fdct"};
  options.config_stride = 12;  // k1, k13, k25
  options.techs = {energy::TechNode::k45nm};
  options.threads = 1;  // deterministic: the fault hits the first use case
  options.progress_every = 0;
  return options;
}

/// Sites on the per-use-case compute path: a one-shot fault here must
/// quarantine a case. (Cache I/O sites are exercised in harness_test.)
const std::vector<std::string> kComputeSites = {
    "sim.step",       "wcet.solve",  "core.reanalyze",
    "core.cancel",    "exp.measure", "exp.task",
};

TEST(FaultSweep, EveryComputeSiteIsContained) {
  for (const std::string& site : kComputeSites) {
    SCOPED_TRACE("site = " + site);
    fault::disarm_all();
    fault::arm(site);
    const Sweep sweep = run_sweep(small_sweep());
    fault::disarm_all();

    // The sweep completes with every grid point accounted for.
    ASSERT_EQ(sweep.results.size(), 2u * 3u);
    EXPECT_EQ(sweep.report.total, sweep.results.size());
    EXPECT_EQ(sweep.report.completed + sweep.report.degraded +
                  sweep.report.failed,
              sweep.report.total);

    // Exactly the faulted case(s) are quarantined, and they are visible.
    EXPECT_GE(sweep.report.degraded + sweep.report.failed, 1u)
        << "fault at " << site << " was swallowed silently";
    EXPECT_FALSE(sweep.report.clean());
    EXPECT_EQ(sweep.report.quarantine.size(),
              sweep.report.degraded + sweep.report.failed);
    for (const DegradedCase& q : sweep.report.quarantine) {
      EXPECT_FALSE(q.stage.empty());
      EXPECT_NE(q.code, ErrorCode::kOk);
    }

    // Degraded cases fell back to the original binary: identical metrics,
    // neutral ratios, no claimed insertions. Theorem 1 holds trivially.
    for (const UseCaseResult& r : sweep.results) {
      if (r.outcome != CaseOutcome::kDegraded) continue;
      EXPECT_EQ(r.optimized.tau_wcet, r.original.tau_wcet);
      EXPECT_EQ(r.optimized.run.mem_cycles, r.original.run.mem_cycles);
      EXPECT_DOUBLE_EQ(r.wcet_ratio(), 1.0);
      EXPECT_DOUBLE_EQ(r.acet_ratio(), 1.0);
      EXPECT_TRUE(r.report.insertions.empty());
      EXPECT_NE(r.fail_code, ErrorCode::kOk);
    }
    // Failed cases have no baseline: every ratio is degenerate and flagged.
    for (const UseCaseResult& r : sweep.results) {
      if (r.outcome != CaseOutcome::kFailed) continue;
      EXPECT_TRUE(r.any_degenerate_ratio());
    }
    // The untouched cases are unaffected by the neighbour's fault.
    for (const UseCaseResult& r : sweep.results) {
      if (r.outcome != CaseOutcome::kCompleted) continue;
      EXPECT_GT(r.original.tau_wcet, 0u);
      EXPECT_LE(r.wcet_ratio(), 1.0 + 1e-9);
    }
  }
}

TEST(FaultSweep, FaultFreeRerunIsClean) {
  fault::disarm_all();
  const Sweep sweep = run_sweep(small_sweep());
  EXPECT_TRUE(sweep.report.clean());
  EXPECT_EQ(sweep.report.completed, sweep.report.total);
}

TEST(FaultUseCase, ReanalysisFaultDegradesToIdentity) {
  // Theorem-1 fallback, single use case: a mid-optimization analysis
  // failure ships the unmodified input program. fdct/k2 is a use case that
  // evaluates (and accepts) candidates, so the re-analysis site is reached.
  const ir::Program p = suite::build_benchmark("fdct");
  const auto& k = cache::paper_cache_config("k2");
  fault::disarm_all();

  const UseCaseResult healthy =
      run_use_case(p, "fdct", k, energy::TechNode::k32nm);
  ASSERT_EQ(healthy.outcome, CaseOutcome::kCompleted);

  fault::ScopedFault f("core.reanalyze");
  const UseCaseResult faulted =
      run_use_case(p, "fdct", k, energy::TechNode::k32nm);
  ASSERT_EQ(faulted.outcome, CaseOutcome::kDegraded);
  EXPECT_EQ(faulted.fail_stage, "optimize");
  EXPECT_EQ(faulted.fail_code, ErrorCode::kAnalysisFailed);
  // Baseline measurement is unaffected by the optimizer fault...
  EXPECT_EQ(faulted.original.tau_wcet, healthy.original.tau_wcet);
  // ...and the shipped binary is the baseline itself.
  EXPECT_EQ(faulted.optimized.tau_wcet, faulted.original.tau_wcet);
  EXPECT_DOUBLE_EQ(faulted.wcet_ratio(), 1.0);
  EXPECT_TRUE(faulted.report.insertions.empty());
}

TEST(FaultUseCase, CancelFaultReportsCancelled) {
  const ir::Program p = suite::build_benchmark("bs");
  const auto& k = cache::paper_cache_config("k1");
  fault::ScopedFault f("core.cancel");
  const UseCaseResult r = run_use_case(p, "bs", k, energy::TechNode::k45nm);
  EXPECT_EQ(r.outcome, CaseOutcome::kDegraded);
  EXPECT_EQ(r.fail_code, ErrorCode::kCancelled);
  EXPECT_DOUBLE_EQ(r.wcet_ratio(), 1.0);
}

TEST(FaultUseCase, MeasureFaultOnBaselineFailsTheCase) {
  const ir::Program p = suite::build_benchmark("bs");
  const auto& k = cache::paper_cache_config("k1");
  fault::ScopedFault f("exp.measure");
  const UseCaseResult r = run_use_case(p, "bs", k, energy::TechNode::k45nm);
  EXPECT_EQ(r.outcome, CaseOutcome::kFailed);
  EXPECT_EQ(r.fail_stage, "measure_original");
  EXPECT_EQ(r.fail_code, ErrorCode::kFaultInjected);
  EXPECT_TRUE(r.any_degenerate_ratio());
}

TEST(FaultUseCase, MeasureFaultOnOptimizedBinaryDegrades) {
  // Skip the baseline measurement; the second measure (of the optimized
  // binary) hits the fault, and the case falls back to the baseline.
  // crc/k2/32nm inserts prefetches, so its optimized binary is measured
  // (a case without insertions mirrors the baseline instead).
  const ir::Program p = suite::build_benchmark("crc");
  const auto& k = cache::paper_cache_config("k2");
  fault::disarm_all();
  fault::arm("exp.measure", /*skip=*/1);
  const UseCaseResult r = run_use_case(p, "crc", k, energy::TechNode::k32nm);
  fault::disarm_all();
  EXPECT_EQ(r.outcome, CaseOutcome::kDegraded);
  EXPECT_EQ(r.fail_stage, "measure_optimized");
  EXPECT_GT(r.original.tau_wcet, 0u);
  EXPECT_DOUBLE_EQ(r.wcet_ratio(), 1.0);
}

TEST(FaultLadder, TransientFaultIsRecoveredByTheEscalatedRetry) {
  // One-shot fault on the first attempt; the escalated second rung runs
  // clean and completes. The row records the recovery: two attempts,
  // degradation level 1, not quarantined.
  fault::disarm_all();
  SweepOptions options = small_sweep();
  options.max_attempts = 3;
  fault::arm("core.reanalyze");
  const Sweep sweep = run_sweep(options);
  fault::disarm_all();
  EXPECT_TRUE(sweep.report.clean());
  std::uint32_t recovered = 0;
  for (const UseCaseResult& r : sweep.results) {
    if (r.attempts == 1) {
      EXPECT_EQ(r.degradation_level, 0u);
      continue;
    }
    ++recovered;
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.degradation_level, 1u);
    EXPECT_EQ(r.outcome, CaseOutcome::kCompleted);
  }
  EXPECT_EQ(recovered, 1u) << "exactly the faulted case retries";
}

TEST(FaultLadder, PersistentFaultExhaustsToIdentityFallback) {
  // The fault fires on the first *and* the escalated attempt; the terminal
  // rung ships the identity transform. The row is degraded — never failed —
  // with three attempts, degradation level 2, the original cause, and the
  // fallback marked in the detail. Theorem 1 holds trivially.
  fault::disarm_all();
  SweepOptions options = small_sweep();
  options.max_attempts = 3;
  fault::arm("core.reanalyze", /*skip=*/0, /*shots=*/2);
  const Sweep sweep = run_sweep(options);
  fault::disarm_all();
  std::uint32_t fallbacks = 0;
  for (const UseCaseResult& r : sweep.results) {
    if (r.attempts <= 2) continue;
    ++fallbacks;
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(r.degradation_level, 2u);
    EXPECT_EQ(r.outcome, CaseOutcome::kDegraded);
    EXPECT_EQ(r.fail_code, ErrorCode::kAnalysisFailed);
    EXPECT_NE(r.fail_detail.find("identity-transform fallback"),
              std::string::npos)
        << r.fail_detail;
    EXPECT_DOUBLE_EQ(r.wcet_ratio(), 1.0);
    EXPECT_TRUE(r.report.insertions.empty());
  }
  EXPECT_EQ(fallbacks, 1u) << "exactly the faulted case walks the ladder";
}

TEST(FaultLadder, NonRetryableFaultFailsOnTheFirstAttempt) {
  // kFaultInjected is not a retryable class: the ladder must not burn
  // budget re-running a deterministic failure. One attempt, level 3.
  fault::disarm_all();
  SweepOptions options = small_sweep();
  options.max_attempts = 3;
  fault::arm("exp.measure");
  const Sweep sweep = run_sweep(options);
  fault::disarm_all();
  std::uint32_t failed = 0;
  for (const UseCaseResult& r : sweep.results) {
    if (r.outcome != CaseOutcome::kFailed) continue;
    ++failed;
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(r.degradation_level, 3u);
    EXPECT_EQ(r.fail_code, ErrorCode::kFaultInjected);
  }
  EXPECT_EQ(failed, 1u);
}

/// fdct/k1/45nm through both front ends with the full three-rung ladder:
/// as a one-case sweep (the row) and as a request to a fresh ucpd (the
/// response; fresh, so no warm cache can answer it).
UseCaseResult sweep_fdct_k1() {
  SweepOptions options = small_sweep();
  options.programs = {"fdct"};
  options.config_stride = 36;  // k1 only
  options.max_attempts = 3;
  const Sweep sweep = run_sweep(options);
  EXPECT_EQ(sweep.results.size(), 1u);
  return sweep.results.empty() ? UseCaseResult{} : sweep.results.front();
}

serve::Response serve_fdct_k1(const std::string& id) {
  serve::ServerOptions options;
  options.workers = 1;
  serve::Server server(options);
  EXPECT_TRUE(server.start().ok());
  serve::Request request;
  request.id = id;
  request.config_id = "k1";
  request.config = cache::paper_cache_config("k1").config;
  request.tech = energy::TechNode::k45nm;
  request.attempts = 3;
  request.program_text = ir::to_text(suite::build_benchmark("fdct"));
  const auto response = serve::call(server.port(), request);
  server.stop();
  EXPECT_TRUE(response.ok()) << response.status().message();
  return response.ok() ? *response : serve::Response{};
}

/// The contract of the shared case solver: a request degrades exactly like
/// its case does in a sweep.
void expect_same_ladder_outcome(const UseCaseResult& row,
                                const serve::Response& response) {
  EXPECT_EQ(response.status, serve::ResponseStatus::kDegraded);
  EXPECT_EQ(response.code, row.fail_code);
  EXPECT_EQ(response.detail, row.fail_detail);
  EXPECT_EQ(response.attempts, row.attempts);
  EXPECT_EQ(response.degradation_level, row.degradation_level);
  EXPECT_EQ(response.tau_original, row.original.tau_wcet);
  EXPECT_EQ(response.tau_optimized, row.optimized.tau_wcet);
  EXPECT_EQ(response.mem_cycles_original, row.original.run.mem_cycles);
  EXPECT_EQ(response.mem_cycles_optimized, row.optimized.run.mem_cycles);
  EXPECT_EQ(response.prefetches, 0u);
}

TEST(FaultLadder, SupervisorCancelOnBothArmedRungsDegradesAlikeInSweepAndUcpd) {
  // The supervisor cancels rungs 1 and 2 as they register; the identity
  // rung runs unsupervised, so the case degrades — never fails — in the
  // sweep and in ucpd alike.
  fault::disarm_all();
  fault::arm("supervisor.cancel", /*skip=*/0, /*shots=*/2);
  const UseCaseResult row = sweep_fdct_k1();
  fault::arm("supervisor.cancel", /*skip=*/0, /*shots=*/2);
  const serve::Response response = serve_fdct_k1("ladder.cancel");
  fault::disarm_all();

  EXPECT_EQ(row.outcome, CaseOutcome::kDegraded);
  EXPECT_EQ(row.fail_code, ErrorCode::kCancelled);
  EXPECT_EQ(row.attempts, 3u);
  EXPECT_EQ(row.degradation_level, 2u);
  EXPECT_GT(row.original.tau_wcet, 0u);
  EXPECT_EQ(row.optimized.tau_wcet, row.original.tau_wcet);
  expect_same_ladder_outcome(row, response);
}

TEST(FaultLadder, PersistentComputeFaultDegradesAlikeInSweepAndUcpd) {
  fault::disarm_all();
  fault::arm("core.reanalyze", /*skip=*/0, /*shots=*/2);
  const UseCaseResult row = sweep_fdct_k1();
  fault::arm("core.reanalyze", /*skip=*/0, /*shots=*/2);
  const serve::Response response = serve_fdct_k1("ladder.reanalyze");
  fault::disarm_all();

  EXPECT_EQ(row.outcome, CaseOutcome::kDegraded);
  EXPECT_EQ(row.fail_code, ErrorCode::kAnalysisFailed);
  EXPECT_EQ(row.attempts, 3u);
  EXPECT_EQ(row.degradation_level, 2u);
  EXPECT_NE(row.fail_detail.find("identity-transform fallback"),
            std::string::npos)
      << row.fail_detail;
  expect_same_ladder_outcome(row, response);
}

TEST(FaultRegistry, AllComputeSitesAreRegistered) {
  const auto& sites = fault::known_sites();
  for (const std::string& site : kComputeSites) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << site;
  }
}

TEST(FaultRegistry, EveryKnownSiteIsExercisedByTheBattery) {
  // Arm every registered site with an unreachable skip count: nothing ever
  // fires, but hit accounting is on while any site is armed, so the battery
  // below proves each registered fault point still sits on an executed
  // path. A site whose code path decays (or whose UCP_FAULT_POINT call is
  // dropped in a refactor) fails here instead of silently becoming
  // untestable.
  fault::disarm_all();
  constexpr std::uint64_t kNeverFires = std::uint64_t{1} << 40;
  const auto& sites = fault::known_sites();
  for (const std::string& site : sites) fault::arm(site, kNeverFires);
  std::vector<std::uint64_t> before;
  for (const std::string& site : sites) before.push_back(fault::hit_count(site));

  // The battery: one journaled, audited, watchdog-supervised sweep with the
  // full retry ladder reaches the compute, supervision and durable-I/O
  // sites.
  const std::string tmp =
      testing::TempDir() + "fault_battery." + std::to_string(::getpid());
  const std::string journal = tmp + ".journal";
  std::remove(journal.c_str());

  SweepOptions options = small_sweep();
  options.journal_path = journal;
  options.max_attempts = 3;
  options.case_deadline_ms = 120000;  // watchdog on, far from firing
  const Sweep sweep = run_sweep(options);
  EXPECT_TRUE(sweep.report.clean());

  // The fuzz sites (gen.build, fuzz.oracle, fuzz.shrink) sit on the
  // synthetic-program path: one generated case through the oracle battery
  // plus one direct shrink pass both the generator-boundary and the
  // triage-path fault points.
  {
    Rng knob_rng(split_seed(9, 0));
    const gen::GenKnobs knobs = gen::sample_knobs(knob_rng);
    const ir::Program generated =
        gen::generate_program(split_seed(9, 1), knobs);
    fuzz::OracleOptions oracle_options;
    const auto& named = cache::paper_cache_config("k7");
    oracle_options.config = named.config;
    oracle_options.timing =
        energy::derive_timing(named.config, energy::TechNode::k45nm);
    const fuzz::OracleReport report =
        fuzz::check_program(generated, oracle_options);
    EXPECT_FALSE(report.violated()) << report.detail;
    const fuzz::ShrinkResult shrunk = fuzz::shrink_program(
        generated, [](const ir::Program&) { return true; });
    EXPECT_TRUE(shrunk.reproduced);
  }

  // The observability sinks sit on the same battery: one metrics-snapshot
  // write passes the obs.sink_write fault point, and one flight-recorder
  // dump passes obs.flight_dump.
  const std::string sink = tmp + ".metrics.json";
  EXPECT_TRUE(obs::write_metrics_file(sink, obs::registry().snapshot()).ok());
  std::remove(sink.c_str());
  {
    const bool flight_was_on = obs::flight_enabled();
    obs::set_flight_enabled(true);
    obs::flight_note("fault.battery", "coverage dump");
    const std::string flight = tmp + ".flight.jsonl";
    EXPECT_TRUE(obs::write_flight_file(flight, "battery").ok());
    std::remove(flight.c_str());
    obs::set_flight_enabled(flight_was_on);
  }

  // The serve.* sites sit on the daemon's request path: one journaled
  // round trip through a live server passes accept, read, parse, process,
  // journal_write and respond, and one admin scrape passes admin_write.
  {
    const std::string serve_journal = tmp + ".serve.journal";
    std::remove(serve_journal.c_str());
    serve::ServerOptions soptions;
    soptions.workers = 1;
    soptions.journal_path = serve_journal;
    soptions.audit_soundness = false;  // keep the battery fast
    soptions.admin_enabled = true;
    serve::Server server(soptions);
    ASSERT_TRUE(server.start().ok());
    serve::Request request;
    request.id = "battery.1";
    request.config_id = "k1";
    request.config = cache::paper_cache_config("k1").config;
    request.program_text = ir::to_text(suite::build_benchmark("bs"));
    const auto response = serve::call(server.port(), request);
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response->status, serve::ResponseStatus::kOk);
    const auto health = serve::admin_call(server.admin_port(), "HEALTH");
    ASSERT_TRUE(health.ok()) << health.status().message();
    EXPECT_TRUE(health->ok);
    server.stop();
    std::remove(serve_journal.c_str());
  }

  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_GT(fault::hit_count(sites[i]), before[i])
        << "fault site '" << sites[i]
        << "' was not exercised by the coverage battery";
  }
  fault::disarm_all();
  std::remove(journal.c_str());
}

TEST(FaultOps, AdminWriteFaultDropsScrapeNotTheResponse) {
  // The ops plane is best-effort: a fault on the admin reply path costs the
  // scraper its answer (dropped connection, counted in admin_dropped) but
  // must never touch an in-flight optimization response.
  fault::disarm_all();
  serve::ServerOptions options;
  options.workers = 1;
  options.audit_soundness = false;
  options.admin_enabled = true;
  serve::Server server(options);
  ASSERT_TRUE(server.start().ok());

  fault::arm("serve.admin_write");
  const auto dropped = serve::admin_call(server.admin_port(), "STATS");
  EXPECT_FALSE(dropped.ok()) << "faulted admin scrape produced a reply";

  serve::Request request;
  request.id = "ops.1";
  request.config_id = "k1";
  request.config = cache::paper_cache_config("k1").config;
  request.program_text = ir::to_text(suite::build_benchmark("bs"));
  const auto response = serve::call(server.port(), request);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, serve::ResponseStatus::kOk);
  EXPECT_GT(response->tau_original, 0u);
  fault::disarm_all();

  // With the fault gone the next scrape works and shows the drop.
  const auto stats = serve::admin_call(server.admin_port(), "STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(stats->ok);
  EXPECT_NE(stats->payload.find("\"admin_dropped\":1"), std::string::npos)
      << stats->payload;
  const serve::ServerStats after = server.stats();
  EXPECT_EQ(after.admin_dropped, 1u);
  EXPECT_EQ(after.ok, 1u);
  server.stop();
}

TEST(FaultOps, FlightDumpFaultDegradesToWarningNotFailure) {
  // A failing flight dump degrades to a warning: the dump write reports
  // kInternal, the triggering operation is unharmed, and once the fault is
  // gone the same dump succeeds and parses.
  fault::disarm_all();
  const bool flight_was_on = obs::flight_enabled();
  obs::set_flight_enabled(true);
  obs::flight_note("fault.ops", "pre-fault record");

  const std::string path = testing::TempDir() + "fault_ops_flight." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  fault::arm("obs.flight_dump");
  const Status faulted = obs::write_flight_file(path, "test");
  EXPECT_FALSE(faulted.ok());
  fault::disarm_all();

  // The rings are intact: the retried dump carries the earlier record.
  ASSERT_TRUE(obs::write_flight_file(path, "test").ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(contents.rfind("{\"kind\":\"header\"", 0), 0u) << contents;
  EXPECT_NE(contents.find("fault.ops"), std::string::npos);
  std::remove(path.c_str());
  obs::set_flight_enabled(flight_was_on);
}

}  // namespace
}  // namespace ucp::exp
