// Result-row helpers of the sweep harness: the grid fingerprint, degenerate
// ratio accounting and the health report; and the work one case costs.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "ir/builder.hpp"
#include "ir/text_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "suite/suite.hpp"
#include "support/fault_injection.hpp"

namespace ucp::exp {
namespace {

TEST(SweepFingerprint, GridFingerprintIsStableAndPinned) {
  EXPECT_EQ(sweep_grid_fingerprint(), sweep_grid_fingerprint());
  // Every journal header carries this value; a change resets every journal
  // written before it.
  EXPECT_EQ(sweep_grid_fingerprint(), "e90378f295028396");
}

TEST(DegenerateRatios, ZeroDenominatorIsFlaggedAndCounted) {
  UseCaseResult r;  // all-zero metrics: every ratio degenerate
  EXPECT_DOUBLE_EQ(r.wcet_ratio(), 1.0);  // neutral value...
  EXPECT_TRUE(r.wcet_degenerate());       // ...but flagged, not hidden
  EXPECT_TRUE(r.acet_degenerate());
  EXPECT_TRUE(r.energy_degenerate());
  EXPECT_TRUE(r.instr_degenerate());
  EXPECT_TRUE(r.any_degenerate_ratio());

  UseCaseResult healthy;
  healthy.original.tau_wcet = 10;
  healthy.original.run.mem_cycles = 10;
  healthy.original.run.instructions = 10;
  healthy.original.energy.cache_dynamic_nj = 1.0;
  healthy.optimized = healthy.original;
  EXPECT_FALSE(healthy.any_degenerate_ratio());

  const std::vector<UseCaseResult> batch = {r, healthy};
  const GrandAggregate grand = aggregate_all(batch);
  EXPECT_EQ(grand.degenerate_cases, 1u);
  EXPECT_EQ(grand.quarantined_cases, 0u);
}

TEST(DegenerateRatios, AggregatesCountQuarantinedCases) {
  UseCaseResult degraded;
  degraded.outcome = CaseOutcome::kDegraded;
  degraded.original.tau_wcet = 10;
  degraded.original.run.mem_cycles = 10;
  degraded.original.run.instructions = 10;
  degraded.original.energy.cache_dynamic_nj = 1.0;
  degraded.optimized = degraded.original;
  const GrandAggregate grand = aggregate_all({degraded});
  EXPECT_EQ(grand.quarantined_cases, 1u);
  EXPECT_EQ(grand.degenerate_cases, 0u);
}

TEST(SweepReport, PrintListsQuarantinedCases) {
  SweepReport report;
  report.total = 10;
  report.completed = 9;
  report.degraded = 1;
  report.quarantine.push_back(DegradedCase{
      "crc", "k7", energy::TechNode::k32nm, CaseOutcome::kDegraded,
      "optimize", ErrorCode::kIterationLimit, "pivot budget"});
  std::ostringstream os;
  report.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("10 use cases"), std::string::npos);
  EXPECT_NE(text.find("1 degraded"), std::string::npos);
  EXPECT_NE(text.find("crc/k7/32nm"), std::string::npos);
  EXPECT_NE(text.find("iteration-limit"), std::string::npos);
  EXPECT_NE(text.find("pivot budget"), std::string::npos);
}

// --- work per case: each program state is analysed once ---------------------

struct CaseWork {
  std::vector<UseCaseResult> rows;
  std::uint64_t fixpoints = 0;
  std::uint64_t sim_runs = 0;
  std::size_t ipet_solves = 0;    ///< production (structural) IPET solves
  std::size_t certificates = 0;  ///< the auditor's certificate checks
  std::size_t measure_spans = 0;
  std::size_t optimize_spans = 0;
  std::size_t audit_spans = 0;
};

std::uint64_t counter_value(const obs::Snapshot& snap, const char* name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

/// Runs one (program, config, tech) group the way a sweep worker does (the
/// program's shared IPET system, auditor on) and returns the counter and
/// span deltas it caused.
CaseWork case_work(const std::string& name, const char* config_id,
                   energy::TechNode tech) {
  const ir::Program p = suite::build_benchmark(name);
  const ProgramSystem system(p);
  const bool metrics_were = obs::enabled();
  const bool trace_was = obs::trace_enabled();
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  obs::reset_trace();
  const obs::Snapshot before = obs::registry().snapshot();

  CaseWork work;
  work.rows = run_use_case_group(p, name, cache::paper_cache_config(config_id),
                                 {tech}, {}, nullptr, &system.ipet,
                                 /*audit_soundness=*/true);

  const obs::Snapshot after = obs::registry().snapshot();
  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  obs::set_trace_enabled(trace_was);
  obs::set_enabled(metrics_were);
  auto delta = [&](const char* counter) {
    return counter_value(after, counter) - counter_value(before, counter);
  };
  work.fixpoints = delta("analysis.cache.fixpoints");
  work.sim_runs = delta("sim.interp.runs");
  for (const obs::TraceEvent& e : events) {
    const std::string span = e.name;
    work.ipet_solves += span == "wcet.ipet.solve";
    work.certificates += span == "exp.audit.certify";
    work.measure_spans += span == "exp.case.measure";
    work.optimize_spans += span == "exp.case.optimize";
    work.audit_spans += span == "exp.case.audit";
  }
  return work;
}

TEST(CaseWork, UnchangedProgramIsAnalysedSolvedAndSimulatedOnce) {
  // crc/k7 inserts nothing: the measured input's analysis, IPET solution
  // and run are handed to the optimizer, and the optimized metrics mirror
  // the original ones. An optimizer that accepted nothing needs no final
  // IPET audit (its answer is the baseline's), so what remains is one
  // fixpoint, one simulation and one IPET solve: the baseline measurement.
  const CaseWork w = case_work("crc", "k7", energy::TechNode::k32nm);
  ASSERT_EQ(w.rows.size(), 1u);
  const UseCaseResult& r = w.rows.front();
  ASSERT_EQ(r.outcome, CaseOutcome::kCompleted);
  ASSERT_TRUE(r.report.insertions.empty());
  EXPECT_EQ(r.optimized.tau_wcet, r.original.tau_wcet);
  EXPECT_EQ(r.optimized.run.mem_cycles, r.original.run.mem_cycles);

  EXPECT_EQ(w.fixpoints, 1u);
  EXPECT_EQ(w.sim_runs, 1u);
  EXPECT_EQ(w.ipet_solves, 1u);
  EXPECT_EQ(w.certificates, 0u) << "nothing inserted, nothing to re-derive";
  EXPECT_EQ(w.measure_spans, 1u);
  EXPECT_EQ(w.optimize_spans, 1u);
  EXPECT_EQ(w.audit_spans, 1u);
}

TEST(CaseWork, ChangedProgramIsMeasuredAfreshButTheInputOnlyOnce) {
  // crc/k2 inserts two prefetches. The input is analysed once (the
  // optimizer adopts the baseline's fixpoint); the optimized binary gets
  // its own fresh measurement, whose IPET solution the auditor certifies.
  // Production solves the input, the optimizer's final audit and the
  // optimized measurement; the auditor checks one certificate.
  const CaseWork w = case_work("crc", "k2", energy::TechNode::k32nm);
  ASSERT_EQ(w.rows.size(), 1u);
  const UseCaseResult& r = w.rows.front();
  ASSERT_EQ(r.outcome, CaseOutcome::kCompleted);
  ASSERT_EQ(r.report.insertions.size(), 2u);
  ASSERT_TRUE(r.audit.performed);
  EXPECT_FALSE(r.audit.violated);

  EXPECT_EQ(w.fixpoints, 2u);
  EXPECT_EQ(w.ipet_solves, 3u);
  EXPECT_EQ(w.certificates, 1u);
  EXPECT_EQ(r.audit.tau_audit, r.optimized.tau_wcet);
  EXPECT_EQ(w.measure_spans, 2u);
  EXPECT_EQ(w.optimize_spans, 1u);
  EXPECT_EQ(w.audit_spans, 1u);
}

TEST(CaseWork, CaseWithoutASharedSystemMatchesTheSharedRow) {
  // run_use_case passes no system: the group builds one up front and uses
  // it for both binaries, the optimizer and the auditor. The row is the
  // one a shared system produces.
  const ir::Program p = suite::build_benchmark("crc");
  const cache::NamedCacheConfig& config = cache::paper_cache_config("k2");
  const ProgramSystem system(p);
  const UseCaseResult shared =
      run_use_case_group(p, "crc", config, {energy::TechNode::k32nm}, {},
                         nullptr, &system.ipet)
          .front();
  const UseCaseResult solo =
      run_use_case(p, "crc", config, energy::TechNode::k32nm);

  ASSERT_EQ(solo.outcome, CaseOutcome::kCompleted);
  ASSERT_FALSE(solo.report.insertions.empty());
  EXPECT_EQ(sweep_cache_row(solo), sweep_cache_row(shared));
}


TEST(RowPrograms, ForkedLanesShipEachTechItsOwnProgram) {
  // cover on an 8-way 64-byte-block 1 KiB cache: 45nm prices a hit at 2
  // cycles and 32nm at 1, and the two lanes fork (11 insertions against
  // 10). Each row vouches for its own lane's program, which must be the
  // program a single-tech group of that tech ships, through both the
  // group and the case solver.
  const ir::Program p = suite::build_benchmark("cover");
  const cache::NamedCacheConfig config{"custom", {8, 64, 1024}};
  const std::vector<energy::TechNode> techs = {energy::TechNode::k45nm,
                                               energy::TechNode::k32nm};
  const ProgramSystem system(p);
  std::vector<ir::Program> programs;
  const std::vector<UseCaseResult> rows = run_use_case_group(
      p, "cover", config, techs, {}, nullptr, &system.ipet,
      /*audit_soundness=*/true, &programs);
  ASSERT_EQ(programs.size(), techs.size());
  ASSERT_EQ(rows.front().report.forks, 1u);
  EXPECT_NE(rows[0].report.insertions.size(), rows[1].report.insertions.size());
  EXPECT_NE(ir::to_text(programs[0]), ir::to_text(programs[1]));

  Watchdog watchdog(1, false);
  std::vector<ir::Program> solved;
  const std::vector<UseCaseResult> solved_rows =
      solve_case(p, "cover", config, techs, {}, nullptr, &system.ipet,
                 /*audit_soundness=*/true, &solved, 1, 0, watchdog.slot(0));
  ASSERT_EQ(solved.size(), techs.size());
  for (std::size_t t = 0; t < techs.size(); ++t) {
    SCOPED_TRACE(energy::tech_name(techs[t]));
    ASSERT_EQ(rows[t].outcome, CaseOutcome::kCompleted);
    ir::Program alone(p.name());
    run_use_case_group(p, "cover", config, {techs[t]}, {}, nullptr,
                       &system.ipet, /*audit_soundness=*/true, &alone);
    EXPECT_EQ(ir::to_text(programs[t]), ir::to_text(alone));
    EXPECT_EQ(ir::to_text(solved[t]), ir::to_text(alone));
    EXPECT_EQ(sweep_cache_row(solved_rows[t]), sweep_cache_row(rows[t]));
  }
}


TEST(RowPrograms, EscalatedRetryShipsTheRetryProgram) {
  // A one-shot fault degrades fdct/k2's first rung; the escalated rung
  // completes, and the row it produced vouches for that rung's program.
  const ir::Program p = suite::build_benchmark("fdct");
  const cache::NamedCacheConfig& config = cache::paper_cache_config("k2");
  const std::vector<energy::TechNode> techs = {energy::TechNode::k45nm,
                                               energy::TechNode::k32nm};
  Watchdog watchdog(1, false);
  std::vector<ir::Program> programs;
  std::vector<UseCaseResult> rows;
  {
    const fault::ScopedFault fault("core.reanalyze");
    rows = solve_case(p, "fdct", config, techs, {}, nullptr, nullptr,
                      /*audit_soundness=*/true, &programs, 2, 0,
                      watchdog.slot(0));
  }
  ASSERT_EQ(programs.size(), techs.size());
  for (std::size_t t = 0; t < techs.size(); ++t) {
    SCOPED_TRACE(energy::tech_name(techs[t]));
    ASSERT_EQ(rows[t].outcome, CaseOutcome::kCompleted);
    EXPECT_EQ(rows[t].degradation_level, 1u);
    ASSERT_GT(rows[t].report.insertions.size(), 0u);
    ir::Program alone(p.name());
    run_use_case_group(p, "fdct", config, {techs[t]}, {}, nullptr, nullptr,
                       /*audit_soundness=*/true, &alone);
    EXPECT_EQ(ir::to_text(programs[t]), ir::to_text(alone));
  }
}

TEST(Ladder, InternalWcetFailureIsRetriedAndReported) {
  // Three nested loops of 2^21 trips overflow τ_w in 64 bits: the WCET
  // engine fails the input's measurement with kInternal. The ladder retries
  // that class, and every rung fails alike, so the row comes back failed
  // with the cause intact instead of a wrapped-around bound.
  ir::IrBuilder b("overflow");
  b.for_range(ir::R(1), 0, 1 << 21, [&] {
    b.for_range(ir::R(2), 0, 1 << 21, [&] {
      b.for_range(ir::R(3), 0, 1 << 21, [&] { b.nops(4); });
    });
  });
  b.halt();
  const ir::Program p = b.take();
  Watchdog watchdog(1, false);
  const std::vector<UseCaseResult> rows = solve_case(
      p, "overflow", cache::paper_cache_config("k1"),
      {energy::TechNode::k45nm}, {}, nullptr, nullptr,
      /*audit_soundness=*/true, nullptr, 3, 0, watchdog.slot(0));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].outcome, CaseOutcome::kFailed);
  EXPECT_EQ(rows[0].fail_code, ErrorCode::kInternal);
  EXPECT_EQ(rows[0].fail_stage, "measure_original");
  EXPECT_NE(rows[0].fail_detail.find("overflow"), std::string::npos)
      << rows[0].fail_detail;
  EXPECT_EQ(rows[0].attempts, 3u);
  EXPECT_EQ(rows[0].degradation_level, 3u);
}

}  // namespace
}  // namespace ucp::exp
