// Result-row helpers of the sweep harness: the grid fingerprint, degenerate
// ratio accounting and the health report.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "energy/model.hpp"
#include "exp/harness.hpp"

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

}  // namespace
}  // namespace ucp::exp
