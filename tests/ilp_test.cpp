#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ilp/model.hpp"
#include "reference/reference.hpp"
#include "support/check.hpp"

namespace ucp::ilp {
namespace {

using reference::solve_ilp_dense_reference;

TEST(Model, BuildAndIntrospect) {
  Model m;
  const VarId x = m.add_var("x", 0, 10);
  const VarId y = m.add_var("y");
  m.add_constraint({{x, 1.0}, {y, 2.0}}, Rel::kLe, 14.0);
  m.set_objective({{x, 3.0}, {y, 2.0}});
  EXPECT_EQ(m.num_vars(), 2u);
  EXPECT_EQ(m.num_constraints(), 1u);
  EXPECT_TRUE(m.maximize());
  EXPECT_NE(m.to_string().find("maximize"), std::string::npos);
}

TEST(Model, RejectsBadReferences) {
  Model m;
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, Rel::kLe, 1.0), InvalidArgument);
  EXPECT_THROW(m.set_objective({{0, 1.0}}), InvalidArgument);
  EXPECT_THROW(m.add_var("bad", 5.0, 1.0), InvalidArgument);
  EXPECT_THROW(m.add_var("neg", -1.0, 1.0), InvalidArgument);
}

TEST(SolveLp, SimpleMaximize) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
  Model m;
  const VarId x = m.add_var("x");
  const VarId y = m.add_var("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 4.0);
  m.add_constraint({{x, 1.0}, {y, 3.0}}, Rel::kLe, 6.0);
  m.set_objective({{x, 3.0}, {y, 2.0}});
  const Solution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  EXPECT_NEAR(s.value(x), 4.0, 1e-7);
  EXPECT_NEAR(s.value(y), 0.0, 1e-7);
}

TEST(SolveLp, MinimizationViaFlag) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> x = 8/5, y = 6/5.
  Model m;
  const VarId x = m.add_var("x", 0, kInfinity, false);
  const VarId y = m.add_var("y", 0, kInfinity, false);
  m.add_constraint({{x, 1.0}, {y, 2.0}}, Rel::kGe, 4.0);
  m.add_constraint({{x, 3.0}, {y, 1.0}}, Rel::kGe, 6.0);
  m.set_objective({{x, 1.0}, {y, 1.0}}, /*maximize=*/false);
  const Solution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.8, 1e-7);
}

TEST(SolveLp, EqualityConstraints) {
  Model m;
  const VarId x = m.add_var("x");
  const VarId y = m.add_var("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kEq, 5.0);
  m.set_objective({{x, 2.0}, {y, 1.0}});
  const Solution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 10.0, 1e-7);
  EXPECT_NEAR(s.value(x), 5.0, 1e-7);
}

TEST(SolveLp, DetectsInfeasible) {
  Model m;
  const VarId x = m.add_var("x");
  m.add_constraint({{x, 1.0}}, Rel::kLe, 1.0);
  m.add_constraint({{x, 1.0}}, Rel::kGe, 2.0);
  m.set_objective({{x, 1.0}});
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(SolveLp, DetectsUnbounded) {
  Model m;
  const VarId x = m.add_var("x");
  m.set_objective({{x, 1.0}});
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kUnbounded);
}

TEST(SolveLp, VariableBoundsBecomeConstraints) {
  Model m;
  const VarId x = m.add_var("x", 2.0, 7.0);
  m.set_objective({{x, 1.0}});
  const Solution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.value(x), 7.0, 1e-7);

  Model m2;
  const VarId y = m2.add_var("y", 2.0, 7.0);
  m2.set_objective({{y, -1.0}});
  const Solution s2 = solve_lp(m2);
  ASSERT_TRUE(s2.optimal());
  EXPECT_NEAR(s2.value(y), 2.0, 1e-7);
}

TEST(SolveLp, DegenerateFlowProblem) {
  // A flow-conservation chain (the IPET shape): src -> a -> b -> sink.
  Model m;
  const VarId src = m.add_var("src", 1, 1);
  const VarId e1 = m.add_var("e1");
  const VarId e2 = m.add_var("e2");
  const VarId sink = m.add_var("sink");
  m.add_constraint({{src, 1.0}, {e1, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e1, 1.0}, {e2, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e2, 1.0}, {sink, -1.0}}, Rel::kEq, 0.0);
  m.set_objective({{e1, 5.0}, {e2, 7.0}});
  const Solution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
}

TEST(SolveIlp, BranchesToIntegrality) {
  // max x + y s.t. 2x + 3y <= 12, 2x + y <= 6; LP optimum is fractional,
  // integer optimum is x=1, y=3 (obj 4) or x=0,y=4 (obj 4).
  Model m;
  const VarId x = m.add_var("x");
  const VarId y = m.add_var("y");
  m.add_constraint({{x, 2.0}, {y, 3.0}}, Rel::kLe, 12.0);
  m.add_constraint({{x, 2.0}, {y, 1.0}}, Rel::kLe, 6.0);
  m.set_objective({{x, 1.0}, {y, 1.0}});
  const Solution s = solve_ilp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
  const double xv = s.value(x), yv = s.value(y);
  EXPECT_NEAR(xv, std::round(xv), 1e-6);
  EXPECT_NEAR(yv, std::round(yv), 1e-6);
  // The fractional root must branch: children below it take the one node
  // path (canonical clone, path bounds, phase 1, primal).
  EXPECT_GT(s.stats.bb_nodes, 1u);
  EXPECT_EQ(s.stats.lp_solves, s.stats.bb_nodes);
}

TEST(SolveIlp, KnapsackStyle) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (0/1 by upper bounds) -> 16.
  Model m;
  const VarId a = m.add_var("a", 0, 1);
  const VarId b = m.add_var("b", 0, 1);
  const VarId c = m.add_var("c", 0, 1);
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Rel::kLe, 2.0);
  m.set_objective({{a, 10.0}, {b, 6.0}, {c, 4.0}});
  const Solution s = solve_ilp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 16.0, 1e-6);
}

TEST(SolveIlp, MixedIntegerKeepsContinuousFree) {
  // y continuous: max x + y, x integer <= 2.5, y <= 0.5.
  Model m;
  const VarId x = m.add_var("x", 0.0, 2.5, true);
  const VarId y = m.add_var("y", 0.0, 0.5, false);
  m.set_objective({{x, 1.0}, {y, 1.0}});
  const Solution s = solve_ilp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.value(x), 2.0, 1e-6);
  EXPECT_NEAR(s.value(y), 0.5, 1e-6);
}

TEST(SolveIlp, InfeasibleIntegerRestriction) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model m;
  const VarId x = m.add_var("x", 0.4, 0.6, true);
  m.set_objective({{x, 1.0}});
  EXPECT_EQ(solve_ilp(m).status, SolveStatus::kInfeasible);
}

TEST(SolveIlp, ProportionalBoundLikeIpetLoops) {
  // The VIVU loop-bound shape: rest <= 9 * first, first = 1,
  // maximize 10*first + 3*rest -> rest = 9.
  Model m;
  const VarId first = m.add_var("first", 1, 1);
  const VarId rest = m.add_var("rest");
  m.add_constraint({{rest, 1.0}, {first, -9.0}}, Rel::kLe, 0.0);
  m.set_objective({{first, 10.0}, {rest, 3.0}});
  const Solution s = solve_ilp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.value(rest), 9.0, 1e-6);
  EXPECT_NEAR(s.objective, 37.0, 1e-6);
}

TEST(SolveStatusNames, AllCovered) {
  EXPECT_EQ(status_name(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(status_name(SolveStatus::kInfeasible), "infeasible");
  EXPECT_EQ(status_name(SolveStatus::kUnbounded), "unbounded");
  EXPECT_EQ(status_name(SolveStatus::kIterationLimit), "iteration-limit");
}

class RandomLpTest : public ::testing::TestWithParam<int> {};

/// Property: for random feasible-by-construction LPs, the simplex solution
/// satisfies every constraint and is at least as good as a trivially
/// feasible point.
TEST_P(RandomLpTest, SolutionIsFeasibleAndNotWorseThanOrigin) {
  const int seed = GetParam();
  std::uint64_t state = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  Model m;
  const int nvars = 3 + seed % 4;
  std::vector<VarId> vars;
  for (int v = 0; v < nvars; ++v)
    vars.push_back(m.add_var("v" + std::to_string(v), 0, 50, false));
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  for (int c = 0; c < 4; ++c) {
    std::vector<Term> terms;
    std::vector<double> row;
    for (int v = 0; v < nvars; ++v) {
      const double coeff = static_cast<double>(next() % 7);
      row.push_back(coeff);
      if (coeff != 0.0) terms.push_back({vars[v], coeff});
    }
    const double b = 10.0 + static_cast<double>(next() % 50);
    if (!terms.empty()) {
      m.add_constraint(std::move(terms), Rel::kLe, b);
      rows.push_back(row);
      rhs.push_back(b);
    }
  }
  std::vector<Term> obj;
  for (int v = 0; v < nvars; ++v)
    obj.push_back({vars[v], 1.0 + static_cast<double>(next() % 5)});
  m.set_objective(std::move(obj));

  const Solution s = solve_lp(m);
  ASSERT_TRUE(s.optimal()) << "seed " << seed;
  // Origin (all zeros) is feasible, so the optimum must be >= 0.
  EXPECT_GE(s.objective, -1e-7);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double lhs = 0;
    for (int v = 0; v < nvars; ++v) lhs += rows[r][static_cast<std::size_t>(v)] * s.value(vars[static_cast<std::size_t>(v)]);
    EXPECT_LE(lhs, rhs[r] + 1e-6) << "seed " << seed << " row " << r;
  }
  for (int v = 0; v < nvars; ++v) {
    EXPECT_GE(s.value(vars[static_cast<std::size_t>(v)]), -1e-9);
    EXPECT_LE(s.value(vars[static_cast<std::size_t>(v)]), 50.0 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(1, 25));

}  // namespace
}  // namespace ucp::ilp
