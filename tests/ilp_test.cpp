#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/presolve.hpp"
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

// ---------------------------------------------------------------------------
// Exact presolve (DESIGN.md §14): every reduction must preserve the optimal
// objective for EVERY objective, and expand_values must reproduce a feasible
// optimal solution of the ORIGINAL model — not just the right number.
// ---------------------------------------------------------------------------

// Full differential exercise of one (model, objective) pair: solve the
// original with the dense reference, presolve, solve the reduced model,
// and check objective equality plus original-space feasibility/optimality
// of the expanded solution.
void expect_presolve_exact(const Model& m, const std::vector<Term>& objective,
                           const Presolve& p) {
  Model full = m;
  full.set_objective(objective);
  const Solution ref = solve_ilp_dense_reference(full);
  ASSERT_TRUE(ref.optimal());

  std::vector<double> dense(m.num_vars(), 0.0);
  for (const Term& t : objective) dense[static_cast<std::size_t>(t.var)] += t.coeff;
  double constant = 0.0;
  const std::vector<double> mapped = p.map_objective(dense, constant);

  std::vector<double> reduced_values(p.reduced().num_vars(), 0.0);
  double reduced_objective = 0.0;
  if (p.reduced().num_vars() > 0) {
    Model red = p.reduced();
    std::vector<Term> red_obj;
    for (std::size_t i = 0; i < mapped.size(); ++i)
      if (mapped[i] != 0.0)
        red_obj.push_back({static_cast<VarId>(i), mapped[i]});
    red.set_objective(std::move(red_obj));
    const Solution rs = solve_ilp(red);
    ASSERT_TRUE(rs.optimal());
    reduced_values = rs.values;
    reduced_objective = rs.objective;
  }
  EXPECT_NEAR(reduced_objective + constant, ref.objective, 1e-6);

  // Expanded solution: right size, inside bounds, integral where required,
  // feasible for every original constraint, and optimal-valued.
  const std::vector<double> x = p.expand_values(reduced_values);
  ASSERT_EQ(x.size(), m.num_vars());
  double expanded_objective = 0.0;
  for (std::size_t v = 0; v < x.size(); ++v) {
    const Model::Var& var = m.var(static_cast<VarId>(v));
    EXPECT_GE(x[v], var.lower - 1e-6) << var.name;
    EXPECT_LE(x[v], var.upper + 1e-6) << var.name;
    if (var.integer) {
      EXPECT_NEAR(x[v], std::round(x[v]), 1e-6) << var.name;
    }
    expanded_objective += dense[v] * x[v];
  }
  for (std::size_t r = 0; r < m.constraints().size(); ++r) {
    const Model::Constraint& c = m.constraints()[r];
    double lhs = 0.0;
    for (const Term& t : c.terms) lhs += t.coeff * x[static_cast<std::size_t>(t.var)];
    switch (c.rel) {
      case Rel::kLe: EXPECT_LE(lhs, c.rhs + 1e-6) << "row " << r; break;
      case Rel::kGe: EXPECT_GE(lhs, c.rhs - 1e-6) << "row " << r; break;
      case Rel::kEq: EXPECT_NEAR(lhs, c.rhs, 1e-6) << "row " << r; break;
    }
  }
  EXPECT_NEAR(expanded_objective, ref.objective, 1e-6);
}

TEST(Presolve, StraightLineChainCollapsesToOneColumn) {
  // A fully serial IPET skeleton: source bounded [1,1], flow conserved
  // down a chain. Every conservation row is an `x == y` doubleton, so the
  // whole chain contracts into the source's column (which carries the
  // [1,1] bounds); no constraint survives.
  Model m;
  const VarId s = m.add_var("s", 1, 1);
  const VarId e1 = m.add_var("e1");
  const VarId e2 = m.add_var("e2");
  const VarId e3 = m.add_var("e3");
  m.add_constraint({{s, 1.0}, {e1, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e1, 1.0}, {e2, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e2, 1.0}, {e3, -1.0}}, Rel::kEq, 0.0);

  const auto p = Presolve::reduce(m);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->reduced().num_vars(), 1u);
  EXPECT_EQ(p->reduced().num_constraints(), 0u);
  EXPECT_EQ(p->stats().removed_rows, 3u);
  EXPECT_EQ(p->stats().removed_cols, 3u);
  EXPECT_EQ(p->stats().aliased_vars, 3u);
  expect_presolve_exact(m, {{e1, 3.0}, {e3, 7.0}}, *p);
}

TEST(Presolve, BranchJoinDiamondSubstitutesAndAliases) {
  // Branch/join diamond with a relative bound, the shape that dominates
  // generated 100x programs: e1 aliases into the [1,1] source, e2/e3
  // survive (the branch row keeps them, and its bounded source blocks the
  // implied-free test there), the pass-through arcs alias, and the join's
  // out-arc e6 = e4 + e5 is an implied-free substitution.
  Model m;
  const VarId s = m.add_var("s", 1, 1);
  const VarId e1 = m.add_var("e1");
  const VarId e2 = m.add_var("e2");
  const VarId e3 = m.add_var("e3");
  const VarId e4 = m.add_var("e4");
  const VarId e5 = m.add_var("e5");
  const VarId e6 = m.add_var("e6");
  m.add_constraint({{s, 1.0}, {e1, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e1, 1.0}, {e2, -1.0}, {e3, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e2, 1.0}, {e4, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e3, 1.0}, {e5, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e4, 1.0}, {e5, 1.0}, {e6, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e2, 1.0}, {e1, -3.0}}, Rel::kLe, 0.0);

  const auto p = Presolve::reduce(m);
  ASSERT_TRUE(p.has_value());
  EXPECT_GE(p->stats().aliased_vars, 3u);     // s==e1, e2==e4, e3==e5
  EXPECT_GE(p->stats().substituted_vars, 1u); // e6 = e4 + e5
  // max 5*e2 + 2*e3 + e6 with e2 + e3 == 1 integral: e2=1, e6=1 -> 6.
  expect_presolve_exact(m, {{e2, 5.0}, {e3, 2.0}, {e6, 1.0}}, *p);
}

TEST(Presolve, ForcingAndRedundantRows) {
  Model m;
  const VarId x = m.add_var("x", 0, 2);
  const VarId y = m.add_var("y", 0, 2);
  const VarId z = m.add_var("z", 0, 9);
  // Redundant: max activity 4 < 5. Forcing: min activity 0 == rhs pins
  // x = y = 0 (the bound-2 back-edge shape).
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 5.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 0.0);
  m.add_constraint({{z, 1.0}, {x, 1.0}}, Rel::kLe, 4.0);

  const auto p = Presolve::reduce(m);
  ASSERT_TRUE(p.has_value());
  EXPECT_GE(p->stats().fixed_vars, 2u);
  EXPECT_GE(p->stats().removed_rows, 2u);
  expect_presolve_exact(m, {{x, 10.0}, {y, 10.0}, {z, 1.0}}, *p);
}

TEST(Presolve, AbortsInsteadOfLying) {
  // A fix that would pin an integer variable to a fractional value aborts
  // the whole presolve (callers fall back to the original model)...
  Model frac;
  const VarId x = frac.add_var("x");
  frac.add_constraint({{x, 2.0}}, Rel::kEq, 1.0);
  EXPECT_FALSE(Presolve::reduce(frac).has_value());

  // ...as does a detected infeasibility (bound violation)...
  Model inf;
  const VarId y = inf.add_var("y", 0, 1);
  inf.add_constraint({{y, 1.0}}, Rel::kEq, 5.0);
  EXPECT_FALSE(Presolve::reduce(inf).has_value());

  // ...and a model with nothing to reduce disengages instead of returning
  // an identity transform.
  Model keep;
  const VarId a = keep.add_var("a");
  const VarId b = keep.add_var("b");
  keep.add_constraint({{a, 1.0}, {b, 1.0}}, Rel::kLe, 4.0);
  keep.add_constraint({{a, 1.0}, {b, 3.0}}, Rel::kLe, 6.0);
  EXPECT_FALSE(Presolve::reduce(keep).has_value());
}

TEST(Presolve, SingletonRowsTightenAndFix) {
  Model m;
  const VarId x = m.add_var("x");
  const VarId y = m.add_var("y");
  m.add_constraint({{x, 2.0}}, Rel::kLe, 7.0);   // x <= 3.5
  m.add_constraint({{y, 1.0}}, Rel::kEq, 2.0);   // fixes y
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 5.0);  // folds to x <= 3

  const auto p = Presolve::reduce(m);
  ASSERT_TRUE(p.has_value());
  EXPECT_GE(p->stats().singleton_rows, 1u);
  EXPECT_GE(p->stats().fixed_vars, 1u);
  expect_presolve_exact(m, {{x, 1.0}, {y, 4.0}}, *p);
}

}  // namespace
}  // namespace ucp::ilp
