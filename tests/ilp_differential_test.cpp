// Differential suite for the sparse bounded-variable revised simplex: every
// solve is cross-checked against the retained dense-tableau reference
// (`solve_*_dense_reference`, the pre-rewrite solver kept verbatim). The two
// implementations share no code beyond the Model, so agreement on status and
// objective over randomized LPs/ILPs — bounded, degenerate, infeasible,
// unbounded — and over every Mälardalen IPET model is strong evidence the
// sparse kernel is a faithful replacement.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "energy/model.hpp"
#include "ilp/model.hpp"
#include "ilp/sparse.hpp"
#include "ir/layout.hpp"
#include "reference/ipet_ilp.hpp"
#include "reference/reference.hpp"
#include "suite/suite.hpp"
#include "wcet/ipet.hpp"

namespace ucp::ilp {
namespace {

using reference::solve_ilp_dense_reference;
using reference::solve_lp_dense_reference;

struct Xorshift {
  std::uint64_t state;
  explicit Xorshift(std::uint64_t seed) : state(seed * 2654435761u + 1) {}
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Both solvers must agree on the status; when optimal, on the objective.
/// (Vertices may legitimately differ under alternative optima, so values
/// are not compared here — vertex determinism is pinned by the sweep
/// fingerprint gates in equivalence_test.cpp instead.)
void expect_lp_agreement(const Model& m, const std::string& what) {
  const Solution sparse = solve_lp(m);
  const Solution dense = solve_lp_dense_reference(m);
  ASSERT_EQ(sparse.status, dense.status)
      << what << ": sparse " << status_name(sparse.status) << " vs dense "
      << status_name(dense.status) << "\n" << m.to_string();
  if (sparse.optimal()) {
    const double scale = std::max(1.0, std::abs(dense.objective));
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6 * scale)
        << what << "\n" << m.to_string();
  }
}

void expect_ilp_agreement(const Model& m, const std::string& what) {
  const Solution sparse = solve_ilp(m);
  const Solution dense = solve_ilp_dense_reference(m);
  ASSERT_EQ(sparse.status, dense.status)
      << what << ": sparse " << status_name(sparse.status) << " vs dense "
      << status_name(dense.status) << "\n" << m.to_string();
  if (sparse.optimal()) {
    const double scale = std::max(1.0, std::abs(dense.objective));
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-5 * scale)
        << what << "\n" << m.to_string();
  }
}

/// Random model with integer-valued data (keeps the geometry exact, so the
/// two solvers cannot disagree by tolerance luck): mixed kLe/kGe/kEq rows,
/// a mix of finite and infinite upper bounds, optional integrality.
Model random_model(Xorshift& rng, bool integer_vars) {
  Model m;
  const int nvars = 2 + static_cast<int>(rng.next() % 5);
  std::vector<VarId> vars;
  for (int v = 0; v < nvars; ++v) {
    const bool bounded = rng.next() % 4 != 0;
    const double lower = static_cast<double>(rng.next() % 3);
    const double upper =
        bounded ? lower + static_cast<double>(rng.next() % 20) : kInfinity;
    vars.push_back(m.add_var("v" + std::to_string(v), lower, upper,
                             integer_vars && rng.next() % 2 == 0));
  }
  const int nrows = 1 + static_cast<int>(rng.next() % 5);
  for (int c = 0; c < nrows; ++c) {
    std::vector<Term> terms;
    for (int v = 0; v < nvars; ++v) {
      const double coeff = static_cast<double>(rng.next() % 9) - 3.0;
      if (coeff != 0.0) terms.push_back({vars[static_cast<std::size_t>(v)],
                                         coeff});
    }
    if (terms.empty()) continue;
    const Rel rel = static_cast<Rel>(rng.next() % 3);
    // Small rhs values make infeasible and degenerate instances common —
    // deliberately so; the status channel is half the contract.
    const double rhs = static_cast<double>(rng.next() % 40) - 8.0;
    m.add_constraint(std::move(terms), rel, rhs);
  }
  std::vector<Term> obj;
  for (int v = 0; v < nvars; ++v)
    obj.push_back({vars[static_cast<std::size_t>(v)],
                   static_cast<double>(rng.next() % 11) - 4.0});
  m.set_objective(std::move(obj), /*maximize=*/rng.next() % 2 == 0);
  return m;
}

class DifferentialLp : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialLp, RandomLpAgreesWithDenseReference) {
  Xorshift rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 8; ++i) {
    const Model m = random_model(rng, /*integer_vars=*/false);
    expect_lp_agreement(m, "seed " + std::to_string(GetParam()) + " lp#" +
                               std::to_string(i));
  }
}

/// The four random ILPs of one seed.
std::vector<Model> random_ilps(int seed) {
  Xorshift rng(static_cast<std::uint64_t>(seed) * 7919u);
  std::vector<Model> models;
  for (int i = 0; i < 4; ++i)
    models.push_back(random_model(rng, /*integer_vars=*/true));
  return models;
}

TEST_P(DifferentialLp, RandomIlpAgreesWithDenseReference) {
  const std::vector<Model> models = random_ilps(GetParam());
  for (std::size_t i = 0; i < models.size(); ++i)
    expect_ilp_agreement(models[i], "seed " + std::to_string(GetParam()) +
                                        " ilp#" + std::to_string(i));
}

constexpr int kFirstSeed = 1;
constexpr int kEndSeed = 41;
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialLp,
                         ::testing::Range(kFirstSeed, kEndSeed));

TEST(Differential, RandomIlpSeedsReachBelowTheRoot) {
  // The IPET relaxations of the suite are integral at the root, so the
  // random ILPs above are what exercises branch-and-bound nodes below it
  // (path bounds, phase-1 repair, incumbent pruning). At least one of
  // their models must branch, or that differential covers the root only.
  std::size_t branched = 0;
  for (int seed = kFirstSeed; seed < kEndSeed; ++seed)
    for (const Model& m : random_ilps(seed))
      if (solve_ilp(m).stats.bb_nodes > 1) ++branched;
  EXPECT_GT(branched, 0u);
}

TEST(Differential, InfeasibleRowsAgree) {
  Model m;
  const VarId x = m.add_var("x");
  m.add_constraint({{x, 1.0}}, Rel::kLe, 1.0);
  m.add_constraint({{x, 1.0}}, Rel::kGe, 2.0);
  m.set_objective({{x, 1.0}});
  expect_lp_agreement(m, "infeasible rows");
  expect_ilp_agreement(m, "infeasible rows (ilp)");
}

TEST(Differential, UnboundedRayAgrees) {
  Model m;
  const VarId x = m.add_var("x");
  const VarId y = m.add_var("y");
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Rel::kLe, 3.0);
  m.set_objective({{x, 1.0}});
  expect_lp_agreement(m, "unbounded ray");
}

TEST(Differential, IntegerInfeasibleWindowAgrees) {
  // The LP relaxation is feasible but no integer point exists.
  Model m;
  const VarId x = m.add_var("x", 0.4, 0.6, true);
  m.set_objective({{x, 1.0}});
  expect_ilp_agreement(m, "fractional-only window");
}

TEST(Differential, DegenerateFlowChainAgrees) {
  // Flow conservation with kEq rows and a pinned source: every basic
  // feasible solution is degenerate (many zero flows), the classic stall
  // shape for simplex tie-breaking.
  Model m;
  const VarId src = m.add_var("src", 1, 1);
  const VarId e1 = m.add_var("e1");
  const VarId e2 = m.add_var("e2");
  const VarId e3 = m.add_var("e3");
  const VarId sink = m.add_var("sink");
  m.add_constraint({{src, 1.0}, {e1, -1.0}, {e2, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e1, 1.0}, {e3, -1.0}}, Rel::kEq, 0.0);
  m.add_constraint({{e2, 1.0}, {e3, 1.0}, {sink, -1.0}}, Rel::kEq, 0.0);
  m.set_objective({{e1, 5.0}, {e2, 3.0}, {e3, 2.0}});
  expect_lp_agreement(m, "degenerate flow chain");
  expect_ilp_agreement(m, "degenerate flow chain (ilp)");
}

// --- the real workload: every Mälardalen IPET model ------------------------

const cache::CacheConfig kConfig{2, 16, 1024};
const cache::MemTiming kTiming =
    energy::derive_timing(kConfig, energy::TechNode::k45nm);

TEST(DifferentialIpet, EverySuiteModelAgreesWithDenseReference) {
  for (const suite::BenchmarkInfo& info : suite::all_benchmarks()) {
    const ir::Program program = suite::build_benchmark(info.name);
    const ir::Layout layout(program, kConfig.block_bytes);
    const analysis::ContextGraph graph(program);
    const analysis::CacheAnalysisResult cls =
        analysis::analyze_cache(graph, layout, kConfig);
    const Model model = reference::ipet_model(graph, cls, kTiming);

    const Solution sparse = solve_ilp(model);
    const Solution dense = solve_ilp_dense_reference(model);
    ASSERT_EQ(sparse.status, dense.status) << info.name;
    ASSERT_TRUE(sparse.optimal()) << info.name;
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-6 * std::max(1.0, dense.objective))
        << info.name;

    // The ILP oracle solves exactly this model, and the structural engine
    // reaches its optimum without a solver.
    const auto tau = static_cast<std::uint64_t>(std::llround(sparse.objective));
    const wcet::WcetResult oracle =
        reference::solve_ipet_ilp(graph, cls, kTiming);
    ASSERT_TRUE(oracle.ok()) << info.name;
    EXPECT_EQ(oracle.tau_mem, tau) << info.name;
    EXPECT_GE(oracle.stats.lp_solves, 1u) << info.name;
    const wcet::WcetResult structural =
        wcet::IpetSystem(graph).solve(cls, kTiming);
    ASSERT_TRUE(structural.ok()) << info.name;
    EXPECT_EQ(structural.tau_mem, tau) << info.name;
    EXPECT_EQ(structural.stats.lp_solves, 0u) << info.name;
  }
}

TEST(DifferentialIpet, SolveOrderDoesNotChangeResults) {
  // The canonical-snapshot determinism claim, pinned directly: re-solving
  // with objective A after objectives B and C gives the same vertex (values
  // included) as solving A first on a fresh snapshot.
  const ir::Program program = suite::build_benchmark("fdct");
  const analysis::ContextGraph graph(program);
  const ir::Layout layout(program, kConfig.block_bytes);
  const analysis::CacheAnalysisResult cls =
      analysis::analyze_cache(graph, layout, kConfig);
  const cache::MemTiming other = energy::derive_timing(
      cache::CacheConfig{2, 16, 1024}, energy::TechNode::k32nm);
  auto objective = [&](const cache::MemTiming& timing) {
    const Model m = reference::ipet_model(graph, cls, timing);
    std::vector<double> obj(m.num_vars(), 0.0);
    for (const Term& t : m.objective())
      obj[static_cast<std::size_t>(t.var)] = t.coeff;
    return obj;
  };
  const Model model = reference::ipet_model(graph, cls, kTiming);

  const SparseLp fresh(model);
  const Solution first = fresh.solve_ilp_with(objective(kTiming));

  const SparseLp reused(model);
  (void)reused.solve_ilp_with(objective(other));
  (void)reused.solve_ilp_with(objective(other));
  const Solution later = reused.solve_ilp_with(objective(kTiming));

  ASSERT_TRUE(first.optimal());
  ASSERT_TRUE(later.optimal());
  EXPECT_EQ(first.objective, later.objective);
  EXPECT_EQ(first.values, later.values);
}

TEST(DifferentialIpet, StatsAccounting) {
  const ir::Program program = suite::build_benchmark("bs");
  const analysis::ContextGraph graph(program);
  const ir::Layout layout(program, kConfig.block_bytes);
  const analysis::CacheAnalysisResult cls =
      analysis::analyze_cache(graph, layout, kConfig);

  const wcet::WcetResult r = reference::solve_ipet_ilp(graph, cls, kTiming);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.stats.bb_nodes, 1u);
  // One LP relaxation per branch-and-bound node.
  EXPECT_EQ(r.stats.lp_solves, r.stats.bb_nodes);

  // The oracle is one-shot: its pivots are the solve's plus the snapshot's
  // one-time phase 1.
  const Model model = reference::ipet_model(graph, cls, kTiming);
  const SparseLp lp(model);
  std::vector<double> obj(model.num_vars(), 0.0);
  for (const Term& t : model.objective())
    obj[static_cast<std::size_t>(t.var)] = t.coeff;
  const Solution solve = lp.solve_ilp_with(obj);
  EXPECT_EQ(r.stats.pivots, solve.stats.pivots + lp.construction_pivots());
  EXPECT_EQ(r.stats.lp_solves, solve.stats.lp_solves);

  // The structural engine runs no solver.
  const wcet::WcetResult structural = wcet::compute_wcet(graph, cls, kTiming);
  EXPECT_EQ(structural.tau_mem, r.tau_mem);
  EXPECT_EQ(structural.stats.pivots, 0u);
  EXPECT_EQ(structural.stats.lp_solves, 0u);
}

}  // namespace
}  // namespace ucp::ilp
