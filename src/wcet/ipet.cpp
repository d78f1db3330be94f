#include "wcet/ipet.hpp"

#include <cmath>
#include <string>

#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/checked.hpp"
#include "support/fault_injection.hpp"

namespace ucp::wcet {

ErrorCode solve_error_code(ilp::SolveStatus status) {
  switch (status) {
    case ilp::SolveStatus::kOptimal:
      return ErrorCode::kOk;
    case ilp::SolveStatus::kInfeasible:
      return ErrorCode::kInfeasible;
    case ilp::SolveStatus::kUnbounded:
      return ErrorCode::kUnbounded;
    case ilp::SolveStatus::kIterationLimit:
      return ErrorCode::kIterationLimit;
  }
  return ErrorCode::kInternal;
}

using analysis::CgEdge;
using analysis::Classification;
using analysis::ContextGraph;
using analysis::NodeId;

std::uint32_t ref_cycles(Classification cls, const cache::MemTiming& timing) {
  return cls == Classification::kAlwaysHit ? timing.hit_cycles
                                           : timing.miss_cycles;
}

namespace {

/// Sum of per-execution fetch cycles of all instructions of a node.
std::uint64_t node_cycles(const std::vector<std::uint32_t>& refs) {
  std::uint64_t total = 0;
  for (std::uint32_t c : refs) total += c;
  return total;
}

}  // namespace

ilp::Model IpetSystem::build_model(const ContextGraph& graph) {
  const std::size_t num_nodes = graph.num_nodes();
  const auto& edges = graph.edges();

  ilp::Model model;

  // One variable per real edge, plus a virtual source arc into the entry and
  // one virtual sink arc out of every exit node. Edge e gets VarId e.
  std::vector<ilp::VarId> edge_var(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e)
    edge_var[e] = model.add_var("x" + std::to_string(e));
  const ilp::VarId source_var = model.add_var("src", 1.0, 1.0);
  std::vector<ilp::VarId> sink_var;
  for (NodeId exit : graph.exit_nodes())
    sink_var.push_back(
        model.add_var("sink_n" + std::to_string(exit)));

  // Flow conservation: inflow(v) == outflow(v).
  for (NodeId v = 0; v < num_nodes; ++v) {
    std::vector<ilp::Term> terms;
    for (std::uint32_t ei : graph.in_edges(v))
      terms.push_back({edge_var[ei], 1.0});
    if (v == graph.entry_node()) terms.push_back({source_var, 1.0});
    for (std::uint32_t ei : graph.out_edges(v))
      terms.push_back({edge_var[ei], -1.0});
    for (std::size_t k = 0; k < graph.exit_nodes().size(); ++k)
      if (graph.exit_nodes()[k] == v) terms.push_back({sink_var[k], -1.0});
    model.add_constraint(std::move(terms), ilp::Rel::kEq, 0.0);
  }

  // Helper: inflow(v) as terms (n_v).
  auto inflow_terms = [&](NodeId v, double coeff) {
    std::vector<ilp::Term> terms;
    for (std::uint32_t ei : graph.in_edges(v))
      terms.push_back({edge_var[ei], coeff});
    if (v == graph.entry_node()) terms.push_back({source_var, coeff});
    return terms;
  };

  // VIVU loop bounds: n(rest) <= (bound - 1) * n(first).
  for (const analysis::LoopInstance& inst : graph.loop_instances()) {
    if (inst.rest_node == analysis::kInvalidNode) continue;
    UCP_CHECK_MSG(inst.bound >= 2, "REST node exists for bound < 2");
    std::vector<ilp::Term> terms = inflow_terms(inst.rest_node, 1.0);
    const auto first = inflow_terms(
        inst.first_node, -static_cast<double>(inst.bound - 1));
    terms.insert(terms.end(), first.begin(), first.end());
    model.add_constraint(std::move(terms), ilp::Rel::kLe, 0.0);

    // Anti-circulation: back-edge flow may exist only in proportion to the
    // flow that actually *enters* the REST instance from the peeled FIRST
    // iteration. Without this, a maximizing solution can satisfy flow
    // conservation with a closed loop-cycle circulation disconnected from
    // the source, which has the right objective value but is not a path
    // (the classic IPET structural-flow pitfall).
    std::vector<ilp::Term> anti;
    bool has_back = false;
    for (std::uint32_t ei : graph.in_edges(inst.rest_node)) {
      if (edges[ei].back) {
        anti.push_back({edge_var[ei], 1.0});
        has_back = true;
      }
    }
    if (!has_back) continue;
    const double factor =
        inst.bound >= 2 ? static_cast<double>(inst.bound - 2) : 0.0;
    for (std::uint32_t ei : graph.in_edges(inst.rest_node)) {
      if (!edges[ei].back) anti.push_back({edge_var[ei], -factor});
    }
    model.add_constraint(std::move(anti), ilp::Rel::kLe, 0.0);
  }

  return model;
}

IpetSystem::IpetSystem(const ContextGraph& graph)
    : graph_(&graph),
      model_(build_model(graph)),
      source_var_(static_cast<ilp::VarId>(graph.edges().size())),
      presolve_(ilp::Presolve::reduce(model_)),
      lp_(presolve_ ? presolve_->reduced() : model_) {}

namespace {

/// Per-reference worst-case cycles of every node under (cls, timing) — the
/// t_w table the objective coefficients and the WcetResult both need.
std::vector<std::vector<std::uint32_t>> timing_table(
    const ContextGraph& graph,
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing) {
  std::vector<std::vector<std::uint32_t>> table(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto& cls = classification.per_node[v];
    table[v].reserve(cls.size());
    for (Classification c : cls) table[v].push_back(ref_cycles(c, timing));
  }
  return table;
}

}  // namespace

WcetResult IpetSystem::solve(
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing) const {
  obs::Span span("wcet.ipet.solve");
  const ContextGraph& graph = *graph_;
  const std::size_t num_nodes = graph.num_nodes();
  const auto& edges = graph.edges();

  WcetResult result;
  result.ref_cycles = timing_table(graph, classification, timing);

  // Objective: Σ_v t_w(v) * n_v, expressed over inflow arcs (edge e has
  // VarId e; the virtual source arc carries the entry node's weight).
  std::vector<double> obj(model_.num_vars(), 0.0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    const double tv = static_cast<double>(node_cycles(result.ref_cycles[v]));
    if (tv == 0.0) continue;
    for (std::uint32_t ei : graph.in_edges(v))
      obj[ei] += tv;
    if (v == graph.entry_node()) obj[static_cast<std::size_t>(source_var_)] += tv;
  }

  if (UCP_FAULT_POINT("wcet.solve")) {
    result.status = ilp::SolveStatus::kIterationLimit;
    return result;
  }
  ilp::Solution solution;
  if (presolve_) {
    // Solve in the reduced column space; postsolve restores the original
    // objective value (fixed variables' contribution) and expands the
    // solution vector so the edge-count extraction below is agnostic.
    double constant = 0.0;
    const std::vector<double> reduced_obj =
        presolve_->map_objective(obj, constant);
    solution = lp_.solve_ilp_with(reduced_obj);
    if (solution.optimal()) {
      solution.objective += constant;
      solution.values = presolve_->expand_values(solution.values);
    }
  } else {
    solution = lp_.solve_ilp_with(obj);
  }
  result.status = solution.status;
  result.stats = solution.stats;
  if (!solution.optimal()) return result;

  result.tau_mem =
      static_cast<std::uint64_t>(std::llround(solution.objective));
  result.edge_counts.assign(edges.size(), 0);
  for (std::size_t e = 0; e < edges.size(); ++e)
    result.edge_counts[e] = static_cast<std::uint64_t>(
        std::llround(solution.value(static_cast<ilp::VarId>(e))));
  result.node_counts.assign(num_nodes, 0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    std::uint64_t n = 0;
    for (std::uint32_t ei : graph.in_edges(v)) n += result.edge_counts[ei];
    if (v == graph.entry_node()) n += 1;
    result.node_counts[v] = n;
  }
  return result;
}

ilp::Model IpetSystem::model_with_objective(
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing) const {
  const ContextGraph& graph = *graph_;
  const auto table = timing_table(graph, classification, timing);

  std::vector<double> var_coeff(model_.num_vars(), 0.0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const double tv = static_cast<double>(node_cycles(table[v]));
    if (tv == 0.0) continue;
    for (std::uint32_t ei : graph.in_edges(v)) var_coeff[ei] += tv;
    if (v == graph.entry_node())
      var_coeff[static_cast<std::size_t>(source_var_)] += tv;
  }
  std::vector<ilp::Term> objective;
  for (std::size_t j = 0; j < var_coeff.size(); ++j)
    if (var_coeff[j] != 0.0)
      objective.push_back({static_cast<ilp::VarId>(j), var_coeff[j]});

  ilp::Model model = model_;
  model.set_objective(std::move(objective), /*maximize=*/true);
  return model;
}

WcetResult compute_wcet(const ContextGraph& graph,
                        const analysis::CacheAnalysisResult& classification,
                        const cache::MemTiming& timing) {
  const IpetSystem system(graph);
  WcetResult result = system.solve(classification, timing);
  system.charge_construction(result.stats);
  return result;
}

std::uint64_t tau_with_fixed_counts(
    const ContextGraph& graph,
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing,
    const std::vector<std::uint64_t>& counts) {
  UCP_REQUIRE(counts.size() == graph.num_nodes(),
              "count vector does not match the context graph");
  std::uint64_t tau = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (counts[v] == 0) continue;
    std::uint64_t per_exec = 0;
    for (Classification c : classification.per_node[v])
      per_exec += ref_cycles(c, timing);
    tau = checked_add(tau, checked_mul(per_exec, counts[v], "tau node term"),
                      "tau accumulation");
  }
  return tau;
}

}  // namespace ucp::wcet
