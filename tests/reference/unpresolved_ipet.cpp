#include <cmath>

#include "ilp/sparse.hpp"
#include "reference/reference.hpp"

namespace ucp::reference {

wcet::WcetResult solve_unpresolved(
    const wcet::IpetSystem& system,
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing) {
  const analysis::ContextGraph& graph = system.graph();
  const ilp::Model model = system.model_with_objective(classification, timing);

  wcet::WcetResult result;
  result.ref_cycles.resize(graph.num_nodes());
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v)
    for (analysis::Classification c : classification.per_node[v])
      result.ref_cycles[v].push_back(wcet::ref_cycles(c, timing));

  std::vector<double> obj(model.num_vars(), 0.0);
  for (const ilp::Term& t : model.objective())
    obj[static_cast<std::size_t>(t.var)] = t.coeff;
  const ilp::Solution solution = ilp::SparseLp(model).solve_ilp_with(obj);
  result.status = solution.status;
  result.stats = solution.stats;
  if (!solution.optimal()) return result;

  // Edge e is VarId e; the entry node also receives the virtual source arc.
  result.tau_mem =
      static_cast<std::uint64_t>(std::llround(solution.objective));
  const auto& edges = graph.edges();
  result.edge_counts.assign(edges.size(), 0);
  for (std::size_t e = 0; e < edges.size(); ++e)
    result.edge_counts[e] = static_cast<std::uint64_t>(
        std::llround(solution.value(static_cast<ilp::VarId>(e))));
  result.node_counts.assign(graph.num_nodes(), 0);
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v) {
    std::uint64_t n = 0;
    for (std::uint32_t ei : graph.in_edges(v)) n += result.edge_counts[ei];
    if (v == graph.entry_node()) n += 1;
    result.node_counts[v] = n;
  }
  return result;
}

}  // namespace ucp::reference
