#include <string>

#include "reference/reference.hpp"

namespace ucp::reference {

std::string ipet_flow_violation(const analysis::ContextGraph& graph,
                                const wcet::WcetResult& result) {
  const auto& edges = graph.edges();
  if (result.edge_counts.size() != edges.size() ||
      result.node_counts.size() != graph.num_nodes() ||
      result.ref_cycles.size() != graph.num_nodes())
    return "count vectors do not match the graph";

  std::vector<bool> is_exit(graph.num_nodes(), false);
  for (analysis::NodeId v : graph.exit_nodes()) is_exit[v] = true;
  auto inflow = [&](analysis::NodeId v, bool back_only, bool forward_only) {
    unsigned __int128 n = 0;
    for (std::uint32_t ei : graph.in_edges(v))
      if ((!back_only || edges[ei].back) && (!forward_only || !edges[ei].back))
        n += result.edge_counts[ei];
    return n;
  };

  // Flow conservation, with the source arc (fixed at 1) into the entry and
  // the sink arcs (non-negative) out of the halt nodes.
  unsigned __int128 sunk = 0;
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v) {
    const unsigned __int128 in =
        inflow(v, false, false) + (v == graph.entry_node() ? 1 : 0);
    if (in != result.node_counts[v])
      return "node " + std::to_string(v) + ": count is not its inflow";
    unsigned __int128 out = 0;
    for (std::uint32_t ei : graph.out_edges(v)) out += result.edge_counts[ei];
    if (out > in || (!is_exit[v] && out != in))
      return "node " + std::to_string(v) + ": flow not conserved";
    sunk += in - out;
  }
  if (sunk != 1) return "the sink arcs do not carry exactly one unit";

  for (const analysis::LoopInstance& inst : graph.loop_instances()) {
    if (inst.rest_node == analysis::kInvalidNode) continue;
    const std::string where = "loop at node " + std::to_string(inst.first_node);
    const unsigned __int128 first = result.node_counts[inst.first_node];
    if (result.node_counts[inst.rest_node] > (inst.bound - 1) * first)
      return where + ": n(rest) exceeds (bound-1) * n(first)";
    if (inflow(inst.rest_node, true, false) >
        (inst.bound - 2) * inflow(inst.rest_node, false, true))
      return where + ": back-edge flow exceeds the anti-circulation limit";
  }

  unsigned __int128 tau = 0;
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v)
    for (std::uint32_t c : result.ref_cycles[v])
      tau += static_cast<unsigned __int128>(c) * result.node_counts[v];
  if (tau != result.tau_mem) return "the counts do not reproduce tau_w";
  return "";
}

}  // namespace ucp::reference
