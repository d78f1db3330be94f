#include "wcet/certificate.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

namespace ucp::wcet {

using analysis::ContextGraph;
using analysis::kInvalidNode;
using analysis::NodeId;

namespace {

using Wide = __int128;

constexpr std::uint32_t kNone = 0xffffffffu;
/// A tail or path value nothing has reached yet.
constexpr Wide kUnreached = std::numeric_limits<Wide>::min();
/// Magnitude limits that keep every reduced cost inside __int128: |h| and
/// the weights stay below 2^121, (bound - 2)·β below 2^32 · 2^88.
constexpr Wide kMaxPotential = Wide{1} << 120;
constexpr Wide kMaxPrice = Wide{1} << 88;

std::string str(Wide v) {
  if (v == 0) return "0";
  const bool negative = v < 0;
  unsigned __int128 u = negative ? -static_cast<unsigned __int128>(v)
                                 : static_cast<unsigned __int128>(v);
  std::string digits;
  for (; u != 0; u /= 10) digits.push_back(static_cast<char>('0' + u % 10));
  if (negative) digits.push_back('-');
  return {digits.rbegin(), digits.rend()};
}

/// Σ t_w per node.
std::vector<Wide> node_weights(const WcetResult& result) {
  std::vector<Wide> w(result.ref_cycles.size(), 0);
  for (std::size_t v = 0; v < w.size(); ++v)
    for (std::uint32_t c : result.ref_cycles[v]) w[v] += c;
  return w;
}

/// The edge prices of one certificate: which loop instance's REST header
/// each node is, and the instances' β.
class Prices {
 public:
  Prices(const ContextGraph& graph, const std::vector<Wide>& beta)
      : graph_(graph), beta_(beta), rest_of_(graph.num_nodes(), kNone) {
    const auto& loops = graph.loop_instances();
    for (std::uint32_t i = 0; i < loops.size(); ++i)
      if (loops[i].rest_node != kInvalidNode) rest_of_[loops[i].rest_node] = i;
  }

  /// -β_i on a back edge into REST header i, (bound_i - 2)·β_i on any other
  /// edge into it, 0 elsewhere.
  Wide operator()(std::uint32_t edge) const {
    const analysis::CgEdge& e = graph_.edges()[edge];
    const std::uint32_t i = rest_of_[e.to];
    if (i == kNone) return 0;
    if (e.back) return -beta_[i];
    return static_cast<Wide>(graph_.loop_instances()[i].bound - 2) * beta_[i];
  }

 private:
  const ContextGraph& graph_;
  const std::vector<Wide>& beta_;
  std::vector<std::uint32_t> rest_of_;
};

/// β_i: the longest cycle from instance i's REST header back to it, over
/// its REST body with the nested instances already priced. Instances are
/// priced innermost first, so a nested entry edge's price is known; the
/// nested back edges are skipped, since with those prices no nested cycle
/// adds value.
std::vector<Wide> loop_prices(const ContextGraph& graph,
                              const std::vector<Wide>& w) {
  const auto& loops = graph.loop_instances();
  std::vector<Wide> beta(loops.size(), 0);
  const Prices price(graph, beta);
  std::vector<std::uint32_t> order(loops.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return loops[a].parent_ctx.size() >
                            loops[b].parent_ctx.size();
                   });

  std::vector<Wide> reach(graph.num_nodes(), kUnreached);
  std::vector<std::uint32_t> member(graph.num_nodes(), kNone);
  std::vector<NodeId> body;
  for (std::uint32_t i : order) {
    const NodeId header = loops[i].rest_node;
    if (header == kInvalidNode) continue;
    // The REST body: what the header reaches without a back edge while the
    // context stays inside (.., header REST).
    const std::size_t level = loops[i].parent_ctx.size();
    const analysis::ContextEntry inside{loops[i].header, true};
    body.assign(1, header);
    member[header] = i;
    reach[header] = 0;
    for (std::size_t k = 0; k < body.size(); ++k)
      for (std::uint32_t ei : graph.out_edges(body[k])) {
        const analysis::CgEdge& e = graph.edges()[ei];
        const analysis::Context& ctx = graph.node(e.to).ctx;
        if (e.back || member[e.to] == i || ctx.size() <= level ||
            ctx[level] != inside)
          continue;
        member[e.to] = i;
        reach[e.to] = kUnreached;
        body.push_back(e.to);
      }
    std::sort(body.begin(), body.end(), [&](NodeId a, NodeId b) {
      return graph.topo_pos(a) < graph.topo_pos(b);
    });
    for (NodeId v : body) {
      if (reach[v] == kUnreached) continue;
      for (std::uint32_t ei : graph.out_edges(v)) {
        const analysis::CgEdge& e = graph.edges()[ei];
        if (e.back) {
          if (e.to == header)
            beta[i] = std::max(beta[i], reach[v] + w[header]);
        } else if (member[e.to] == i) {
          reach[e.to] = std::max(reach[e.to], reach[v] + w[e.to] + price(ei));
        }
      }
    }
  }
  return beta;
}

/// Longest priced tails, h_v = max(h_v as given, max over out-edges of
/// w_to + price + h_to), by passes in reverse ACFG order: a pass settles
/// every forward edge, each further pass one more back edge of the best
/// tails. With no positive cycle a best tail repeats no REST header, so
/// loops + 2 passes settle all; false when they do not.
bool longest_tails(const ContextGraph& graph, const std::vector<Wide>& w,
                   const Prices& price, std::vector<Wide>& h) {
  const std::vector<Wide> terminal = h;
  const std::vector<NodeId>& topo = graph.topo_order();
  for (std::size_t pass = 0; pass < graph.loop_instances().size() + 2;
       ++pass) {
    bool changed = false;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      Wide best = terminal[*it];
      for (std::uint32_t ei : graph.out_edges(*it)) {
        const NodeId t = graph.edges()[ei].to;
        if (h[t] != kUnreached) best = std::max(best, w[t] + price(ei) + h[t]);
      }
      changed |= best != h[*it];
      h[*it] = best;
    }
    if (!changed) return true;
  }
  return false;
}

}  // namespace

std::string ipet_flow_violation(const ContextGraph& graph,
                                const WcetResult& result) {
  const auto& edges = graph.edges();
  if (result.edge_counts.size() != edges.size() ||
      result.node_counts.size() != graph.num_nodes() ||
      result.ref_cycles.size() != graph.num_nodes())
    return "count vectors do not match the graph";

  std::vector<bool> is_exit(graph.num_nodes(), false);
  for (NodeId v : graph.exit_nodes()) is_exit[v] = true;
  auto inflow = [&](NodeId v, bool back_only, bool forward_only) {
    unsigned __int128 n = 0;
    for (std::uint32_t ei : graph.in_edges(v))
      if ((!back_only || edges[ei].back) && (!forward_only || !edges[ei].back))
        n += result.edge_counts[ei];
    return n;
  };

  // Flow conservation, with the source arc (fixed at 1) into the entry and
  // the sink arcs (non-negative) out of the halt nodes.
  unsigned __int128 sunk = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
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
    if (inst.rest_node == kInvalidNode) continue;
    const std::string where = "loop at node " + std::to_string(inst.first_node);
    const unsigned __int128 first = result.node_counts[inst.first_node];
    if (result.node_counts[inst.rest_node] > (inst.bound - 1) * first)
      return where + ": n(rest) exceeds (bound-1) * n(first)";
    if (inflow(inst.rest_node, true, false) >
        (inst.bound - 2) * inflow(inst.rest_node, false, true))
      return where + ": back-edge flow exceeds the anti-circulation limit";
  }

  unsigned __int128 tau = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    for (std::uint32_t c : result.ref_cycles[v])
      tau += static_cast<unsigned __int128>(c) * result.node_counts[v];
  if (tau != result.tau_mem) return "the counts do not reproduce tau_w";
  return "";
}

IpetCertificate make_certificate(const ContextGraph& graph,
                                 const WcetResult& result) {
  IpetCertificate cert;
  if (!result.ok() || result.ref_cycles.size() != graph.num_nodes())
    return cert;
  const std::vector<Wide> w = node_weights(result);
  cert.loop_price = loop_prices(graph, w);
  const Prices price(graph, cert.loop_price);

  std::vector<Wide>& h = cert.potential;
  h.assign(graph.num_nodes(), kUnreached);
  for (NodeId v : graph.exit_nodes()) h[v] = 0;
  if (!longest_tails(graph, w, price, h)) return cert;

  // A node without a path to a halt node carries no flow; it gets its
  // longest tail inside that dead part, shifted down far enough that every
  // edge into it keeps a non-positive reduced cost.
  std::vector<Wide> dead(graph.num_nodes(), kUnreached);
  bool any_dead = false;
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    if (h[v] == kUnreached) dead[v] = 0, any_dead = true;
  if (!any_dead || !longest_tails(graph, w, price, dead)) return cert;
  Wide shift = 0;
  for (std::uint32_t ei = 0; ei < graph.edges().size(); ++ei) {
    const analysis::CgEdge& e = graph.edges()[ei];
    if (h[e.from] != kUnreached && h[e.to] == kUnreached)
      shift = std::max(shift, w[e.to] + price(ei) + dead[e.to] - h[e.from]);
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    if (h[v] == kUnreached) h[v] = dead[v] - shift;
  return cert;
}

std::string certificate_violation(const ContextGraph& graph,
                                  const WcetResult& result,
                                  const IpetCertificate& cert) {
  if (std::string flow = ipet_flow_violation(graph, result); !flow.empty())
    return flow;
  const auto& loops = graph.loop_instances();
  if (cert.potential.size() != graph.num_nodes() ||
      cert.loop_price.size() != loops.size())
    return "the certificate does not match the graph";
  const std::vector<Wide>& h = cert.potential;
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    if (h[v] < -kMaxPotential || h[v] > kMaxPotential)
      return "node " + std::to_string(v) + ": potential out of range";
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const std::string where =
        "loop at node " + std::to_string(loops[i].first_node);
    if (cert.loop_price[i] < 0 || cert.loop_price[i] > kMaxPrice)
      return where + ": price " + str(cert.loop_price[i]) + " out of range";
    if (loops[i].rest_node != kInvalidNode && loops[i].bound < 2)
      return where + ": REST node under a bound below 2";
  }

  const std::vector<Wide> w = node_weights(result);
  const Prices price(graph, cert.loop_price);
  for (std::uint32_t ei = 0; ei < graph.edges().size(); ++ei) {
    const analysis::CgEdge& e = graph.edges()[ei];
    const Wide reduced = w[e.to] + h[e.to] - h[e.from] + price(ei);
    if (reduced > 0)
      return "edge " + std::to_string(ei) + ": reduced cost " + str(reduced) +
             " > 0";
  }
  for (NodeId v : graph.exit_nodes())
    if (h[v] < 0)
      return "halt node " + std::to_string(v) + ": potential " + str(h[v]) +
             " < 0";
  const NodeId entry = graph.entry_node();
  if (w[entry] + h[entry] != static_cast<Wide>(result.tau_mem))
    return "the dual bound " + str(w[entry] + h[entry]) +
           " differs from tau_w " + std::to_string(result.tau_mem);
  return "";
}

}  // namespace ucp::wcet
