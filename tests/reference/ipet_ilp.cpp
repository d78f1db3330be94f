#include "reference/ipet_ilp.hpp"

#include <cmath>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ilp/sparse.hpp"
#include "support/check.hpp"

namespace ucp::reference {

using analysis::ContextGraph;
using analysis::NodeId;
using wcet::WcetResult;

namespace {

/// Everything of `graph` that ipet_model's constraints and bounds depend on:
/// the edges (their order fixes every in/out list), the entry, the halt
/// nodes and each loop instance's header nodes and bound.
std::vector<std::uint64_t> constraint_key(const ContextGraph& graph) {
  std::vector<std::uint64_t> key = {graph.num_nodes(), graph.entry_node(),
                                    graph.edges().size()};
  for (const analysis::CgEdge& e : graph.edges())
    key.insert(key.end(), {e.from, e.to, std::uint64_t{e.back}});
  key.push_back(graph.exit_nodes().size());
  key.insert(key.end(), graph.exit_nodes().begin(), graph.exit_nodes().end());
  for (const analysis::LoopInstance& inst : graph.loop_instances())
    key.insert(key.end(), {inst.first_node, inst.rest_node, inst.bound});
  return key;
}

/// The canonical phase-1 snapshots (ilp::SparseLp) of recently solved IPET
/// constraint systems. Phase 1 depends on the constraints alone, so every
/// solve over one program's graph — any configuration, timing or optimized
/// variant — can start from one snapshot: on nsichneu phase 1 is about two
/// thirds of a solve. Entries are found by their whole constraint key, not
/// by a graph's address, so a rebuilt or freed graph can never alias a stale
/// snapshot. Bounded in bytes, least recently used first out; snapshots
/// are immutable and shared across threads.
class SnapshotCache {
 public:
  std::shared_ptr<const ilp::SparseLp> get(const ContextGraph& graph,
                                           const ilp::Model& model) {
    std::vector<std::uint64_t> key = constraint_key(graph);
    if (auto hit = find(key)) return hit;
    auto lp = std::make_shared<const ilp::SparseLp>(model);
    const std::size_t bytes =
        lp->num_rows() * lp->num_rows() * sizeof(double) +
        key.size() * sizeof(std::uint64_t);
    std::lock_guard<std::mutex> lock(mutex_);
    if (bytes > kMaxBytes || find_locked(key)) return lp;
    entries_.push_front(Entry{std::move(key), lp, bytes});
    bytes_ += bytes;
    while (bytes_ > kMaxBytes) {
      bytes_ -= entries_.back().bytes;
      entries_.pop_back();
    }
    return lp;
  }

 private:
  /// Holds the suite's largest system (nsichneu, 8.6 MB of basis inverse)
  /// beside everything a sweep or ucpd audits alongside it.
  static constexpr std::size_t kMaxBytes = std::size_t{32} << 20;

  struct Entry {
    std::vector<std::uint64_t> key;
    std::shared_ptr<const ilp::SparseLp> lp;
    std::size_t bytes = 0;
  };

  std::shared_ptr<const ilp::SparseLp> find(
      const std::vector<std::uint64_t>& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    return find_locked(key);
  }
  std::shared_ptr<const ilp::SparseLp> find_locked(
      const std::vector<std::uint64_t>& key) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->key != key) continue;
      entries_.splice(entries_.begin(), entries_, it);
      return it->lp;
    }
    return nullptr;
  }

  std::mutex mutex_;
  std::list<Entry> entries_;
  std::size_t bytes_ = 0;
};

}  // namespace

ilp::Model ipet_model(const ContextGraph& graph,
                      const analysis::CacheAnalysisResult& classification,
                      const cache::MemTiming& timing) {
  UCP_REQUIRE(classification.per_node.size() == graph.num_nodes(),
              "classification does not match the context graph");
  const std::size_t num_nodes = graph.num_nodes();
  const auto& edges = graph.edges();

  ilp::Model model;
  std::vector<ilp::VarId> edge_var(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e)
    edge_var[e] = model.add_var(std::string("x").append(std::to_string(e)));
  const ilp::VarId source_var = model.add_var("src", 1.0, 1.0);
  std::vector<ilp::VarId> sink_var;
  for (NodeId exit : graph.exit_nodes())
    sink_var.push_back(model.add_var("sink_n" + std::to_string(exit)));

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

  // n_v as terms: the inflow of v.
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
    for (std::uint32_t ei : graph.in_edges(inst.rest_node))
      if (edges[ei].back) anti.push_back({edge_var[ei], 1.0});
    if (anti.empty()) continue;
    const auto factor = static_cast<double>(inst.bound - 2);
    for (std::uint32_t ei : graph.in_edges(inst.rest_node))
      if (!edges[ei].back) anti.push_back({edge_var[ei], -factor});
    model.add_constraint(std::move(anti), ilp::Rel::kLe, 0.0);
  }

  // Objective: Σ_v t_w(v) * n_v, expressed over inflow arcs (the virtual
  // source arc carries the entry node's weight).
  std::vector<double> coeff(model.num_vars(), 0.0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    double tv = 0.0;
    for (analysis::Classification c : classification.per_node[v])
      tv += wcet::ref_cycles(c, timing);
    if (tv == 0.0) continue;
    for (std::uint32_t ei : graph.in_edges(v)) coeff[edge_var[ei]] += tv;
    if (v == graph.entry_node()) coeff[source_var] += tv;
  }
  std::vector<ilp::Term> objective;
  for (std::size_t j = 0; j < coeff.size(); ++j)
    if (coeff[j] != 0.0)
      objective.push_back({static_cast<ilp::VarId>(j), coeff[j]});
  model.set_objective(std::move(objective), /*maximize=*/true);
  return model;
}

WcetResult solve_ipet_ilp(const ContextGraph& graph,
                          const analysis::CacheAnalysisResult& classification,
                          const cache::MemTiming& timing) {
  static SnapshotCache snapshots;
  const ilp::Model model = ipet_model(graph, classification, timing);
  const std::shared_ptr<const ilp::SparseLp> lp = snapshots.get(graph, model);
  std::vector<double> objective(model.num_vars(), 0.0);
  for (const ilp::Term& t : model.objective())
    objective[static_cast<std::size_t>(t.var)] += t.coeff;
  ilp::Solution solution = lp->solve_ilp_with(objective);
  // The work behind the answer, whichever solve paid the snapshot's phase 1.
  solution.stats.pivots += lp->construction_pivots();

  WcetResult result;
  result.ref_cycles.resize(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    for (analysis::Classification c : classification.per_node[v])
      result.ref_cycles[v].push_back(wcet::ref_cycles(c, timing));
  result.stats = solution.stats;
  if (!solution.optimal()) {
    result.status = Status(
        solution.status == ilp::SolveStatus::kIterationLimit
            ? ErrorCode::kIterationLimit
            : ErrorCode::kAnalysisFailed,
        "IPET ILP " + ilp::status_name(solution.status));
    return result;
  }
  result.status = Status::Ok();
  result.tau_mem = static_cast<std::uint64_t>(std::llround(solution.objective));
  const auto& edges = graph.edges();
  result.edge_counts.assign(edges.size(), 0);
  for (std::size_t e = 0; e < edges.size(); ++e)
    result.edge_counts[e] = static_cast<std::uint64_t>(
        std::llround(solution.value(static_cast<ilp::VarId>(e))));
  result.node_counts.assign(graph.num_nodes(), 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    std::uint64_t n = v == graph.entry_node() ? 1 : 0;
    for (std::uint32_t ei : graph.in_edges(v)) n += result.edge_counts[ei];
    result.node_counts[v] = n;
  }
  return result;
}

}  // namespace ucp::reference
