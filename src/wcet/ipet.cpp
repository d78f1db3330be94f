#include "wcet/ipet.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/checked.hpp"
#include "support/fault_injection.hpp"

namespace ucp::wcet {

using analysis::Classification;
using analysis::ContextGraph;
using analysis::kInvalidNode;
using analysis::NodeId;

std::uint32_t ref_cycles(Classification cls, const cache::MemTiming& timing) {
  return cls == Classification::kAlwaysHit ? timing.hit_cycles
                                           : timing.miss_cycles;
}

IpetSystem::IpetSystem(const ContextGraph& graph)
    : graph_(&graph),
      region_of_(graph.num_nodes(), kNone),
      first_loop_(graph.num_nodes(), kNone),
      is_exit_(graph.num_nodes(), 0) {
  for (NodeId v : graph.exit_nodes()) is_exit_[v] = 1;
  covered_ = assign_regions();
}

std::uint32_t IpetSystem::ancestor(std::uint32_t r, std::size_t depth) const {
  while (r != kNone && regions_[r].depth > depth) r = regions_[r].parent;
  return (r != kNone && regions_[r].depth == depth) ? r : kNone;
}

/// Places every node in its region and every loop instance under its parent
/// region, walking the ACFG order so each node's predecessors are placed
/// first. Each placement is checked against the node's context.
bool IpetSystem::assign_regions() {
  const ContextGraph& graph = *graph_;
  const auto& loops = graph.loop_instances();
  auto ctx = [&](NodeId v) -> const analysis::Context& {
    return graph.node(v).ctx;
  };
  regions_.assign(1 + 2 * loops.size(), Region{});
  regions_[0].start = graph.entry_node();
  for (std::uint32_t i = 0; i < loops.size(); ++i) {
    const analysis::LoopInstance& inst = loops[i];
    for (std::uint32_t k = 0; k < 2; ++k) {
      Region& reg = regions_[1 + 2 * i + k];
      reg.loop = i;
      reg.start = k == 0 ? inst.first_node : inst.rest_node;
      reg.depth = inst.parent_ctx.size() + 1;
    }
    first_loop_[inst.first_node] = i;
    if (inst.rest_node != kInvalidNode)
      region_of_[inst.rest_node] = 2 + 2 * i;
  }

  for (NodeId v : graph.topo_order()) {
    std::uint32_t r = 0;
    if (v != graph.entry_node()) {
      NodeId pred = kInvalidNode;
      for (std::uint32_t ei : graph.in_edges(v))
        if (!graph.edges()[ei].back) {
          pred = graph.edges()[ei].from;
          break;
        }
      if (pred == kInvalidNode) return false;
      const std::size_t depth = ctx(v).size();
      if (first_loop_[v] != kNone) {
        if (depth == 0) return false;
        const std::uint32_t i = first_loop_[v];
        const std::uint32_t parent = ancestor(region_of_[pred], depth - 1);
        if (parent == kNone) return false;
        const analysis::Context& outer = ctx(regions_[parent].start);
        if (!std::equal(outer.begin(), outer.end(), ctx(v).begin()))
          return false;
        regions_[1 + 2 * i].parent = regions_[2 + 2 * i].parent = parent;
        regions_[parent].items.push_back(v);
        r = 1 + 2 * i;
      } else if (region_of_[v] != kNone) {
        r = region_of_[v];  // a REST header, placed with its instance
        if (regions_[r].parent == kNone) return false;
      } else {
        r = ancestor(region_of_[pred], depth);
        if (r == kNone) return false;
      }
    } else if (!ctx(v).empty() || first_loop_[v] != kNone) {
      return false;
    }
    // A region's nodes share its start node's context exactly.
    if (ctx(v) != ctx(regions_[r].start)) return false;
    region_of_[v] = r;
    regions_[r].items.push_back(v);
  }
  return true;
}

/// One solve of an IpetSystem: the longest paths under one pricing, then the
/// flow behind the longest one.
class IpetSystem::Collapse {
 public:
  Collapse(const IpetSystem& system,
           const std::vector<std::vector<std::uint32_t>>& cycles)
      : sys_(system),
        graph_(system.graph()),
        loops_(graph_.loop_instances()),
        weight_(graph_.num_nodes(), 0),
        arrive_(graph_.num_nodes()),
        loop_arrive_(loops_.size()),
        enter_(loops_.size()),
        cycle_(loops_.size()),
        loop_exits_(loops_.size()) {
    for (NodeId v = 0; v < graph_.num_nodes(); ++v)
      for (std::uint32_t c : cycles[v]) weight_[v] += c;
  }

  /// Fills `result`'s τ, edge and node counts, or returns why it cannot.
  Status run(WcetResult& result) {
    if (!sys_.covered_ || !collapse_all() || !trace_best(result))
      return Status(ErrorCode::kInternal,
                    overflow_ ? "uint64 overflow in the WCET collapse"
                              : "the structural WCET collapse does not "
                                "cover this context graph");
    return Status::Ok();
  }

 private:
  /// Longest-path value that no path has reached yet.
  static constexpr std::uint64_t kUnreached =
      std::numeric_limits<std::uint64_t>::max();
  /// Exit "edge" standing for a halt node's arc to the virtual sink.
  static constexpr std::uint32_t kSinkArc = kNone;

  /// A longest path into something, and the edge it arrives by (kNone for
  /// a region's start).
  struct Slot {
    std::uint64_t value = kUnreached;
    std::uint32_t edge = kNone;

    bool reached() const { return value != kUnreached; }
    /// The tie rule: among equal values the lowest edge index wins.
    void relax(std::uint64_t v, std::uint32_t e) {
      if (!reached() || v > value || (v == value && e < edge)) {
        value = v;
        edge = e;
      }
    }
  };

  /// One way out of a region or a collapsed loop: the edge it leaves by,
  /// that edge's source node, and the longest path weight from the
  /// region's start up to and including the source.
  struct Exit {
    std::uint32_t edge = kSinkArc;
    NodeId from = kInvalidNode;
    std::uint64_t value = 0;
  };

  /// out = a + b; false on overflow (reaching the sentinel counts as one).
  bool add(std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
    if (!__builtin_add_overflow(a, b, &out) && out != kUnreached) return true;
    overflow_ = true;
    return false;
  }
  bool mul(std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
    if (!__builtin_mul_overflow(a, b, &out) && out != kUnreached) return true;
    overflow_ = true;
    return false;
  }

  const IpetSystem::Region& region(std::uint32_t r) const {
    return sys_.regions_[r];
  }
  static std::uint32_t first_body(std::uint32_t i) { return 1 + 2 * i; }
  static std::uint32_t rest_body(std::uint32_t i) { return 2 + 2 * i; }

  /// Collapses every loop instance, innermost first: an inner instance's
  /// FIRST header follows its parent's in the ACFG order, so walking that
  /// order backwards reaches it first.
  bool collapse_all() {
    const std::vector<NodeId>& topo = graph_.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it)
      if (sys_.first_loop_[*it] != kNone &&
          !collapse_loop(sys_.first_loop_[*it]))
        return false;
    return true;
  }

  /// Routes one path value leaving an item of region `r` along `edge` (from
  /// node `from`): into a node or nested loop of the region, into the
  /// instance's REST header (`to_rest`: the FIRST body's entry into REST, or
  /// the REST body's back-edge cycle), or out of the region.
  bool route(std::uint32_t r, std::uint32_t edge, NodeId from,
             std::uint64_t value, std::vector<Exit>& exits, Slot& to_rest) {
    if (edge == kSinkArc) {
      exits.push_back(Exit{edge, from, value});
      return true;
    }
    const Region& reg = region(r);
    const NodeId t = graph_.edges()[edge].to;
    if (reg.loop != kNone && t == loops_[reg.loop].rest_node) {
      // Only REST -> REST arcs are back edges.
      const bool from_rest = r == rest_body(reg.loop);
      if (graph_.edges()[edge].back != from_rest) return false;
      to_rest.relax(value, edge);
    } else if (sys_.region_of_[t] == r) {
      if (t == reg.start) return false;
      arrive_[t].relax(value, edge);
    } else if (sys_.first_loop_[t] != kNone &&
               region(sys_.region_of_[t]).parent == r) {
      loop_arrive_[sys_.first_loop_[t]].relax(value, edge);
    } else {
      exits.push_back(Exit{edge, from, value});
    }
    return true;
  }

  /// Longest paths from the start of region `r` (value 0 before its
  /// weight) over its items in topological order.
  bool solve_region(std::uint32_t r, std::vector<Exit>& exits,
                    Slot& to_rest) {
    arrive_[region(r).start] = Slot{0, kNone};
    for (NodeId v : region(r).items) {
      if (sys_.region_of_[v] == r) {
        if (!arrive_[v].reached()) continue;
        std::uint64_t leave = 0;
        if (!add(arrive_[v].value, weight_[v], leave)) return false;
        if (sys_.is_exit_[v] && !route(r, kSinkArc, v, leave, exits, to_rest))
          return false;
        for (std::uint32_t ei : graph_.out_edges(v))
          if (!route(r, ei, v, leave, exits, to_rest)) return false;
      } else {
        const std::uint32_t i = sys_.first_loop_[v];
        if (!loop_arrive_[i].reached()) continue;
        for (const Exit& x : loop_exits_[i]) {
          std::uint64_t leave = 0;
          if (!add(loop_arrive_[i].value, x.value, leave) ||
              !route(r, x.edge, x.from, leave, exits, to_rest))
            return false;
        }
      }
    }
    return true;
  }

  /// Collapses loop instance `i` (all nested instances already collapsed)
  /// into one value per exit edge, relative to entering its FIRST header.
  bool collapse_loop(std::uint32_t i) {
    const analysis::LoopInstance& inst = loops_[i];
    std::vector<Exit> exits;
    if (!solve_region(first_body(i), exits, enter_[i])) return false;
    if (inst.rest_node == kInvalidNode) {
      if (enter_[i].reached()) return false;
      loop_exits_[i] = std::move(exits);
      return true;
    }
    if (!enter_[i].reached()) return false;

    std::vector<Exit> rest_exits;
    if (!solve_region(rest_body(i), rest_exits, cycle_[i])) return false;
    // Anti-circulation: each entry into REST carries at most bound-2 trips
    // around the back edges, so the header runs bound-1 times in REST.
    if (inst.bound < 3) cycle_[i] = Slot{};
    std::uint64_t base = enter_[i].value;
    if (cycle_[i].reached()) {
      std::uint64_t trips = 0;
      if (!mul(inst.bound - 2, cycle_[i].value, trips) ||
          !add(base, trips, base))
        return false;
    }
    for (Exit& x : rest_exits) {
      if (!add(base, x.value, x.value)) return false;
      exits.push_back(x);
    }
    loop_exits_[i] = std::move(exits);
    return true;
  }

  /// The longest entry-to-sink path (lowest halt node on a tie) and the
  /// flow behind it.
  bool trace_best(WcetResult& result) {
    std::vector<Exit> exits;
    Slot unused;
    if (!solve_region(0, exits, unused)) return false;
    const Exit* best = nullptr;
    for (const Exit& x : exits) {
      if (x.edge != kSinkArc) return false;
      if (!best || x.value > best->value ||
          (x.value == best->value && x.from < best->from))
        best = &x;
    }
    if (!best) return false;
    counts_.assign(graph_.edges().size(), 0);
    if (!trace(0, best->from, 1)) return false;
    std::vector<std::uint64_t> nodes(graph_.num_nodes(), 0);
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      nodes[v] = v == graph_.entry_node() ? 1 : 0;
      for (std::uint32_t ei : graph_.in_edges(v))
        if (!add(nodes[v], counts_[ei], nodes[v])) return false;
    }
    result.tau_mem = best->value;
    result.node_counts = std::move(nodes);
    result.edge_counts = std::move(counts_);
    return true;
  }

  bool count(std::uint32_t edge, std::uint64_t m) {
    return edge != kNone && add(counts_[edge], m, counts_[edge]);
  }

  /// Adds `m` units of flow along the recorded longest path from the start
  /// of region `r` to node `v`, which lies in `r` or in an instance nested
  /// in it.
  bool trace(std::uint32_t r, NodeId v, std::uint64_t m) {
    for (;;) {
      std::uint32_t edge = kNone;
      if (sys_.region_of_[v] == r) {
        if (v == region(r).start) return true;
        edge = arrive_[v].edge;
      } else {
        // The instance nested directly in `r` that holds `v`.
        std::uint32_t x = sys_.region_of_[v];
        while (x != kNone && region(x).parent != r) x = region(x).parent;
        if (x == kNone || !trace_loop(region(x).loop, v, m)) return false;
        edge = loop_arrive_[region(x).loop].edge;
      }
      if (!count(edge, m)) return false;
      v = graph_.edges()[edge].from;
    }
  }

  /// Adds `m` units of flow through loop instance `i`, from its FIRST
  /// header to node `v` inside it.
  bool trace_loop(std::uint32_t i, NodeId v, std::uint64_t m) {
    std::uint32_t body = sys_.region_of_[v];
    while (body != kNone && region(body).loop != i) body = region(body).parent;
    if (body == kNone) return false;
    if (body == first_body(i)) return trace(body, v, m);
    // Through REST: per entry, the exit path once, the cycle bound-2 times
    // and the FIRST-to-REST entry once.
    if (!trace(body, v, m)) return false;
    if (cycle_[i].reached()) {
      std::uint64_t trips = 0;
      const std::uint32_t back = cycle_[i].edge;
      if (!mul(loops_[i].bound - 2, m, trips) || !count(back, trips) ||
          !trace(body, graph_.edges()[back].from, trips))
        return false;
    }
    const std::uint32_t entry = enter_[i].edge;
    return count(entry, m) &&
           trace(first_body(i), graph_.edges()[entry].from, m);
  }

  const IpetSystem& sys_;
  const ContextGraph& graph_;
  const std::vector<analysis::LoopInstance>& loops_;
  std::vector<std::uint64_t> weight_;  ///< Σ t_w per node
  std::vector<Slot> arrive_;           ///< per node
  std::vector<Slot> loop_arrive_;      ///< per instance: into its FIRST header
  std::vector<Slot> enter_;            ///< per instance: FIRST -> REST header
  std::vector<Slot> cycle_;            ///< per instance: REST back-edge cycle
  std::vector<std::vector<Exit>> loop_exits_;
  std::vector<std::uint64_t> counts_;  ///< flow per edge while tracing
  bool overflow_ = false;
};

WcetResult IpetSystem::solve(
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing) const {
  obs::Span span("wcet.ipet.solve");
  const ContextGraph& graph = *graph_;
  UCP_REQUIRE(classification.per_node.size() == graph.num_nodes(),
              "classification does not match the context graph");

  WcetResult result;
  result.ref_cycles.resize(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto& cls = classification.per_node[v];
    result.ref_cycles[v].reserve(cls.size());
    for (Classification c : cls)
      result.ref_cycles[v].push_back(ref_cycles(c, timing));
  }
  if (UCP_FAULT_POINT("wcet.solve")) {
    result.status = Status(ErrorCode::kFaultInjected,
                           "injected IPET failure at the solve boundary");
    return result;
  }
  result.status = Collapse(*this, result.ref_cycles).run(result);
  return result;
}

WcetResult compute_wcet(const ContextGraph& graph,
                        const analysis::CacheAnalysisResult& classification,
                        const cache::MemTiming& timing) {
  return IpetSystem(graph).solve(classification, timing);
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
