#include "wcet/structural.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "wcet/ipet.hpp"

namespace ucp::wcet {
namespace {

using analysis::ContextGraph;
using analysis::kInvalidNode;
using analysis::NodeId;

constexpr std::uint32_t kNone = 0xffffffffu;
/// Longest-path slot that no path has reached yet.
constexpr std::uint64_t kUnreached = std::numeric_limits<std::uint64_t>::max();
/// Exit "edge" standing for a halt node's arc to the virtual sink.
constexpr std::uint32_t kSinkArc = 0xffffffffu;

/// out = a + b; false on overflow (reaching the sentinel counts as one).
bool add_to(std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
  return !__builtin_add_overflow(a, b, &out) && out != kUnreached;
}

void relax(std::uint64_t& slot, std::uint64_t value) {
  if (slot == kUnreached || value > slot) slot = value;
}

/// One way out of a region or a collapsed loop: the edge it leaves by and
/// the longest path weight from the region's start up to and including the
/// edge's source node.
struct Exit {
  std::uint32_t edge = kSinkArc;
  std::uint64_t value = 0;
};

/// A loop-free piece of the graph: the top level (region 0) or the FIRST or
/// REST body of one loop instance (regions 1 + 2i and 2 + 2i), in which
/// every directly nested loop instance stands in as one item.
struct Region {
  std::uint32_t parent = kNone;
  std::uint32_t loop = kNone;  ///< loop instance; kNone at the top level
  NodeId start = kInvalidNode;  ///< entry node, FIRST or REST header
  std::size_t depth = 0;        ///< context length of the region's nodes
  /// The region's nodes plus the FIRST headers of the loop instances nested
  /// directly inside it, in ACFG topological order. An item whose own
  /// region differs from this one stands for its whole loop instance.
  std::vector<NodeId> items;
};

class Collapse {
 public:
  Collapse(const ContextGraph& graph,
           const analysis::CacheAnalysisResult& classification,
           const cache::MemTiming& timing)
      : graph_(graph),
        loops_(graph.loop_instances()),
        weight_(graph.num_nodes(), 0),
        region_of_(graph.num_nodes(), kNone),
        first_loop_(graph.num_nodes(), kNone),
        is_exit_(graph.num_nodes(), 0),
        arrive_(graph.num_nodes(), kUnreached),
        loop_arrive_(loops_.size(), kUnreached),
        loop_exits_(loops_.size()) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v)
      for (analysis::Classification c : classification.per_node[v])
        weight_[v] += ref_cycles(c, timing);
    for (NodeId v : graph.exit_nodes()) is_exit_[v] = 1;
  }

  std::optional<std::uint64_t> run() {
    if (!assign_regions()) return std::nullopt;
    // An inner instance's FIRST header follows its parent's in the ACFG
    // order, so walking that order backwards collapses innermost first.
    const std::vector<NodeId>& topo = graph_.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it)
      if (first_loop_[*it] != kNone && !collapse_loop(first_loop_[*it]))
        return std::nullopt;

    std::vector<Exit> exits;
    std::uint64_t unused = kUnreached;
    if (!solve_region(0, exits, unused)) return std::nullopt;
    std::uint64_t best = kUnreached;
    for (const Exit& x : exits) {
      if (x.edge != kSinkArc) return std::nullopt;
      relax(best, x.value);
    }
    if (best == kUnreached) return std::nullopt;
    return best;
  }

 private:
  const analysis::Context& ctx(NodeId v) const { return graph_.node(v).ctx; }

  /// The ancestor of region `r` (itself included) at context length
  /// `depth`, or kNone.
  std::uint32_t ancestor(std::uint32_t r, std::size_t depth) const {
    while (r != kNone && regions_[r].depth > depth) r = regions_[r].parent;
    return (r != kNone && regions_[r].depth == depth) ? r : kNone;
  }

  /// Places every node in its region and every loop instance under its
  /// parent region, walking the ACFG order so each node's predecessors are
  /// placed first. Each placement is checked against the node's context.
  bool assign_regions() {
    regions_.assign(1 + 2 * loops_.size(), Region{});
    regions_[0].start = graph_.entry_node();
    for (std::uint32_t i = 0; i < loops_.size(); ++i) {
      const analysis::LoopInstance& inst = loops_[i];
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

    for (NodeId v : graph_.topo_order()) {
      std::uint32_t r = 0;
      if (v != graph_.entry_node()) {
        NodeId pred = kInvalidNode;
        for (std::uint32_t ei : graph_.in_edges(v))
          if (!graph_.edges()[ei].back) {
            pred = graph_.edges()[ei].from;
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

  /// Routes one path value leaving an item of region `r` along `edge`:
  /// into a node or nested loop of the region, into the instance's REST
  /// header (`to_rest`: the FIRST body's entry into REST, or the REST
  /// body's back-edge cycle), or out of the region.
  bool route(std::uint32_t r, std::uint32_t edge, std::uint64_t value,
             std::vector<Exit>& exits, std::uint64_t& to_rest) {
    if (edge == kSinkArc) {
      exits.push_back(Exit{edge, value});
      return true;
    }
    const Region& reg = regions_[r];
    const NodeId t = graph_.edges()[edge].to;
    if (reg.loop != kNone && t == loops_[reg.loop].rest_node) {
      // Only REST -> REST arcs are back edges.
      const bool from_rest = r == 2 + 2 * reg.loop;
      if (graph_.edges()[edge].back != from_rest) return false;
      relax(to_rest, value);
    } else if (region_of_[t] == r) {
      if (t == reg.start) return false;
      relax(arrive_[t], value);
    } else if (first_loop_[t] != kNone &&
               regions_[region_of_[t]].parent == r) {
      relax(loop_arrive_[first_loop_[t]], value);
    } else {
      exits.push_back(Exit{edge, value});
    }
    return true;
  }

  /// Longest paths from the start of region `r` (value 0 before its
  /// weight) over its items in topological order.
  bool solve_region(std::uint32_t r, std::vector<Exit>& exits,
                    std::uint64_t& to_rest) {
    arrive_[regions_[r].start] = 0;
    for (NodeId v : regions_[r].items) {
      if (region_of_[v] == r) {
        if (arrive_[v] == kUnreached) continue;
        std::uint64_t leave = 0;
        if (!add_to(arrive_[v], weight_[v], leave)) return false;
        if (is_exit_[v] && !route(r, kSinkArc, leave, exits, to_rest))
          return false;
        for (std::uint32_t ei : graph_.out_edges(v))
          if (!route(r, ei, leave, exits, to_rest)) return false;
      } else {
        const std::uint32_t i = first_loop_[v];
        if (loop_arrive_[i] == kUnreached) continue;
        for (const Exit& x : loop_exits_[i]) {
          std::uint64_t leave = 0;
          if (!add_to(loop_arrive_[i], x.value, leave) ||
              !route(r, x.edge, leave, exits, to_rest))
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
    std::uint64_t enter = kUnreached;
    if (!solve_region(1 + 2 * i, exits, enter)) return false;
    if (inst.rest_node == kInvalidNode) {
      if (enter != kUnreached) return false;
      loop_exits_[i] = std::move(exits);
      return true;
    }
    if (enter == kUnreached) return false;

    std::vector<Exit> rest_exits;
    std::uint64_t cycle = kUnreached;
    if (!solve_region(2 + 2 * i, rest_exits, cycle)) return false;
    // Anti-circulation: each entry into REST carries at most bound-2 trips
    // around the back edges, so the header runs bound-1 times in REST.
    std::uint64_t base = enter;
    if (cycle != kUnreached) {
      std::uint64_t trips = 0;
      if (inst.bound < 3 ||
          __builtin_mul_overflow(std::uint64_t{inst.bound - 2}, cycle,
                                 &trips) ||
          !add_to(base, trips, base))
        return false;
    }
    for (Exit& x : rest_exits) {
      if (!add_to(base, x.value, x.value)) return false;
      exits.push_back(x);
    }
    loop_exits_[i] = std::move(exits);
    return true;
  }

  const ContextGraph& graph_;
  const std::vector<analysis::LoopInstance>& loops_;
  std::vector<std::uint64_t> weight_;       ///< Σ t_w per node
  std::vector<std::uint32_t> region_of_;    ///< per node
  std::vector<std::uint32_t> first_loop_;   ///< instance a FIRST header opens
  std::vector<std::uint8_t> is_exit_;       ///< halt nodes
  std::vector<std::uint64_t> arrive_;       ///< longest path into a node
  std::vector<std::uint64_t> loop_arrive_;  ///< longest path into an instance
  std::vector<std::vector<Exit>> loop_exits_;
  std::vector<Region> regions_;
};

}  // namespace

std::optional<std::uint64_t> structural_tau(
    const ContextGraph& graph,
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing) {
  if (classification.per_node.size() != graph.num_nodes()) return std::nullopt;
  return Collapse(graph, classification, timing).run();
}

}  // namespace ucp::wcet
