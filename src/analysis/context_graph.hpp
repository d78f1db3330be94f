#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/dominators.hpp"
#include "ir/program.hpp"

namespace ucp::analysis {

/// One level of loop context: which loop, and whether this is the peeled
/// FIRST execution of its header or the folded REST executions. This is the
/// VIVU transformation of [Martin/Alt/Wilhelm], Definition 6 / Supplement
/// S.3 of the paper: each loop is virtually unrolled once, so first-iteration
/// cache effects (cold misses) separate from steady-state behaviour.
struct ContextEntry {
  ir::BlockId header = ir::kInvalidBlock;
  bool rest = false;

  friend bool operator==(const ContextEntry&, const ContextEntry&) = default;
  friend auto operator<=>(const ContextEntry&, const ContextEntry&) = default;
};

/// Loop-nest context, outermost first. Always equals the loop-nest chain of
/// the node's basic block.
using Context = std::vector<ContextEntry>;

std::string context_to_string(const Context& ctx);

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// A basic block in a specific VIVU context.
struct CgNode {
  ir::BlockId block = ir::kInvalidBlock;
  Context ctx;
};

/// An expanded CFG edge. `back` marks REST->REST loop back edges — the only
/// cycles in the graph; dropping them yields the acyclic ACFG the optimizer
/// walks in reverse.
struct CgEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  bool back = false;
};

/// One loop instance in a given surrounding context, with its FIRST and REST
/// header nodes. IPET adds `n(rest) <= (bound-1) * n(first)` per instance.
struct LoopInstance {
  ir::BlockId header = ir::kInvalidBlock;
  Context parent_ctx;                 ///< context outside this loop
  NodeId first_node = kInvalidNode;   ///< header in (.., FIRST)
  NodeId rest_node = kInvalidNode;    ///< header in (.., REST); may be absent
  std::uint32_t bound = 0;            ///< max header executions per entry
};

/// The VIVU-expanded control flow graph. Every node is (basic block,
/// context); instruction addresses are shared with the original program
/// (contexts are virtual copies, not real code duplication).
class ContextGraph {
 public:
  explicit ContextGraph(const ir::Program& program);

  const ir::Program& program() const { return *program_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  const CgNode& node(NodeId id) const;
  const std::vector<CgNode>& nodes() const { return nodes_; }
  NodeId entry_node() const { return entry_; }

  const std::vector<CgEdge>& edges() const { return edges_; }
  /// Edge indices into edges(), per node.
  const std::vector<std::uint32_t>& out_edges(NodeId id) const;
  const std::vector<std::uint32_t>& in_edges(NodeId id) const;

  const std::vector<LoopInstance>& loop_instances() const {
    return loop_instances_;
  }

  /// Topological order of nodes when back edges are ignored (the ACFG
  /// order). Sources first.
  const std::vector<NodeId>& topo_order() const { return topo_; }

  /// Position of a node in topo_order(). Intra-SCC iteration and the sparse
  /// fixpoint's priority worklists order nodes by this key.
  std::uint32_t topo_pos(NodeId id) const { return topo_pos_[id]; }

  /// Strongly connected components of the full graph (back edges included),
  /// computed once at construction. SCC ids are numbered in topological
  /// order of the condensation: every edge satisfies
  /// scc_of(from) <= scc_of(to), so the sparse fixpoint can finalize one
  /// SCC at a time and never revisit an earlier one.
  std::uint32_t scc_count() const { return scc_count_; }
  std::uint32_t scc_of(NodeId id) const { return scc_id_[id]; }
  /// Members of SCC `s`, in ACFG topological order:
  /// scc_order()[scc_begin()[s] .. scc_begin()[s+1]).
  const std::vector<NodeId>& scc_order() const { return scc_order_; }
  const std::vector<std::uint32_t>& scc_begin() const { return scc_begin_; }
  /// True iff SCC `s` is a single node without a self edge: one transfer
  /// suffices, no local fixpoint iteration.
  bool scc_trivial(std::uint32_t s) const { return scc_trivial_[s] != 0; }

  /// Nodes whose block ends in halt (ACFG sinks).
  const std::vector<NodeId>& exit_nodes() const { return exits_; }

  /// The natural loops of the program's CFG, outermost first. Prefetch
  /// insertion keeps the CFG, so they also describe every optimized
  /// variant of the program.
  const std::vector<ir::NaturalLoop>& loops() const { return loops_; }

  std::string to_string() const;

 private:
  NodeId intern(ir::BlockId block, const Context& ctx);
  void build();
  void compute_topo_order();
  void compute_sccs();

  const ir::Program* program_;
  std::vector<CgNode> nodes_;
  std::vector<CgEdge> edges_;
  std::vector<std::vector<std::uint32_t>> out_edges_;
  std::vector<std::vector<std::uint32_t>> in_edges_;
  std::map<std::pair<ir::BlockId, Context>, NodeId> index_;
  NodeId entry_ = kInvalidNode;
  std::vector<LoopInstance> loop_instances_;
  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> topo_pos_;
  std::vector<NodeId> exits_;

  // Tarjan SCC decomposition, condensation-topologically numbered.
  std::uint32_t scc_count_ = 0;
  std::vector<std::uint32_t> scc_id_;
  std::vector<NodeId> scc_order_;
  std::vector<std::uint32_t> scc_begin_;
  std::vector<std::uint8_t> scc_trivial_;

  // Loop structure of the underlying program.
  std::vector<ir::NaturalLoop> loops_;
  std::map<ir::BlockId, std::size_t> loop_by_header_;
  /// Loop-nest chain (outer->inner headers) per basic block.
  std::vector<std::vector<ir::BlockId>> nest_chain_;
};

}  // namespace ucp::analysis
