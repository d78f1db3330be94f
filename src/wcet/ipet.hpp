#pragma once

#include <cstdint>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "ilp/model.hpp"
#include "support/status.hpp"

namespace ucp::wcet {

/// Per-reference worst-case memory timing: t_w(r) of Section 3.3, derived
/// from the cache classification (always-hit pays hit time; anything else
/// conservatively pays miss time).
std::uint32_t ref_cycles(analysis::Classification cls,
                         const cache::MemTiming& timing);

/// Result of the IPET analysis over a VIVU context graph.
struct WcetResult {
  /// kInternal from IpetSystem when the loop-tree collapse does not cover
  /// the graph or overflows uint64; the tests' ILP oracle reports solver
  /// failures.
  Status status{ErrorCode::kInternal, "not solved"};
  /// τ_w: the memory system's contribution to the WCET, in cycles (Eq. 3).
  std::uint64_t tau_mem = 0;
  /// n_w per context node: executions of each block instance in the WCET
  /// scenario (zero off the worst-case path).
  std::vector<std::uint64_t> node_counts;
  /// t_w per (node, instruction): worst-case fetch cycles of one execution.
  std::vector<std::vector<std::uint32_t>> ref_cycles;
  /// Worst-case flow per context edge (same indexing as graph.edges()).
  std::vector<std::uint64_t> edge_counts;
  /// Simplex work behind this result: filled by the tests' ILP oracle
  /// (reference::solve_ipet_ilp), zero from IpetSystem, which runs no
  /// solver.
  ilp::SolveStats stats;

  bool ok() const { return status.ok(); }

  /// τ_w(r) for one reference: t_w * n_w of its node (Eq. 2).
  std::uint64_t tau_of(analysis::NodeId node, std::size_t instr_index) const {
    return static_cast<std::uint64_t>(ref_cycles[node][instr_index]) *
           node_counts[node];
  }
};

/// The WCET engine of one context graph: the optimum of the Li/Malik IPET
/// (DESIGN.md §9; flow conservation, `n(rest) <= (bound-1) * n(first)` per
/// VIVU loop instance and anti-circulation, maximizing Σ t_w(bb)·n_bb)
/// computed by structure instead of by an ILP solver.
///
/// On the reducible graphs ContextGraph builds, that optimum is a longest
/// path in which every loop instance is collapsed, innermost first, into
/// one value per exit edge (a halt node's sink arc counts as an exit):
///  - an exit taken from the FIRST body is worth the longest path from the
///    FIRST header to that edge;
///  - an exit taken from the REST body is worth the longest FIRST-to-REST
///    entry, plus (bound-2) times the longest REST-header-to-back-edge
///    cycle, plus the longest path from the REST header to that edge;
///  - a loop without a REST node (bound < 2) is its FIRST body alone.
/// The whole-graph answer is the longest entry-to-sink path over what the
/// collapse leaves. Back-tracking the chosen predecessors, with the lowest
/// edge index winning every tie, yields the flow behind it: one unit along
/// the top-level path, and per entry of a loop instance taken through its
/// REST body one unit of entry path, (bound-2) units of cycle and one unit
/// of exit path. Node weights are Σ ref_cycles over each node's
/// instructions; all arithmetic is exact. Cost is O(nodes + edges) times
/// the loop-nesting depth.
///
/// Construction places every node in its region (the top level, or the
/// FIRST or REST body of one loop instance) once per program; a solve only
/// prices the nodes and runs the longest path. Solves keep their scratch
/// to themselves, so a const IpetSystem is safe to share across threads.
class IpetSystem {
 public:
  explicit IpetSystem(const analysis::ContextGraph& graph);

  const analysis::ContextGraph& graph() const { return *graph_; }

  /// Solves max Σ t_w(bb)·n_bb for this classification/timing pair. A graph
  /// the collapse does not cover, one without a path to a halt node, and a
  /// uint64 overflow all fail with ErrorCode::kInternal.
  WcetResult solve(const analysis::CacheAnalysisResult& classification,
                   const cache::MemTiming& timing) const;

 private:
  class Collapse;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// A loop-free piece of the graph: the top level (region 0) or the FIRST
  /// or REST body of one loop instance (regions 1 + 2i and 2 + 2i), in
  /// which every directly nested loop instance stands in as one item.
  struct Region {
    std::uint32_t parent = kNone;
    std::uint32_t loop = kNone;   ///< loop instance; kNone at the top level
    analysis::NodeId start = analysis::kInvalidNode;  ///< entry or header
    std::size_t depth = 0;        ///< context length of the region's nodes
    /// The region's nodes plus the FIRST headers of the loop instances
    /// nested directly inside it, in ACFG topological order. An item whose
    /// own region differs from this one stands for its whole loop instance.
    std::vector<analysis::NodeId> items;
  };

  bool assign_regions();
  std::uint32_t ancestor(std::uint32_t r, std::size_t depth) const;

  const analysis::ContextGraph* graph_;
  bool covered_ = false;  ///< assign_regions() placed every node
  std::vector<Region> regions_;
  std::vector<std::uint32_t> region_of_;   ///< per node
  std::vector<std::uint32_t> first_loop_;  ///< instance a FIRST header opens
  std::vector<std::uint8_t> is_exit_;      ///< halt nodes
};

/// One-shot convenience over IpetSystem; repeated solves on one graph
/// should share an IpetSystem.
WcetResult compute_wcet(const analysis::ContextGraph& graph,
                        const analysis::CacheAnalysisResult& classification,
                        const cache::MemTiming& timing);

/// Recomputes τ_w for (possibly different) per-reference timings while
/// *holding the worst-case counts fixed* — the quantity the optimizer's
/// profit criterion compares (the paper's Theorem 1 argument fixes n_w).
std::uint64_t tau_with_fixed_counts(
    const analysis::ContextGraph& graph,
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing, const std::vector<std::uint64_t>& counts);

}  // namespace ucp::wcet
