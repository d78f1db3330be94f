#pragma once

#include <cstdint>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "ir/layout.hpp"
#include "wcet/ipet.hpp"

namespace ucp::core {

/// One reference (instruction fetch) on the worst-case execution path
/// through the acyclic VIVU graph — a vertex of the paper's ACFG restricted
/// to the WCET path, annotated with everything the joint improvement
/// criterion (Section 4.3) needs.
struct PathRef {
  analysis::NodeId node = analysis::kInvalidNode;
  std::uint32_t instr_index = 0;       ///< position within the basic block
  ir::InstrId instr = ir::kInvalidInstr;
  cache::MemBlockId block = 0;         ///< memory block this fetch references
  bool is_prefetch = false;
  std::uint32_t t_w = 0;               ///< per-execution worst-case cycles
  std::uint64_t n_w = 0;               ///< executions in the WCET scenario
  /// Path-state outcome of this fetch (exact LRU along the chosen path).
  bool path_miss = false;
  /// Index (into WcetPath::refs) of the access whose eviction displaced this
  /// reference's block — the paper's Property 3 output, i.e. where the
  /// reverse analysis inserts the prefetch. -1 for cold misses and hits.
  std::int32_t evictor = -1;
};

/// The WCET path as an explicit reference sequence. Joins are resolved the
/// way Algorithm 2 (J_SE) prescribes: at every flow split the edge carrying
/// the worst-case flow is followed, so the cache states tracked along the
/// sequence are the WCET-path states. REST loop instances appear once
/// (back edges are not traversed), exactly like the paper's acyclic ACFG.
struct WcetPath {
  std::vector<PathRef> refs;
  /// t_w_prefix[k] = Σ refs[0..k).t_w, so t_w_prefix.size() ==
  /// refs.size() + 1. Filled by build_wcet_path together with refs.
  std::vector<std::uint64_t> t_w_prefix;

  /// Sum of per-execution t_w of refs in positions (from, to) exclusive —
  /// the slack term of Definition 10 (prefetch effectiveness). O(1).
  std::uint64_t slack_between(std::size_t from, std::size_t to) const;
};

/// Walks the worst-case flow (node/edge counts of `wcet`) through `graph`,
/// tracking exact LRU states (Properties 1-3) to label every reference with
/// hit/miss and its evictor. Per-reference t_w comes from `classification`
/// and `timing`, so the same frozen counts can be replayed against modified
/// prefetch-equivalent programs during optimization.
WcetPath build_wcet_path(const analysis::ContextGraph& graph,
                         const ir::Program& program, const ir::Layout& layout,
                         const cache::CacheConfig& config,
                         const cache::MemTiming& timing,
                         const analysis::CacheAnalysisResult& classification,
                         const wcet::WcetResult& wcet);

}  // namespace ucp::core
