#pragma once

// Reference engines for differential testing. Each one computes exactly
// what a production engine computes, by the slower route that engine
// replaced, so tests and benches can pin the single production path
// against it:
//
//   analyze_cache_global_worklist  vs  analysis::analyze_cache
//     (global FIFO worklist fixpoint vs the SCC-sparse one; both reach
//     the unique least fixpoint, DESIGN.md §14)
//   solve_{lp,ilp}_dense_reference vs  ilp::solve_{lp,ilp}
//     (the two-phase dense tableau vs the sparse revised simplex; also the
//     third opinion on ipet_model beside the structural engine and the
//     sparse ILP oracle)
//   solve_ipet_ilp (ipet_ilp.hpp)   vs  wcet::IpetSystem
//     (the Li/Malik ILP solved by the sparse simplex vs the loop-tree
//     collapse, whose answers wcet::certificate_violation proves optimal)
//
// Linked only by test and bench targets, never by a library under src/.

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "ir/layout.hpp"
#include "ilp/model.hpp"
#include "ir/program.hpp"
#include "wcet/ipet.hpp"

namespace ucp::reference {

/// Must/may fixpoint with one global FIFO worklist over all context nodes,
/// seeded in topological order (only REST back edges iterate). Same
/// contract as analysis::analyze_cache: `program` may differ from
/// `graph.program()` as long as the CFG is the same.
analysis::CacheAnalysisResult analyze_cache_global_worklist(
    const analysis::ContextGraph& graph, const ir::Program& program,
    const ir::Layout& layout, const cache::CacheConfig& config);

/// Convenience overload using the graph's own program.
analysis::CacheAnalysisResult analyze_cache_global_worklist(
    const analysis::ContextGraph& graph, const ir::Layout& layout,
    const cache::CacheConfig& config);

/// The two-phase dense-tableau simplex on `model`'s LP relaxation, and
/// LP-based branch-and-bound over it (every node rebuilds its tableau).
/// Same budgets (ilp::kMaxPivots, ilp::kMaxBbNodes) and integrality
/// tolerance as the sparse solver; no fault points.
ilp::Solution solve_lp_dense_reference(const ilp::Model& model);
ilp::Solution solve_ilp_dense_reference(const ilp::Model& model);

}  // namespace ucp::reference
