#pragma once

// Reference engines for differential testing. Each one computes exactly
// what a production engine computes, by the slower route that engine
// replaced, so tests and benches can pin the single production path
// against it:
//
//   analyze_cache_global_worklist  vs  analysis::analyze_cache
//     (global FIFO worklist fixpoint vs the SCC-sparse one; both reach
//     the unique least fixpoint, DESIGN.md §14)
//   solve_unpresolved              vs  wcet::IpetSystem::solve
//     (the unreduced IPET model vs the presolved one; presolve is exact)
//   solve_{lp,ilp}_dense_reference vs  ilp::solve_{lp,ilp}
//     (the two-phase dense tableau vs the sparse revised simplex; also the
//     third opinion beside wcet::structural_tau on IPET models)
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

/// Solves `system`'s IPET for (classification, timing) over the unreduced
/// model: builds a fresh sparse LP from `system.model_with_objective` and
/// derives edge and node counts the way IpetSystem::solve does. `stats`
/// holds the solve's own work; the LP's phase-1 construction pivots are
/// not included, as for IpetSystem::solve.
wcet::WcetResult solve_unpresolved(
    const wcet::IpetSystem& system,
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing);

/// The two-phase dense-tableau simplex on `model`'s LP relaxation, and
/// LP-based branch-and-bound over it (every node rebuilds its tableau).
/// Same budgets (ilp::kMaxPivots, ilp::kMaxBbNodes) and integrality
/// tolerance as the sparse solver; no fault points.
ilp::Solution solve_lp_dense_reference(const ilp::Model& model);
ilp::Solution solve_ilp_dense_reference(const ilp::Model& model);

}  // namespace ucp::reference
