#pragma once

#include <cstdint>
#include <optional>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "cache/config.hpp"

namespace ucp::wcet {

/// τ_w computed straight from the loop structure of a VIVU context graph,
/// without an ILP. It shares no code with the simplex, the presolve or
/// IpetSystem, which makes it the soundness auditor's independent check and
/// the fuzz battery's solver oracle.
///
/// The IPET of IpetSystem carries only the Li/Malik constraints: flow
/// conservation, `n(rest) <= (bound-1) * n(first)` and anti-circulation.
/// On the reducible graphs ContextGraph builds, their optimum is a longest
/// path in which every loop instance is collapsed, innermost first, into
/// one value per exit edge (a halt node's sink arc counts as an exit):
///  - an exit taken from the FIRST body is worth the longest path from the
///    FIRST header to that edge;
///  - an exit taken from the REST body is worth the longest FIRST-to-REST
///    entry, plus (bound-2) times the longest REST-header-to-back-edge
///    cycle, plus the longest path from the REST header to that edge;
///  - a loop without a REST node (bound < 2) is its FIRST body alone.
/// The whole-graph answer is the longest entry-to-sink path over what the
/// collapse leaves. Node weights are Σ ref_cycles over each node's
/// instructions, the t_w the IPET objective uses; all arithmetic is exact.
/// Cost is O(nodes + edges) times the loop-nesting depth.
///
/// Returns nullopt for any shape the collapse does not recognise, for a
/// graph with no path to a sink (an infeasible IPET) and on uint64
/// overflow: the caller then has no independent answer.
std::optional<std::uint64_t> structural_tau(
    const analysis::ContextGraph& graph,
    const analysis::CacheAnalysisResult& classification,
    const cache::MemTiming& timing);

}  // namespace ucp::wcet
