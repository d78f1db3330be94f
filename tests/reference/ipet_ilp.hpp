#pragma once

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "ilp/model.hpp"
#include "wcet/ipet.hpp"

namespace ucp::reference {

/// The Li/Malik IPET of Section 3.2-3.3 as an integer program, with the
/// objective for (classification, timing) installed: one flow variable per
/// context edge (edge e is VarId e), a virtual source arc into the entry
/// fixed at 1 and one virtual sink arc out of every halt node; flow
/// conservation at every node, `n(rest) <= (bound-1) * n(first)` and the
/// anti-circulation row per VIVU loop instance; maximizing Σ t_w(bb)·n_bb.
/// This is the specification IpetSystem computes by structure (DESIGN.md
/// §9) and wcet::certificate_violation proves it reached; the dense
/// reference solver reads the same model.
ilp::Model ipet_model(const analysis::ContextGraph& graph,
                      const analysis::CacheAnalysisResult& classification,
                      const cache::MemTiming& timing);

/// The test-side WCET oracle: solves `ipet_model` with the sparse revised
/// simplex and branch-and-bound (ilp::SparseLp), sharing no code with
/// IpetSystem's collapse or the optimality certificate. The differential
/// tests check both against it. Solves over graphs with the same
/// constraints start from one shared phase-1 snapshot, so the answer never
/// depends on which caller built it. `stats` holds the simplex work behind
/// the answer, that phase 1 included; the simplex budgets surface as a
/// failed status. Safe to call from several threads.
wcet::WcetResult solve_ipet_ilp(const analysis::ContextGraph& graph,
                          const analysis::CacheAnalysisResult& classification,
                          const cache::MemTiming& timing);

}  // namespace ucp::reference
