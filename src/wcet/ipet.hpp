#pragma once

#include <cstdint>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "ilp/model.hpp"
#include "ilp/presolve.hpp"
#include "ilp/sparse.hpp"
#include "support/status.hpp"

namespace ucp::wcet {

/// Maps a solver outcome onto the pipeline-wide error channel, so IPET
/// budget exhaustion (ilp::kMaxPivots / ilp::kMaxBbNodes) propagates as a
/// Status the harness can quarantine on instead of an UCP_CHECK abort.
ErrorCode solve_error_code(ilp::SolveStatus status);

/// Per-reference worst-case memory timing: t_w(r) of Section 3.3, derived
/// from the cache classification (always-hit pays hit time; anything else
/// conservatively pays miss time).
std::uint32_t ref_cycles(analysis::Classification cls,
                         const cache::MemTiming& timing);

/// Result of the IPET analysis over a VIVU context graph.
struct WcetResult {
  ilp::SolveStatus status = ilp::SolveStatus::kInfeasible;
  /// τ_w: the memory system's contribution to the WCET, in cycles (Eq. 3).
  std::uint64_t tau_mem = 0;
  /// n_w per context node: executions of each block instance in the WCET
  /// scenario (zero off the worst-case path).
  std::vector<std::uint64_t> node_counts;
  /// t_w per (node, instruction): worst-case fetch cycles of one execution.
  std::vector<std::vector<std::uint32_t>> ref_cycles;
  /// Worst-case flow per context edge (same indexing as graph.edges()).
  std::vector<std::uint64_t> edge_counts;
  /// Solver work behind this result (LP solves, pivots, B&B nodes).
  ilp::SolveStats stats;

  bool ok() const { return status == ilp::SolveStatus::kOptimal; }

  /// τ_w(r) for one reference: t_w * n_w of its node (Eq. 2).
  std::uint64_t tau_of(analysis::NodeId node, std::size_t instr_index) const {
    return static_cast<std::uint64_t>(ref_cycles[node][instr_index]) *
           node_counts[node];
  }
};

/// The IPET ILP of one context graph, built once and re-solved many times.
///
/// The constraint matrix (flow conservation, VIVU loop bounds,
/// anti-circulation) depends only on the graph topology; the cache
/// classification and memory timing enter purely through the objective
/// coefficients. An IpetSystem therefore factors the expensive part — the
/// sparse LP snapshot including its one-time phase 1 — out of the per-solve
/// cost: the optimizer's initial and final solves, the locking baselines,
/// and all cache configurations of one program swap objective vectors over
/// the same canonical basis. Solves clone that immutable snapshot, so a
/// const IpetSystem is safe to share across sweep worker threads and its
/// answers never depend on which caller solved first. Construction runs
/// the exact ILP presolve (ilp::Presolve, DESIGN.md §14) on the constraint
/// system before snapshotting the sparse LP; every reduction is
/// objective-independent and exact, so solves return the optimum of the
/// unreduced model.
class IpetSystem {
 public:
  explicit IpetSystem(const analysis::ContextGraph& graph);

  const analysis::ContextGraph& graph() const { return *graph_; }

  /// Solves max Σ t_w(bb)·n_bb for this classification/timing pair.
  /// Bit-identical to `compute_wcet` on the same graph.
  WcetResult solve(const analysis::CacheAnalysisResult& classification,
                   const cache::MemTiming& timing) const;

  /// A standalone copy of the ILP with the objective for
  /// (classification, timing) installed — what `compute_wcet` historically
  /// built per call. Feed it to the dense reference solver in differential
  /// tests, or to the one-shot `ilp::solve_ilp` in micro benches.
  ilp::Model model_with_objective(
      const analysis::CacheAnalysisResult& classification,
      const cache::MemTiming& timing) const;

  /// Pivots spent building the canonical feasible basis (one-time phase 1);
  /// not part of any per-solve stats.
  std::uint64_t construction_pivots() const {
    return lp_.construction_pivots();
  }

  /// Dimensions of the system the simplex actually factorizes (post-presolve
  /// when engaged) — the scaling bench reports the reduction.
  std::size_t lp_rows() const { return lp_.num_rows(); }
  std::size_t lp_cols() const { return lp_.num_structural(); }

  /// Folds the one-time construction cost (its phase-1 pivots) into an
  /// aggregate. Call exactly once per IpetSystem when summing end-to-end
  /// solver work.
  void charge_construction(ilp::SolveStats& stats) const {
    stats.pivots += lp_.construction_pivots();
  }

 private:
  static ilp::Model build_model(const analysis::ContextGraph& graph);

  const analysis::ContextGraph* graph_;
  ilp::Model model_;  ///< constraints + bounds; objective left empty
  ilp::VarId source_var_ = 0;
  /// Engaged iff the reduction removed something; the sparse snapshot
  /// below is then built over reduced() instead of model_.
  std::optional<ilp::Presolve> presolve_;
  ilp::SparseLp lp_;
};

/// Builds and solves the IPET ILP (Section 3.2-3.3): one flow variable per
/// context edge plus virtual source/sink arcs, flow conservation at every
/// node, `n(rest header) <= (bound-1) * n(first header)` per VIVU loop
/// instance, maximizing Σ t_w(bb)·n_bb. One-shot convenience over
/// IpetSystem; repeated solves on one graph should share an IpetSystem.
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
