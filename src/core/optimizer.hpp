#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "cache/config.hpp"
#include "ir/program.hpp"
#include "sim/interpreter.hpp"
#include "support/status.hpp"
#include "wcet/ipet.hpp"

namespace ucp::core {

/// How candidate prefetches are accepted — the joint improvement criterion
/// of Section 4.3 and the ablation variant of bench_ablation_criterion.
enum class AcceptRule : std::uint8_t {
  /// Paper criterion: accept only if τ_w (fixed worst-case counts) strictly
  /// decreases — this folds mcost/pcost gain and rcost relocation into one
  /// exact Δτ test (see DESIGN.md §3 interpretation notes).
  kProfit,
  /// Accept every effective candidate (shows why the criterion matters).
  kAlways,
};

struct OptimizerOptions {
  /// Maximum optimize-analyze passes (each pass rescans the WCET path).
  std::uint32_t max_passes = 6;
  /// Enforce Definition 10 (Λ must fit in the slack before the use).
  bool require_effectiveness = true;
  AcceptRule accept_rule = AcceptRule::kProfit;
  /// Budget on candidate re-analyses per optimization run. Each evaluation
  /// re-runs the must/may fixpoint over the nodes its insertion affects,
  /// which dominates runtime on the largest kernels (nsichneu-class);
  /// candidates beyond the budget are left untried (reported in the
  /// rejection stats).
  std::size_t max_evaluations = 320;
};

/// One accepted insertion.
struct PrefetchRecord {
  ir::InstrId prefetch_instr = ir::kInvalidInstr;
  ir::InstrId target_instr = ir::kInvalidInstr;  ///< r_j: the miss precluded
  ir::BlockId block = ir::kInvalidBlock;         ///< physical insertion block
  std::int64_t profit_tau = 0;                   ///< Δτ_w at acceptance
  std::uint64_t slack = 0;                       ///< Definition-10 slack
};

struct OptimizationReport {
  /// Why the optimizer degraded to the identity transform (kOk = it did
  /// not). Any non-kOk code means the returned program IS the input program
  /// and `detail` names the failing stage; the result is still sound.
  ErrorCode code = ErrorCode::kOk;
  std::string detail;
  bool wcet_failed = false;       ///< initial IPET unsolved; program untouched
  bool reverted = false;          ///< final audit failed; original returned
  std::uint64_t tau_original = 0;   ///< fresh-IPET τ_w of the input
  std::uint64_t tau_optimized = 0;  ///< fresh-IPET τ_w of the output
  std::uint64_t tau_fixed_final = 0;  ///< fixed-counts τ_w after optimization
  std::size_t candidates_found = 0;
  std::size_t candidates_evaluated = 0;
  std::size_t rejected_ineffective = 0;
  std::size_t rejected_unprofitable = 0;
  /// Δτ_w-profitable but increased the simulated ACET (Condition 3).
  std::size_t rejected_acet = 0;
  /// Skipped without re-analysis: >= assoc conflicting blocks are fetched
  /// between the insertion point and the use, so the prefetched block
  /// cannot survive to its use even on the WCET path itself.
  std::size_t rejected_cannot_survive = 0;
  std::size_t passes = 0;
  // --- candidate re-analysis accounting (perf acceptance instrumentation).
  // Trial work shared by several timings of one run is credited once, to
  // the lowest-indexed timing that priced it, so sums over reports equal
  // the work done.
  /// Incremental trial re-analyses (one per evaluated candidate variant).
  std::size_t incremental_reanalyses = 0;
  /// Cumulative context nodes recomputed across incremental trials; compare
  /// against `graph_nodes * incremental_reanalyses` for the saving.
  std::size_t nodes_reanalyzed = 0;
  std::size_t graph_nodes = 0;  ///< VIVU context-graph size, for scale
  /// Wall time spent in candidate re-analysis, nanoseconds.
  std::uint64_t reanalysis_ns = 0;
  // --- lockstep accounting: describes the whole run, so only the report
  // of timing 0 carries it (zero in the others).
  std::size_t lanes = 0;          ///< timings optimized by this run
  std::size_t forks = 0;          ///< state copies made for diverging lanes
  std::size_t shared_trials = 0;  ///< trials priced by more than one lane
  std::vector<PrefetchRecord> insertions;

  double wcet_ratio() const {
    return tau_original == 0
               ? 1.0
               : static_cast<double>(tau_optimized) /
                     static_cast<double>(tau_original);
  }
};

struct OptimizationResult {
  ir::Program program;
  OptimizationReport report;
};

/// What a caller that has just measured the input already knows about it:
/// its converged must/may analysis over the shared IpetSystem's context
/// graph (timing-free), and for each timing being optimized for, parallel
/// to the `timings` argument, its IPET solution and its concrete run
/// (exp::run_use_case_group fills one). The optimizer adopts these instead
/// of recomputing them.
struct InputBaseline {
  analysis::CacheAnalysisResult analysis;
  std::vector<wcet::WcetResult> wcet;
  std::vector<sim::RunMetrics> run;
};

/// The paper's optimization (Algorithm 3): identifies, along the WCET path,
/// every cache miss whose block was displaced by an earlier access, and
/// inserts a software prefetch right after the displacing access whenever
/// the joint improvement criterion holds. The returned program is
/// prefetch-equivalent to the input (Definition 5) and its memory
/// contribution to the WCET never exceeds the input's (Theorem 1; enforced
/// by construction plus the final audit).
///
/// One run optimizes for several memory timings at once and returns one
/// result per entry of `timings`, each identical to a run for that timing
/// alone. Each timing is a *lane* that prices the shared work itself (its
/// τ_w, counts n_w, WCET path, effectiveness, accept rule and Condition 3).
/// Lanes that make the same decision at every step share one incremental
/// analysis, one program and one set of tried candidates, so each trial is
/// built and re-analysed once; at the first disagreement they fork
/// (DESIGN.md §8.2).
///
/// `shared_ipet`, when given, must have been built from `input`'s context
/// graph; the initial and final IPET solves then reuse it instead of
/// rebuilding it (bit-identical results — see wcet::IpetSystem).
/// `baseline`, when given (it requires `shared_ipet`), is consumed: its
/// analysis becomes the optimizer's base, its IPET solutions replace the
/// initial solves, and its runs are the first Condition-3 references. The
/// results are bit-identical to a run without it.
std::vector<OptimizationResult> optimize_prefetches(
    const ir::Program& input, const cache::CacheConfig& config,
    std::span<const cache::MemTiming> timings,
    const OptimizerOptions& options = {},
    const wcet::IpetSystem* shared_ipet = nullptr,
    InputBaseline* baseline = nullptr);

/// One timing: the run above with a single lane.
OptimizationResult optimize_prefetches(
    const ir::Program& input, const cache::CacheConfig& config,
    const cache::MemTiming& timing, const OptimizerOptions& options = {},
    const wcet::IpetSystem* shared_ipet = nullptr);

/// Builds a kPrefetch instruction for the block containing `target`.
ir::Instruction make_prefetch(ir::InstrId target);

}  // namespace ucp::core
