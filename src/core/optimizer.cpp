#include "core/optimizer.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "core/wcet_path.hpp"
#include "ir/layout.hpp"
#include "ir/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/interpreter.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"
#include "support/checked.hpp"
#include "support/fault_injection.hpp"
#include "support/small_vector.hpp"
#include "wcet/ipet.hpp"

namespace ucp::core {

using analysis::ContextGraph;

ir::Instruction make_prefetch(ir::InstrId target) {
  ir::Instruction in;
  in.op = ir::Opcode::kPrefetch;
  in.pf_target = target;
  return in;
}

namespace {

struct Candidate {
  ir::InstrId evictor = ir::kInvalidInstr;  ///< insert right after this
  ir::InstrId target = ir::kInvalidInstr;   ///< r_j whose miss to preclude
  cache::MemBlockId target_block = 0;       ///< s': block to prefetch
  std::uint64_t slack = 0;                  ///< t_w between insertion and use
  std::uint64_t miss_weight = 0;            ///< t_w(r_j) * n_w(r_j)
  bool can_survive = true;                  ///< path-local survival check
};

/// Necessary condition for any gain: between the insertion point and the
/// use, fewer than `assoc` distinct other blocks of the same cache set may
/// be fetched, or the prefetched block is evicted again before its use even
/// along the WCET path. Saves a full re-analysis on hopeless (thrashing)
/// candidates.
bool prefetch_can_survive(const WcetPath& path, std::size_t evictor_pos,
                          std::size_t use_pos, cache::MemBlockId target,
                          const cache::CacheConfig& config) {
  const std::uint32_t set = config.set_of(target);
  // Holds fewer than `assoc` blocks between checks, so a linear find beats
  // a tree.
  SmallVector<cache::MemBlockId, 8> conflicting;
  for (std::size_t k = evictor_pos + 1; k < use_pos; ++k) {
    const cache::MemBlockId blk = path.refs[k].block;
    if (blk != target && config.set_of(blk) == set &&
        std::find(conflicting.begin(), conflicting.end(), blk) ==
            conflicting.end())
      conflicting.push_back(blk);
    if (conflicting.size() >= config.assoc) return false;
  }
  return true;
}

}  // namespace

OptimizationResult optimize_prefetches(const ir::Program& input,
                                       const cache::CacheConfig& config,
                                       const cache::MemTiming& timing,
                                       const OptimizerOptions& options,
                                       const wcet::IpetSystem* shared_ipet,
                                       InputBaseline* baseline) {
  UCP_REQUIRE(baseline == nullptr || shared_ipet != nullptr,
              "an input baseline needs the shared IPET system it was "
              "computed on");
  config.validate();
  timing.validate();
  ir::verify_or_throw(input);

  OptimizationResult result{input, {}};
  OptimizationReport& report = result.report;
  ir::Program& p = result.program;

  // One registry publish per run, on every exit path (the candidate walk
  // has many early degrade returns). Counter values are the report's own —
  // route one source of truth into the registry, don't recount.
  obs::Span span("core.optimizer.run");
  struct ReportPublisher {
    const OptimizationReport& report;
    ~ReportPublisher() {
      if (!obs::enabled()) return;
      static obs::Counter& c_runs =
          obs::registry().counter("core.optimizer.runs");
      static obs::Counter& c_found =
          obs::registry().counter("core.optimizer.candidates_found");
      static obs::Counter& c_eval =
          obs::registry().counter("core.optimizer.candidates_evaluated");
      static obs::Counter& c_accepted =
          obs::registry().counter("core.optimizer.insertions_accepted");
      static obs::Counter& c_ineff =
          obs::registry().counter("core.optimizer.rejected_ineffective");
      static obs::Counter& c_unprof =
          obs::registry().counter("core.optimizer.rejected_unprofitable");
      static obs::Counter& c_acet =
          obs::registry().counter("core.optimizer.rejected_acet");
      static obs::Counter& c_surv =
          obs::registry().counter("core.optimizer.rejected_cannot_survive");
      static obs::Counter& c_passes =
          obs::registry().counter("core.optimizer.passes");
      static obs::Counter& c_incr =
          obs::registry().counter("core.optimizer.incremental_reanalyses");
      static obs::Counter& c_nodes =
          obs::registry().counter("core.optimizer.nodes_reanalyzed");
      c_runs.increment();
      c_found.add(report.candidates_found);
      c_eval.add(report.candidates_evaluated);
      c_accepted.add(report.insertions.size());
      c_ineff.add(report.rejected_ineffective);
      c_unprof.add(report.rejected_unprofitable);
      c_acet.add(report.rejected_acet);
      c_surv.add(report.rejected_cannot_survive);
      c_passes.add(report.passes);
      c_incr.add(report.incremental_reanalyses);
      c_nodes.add(report.nodes_reanalyzed);
    }
  } publisher{report};

  // Degradation to the identity transform: the returned program is the
  // unmodified input (trivially Theorem-1 sound), with the cause recorded.
  auto degrade = [&](ErrorCode code, const std::string& detail) {
    result.program = input;
    report.reverted = !report.insertions.empty();
    report.insertions.clear();
    report.code = code;
    report.detail = detail;
    report.tau_optimized = report.tau_original;
    report.tau_fixed_final = report.tau_original;
  };
  // Cooperative cancellation (watchdog / SIGINT): a cancel degrades to the
  // identity transform — never a crash. The core.cancel fault site forces
  // this exit without a watchdog.
  auto cancelled = [&] {
    if (!UCP_FAULT_POINT("core.cancel") && !cancellation_requested())
      return false;
    degrade(ErrorCode::kCancelled,
            "optimization cancelled by the supervisor on '" + input.name() +
                "'");
    return true;
  };

  // The CFG never changes during optimization (prefetches are straight-line
  // insertions), so one context graph — and one IPET constraint system,
  // serving both the initial solve and the final audit — covers the whole
  // run. A caller that already holds the system for this program (the sweep
  // harness) passes it in and the construction cost drops out entirely.
  std::optional<ContextGraph> own_graph;
  std::optional<wcet::IpetSystem> own_ipet;
  if (!shared_ipet) {
    own_graph.emplace(input);
    own_ipet.emplace(*own_graph);
  }
  const wcet::IpetSystem& ipet = shared_ipet ? *shared_ipet : *own_ipet;
  const ContextGraph& graph = ipet.graph();
  if (!shared_ipet) ipet.charge_construction(report.solver);
  report.graph_nodes = graph.num_nodes();

  // Preliminary WCET analysis: classifications, τ_w, and the frozen
  // worst-case counts n_w the whole profit arithmetic runs against. The
  // base analysis lives inside `incr`: every trial is evaluated against it,
  // every acceptance is promoted into it, and it serves each pass's path
  // derivation and the final audit. A caller's baseline already holds the
  // input's fixpoint and IPET solution; its solve was charged to the
  // caller's measurement, so it is not charged here again.
  analysis::IncrementalCacheAnalysis incr =
      baseline ? analysis::IncrementalCacheAnalysis(
                     graph, input, config, std::move(baseline->analysis))
               : analysis::IncrementalCacheAnalysis(graph, input, config);
  const wcet::WcetResult wcet0 = baseline ? std::move(baseline->wcet)
                                          : ipet.solve(incr.result(), timing);
  if (!baseline) report.solver.add(wcet0.stats);
  if (!wcet0.ok()) {
    report.wcet_failed = true;
    degrade(wcet::solve_error_code(wcet0.status),
            "initial IPET unsolved (" + ilp::status_name(wcet0.status) +
                ") for program '" + input.name() + "'");
    return result;
  }
  report.tau_original = wcet0.tau_mem;
  const std::vector<std::uint64_t>& n_w = wcet0.node_counts;

  std::uint64_t tau_current = wcet0.tau_mem;

  // Per-node fixed-counts τ contributions of the current base program.
  // τ_w is a plain sum over nodes, so a trial's τ is the base sum minus the
  // affected nodes' old contributions plus their recomputed ones — exact
  // integer arithmetic, bit-identical to summing from scratch.
  auto node_contribution = [&](const std::vector<analysis::Classification>&
                                   cls_row,
                               analysis::NodeId v) -> std::uint64_t {
    if (n_w[v] == 0) return 0;
    std::uint64_t per_exec = 0;
    for (analysis::Classification c : cls_row)
      per_exec += wcet::ref_cycles(c, timing);
    return checked_mul(per_exec, n_w[v], "node tau contribution");
  };
  std::vector<std::uint64_t> node_tau(graph.num_nodes());
  std::uint64_t tau_base_sum = 0;
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v) {
    node_tau[v] = node_contribution(incr.result().per_node[v], v);
    tau_base_sum += node_tau[v];
  }

  // The effective budget shrinks with graph size to keep per-program
  // optimization time roughly constant. It decides which candidates get
  // tried, and so the output program: changing it changes the results.
  const std::size_t eval_budget = std::min(
      options.max_evaluations,
      std::max<std::size_t>(48, 160000 / std::max<std::size_t>(
                                             1, graph.num_nodes())));
  // Candidates already tried (accepted or rejected), keyed by
  // (evictor, target) — identical physical insertions are not retried.
  std::set<std::pair<ir::InstrId, ir::InstrId>> tried;
  // Condition-3 baseline: the concrete run of the current `p`, kept until
  // an acceptance replaces `p`. Only a successful run is kept — a failed
  // one is retried by the next candidate, exactly as if never cached.
  std::optional<sim::RunMetrics> acet_base;
  if (baseline) acet_base = baseline->run;

  for (std::uint32_t pass = 0; pass < options.max_passes; ++pass) {
    if (cancelled()) return result;
    ++report.passes;

    // Re-derive the WCET path against the current program. The incremental
    // engine already holds the converged analysis of `p` (promoted on every
    // acceptance), so no fresh fixpoint is needed.
    const WcetPath path = build_wcet_path(graph, p, incr.layout(), config,
                                          timing, incr.result(), wcet0);

    // Collect candidates: replaced-block misses on the WCET path, visited
    // in reverse execution order as Algorithm 3 prescribes.
    std::vector<Candidate> candidates;
    for (std::size_t k = path.refs.size(); k-- > 0;) {
      const PathRef& ref = path.refs[k];
      if (!ref.path_miss || ref.is_prefetch || ref.evictor < 0) continue;
      if (ref.n_w == 0) continue;  // off the worst-case path: no τ gain
      Candidate c;
      const auto epos = static_cast<std::size_t>(ref.evictor);
      c.evictor = path.refs[epos].instr;
      c.target = ref.instr;
      c.target_block = ref.block;
      c.slack = path.slack_between(epos, k);
      c.miss_weight = static_cast<std::uint64_t>(ref.t_w) * ref.n_w;
      c.can_survive =
          prefetch_can_survive(path, epos, k, ref.block, config);
      candidates.push_back(c);
    }
    report.candidates_found += candidates.size();

    bool accepted_any = false;
    for (const Candidate& c : candidates) {
      if (report.candidates_evaluated >= eval_budget) break;
      if (cancelled()) return result;
      // Identical physical insertions (same point, same target block) are
      // tried once; contexts share code, so they produce the same program.
      if (!tried.insert({c.evictor, c.target_block}).second) continue;

      if (options.require_effectiveness &&
          c.slack < timing.prefetch_latency) {
        ++report.rejected_ineffective;
        continue;
      }
      if (!c.can_survive) {
        ++report.rejected_cannot_survive;
        continue;
      }

      // Tentative insertion: right after the displacing access. Because a
      // 4-byte insertion relocates all downstream code, its Δτ is highly
      // alignment-sensitive; when the bare insertion loses, retry with one
      // alignment nop (an 8-byte shift), the padding a real compiler/linker
      // uses to keep hot loop bodies within their cache blocks.
      ir::Program best_trial("unset");
      std::optional<analysis::IncrementalCacheAnalysis::TrialResult> best_t;
      std::int64_t profit = std::numeric_limits<std::int64_t>::min();
      ir::InstrId pf = ir::kInvalidInstr;
      for (int variant = 0; variant < 2; ++variant) {
        ir::Program trial = p;
        const ir::Program::InstrLocation loc = trial.locate(c.evictor);
        const ir::InstrId inserted =
            trial.insert(loc.block, loc.index + 1, make_prefetch(c.target));
        if (variant == 1) {
          ir::Instruction nop;
          nop.op = ir::Opcode::kNop;
          trial.insert(loc.block, loc.index + 2, nop);
        }
        ++report.candidates_evaluated;
        if (UCP_FAULT_POINT("core.reanalyze")) {
          degrade(ErrorCode::kAnalysisFailed,
                  "candidate re-analysis failed on '" + input.name() + "'");
          return result;
        }
        const auto reanalysis_start = std::chrono::steady_clock::now();
        analysis::IncrementalCacheAnalysis::TrialResult t =
            incr.analyze_trial(trial);
        ++report.incremental_reanalyses;
        std::uint64_t tau_trial = tau_base_sum;
        for (std::size_t i = 0; i < t.affected.size(); ++i) {
          const analysis::NodeId v = t.affected[i];
          if (n_w[v] == 0) continue;
          tau_trial -= node_tau[v];
          tau_trial += node_contribution(t.cls[i], v);
        }
        report.reanalysis_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - reanalysis_start)
                .count());
        const auto delta = static_cast<std::int64_t>(tau_current) -
                           static_cast<std::int64_t>(tau_trial);
        if (delta > profit) {
          profit = delta;
          best_trial = std::move(trial);
          best_t = std::move(t);
          pf = inserted;
        }
        if (profit > 0 && variant == 0) break;  // bare insertion suffices
      }

      bool accept = false;
      switch (options.accept_rule) {
        case AcceptRule::kProfit:
          accept = profit > 0;
          break;
        case AcceptRule::kAlways:
          accept = true;
          break;
      }
      if (!accept) {
        ++report.rejected_unprofitable;
        continue;
      }

      // Condition 3 (Section 2.3): the average case may not get slower.
      // The paper relies on the WCET-ACET correlation; checking the trace
      // directly upholds its "no ACET increase" observation even where the
      // worst-case and average paths diverge. Cheap here — candidates
      // reaching this point are rare and the concrete runs take
      // microseconds.
      if (!acet_base) {
        Expected<sim::RunMetrics> before =
            sim::run_program_checked(p, config, timing);
        if (before.ok()) acet_base = *before;
      }
      const Expected<sim::RunMetrics> acet_after =
          sim::run_program_checked(best_trial, config, timing);
      if (!acet_base || !acet_after.ok()) {
        // A run that blows its budget cannot prove Condition 3; reject
        // the candidate rather than the whole optimization.
        ++report.rejected_acet;
        continue;
      }
      if (acet_after->mem_cycles > acet_base->mem_cycles) {
        ++report.rejected_acet;
        continue;
      }

      p = std::move(best_trial);
      acet_base.reset();
      // Fold the accepted trial into the base analysis and refresh the
      // affected nodes' τ contributions (the affected id list survives the
      // move — promote consumes only the state payloads).
      const std::vector<analysis::NodeId> accepted_nodes = best_t->affected;
      incr.promote(p, std::move(*best_t));
      for (analysis::NodeId v : accepted_nodes) {
        tau_base_sum -= node_tau[v];
        node_tau[v] = node_contribution(incr.result().per_node[v], v);
        tau_base_sum += node_tau[v];
      }
      tau_current = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(tau_current) - profit);
      accepted_any = true;
      PrefetchRecord record;
      record.prefetch_instr = pf;
      record.target_instr = c.target;
      record.block = p.locate(pf).block;
      record.profit_tau = profit;
      record.slack = c.slack;
      report.insertions.push_back(record);
    }

    if (!accepted_any) break;
  }

  report.tau_fixed_final = tau_current;
  if (report.insertions.empty()) {
    // Nothing was accepted: the program and its analysis are the input's,
    // so a final IPET would re-derive wcet0.
    report.tau_optimized = wcet0.tau_mem;
    report.nodes_reanalyzed = incr.nodes_reanalyzed();
    return result;
  }

  // Final audit: fresh IPET on the optimized program. The frozen-counts
  // profit test matches the paper's Theorem 1 arithmetic; the audit guards
  // the remaining gap (the true WCET path may differ after insertion), and
  // a regression reverts everything, so τ_w never increases (Theorem 1).
  const wcet::WcetResult wcet_final = ipet.solve(incr.result(), timing);
  report.solver.add(wcet_final.stats);
  if (!wcet_final.ok()) {
    // The optimized program cannot be certified; ship the input instead.
    degrade(wcet::solve_error_code(wcet_final.status),
            "final IPET unsolved (" + ilp::status_name(wcet_final.status) +
                ") on optimized '" + input.name() + "'");
    return result;
  }
  report.tau_optimized = wcet_final.tau_mem;
  report.nodes_reanalyzed = incr.nodes_reanalyzed();
  if (report.tau_optimized > report.tau_original) {
    result.program = input;
    report.reverted = true;
    report.insertions.clear();
    report.tau_optimized = report.tau_original;
    report.tau_fixed_final = report.tau_original;
  }
  return result;
}

}  // namespace ucp::core
