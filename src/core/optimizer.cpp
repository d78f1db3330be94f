#include "core/optimizer.hpp"

#include <algorithm>
#include <array>
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
  bool can_survive = true;                  ///< path-local survival check
};

/// Two lanes walk the same candidates iff these agree position by position
/// (slack and survival are the lanes' own verdict inputs).
bool same_candidates(const std::vector<Candidate>& a,
                     const std::vector<Candidate>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Candidate& x, const Candidate& y) {
                      return x.evictor == y.evictor && x.target == y.target &&
                             x.target_block == y.target_block;
                    });
}

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

/// What one memory timing prices: its frozen worst-case counts n_w and the
/// per-node τ contributions against them, its current fixed-counts τ_w,
/// this pass's candidates along its own WCET path, its Condition-3
/// reference run, and its report.
struct Lane {
  cache::MemTiming timing;
  wcet::WcetResult wcet0;
  std::vector<std::uint64_t> node_tau;
  std::uint64_t tau_base_sum = 0;
  std::uint64_t tau_current = 0;
  /// The concrete run of the current program, kept until an acceptance
  /// replaces it. Only a successful run is kept — a failed one is retried
  /// by the next candidate, exactly as if never cached.
  std::optional<sim::RunMetrics> acet_base;
  std::vector<Candidate> candidates;
  OptimizationResult* result = nullptr;

  OptimizationReport& report() const { return result->report; }

  /// Fixed-counts τ contribution of context node `v` under `cls_row`.
  std::uint64_t contribution(
      const std::vector<analysis::Classification>& cls_row,
      analysis::NodeId v) const {
    const std::uint64_t n = wcet0.node_counts[v];
    if (n == 0) return 0;
    std::uint64_t per_exec = 0;
    for (analysis::Classification c : cls_row)
      per_exec += wcet::ref_cycles(c, timing);
    return checked_mul(per_exec, n, "node tau contribution");
  }
};

/// Lanes that are still joined: one analysis, one program and one set of
/// tried insertions serve them all, and they stand at the same position of
/// the same pass.
struct LaneGroup {
  std::vector<std::size_t> lanes;  ///< ascending; front() is the lead
  analysis::IncrementalCacheAnalysis incr;
  ir::Program p;
  /// Candidates already tried (accepted or rejected), keyed by
  /// (evictor, target block) — identical physical insertions are not
  /// retried.
  std::set<std::pair<ir::InstrId, cache::MemBlockId>> tried;
  std::uint32_t passes_started = 0;
  bool in_pass = false;
  std::size_t next = 0;  ///< next candidate of the current pass
  bool accepted_any = false;
  /// One trial program per variant, copy-assigned from `p` for each trial
  /// so its block and instruction storage is reused; made by the first
  /// trial of its variant, swapped with `p` on acceptance. The variant's
  /// analysis lives in the same-numbered trial slot of `incr`.
  std::array<std::optional<ir::Program>, 2> trial_programs{};
  std::array<ir::InstrId, 2> inserted{ir::kInvalidInstr, ir::kInvalidInstr};
};

/// A lane's verdict on one candidate. Joined lanes stay joined only while
/// their decisions are equal (`same_step`).
struct Decision {
  enum class Verdict : std::uint8_t {
    kPending,
    kIneffective,
    kCannotSurvive,
    kUnprofitable,
    kAcet,
    kAccept,
    kAnalysisFailed,
  };
  Verdict verdict = Verdict::kPending;
  int variants = 0;  ///< trials evaluated: 1, or 2 after the nop retry
  int best = -1;     ///< variant of the highest profit
  std::int64_t profit = std::numeric_limits<std::int64_t>::min();

  friend bool same_step(const Decision& a, const Decision& b) {
    return a.verdict == b.verdict && a.variants == b.variants &&
           (a.verdict != Verdict::kAccept || a.best == b.best);
  }
};

/// One optimize_prefetches call: the lanes, and the groups they are joined
/// in. Groups run one at a time, each until it finishes or forks; a fork
/// queues its parts.
class LockstepRun {
 public:
  LockstepRun(const ir::Program& input, const cache::CacheConfig& config,
              const OptimizerOptions& options, const wcet::IpetSystem& ipet,
              std::vector<Lane>& lanes, OptimizationReport& lead_report)
      : input_(input),
        config_(config),
        options_(options),
        ipet_(ipet),
        lanes_(lanes),
        lead_report_(lead_report),
        // The effective budget shrinks with graph size to keep per-program
        // optimization time roughly constant. It decides which candidates
        // get tried, and so the output program: changing it changes the
        // results.
        eval_budget_(std::min(
            options.max_evaluations,
            std::max<std::size_t>(
                48, 160000 / std::max<std::size_t>(
                                 1, ipet.graph().num_nodes())))) {}

  void run(LaneGroup first) {
    std::vector<LaneGroup> pending;
    pending.push_back(std::move(first));
    while (!pending.empty()) {
      LaneGroup group = std::move(pending.back());
      pending.pop_back();
      run_group(group, pending);
    }
  }

  /// Degradation to the identity transform: the returned program is the
  /// unmodified input (trivially Theorem-1 sound), with the cause recorded.
  void degrade(Lane& lane, ErrorCode code, const std::string& detail) const {
    OptimizationReport& report = lane.report();
    lane.result->program = input_;
    report.reverted = !report.insertions.empty();
    report.insertions.clear();
    report.code = code;
    report.detail = detail;
    report.tau_optimized = report.tau_original;
    report.tau_fixed_final = report.tau_original;
  }

 private:
  /// Runs `g` until its lanes finish, degrade, or fork into `pending`.
  void run_group(LaneGroup& g, std::vector<LaneGroup>& pending) {
    for (;;) {
      if (!g.in_pass) {
        if (g.passes_started >= options_.max_passes) return finish(g);
        if (cancelled(g)) return;
        ++g.passes_started;
        g.in_pass = true;
        g.next = 0;
        g.accepted_any = false;
        for (std::size_t l : g.lanes) collect_candidates(g, lanes_[l]);
        std::vector<std::vector<std::size_t>> parts =
            partition(g.lanes, [&](std::size_t a, std::size_t b) {
              return same_candidates(lanes_[a].candidates,
                                     lanes_[b].candidates);
            });
        if (parts.size() > 1) {
          for (LaneGroup& part : fork(std::move(g), std::move(parts)))
            pending.push_back(std::move(part));
          return;
        }
      }
      const Lane& lead = lanes_[g.lanes.front()];
      // Joined lanes evaluated the same trials, so one budget check holds
      // for all of them.
      if (g.next == lead.candidates.size() ||
          lead.report().candidates_evaluated >= eval_budget_) {
        if (!g.accepted_any) return finish(g);
        g.in_pass = false;
        continue;
      }
      if (cancelled(g)) return;
      if (!step(g, pending)) return;
    }
  }

  /// Cooperative cancellation (watchdog / SIGINT): a cancel degrades every
  /// lane of the group to the identity transform — never a crash. The
  /// core.cancel fault site forces this exit without a watchdog.
  bool cancelled(const LaneGroup& g) const {
    if (!UCP_FAULT_POINT("core.cancel") && !cancellation_requested())
      return false;
    for (std::size_t l : g.lanes)
      degrade(lanes_[l], ErrorCode::kCancelled,
              "optimization cancelled by the supervisor on '" +
                  input_.name() + "'");
    return true;
  }

  /// Starts a pass for `lane`: re-derives its WCET path against the
  /// group's current program (the incremental engine already holds its
  /// converged analysis — promoted on every acceptance — so no fresh
  /// fixpoint is needed) and collects the replaced-block misses on it, in
  /// reverse execution order as Algorithm 3 prescribes.
  void collect_candidates(const LaneGroup& g, Lane& lane) const {
    obs::Span span("core.optimizer.collect");
    OptimizationReport& report = lane.report();
    ++report.passes;
    const WcetPath path =
        build_wcet_path(ipet_.graph(), g.p, g.incr.layout(), config_,
                        lane.timing, g.incr.result(), lane.wcet0);
    lane.candidates.clear();
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
      c.can_survive =
          prefetch_can_survive(path, epos, k, ref.block, config_);
      lane.candidates.push_back(c);
    }
    report.candidates_found += lane.candidates.size();
  }

  /// Evaluates candidate `g.next` for every lane of `g`. Returns false when
  /// the group is gone: all its lanes degraded, or it forked into
  /// `pending`.
  bool step(LaneGroup& g, std::vector<LaneGroup>& pending) {
    const std::size_t index = g.next++;
    const Candidate& key = lanes_[g.lanes.front()].candidates[index];
    // Identical physical insertions (same point, same target block) are
    // tried once; contexts share code, so they produce the same program.
    if (!g.tried.insert({key.evictor, key.target_block}).second) return true;

    using Verdict = Decision::Verdict;
    std::vector<Decision> decisions(lanes_.size());  // by lane id
    for (std::size_t l : g.lanes) {
      const Candidate& c = lanes_[l].candidates[index];
      if (options_.require_effectiveness &&
          c.slack < lanes_[l].timing.prefetch_latency)
        decisions[l].verdict = Verdict::kIneffective;
      else if (!c.can_survive)
        decisions[l].verdict = Verdict::kCannotSurvive;
    }

    // Tentative insertion: right after the displacing access. Because a
    // 4-byte insertion relocates all downstream code, its Δτ is highly
    // alignment-sensitive; when the bare insertion loses, retry with one
    // alignment nop (an 8-byte shift), the padding a real compiler/linker
    // uses to keep hot loop bodies within their cache blocks. Each variant
    // is built and re-analysed once, for the lanes that ask for it.
    static_assert(analysis::IncrementalCacheAnalysis::kTrialSlots == 2);
    for (int variant = 0; variant < 2; ++variant) {
      std::vector<std::size_t> users;
      for (std::size_t l : g.lanes) {
        const Decision& d = decisions[l];
        if (d.verdict == Verdict::kPending && (variant == 0 || d.profit <= 0))
          users.push_back(l);
      }
      if (users.empty()) break;
      for (std::size_t l : users) {
        ++decisions[l].variants;
        ++lanes_[l].report().candidates_evaluated;
      }
      if (UCP_FAULT_POINT("core.reanalyze")) {
        for (std::size_t l : users)
          decisions[l].verdict = Verdict::kAnalysisFailed;
        break;
      }
      const auto v = static_cast<std::size_t>(variant);
      const ir::Program& program = build_trial(g, v, key);
      const auto reanalysis_start = std::chrono::steady_clock::now();
      const auto& t = [&]() -> const auto& {
        obs::Span span("core.optimizer.analyze_trial");
        return g.incr.analyze_trial(program, v);
      }();
      obs::Span tau_span("core.optimizer.tau_delta");
      for (std::size_t l : users) {
        // τ_w is a plain sum over nodes, so a trial's τ is the base sum
        // minus the affected nodes' old contributions plus their
        // recomputed ones — exact integer arithmetic, bit-identical to
        // summing from scratch.
        const Lane& lane = lanes_[l];
        std::uint64_t tau_trial = lane.tau_base_sum;
        for (std::size_t i = 0; i < t.affected.size(); ++i) {
          const analysis::NodeId v = t.affected[i];
          if (lane.wcet0.node_counts[v] == 0) continue;
          tau_trial -= lane.node_tau[v];
          tau_trial += lane.contribution(t.cls[i], v);
        }
        const auto delta = static_cast<std::int64_t>(lane.tau_current) -
                           static_cast<std::int64_t>(tau_trial);
        if (delta > decisions[l].profit) {
          decisions[l].profit = delta;
          decisions[l].best = variant;
        }
      }
      OptimizationReport& credited = lanes_[users.front()].report();
      ++credited.incremental_reanalyses;
      credited.nodes_reanalyzed += t.affected.size();
      credited.reanalysis_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - reanalysis_start)
              .count());
      if (users.size() > 1) ++lead_report_.shared_trials;
    }

    for (std::size_t l : g.lanes) {
      Decision& d = decisions[l];
      if (d.verdict != Verdict::kPending) continue;
      Lane& lane = lanes_[l];
      bool accept = false;
      switch (options_.accept_rule) {
        case AcceptRule::kProfit:
          accept = d.profit > 0;
          break;
        case AcceptRule::kAlways:
          accept = true;
          break;
      }
      if (!accept) {
        d.verdict = Verdict::kUnprofitable;
        continue;
      }
      // Condition 3 (Section 2.3): the average case may not get slower.
      // The paper relies on the WCET-ACET correlation; checking the trace
      // directly upholds its "no ACET increase" observation even where the
      // worst-case and average paths diverge. Cheap here — candidates
      // reaching this point are rare and the concrete runs take
      // microseconds.
      obs::Span acet_span("core.optimizer.acet_check");
      if (!lane.acet_base) {
        Expected<sim::RunMetrics> before =
            sim::run_program_checked(g.p, ipet_.graph().loops(), config_,
                                     lane.timing);
        if (before.ok()) lane.acet_base = *before;
      }
      const Expected<sim::RunMetrics> after = sim::run_program_checked(
          *g.trial_programs[static_cast<std::size_t>(d.best)],
          ipet_.graph().loops(), config_, lane.timing);
      // A run that blows its budget cannot prove Condition 3; reject the
      // candidate rather than the whole optimization.
      d.verdict = lane.acet_base && after.ok() &&
                          after->mem_cycles <= lane.acet_base->mem_cycles
                      ? Verdict::kAccept
                      : Verdict::kAcet;
    }

    // Book every lane's verdict; lanes whose re-analysis failed leave the
    // group degraded.
    std::vector<std::size_t> kept;
    for (std::size_t l : g.lanes) {
      OptimizationReport& report = lanes_[l].report();
      switch (decisions[l].verdict) {
        case Verdict::kIneffective:
          ++report.rejected_ineffective;
          break;
        case Verdict::kCannotSurvive:
          ++report.rejected_cannot_survive;
          break;
        case Verdict::kUnprofitable:
          ++report.rejected_unprofitable;
          break;
        case Verdict::kAcet:
          ++report.rejected_acet;
          break;
        case Verdict::kAnalysisFailed:
          degrade(lanes_[l], ErrorCode::kAnalysisFailed,
                  "candidate re-analysis failed on '" + input_.name() + "'");
          continue;
        case Verdict::kAccept:
        case Verdict::kPending:
          break;
      }
      kept.push_back(l);
    }
    if (kept.empty()) return false;
    g.lanes = std::move(kept);
    std::vector<std::vector<std::size_t>> parts =
        partition(g.lanes, [&](std::size_t a, std::size_t b) {
          return same_step(decisions[a], decisions[b]);
        });

    // Each part of a fork applies its own verdict to its own copy of the
    // trials.
    auto apply = [&](LaneGroup& part) {
      const Decision& d = decisions[part.lanes.front()];
      if (d.verdict != Verdict::kAccept) return;
      accept(part, index, decisions, static_cast<std::size_t>(d.best));
    };
    if (parts.size() == 1) {
      apply(g);
      return true;
    }
    for (LaneGroup& part : fork(std::move(g), std::move(parts))) {
      apply(part);
      pending.push_back(std::move(part));
    }
    return false;
  }

  /// Builds variant `v` of the insertion `key` in `g`'s trial program
  /// buffer: a copy of the current program with the prefetch right after
  /// the displacing access, plus one alignment nop for variant 1.
  static const ir::Program& build_trial(LaneGroup& g, std::size_t v,
                                        const Candidate& key) {
    obs::Span span("core.optimizer.trial_build");
    // Copy-assigning an engaged optional reuses the program's storage.
    ir::Program& program = *(g.trial_programs[v] = g.p);
    const ir::Program::InstrLocation loc = program.locate(key.evictor);
    g.inserted[v] = program.insert(loc.block, loc.index + 1,
                                   make_prefetch(key.target));
    if (v == 1) {
      ir::Instruction nop;
      nop.op = ir::Opcode::kNop;
      program.insert(loc.block, loc.index + 2, nop);
    }
    return program;
  }

  /// Folds trial variant `v` into `g` and into each of its lanes' τ
  /// bookkeeping (`decisions` is indexed by lane id).
  void accept(LaneGroup& g, std::size_t index,
              const std::vector<Decision>& decisions, std::size_t v) const {
    std::swap(g.p, *g.trial_programs[v]);
    g.incr.promote(g.p, v);
    // promote keeps the slot's affected list.
    const std::vector<analysis::NodeId>& accepted_nodes =
        g.incr.trial(v).affected;
    g.accepted_any = true;
    const ir::InstrId inserted = g.inserted[v];
    const ir::BlockId block = g.p.locate(inserted).block;
    for (std::size_t l : g.lanes) {
      Lane& lane = lanes_[l];
      lane.acet_base.reset();
      for (analysis::NodeId v : accepted_nodes) {
        lane.tau_base_sum -= lane.node_tau[v];
        lane.node_tau[v] = lane.contribution(g.incr.result().per_node[v], v);
        lane.tau_base_sum += lane.node_tau[v];
      }
      lane.tau_current = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(lane.tau_current) - decisions[l].profit);
      PrefetchRecord record;
      record.prefetch_instr = inserted;
      record.target_instr = lane.candidates[index].target;
      record.block = block;
      record.profit_tau = decisions[l].profit;
      record.slack = lane.candidates[index].slack;
      lane.report().insertions.push_back(record);
    }
  }

  /// The lanes split into classes of `same` (an equivalence on lane ids),
  /// each in ascending order, ordered by their first lane.
  template <typename Same>
  static std::vector<std::vector<std::size_t>> partition(
      const std::vector<std::size_t>& lanes, Same same) {
    std::vector<std::vector<std::size_t>> parts;
    for (std::size_t l : lanes) {
      auto part = std::find_if(parts.begin(), parts.end(), [&](const auto& p) {
        return same(p.front(), l);
      });
      if (part == parts.end())
        parts.push_back({l});
      else
        part->push_back(l);
    }
    return parts;
  }

  /// Splits `g` into one group per part. The first part keeps `g`'s state;
  /// every other part copies its analysis, program and tried set. Returned
  /// so that, pushed in order and popped from the back, the part holding
  /// the lowest lane runs first.
  std::vector<LaneGroup> fork(LaneGroup&& g,
                              std::vector<std::vector<std::size_t>> parts) {
    lead_report_.forks += parts.size() - 1;
    std::vector<LaneGroup> groups;
    for (std::size_t i = parts.size(); i-- > 1;) {
      LaneGroup copy = g;
      copy.lanes = std::move(parts[i]);
      groups.push_back(std::move(copy));
    }
    g.lanes = std::move(parts.front());
    groups.push_back(std::move(g));
    return groups;
  }

  /// The group's optimization loop ended: every lane audits the shared
  /// program under its own timing and takes its result.
  void finish(LaneGroup& g) const {
    for (std::size_t k = 0; k < g.lanes.size(); ++k) {
      Lane& lane = lanes_[g.lanes[k]];
      OptimizationReport& report = lane.report();
      report.tau_fixed_final = lane.tau_current;
      if (report.insertions.empty()) {
        // Nothing was accepted: the program and its analysis are the
        // input's, so a final IPET would re-derive wcet0.
        report.tau_optimized = lane.wcet0.tau_mem;
      } else {
        // Final audit: fresh IPET on the optimized program. The
        // frozen-counts profit test matches the paper's Theorem 1
        // arithmetic; the audit guards the remaining gap (the true WCET
        // path may differ after insertion), and a regression reverts
        // everything, so τ_w never increases (Theorem 1).
        const wcet::WcetResult wcet_final = [&] {
          obs::Span span("core.optimizer.final_ipet");
          return ipet_.solve(g.incr.result(), lane.timing);
        }();
        if (!wcet_final.ok()) {
          // The optimized program cannot be certified; ship the input.
          degrade(lane, wcet_final.status.code(),
                  "final IPET unsolved (" + wcet_final.status.detail() +
                      ") on optimized '" + input_.name() + "'");
          continue;
        }
        report.tau_optimized = wcet_final.tau_mem;
        if (report.tau_optimized > report.tau_original) {
          lane.result->program = input_;
          report.reverted = true;
          report.insertions.clear();
          report.tau_optimized = report.tau_original;
          report.tau_fixed_final = report.tau_original;
          continue;
        }
      }
      if (k + 1 == g.lanes.size())
        lane.result->program = std::move(g.p);
      else
        lane.result->program = g.p;
    }
  }

  const ir::Program& input_;
  const cache::CacheConfig& config_;
  const OptimizerOptions& options_;
  const wcet::IpetSystem& ipet_;
  std::vector<Lane>& lanes_;
  OptimizationReport& lead_report_;
  const std::size_t eval_budget_;
};

}  // namespace

std::vector<OptimizationResult> optimize_prefetches(
    const ir::Program& input, const cache::CacheConfig& config,
    std::span<const cache::MemTiming> timings,
    const OptimizerOptions& options, const wcet::IpetSystem* shared_ipet,
    InputBaseline* baseline) {
  UCP_REQUIRE(!timings.empty(), "optimize_prefetches needs a timing");
  UCP_REQUIRE(baseline == nullptr || shared_ipet != nullptr,
              "an input baseline needs the shared IPET system it was "
              "computed on");
  UCP_REQUIRE(baseline == nullptr || (baseline->wcet.size() == timings.size() &&
                                      baseline->run.size() == timings.size()),
              "an input baseline needs one IPET solution and one run per "
              "timing");
  config.validate();
  for (const cache::MemTiming& timing : timings) timing.validate();
  ir::verify_or_throw(input);

  std::vector<OptimizationResult> results;
  results.reserve(timings.size());
  for (std::size_t l = 0; l < timings.size(); ++l)
    results.push_back({ir::Program(input.name()), {}});
  OptimizationReport& lead_report = results.front().report;
  lead_report.lanes = timings.size();

  // The run's states (the trials above all) recycle each other's storage;
  // the pool frees what it retained when the run returns.
  analysis::StatePool state_pool;
  // One registry publish per run, on every exit path. Counter values are
  // the reports' own — route one source of truth into the registry, don't
  // recount.
  obs::Span span("core.optimizer.run");
  struct ReportPublisher {
    const std::vector<OptimizationResult>& results;
    ~ReportPublisher() {
      if (!obs::enabled()) return;
      static obs::Counter& c_runs =
          obs::registry().counter("core.optimizer.runs");
      static obs::Counter& c_lanes =
          obs::registry().counter("core.optimizer.lanes");
      static obs::Counter& c_forks =
          obs::registry().counter("core.optimizer.forks");
      static obs::Counter& c_shared =
          obs::registry().counter("core.optimizer.shared_trials");
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
      for (const OptimizationResult& r : results) {
        const OptimizationReport& report = r.report;
        c_lanes.add(report.lanes);
        c_forks.add(report.forks);
        c_shared.add(report.shared_trials);
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
    }
  } publisher{results};

  // The CFG never changes during optimization (prefetches are straight-line
  // insertions), so one context graph — and one IPET system, serving the
  // initial solves and the final audits of every lane — covers the whole
  // run. A caller that already holds the system for this program (the
  // sweep harness) passes it in and the construction cost drops out
  // entirely.
  std::optional<ContextGraph> own_graph;
  std::optional<wcet::IpetSystem> own_ipet;
  if (!shared_ipet) {
    own_graph.emplace(input);
    own_ipet.emplace(*own_graph);
  }
  const wcet::IpetSystem& ipet = shared_ipet ? *shared_ipet : *own_ipet;
  const ContextGraph& graph = ipet.graph();

  // Preliminary WCET analysis. The classification is timing-free, so one
  // base analysis lives inside the first group's `incr`: every trial is
  // evaluated against it, every acceptance is promoted into it, and it
  // serves each pass's path derivation and the final audits. Each lane
  // then solves its own τ_w and the frozen worst-case counts n_w its profit
  // arithmetic runs against. A caller's baseline already holds the input's
  // fixpoint and IPET solutions, which are adopted instead of recomputed.
  analysis::IncrementalCacheAnalysis incr =
      baseline ? analysis::IncrementalCacheAnalysis(
                     graph, input, config, std::move(baseline->analysis))
               : analysis::IncrementalCacheAnalysis(graph, input, config);
  std::vector<Lane> lanes(timings.size());
  LockstepRun run(input, config, options, ipet, lanes, lead_report);
  std::vector<std::size_t> live;
  for (std::size_t l = 0; l < timings.size(); ++l) {
    Lane& lane = lanes[l];
    OptimizationReport& report = results[l].report;
    lane.timing = timings[l];
    lane.result = &results[l];
    report.graph_nodes = graph.num_nodes();
    lane.wcet0 = baseline ? std::move(baseline->wcet[l])
                          : ipet.solve(incr.result(), lane.timing);
    if (!lane.wcet0.ok()) {
      report.wcet_failed = true;
      run.degrade(lane, lane.wcet0.status.code(),
                  "initial IPET unsolved (" + lane.wcet0.status.detail() +
                      ") for program '" + input.name() + "'");
      continue;
    }
    report.tau_original = lane.wcet0.tau_mem;
    lane.tau_current = lane.wcet0.tau_mem;
    // Per-node fixed-counts τ contributions of the current base program.
    lane.node_tau.resize(graph.num_nodes());
    for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v) {
      lane.node_tau[v] = lane.contribution(incr.result().per_node[v], v);
      lane.tau_base_sum += lane.node_tau[v];
    }
    if (baseline) lane.acet_base = baseline->run[l];
    live.push_back(l);
  }
  if (!live.empty())
    run.run(LaneGroup{std::move(live), std::move(incr), input, {}});
  return results;
}

OptimizationResult optimize_prefetches(const ir::Program& input,
                                       const cache::CacheConfig& config,
                                       const cache::MemTiming& timing,
                                       const OptimizerOptions& options,
                                       const wcet::IpetSystem* shared_ipet) {
  return std::move(optimize_prefetches(input, config, {&timing, 1}, options,
                                       shared_ipet)
                       .front());
}

}  // namespace ucp::core
