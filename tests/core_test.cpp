#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "analysis/domain.hpp"
#include "core/locking.hpp"
#include "core/optimizer.hpp"
#include "core/wcet_path.hpp"
#include "ir/builder.hpp"
#include "ir/layout.hpp"
#include "ir/text_codec.hpp"
#include "obs/trace.hpp"
#include "sim/interpreter.hpp"
#include "suite/suite.hpp"
#include "support/fault_injection.hpp"
#include "wcet/ipet.hpp"

namespace ucp::core {
namespace {

using ir::Cond;
using ir::IrBuilder;
using ir::R;

const cache::MemTiming kTiming{1, 25, 25};

/// A loop whose body spans more blocks than one set can hold in a
/// direct-mapped cache: the canonical prefetch opportunity (the Figure 1
/// situation generalized to a loop).
ir::Program conflict_loop(int body_nops = 72, int trips = 20) {
  IrBuilder b("conflict_loop");
  b.for_range(R(1), 0, trips, [&] { b.nops(static_cast<std::size_t>(body_nops)); });
  b.halt();
  return b.take();
}

WcetPath path_of(const ir::Program& p, const cache::CacheConfig& config) {
  const ir::Layout layout(p, config.block_bytes);
  const analysis::ContextGraph graph(p);
  const auto cls = analysis::analyze_cache(graph, layout, config);
  const auto wcet = wcet::compute_wcet(graph, cls, kTiming);
  UCP_CHECK(wcet.ok());
  return build_wcet_path(graph, p, layout, config, kTiming, cls, wcet);
}

TEST(WcetPath, StraightLineCoversEveryInstruction) {
  IrBuilder b("sl");
  b.movi(R(1), 1);
  b.movi(R(2), 2);
  b.halt();
  const ir::Program p = b.take();
  const WcetPath path = path_of(p, {2, 16, 256});
  EXPECT_EQ(path.refs.size(), 3u);
  EXPECT_TRUE(path.refs[0].path_miss);   // cold
  EXPECT_FALSE(path.refs[1].path_miss);  // same block
  EXPECT_EQ(path.refs[0].evictor, -1);   // cold miss: no evictor
}

TEST(WcetPath, LoopAppearsTwiceFirstAndRest) {
  IrBuilder b("twice");
  b.for_range(R(1), 0, 6, [&] { b.nops(2); });
  b.halt();
  const ir::Program p = b.take();
  const WcetPath path = path_of(p, {2, 16, 256});
  // Each loop-body instruction appears once per context (FIRST and REST).
  std::map<ir::InstrId, int> seen;
  for (const PathRef& ref : path.refs) ++seen[ref.instr];
  int twice = 0;
  for (const auto& [id, n] : seen) {
    EXPECT_LE(n, 2);
    if (n == 2) ++twice;
  }
  EXPECT_GT(twice, 0);
}

TEST(WcetPath, EvictionsAreAttributed) {
  const ir::Program p = conflict_loop();
  const WcetPath path = path_of(p, {1, 16, 256});
  bool any_attributed = false;
  for (std::size_t k = 0; k < path.refs.size(); ++k) {
    const PathRef& ref = path.refs[k];
    if (!ref.path_miss || ref.evictor < 0) continue;
    any_attributed = true;
    const PathRef& evictor = path.refs[static_cast<std::size_t>(ref.evictor)];
    // The evictor must conflict with the missed block and precede the miss.
    EXPECT_LT(static_cast<std::size_t>(ref.evictor), k);
    const cache::CacheConfig config{1, 16, 256};
    EXPECT_EQ(config.set_of(evictor.block), config.set_of(ref.block));
  }
  EXPECT_TRUE(any_attributed);
}

TEST(WcetPath, SlackSumsTimesBetween) {
  IrBuilder b("slack");
  b.movi(R(1), 1);
  b.movi(R(2), 2);
  b.movi(R(3), 3);
  b.movi(R(4), 4);
  b.halt();
  const ir::Program p = b.take();
  const WcetPath path = path_of(p, {2, 16, 256});
  // Between positions 0 and 3 lie refs 1 and 2.
  EXPECT_EQ(path.slack_between(0, 3),
            static_cast<std::uint64_t>(path.refs[1].t_w) + path.refs[2].t_w);
  EXPECT_EQ(path.slack_between(0, 1), 0u);
  EXPECT_THROW(path.slack_between(3, 0), InvalidArgument);
}

TEST(WcetPath, PrefixSlackMatchesPlainWalkOnSuiteProgram) {
  const ir::Program p = suite::build_benchmark("fdct");
  const WcetPath path = path_of(p, {2, 16, 1024});
  ASSERT_GT(path.refs.size(), 100u);
  ASSERT_EQ(path.t_w_prefix.size(), path.refs.size() + 1);
  for (std::size_t from = 0; from < path.refs.size(); ++from) {
    // The plain walk over positions (from, to), grown one `to` at a time.
    std::uint64_t walk = 0;
    for (std::size_t to = from; to <= path.refs.size(); ++to) {
      if (to > from + 1) walk += path.refs[to - 1].t_w;
      ASSERT_EQ(path.slack_between(from, to), walk)
          << "from " << from << " to " << to;
    }
  }
}

TEST(MakePrefetch, Fields) {
  const ir::Instruction pf = make_prefetch(42);
  EXPECT_EQ(pf.op, ir::Opcode::kPrefetch);
  EXPECT_EQ(pf.pf_target, 42u);
  EXPECT_TRUE(pf.is_prefetch());
}

TEST(Optimizer, FindsProfitablePrefetchInConflictLoop) {
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{2, 16, 256};
  const OptimizationResult r = optimize_prefetches(p, config, kTiming);
  EXPECT_FALSE(r.report.wcet_failed);
  EXPECT_GT(r.report.candidates_found, 0u);
  // Theorem 1: never worse.
  EXPECT_LE(r.report.tau_optimized, r.report.tau_original);
}

TEST(Optimizer, OutputIsPrefetchEquivalent) {
  // Definition 5: programs indistinguishable except for prefetches (and the
  // alignment nops the relocation handling may add).
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{2, 16, 256};
  const OptimizationResult r = optimize_prefetches(p, config, kTiming);

  ASSERT_EQ(r.program.num_blocks(), p.num_blocks());
  for (const ir::BasicBlock& bb : p.blocks()) {
    const ir::BasicBlock& ob = r.program.block(bb.id);
    EXPECT_EQ(ob.succs, bb.succs);
    // Original instructions appear in order, with only prefetch/nop added.
    std::vector<ir::Opcode> orig, opt_filtered;
    for (const auto& in : bb.instrs) orig.push_back(in.op);
    for (const auto& in : ob.instrs) {
      if (in.op == ir::Opcode::kPrefetch) continue;
      opt_filtered.push_back(in.op == ir::Opcode::kNop ? in.op : in.op);
    }
    // Remove nops that the optimizer added (bb had none originally unless
    // orig contains them too); compare multiset sizes conservatively.
    EXPECT_GE(opt_filtered.size(), orig.size());
  }
  // Semantics unchanged: run both and compare all data-memory results.
  auto final_data = [&](const ir::Program& prog) {
    const ir::Layout layout(prog, config.block_bytes);
    cache::CacheSim cache_sim(config, kTiming);
    sim::Interpreter interp(prog, layout, cache_sim);
    interp.run();
    return interp.data();
  };
  EXPECT_EQ(final_data(p), final_data(r.program));
}

TEST(Optimizer, EffectivenessKnobRejectsShortSlack) {
  // With an absurdly large Λ nothing is effective.
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{2, 16, 256};
  cache::MemTiming timing = kTiming;
  timing.prefetch_latency = 1000000;
  const OptimizationResult r = optimize_prefetches(p, config, timing);
  EXPECT_EQ(r.report.insertions.size(), 0u);
  EXPECT_GT(r.report.rejected_ineffective, 0u);
}

TEST(Optimizer, UntouchedWhenNoPressure) {
  // A program far smaller than the cache has no replaced-block misses.
  IrBuilder b("tiny");
  b.for_range(R(1), 0, 5, [&] { b.nop(); });
  b.halt();
  const ir::Program p = b.take();
  const OptimizationResult r =
      optimize_prefetches(p, {4, 32, 8192}, kTiming);
  EXPECT_EQ(r.report.insertions.size(), 0u);
  EXPECT_EQ(r.report.tau_optimized, r.report.tau_original);
  EXPECT_EQ(r.program.instruction_count(), p.instruction_count());
}

TEST(Optimizer, AcceptRuleAlwaysStillAuditsWcet) {
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{1, 16, 256};
  OptimizerOptions options;
  options.accept_rule = AcceptRule::kAlways;
  const OptimizationResult r = optimize_prefetches(p, config, kTiming, options);
  // Whatever happened, the audited output may not regress.
  EXPECT_LE(r.report.tau_optimized, r.report.tau_original);
}

TEST(Optimizer, ReportProfitMatchesTauDrop) {
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{2, 16, 256};
  const OptimizationResult r = optimize_prefetches(p, config, kTiming);
  std::int64_t total_profit = 0;
  for (const PrefetchRecord& rec : r.report.insertions) {
    EXPECT_GT(rec.profit_tau, 0);
    total_profit += rec.profit_tau;
  }
  EXPECT_EQ(static_cast<std::int64_t>(r.report.tau_original) -
                static_cast<std::int64_t>(r.report.tau_fixed_final),
            total_profit);
}

TEST(Optimizer, PrefetchTargetsAreValidInstructions) {
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{2, 16, 256};
  const OptimizationResult r = optimize_prefetches(p, config, kTiming);
  for (const ir::BasicBlock& bb : r.program.blocks()) {
    for (const ir::Instruction& in : bb.instrs) {
      if (!in.is_prefetch()) continue;
      EXPECT_NO_THROW(r.program.locate(in.pf_target));
    }
  }
}

// --- lanes: one run for several timings -------------------------------------

/// Every lane of a multi-timing run must be the run for its timing alone:
/// same program, insertions, τ figures and decision counters.
void expect_lane_matches_single(const OptimizationResult& lane,
                                const OptimizationResult& single,
                                const std::string& what) {
  const OptimizationReport& a = lane.report;
  const OptimizationReport& b = single.report;
  EXPECT_EQ(ir::to_text(lane.program), ir::to_text(single.program)) << what;
  ASSERT_EQ(a.insertions.size(), b.insertions.size()) << what;
  for (std::size_t i = 0; i < a.insertions.size(); ++i) {
    EXPECT_EQ(a.insertions[i].prefetch_instr, b.insertions[i].prefetch_instr)
        << what;
    EXPECT_EQ(a.insertions[i].target_instr, b.insertions[i].target_instr)
        << what;
    EXPECT_EQ(a.insertions[i].block, b.insertions[i].block) << what;
    EXPECT_EQ(a.insertions[i].profit_tau, b.insertions[i].profit_tau) << what;
    EXPECT_EQ(a.insertions[i].slack, b.insertions[i].slack) << what;
  }
  EXPECT_EQ(a.code, b.code) << what;
  EXPECT_EQ(a.reverted, b.reverted) << what;
  EXPECT_EQ(a.tau_original, b.tau_original) << what;
  EXPECT_EQ(a.tau_optimized, b.tau_optimized) << what;
  EXPECT_EQ(a.tau_fixed_final, b.tau_fixed_final) << what;
  EXPECT_EQ(a.candidates_found, b.candidates_found) << what;
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated) << what;
  EXPECT_EQ(a.passes, b.passes) << what;
  EXPECT_EQ(a.rejected_ineffective, b.rejected_ineffective) << what;
  EXPECT_EQ(a.rejected_unprofitable, b.rejected_unprofitable) << what;
  EXPECT_EQ(a.rejected_acet, b.rejected_acet) << what;
  EXPECT_EQ(a.rejected_cannot_survive, b.rejected_cannot_survive) << what;
}

/// Runs `timings` as the lanes of one call and checks each lane against a
/// single-timing call; returns the lanes.
std::vector<OptimizationResult> run_lanes(
    const ir::Program& p, const cache::CacheConfig& config,
    const std::vector<cache::MemTiming>& timings,
    const OptimizerOptions& options = {}) {
  std::vector<OptimizationResult> lanes =
      optimize_prefetches(p, config, timings, options);
  EXPECT_EQ(lanes.size(), timings.size());
  for (std::size_t l = 0; l < lanes.size() && l < timings.size(); ++l)
    expect_lane_matches_single(
        lanes[l], optimize_prefetches(p, config, timings[l], options),
        p.name() + " lane " + std::to_string(l));
  return lanes;
}

TEST(OptimizerLanes, EqualTimingsStayJoinedAndShareEveryTrial) {
  const ir::Program p = conflict_loop();
  const std::vector<OptimizationResult> lanes =
      run_lanes(p, {2, 16, 256}, {kTiming, kTiming});
  const OptimizationReport& lead = lanes[0].report;
  EXPECT_EQ(lead.lanes, 2u);
  EXPECT_EQ(lead.forks, 0u);
  ASSERT_GT(lead.candidates_evaluated, 0u);
  EXPECT_EQ(lead.shared_trials, lead.incremental_reanalyses);
  // The shared work is credited once, to the lead lane.
  EXPECT_EQ(lanes[1].report.incremental_reanalyses, 0u);
  EXPECT_EQ(lanes[1].report.candidates_evaluated, lead.candidates_evaluated);
}

TEST(OptimizerLanes, ForkAtTheFirstCandidate) {
  // Same hit and miss costs, so both lanes walk the same WCET path and
  // candidates; lane 1's prefetches can never land in time, so it rejects
  // the first candidate as ineffective while lane 0 evaluates it.
  const ir::Program p = conflict_loop();
  cache::MemTiming slow = kTiming;
  slow.prefetch_latency = 1000000;
  const std::vector<OptimizationResult> lanes =
      run_lanes(p, {2, 16, 256}, {kTiming, slow});
  const OptimizationReport& lead = lanes[0].report;
  EXPECT_EQ(lead.forks, 1u);
  EXPECT_EQ(lead.shared_trials, 0u);
  EXPECT_GT(lead.candidates_evaluated, 0u);
  EXPECT_EQ(lanes[1].report.candidates_evaluated, 0u);
  EXPECT_GT(lanes[1].report.rejected_ineffective, 0u);
}

TEST(OptimizerLanes, ForkAfterASharedAcceptance) {
  // crc at k2: with misses at 40 cycles an insertion that the 5-cycle lane
  // also takes comes first, then a later candidate's profit changes sign
  // between the two miss costs.
  const ir::Program p = suite::build_benchmark("crc");
  const cache::CacheConfig config = cache::paper_cache_config("k2").config;
  const std::vector<cache::MemTiming> timings = {{1, 40, 40}, {1, 5, 40}};
  const std::vector<OptimizationResult> lanes = run_lanes(p, config, timings);
  EXPECT_EQ(lanes[0].report.forks, 1u);
  EXPECT_GT(lanes[0].report.shared_trials, 0u);
  EXPECT_NE(lanes[0].report.insertions.size(),
            lanes[1].report.insertions.size());

  // The same run cut short by the evaluation budget (a prefix of the full
  // one: the budget is checked only before a candidate) has not forked yet
  // but has already accepted an insertion, which joined lanes accept
  // together.
  OptimizerOptions prefix;
  prefix.max_evaluations = lanes[0].report.shared_trials;
  const std::vector<OptimizationResult> cut =
      run_lanes(p, config, timings, prefix);
  EXPECT_EQ(cut[0].report.forks, 0u);
  EXPECT_FALSE(cut[0].report.insertions.empty());
  EXPECT_FALSE(cut[1].report.insertions.empty());
}

TEST(OptimizerLanes, ForkBeforeTheFirstCandidateWhenTheWcetPathsDiffer) {
  // Hits at 10 cycles against misses at 12 weigh the paths differently
  // from hits at 1 against misses at 40: at cover/k1 the two lanes'
  // worst-case paths, and so their candidate lists, differ from the first
  // pass on, and they fork before trying any candidate.
  const ir::Program p = suite::build_benchmark("cover");
  const cache::CacheConfig config = cache::paper_cache_config("k1").config;
  const std::vector<OptimizationResult> lanes =
      run_lanes(p, config, {{1, 40, 40}, {10, 12, 40}});
  EXPECT_EQ(lanes[0].report.forks, 1u);
  EXPECT_EQ(lanes[0].report.shared_trials, 0u);
  EXPECT_NE(lanes[0].report.candidates_found,
            lanes[1].report.candidates_found);
}

TEST(OptimizerLanes, MixedTimingsMatchSingleRunsUnderBothAcceptRules) {
  // Miss costs and prefetch latencies far apart, two and three lanes per
  // run, both accept rules: lanes fork at every kind of step (and parts of
  // one fork may accept the same trial), and every lane must still be the
  // run for its timing alone.
  const std::vector<std::vector<cache::MemTiming>> lane_sets = {
      {{1, 40, 40}, {1, 5, 40}},
      {{1, 8, 8}, {1, 80, 8}},
      {{2, 25, 25}, {1, 25, 25}},
      {{1, 40, 40}, {1, 5, 40}, {1, 25, 100}},
  };
  const std::pair<const char*, const char*> cases[] = {
      {"crc", "k2"}, {"fdct", "k1"}, {"fdct", "k2"}, {"fir", "k2"},
      {"cover", "k13"}};
  std::size_t forks = 0;
  std::size_t runs = 0;
  for (const auto& [name, cfg] : cases) {
    const ir::Program p = suite::build_benchmark(name);
    const cache::CacheConfig config = cache::paper_cache_config(cfg).config;
    for (const AcceptRule rule : {AcceptRule::kProfit, AcceptRule::kAlways}) {
      OptimizerOptions options;
      options.accept_rule = rule;
      for (const std::vector<cache::MemTiming>& timings : lane_sets) {
        SCOPED_TRACE(std::string(name) + "/" + cfg);
        forks += run_lanes(p, config, timings, options)[0].report.forks;
        ++runs;
      }
    }
  }
  // Vacuity guard: the forks actually happened, in many runs.
  EXPECT_GT(forks, runs / 4);
}

TEST(Locking, SelectionRespectsGeometry) {
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{2, 16, 256};
  const LockingResult r = optimize_locking(p, config, kTiming);
  EXPECT_LE(r.locked.size(), static_cast<std::size_t>(config.num_blocks()));
  std::map<std::uint32_t, std::uint32_t> per_set;
  for (cache::MemBlockId b : r.locked) ++per_set[config.set_of(b)];
  for (const auto& [set, n] : per_set) EXPECT_LE(n, config.assoc);
  EXPECT_GE(r.rounds, 1u);
}

TEST(Locking, LockedTauConsistentWithSelection) {
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{2, 16, 256};
  const LockingResult r = optimize_locking(p, config, kTiming);
  EXPECT_EQ(locked_tau(p, config, kTiming, r.locked), r.tau_locked);
  // Locking nothing means every reference misses: the worst possible tau.
  EXPECT_GE(locked_tau(p, config, kTiming, {}), r.tau_locked);
}

TEST(Locking, FreePreloadBeatsColdMissesOnFittingLoops) {
  // When everything fits, lock-down (whose preload is charged at system
  // start, not in tau_w) even avoids the cold misses: tau can only improve.
  ir::IrBuilder b("friendly");
  b.for_range(ir::R(1), 0, 50, [&] { b.nops(30); });  // fits easily
  b.halt();
  const ir::Program p = b.take();
  const cache::CacheConfig config{2, 16, 2048};
  const LockingResult r = optimize_locking(p, config, kTiming);
  EXPECT_LE(r.tau_locked, r.tau_unlocked);
}

TEST(Locking, CannotAdaptToPhaseChanges) {
  // The Section 2.2 trade-off: two sequential loops, each fitting the
  // cache but jointly exceeding it. Unlocked analysis adapts (each loop
  // runs from cache after its first iteration); a frozen cache can only
  // hold one loop's worth of blocks, so the other loop misses every time.
  ir::IrBuilder b("phases");
  b.for_range(ir::R(1), 0, 40, [&] { b.nops(44); });  // ~180B body
  b.for_range(ir::R(2), 0, 40, [&] { b.nops(44); });  // another ~180B
  b.halt();
  const ir::Program p = b.take();
  const cache::CacheConfig config{2, 16, 256};
  const LockingResult r = optimize_locking(p, config, kTiming);
  EXPECT_GT(r.tau_locked, r.tau_unlocked);
}

TEST(Locking, HelpsThrashingLoopsWherePrefetchCannot) {
  // A loop cycling through 2x the cache: LRU keeps missing everything and
  // prefetch-on-evict cannot survive (the pre-filter regime), but locking
  // half the body guarantees hits for that half.
  const ir::Program p = conflict_loop(160, 10);
  const cache::CacheConfig config{1, 16, 256};
  const LockingResult r = optimize_locking(p, config, kTiming);
  EXPECT_LT(r.tau_locked, locked_tau(p, config, kTiming, {}));
}

TEST(Optimizer, SimulatedMissesDoNotIncreaseOnWcetPathKernels) {
  // For a loop-dominated kernel (WCET path == concrete path) the optimizer
  // must reduce concrete misses whenever it inserts anything.
  const ir::Program p = conflict_loop();
  const cache::CacheConfig config{2, 16, 256};
  const OptimizationResult r = optimize_prefetches(p, config, kTiming);
  if (r.report.insertions.empty()) GTEST_SKIP() << "nothing inserted";
  const sim::RunMetrics before = sim::run_program(p, config, kTiming);
  const sim::RunMetrics after = sim::run_program(r.program, config, kTiming);
  EXPECT_LT(after.cache.misses, before.cache.misses);
  EXPECT_LE(after.mem_cycles, before.mem_cycles);
}

TEST(OptimizerStorage, NoStateOutlivesTheRun) {
  // Every abstract cache state an optimizer run makes (its base analysis,
  // its trials, the copies its forks take) is freed by the time it
  // returns, and the run's StatePool has handed back all the storage it
  // recycled: on a normal return, on a cancelled run and on a failed
  // re-analysis. crc at k2 with these two timings accepts, forks and
  // rejects; nsichneu at k33 runs many trials over 16-chunk states.
  using analysis::AbstractCache;
  struct Exit {
    const char* site;  ///< fault site, or null for a normal return
    std::uint64_t skip;
    ErrorCode code;
  };
  const std::vector<Exit> exits = {{nullptr, 0, ErrorCode::kOk},
                                   {"core.cancel", 6, ErrorCode::kCancelled},
                                   {"core.reanalyze", 2,
                                    ErrorCode::kAnalysisFailed}};
  struct Case {
    const char* program;
    const char* config;
    std::vector<cache::MemTiming> timings;
  };
  const std::vector<Case> cases = {{"crc", "k2", {{1, 40, 40}, {1, 5, 40}}},
                                   {"nsichneu", "k33", {{1, 25, 25}}}};
  fault::disarm_all();
  for (const Case& c : cases) {
    const ir::Program p = suite::build_benchmark(c.program);
    const cache::CacheConfig config = cache::paper_cache_config(c.config).config;
    for (const Exit& exit : exits) {
      const std::string what = std::string(c.program) + "/" + c.config +
                               " exit " + (exit.site ? exit.site : "normal");
      const AbstractCache::StorageCounts before =
          AbstractCache::storage_on_this_thread();
      EXPECT_EQ(before.retained_roots + before.retained_chunks, 0u) << what;
      std::vector<OptimizationResult> lanes;
      {
        std::optional<fault::ScopedFault> fault;
        if (exit.site) fault.emplace(exit.site, exit.skip);
        lanes = optimize_prefetches(p, config, c.timings);
      }
      EXPECT_EQ(AbstractCache::storage_on_this_thread(), before) << what;
      // A fault ends the group it fires in; after a fork that may hold
      // only some of the lanes.
      EXPECT_TRUE(std::any_of(lanes.begin(), lanes.end(),
                              [&](const OptimizationResult& r) {
                                return r.report.code == exit.code;
                              }))
          << what;
      // Vacuity: the run made trial states before it ended.
      EXPECT_GT(lanes.front().report.incremental_reanalyses, 0u) << what;
    }
  }
}

TEST(OptimizerSpans, ChildSpansAccountForTheRun) {
  // The optimizer's child spans: one candidate collection per lane and
  // pass, one analyze_trial span per incremental re-analysis, and durations
  // that fit inside core.optimizer.run.
  const ir::Program p = suite::build_benchmark("crc");
  const cache::CacheConfig config = cache::paper_cache_config("k2").config;
  const std::vector<cache::MemTiming> timings = {{1, 40, 40}, {1, 5, 40}};
  obs::reset_trace();
  obs::set_trace_enabled(true);
  const std::vector<OptimizationResult> lanes =
      optimize_prefetches(p, config, timings);
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::drain_trace();

  std::map<std::string, std::size_t> count;
  std::uint64_t run_ns = 0;
  std::uint64_t children_ns = 0;
  for (const obs::TraceEvent& e : events) {
    const std::string name = e.name;
    ++count[name];
    if (name == "core.optimizer.run") {
      run_ns += e.dur_ns;
    } else if (name.starts_with("core.optimizer.")) {
      children_ns += e.dur_ns;
    }
  }
  std::size_t passes = 0;
  std::size_t reanalyses = 0;
  for (const OptimizationResult& lane : lanes) {
    passes += lane.report.passes;
    reanalyses += lane.report.incremental_reanalyses;
  }
  ASSERT_GT(lanes.front().report.insertions.size(), 0u);  // accepts happen
  EXPECT_EQ(count["core.optimizer.run"], 1u);
  EXPECT_EQ(count["core.optimizer.collect"], passes);
  EXPECT_EQ(count["core.optimizer.analyze_trial"], reanalyses);
  EXPECT_EQ(count["core.optimizer.trial_build"], reanalyses);
  EXPECT_EQ(count["core.optimizer.tau_delta"], reanalyses);
  EXPECT_GT(count["core.optimizer.acet_check"], 0u);
  EXPECT_GT(count["core.optimizer.final_ipet"], 0u);
  EXPECT_GT(children_ns, 0u);
  EXPECT_LE(children_ns, run_ns);
}

}  // namespace
}  // namespace ucp::core
