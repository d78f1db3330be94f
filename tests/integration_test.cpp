// End-to-end tests across the full pipeline: suite program -> lowering ->
// VIVU -> must/may -> IPET -> optimizer -> simulation -> energy, exactly the
// path the paper's evaluation takes for each use case.

#include <gtest/gtest.h>

#include <stdexcept>

#include "cache/config.hpp"
#include "core/optimizer.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "suite/suite.hpp"
#include "support/parallel.hpp"

namespace ucp::exp {
namespace {

TEST(Measure, ProducesAllThreeMetrics) {
  const ir::Program p = suite::build_benchmark("crc");
  const Metrics m = measure(p, cache::paper_cache_config("k7").config,
                            energy::TechNode::k32nm);
  EXPECT_GT(m.tau_wcet, 0u);
  EXPECT_GT(m.run.mem_cycles, 0u);
  EXPECT_GT(m.energy.total_nj(), 0.0);
  EXPECT_GT(m.code_bytes, 0u);
  // The WCET bound dominates the concrete run.
  EXPECT_GE(m.tau_wcet, m.run.mem_cycles);
}

TEST(UseCase, RatiosWithinTheoremBounds) {
  const ir::Program p = suite::build_benchmark("fdct");
  const UseCaseResult r = run_use_case(
      p, "fdct", cache::paper_cache_config("k2"), energy::TechNode::k45nm);
  EXPECT_LE(r.wcet_ratio(), 1.0 + 1e-9);  // Theorem 1
  EXPECT_GT(r.wcet_ratio(), 0.0);
  EXPECT_GT(r.instr_ratio(), 0.999);  // prefetches only ever add
  EXPECT_LT(r.instr_ratio(), 1.10);   // and only marginally (Figure 8)
}

TEST(UseCase, OptimizedBinaryStillComputesTheSameResult) {
  const ir::Program p = suite::build_benchmark("matmult");
  const auto& k = cache::paper_cache_config("k3");
  const cache::MemTiming timing =
      energy::derive_timing(k.config, energy::TechNode::k45nm);
  const core::OptimizationResult opt =
      core::optimize_prefetches(p, k.config, timing);
  ASSERT_GT(opt.report.insertions.size(), 0u);  // this case does optimize

  const ir::Layout l0(p, k.config.block_bytes);
  const ir::Layout l1(opt.program, k.config.block_bytes);
  cache::CacheSim c0(k.config, timing), c1(k.config, timing);
  sim::Interpreter i0(p, l0, c0), i1(opt.program, l1, c1);
  i0.run();
  i1.run();
  // data() ends at the highest word stored, so equal vectors mean equal
  // stores at equal words; matmult stores its whole result matrix.
  ASSERT_FALSE(i0.data().empty());
  EXPECT_EQ(i0.data(), i1.data());
}

TEST(Sweep, SmallGridShapes) {
  SweepOptions options;
  options.programs = {"crc", "bs"};
  options.config_stride = 12;  // k1, k13, k25
  options.techs = {energy::TechNode::k45nm};
  options.progress_every = 0;
  const Sweep sweep = run_sweep(options);
  const auto& results = sweep.results;
  ASSERT_EQ(results.size(), 2u * 3u);
  // Deterministic grid order: program-major, then config, then tech.
  EXPECT_EQ(results[0].program, "crc");
  EXPECT_EQ(results[0].config_id, "k1");
  EXPECT_EQ(results[3].program, "bs");
  for (const auto& r : results) {
    EXPECT_LE(r.wcet_ratio(), 1.0 + 1e-9);
    EXPECT_GT(r.original.tau_wcet, 0u);
    EXPECT_EQ(r.outcome, CaseOutcome::kCompleted);
  }
  EXPECT_EQ(sweep.report.total, results.size());
  EXPECT_EQ(sweep.report.completed, results.size());
  EXPECT_TRUE(sweep.report.clean());
  EXPECT_TRUE(sweep.report.quarantine.empty());
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  SweepOptions a;
  a.programs = {"fdct"};
  a.config_stride = 9;
  a.techs = {energy::TechNode::k32nm};
  a.threads = 1;
  a.progress_every = 0;
  SweepOptions b = a;
  b.threads = 4;
  const auto ra = run_sweep(a).results;
  const auto rb = run_sweep(b).results;
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].original.tau_wcet, rb[i].original.tau_wcet);
    EXPECT_EQ(ra[i].optimized.tau_wcet, rb[i].optimized.tau_wcet);
    EXPECT_EQ(ra[i].original.run.total_cycles, rb[i].original.run.total_cycles);
  }
}

TEST(Aggregate, BySizeCoversAllCapacities) {
  SweepOptions options;
  options.programs = {"crc"};
  options.techs = {energy::TechNode::k45nm};
  options.progress_every = 0;
  const auto results = run_sweep(options).results;
  const auto by_size = aggregate_by_size(results);
  ASSERT_EQ(by_size.size(), 6u);
  std::size_t total = 0;
  for (const auto& agg : by_size) {
    EXPECT_EQ(agg.cases, 6u);  // 6 configs per capacity, 1 tech
    total += agg.cases;
  }
  EXPECT_EQ(total, results.size());
}

TEST(Aggregate, GrandMeansAndRegressions) {
  SweepOptions options;
  options.programs = {"fdct", "fir"};
  options.config_stride = 6;
  options.progress_every = 0;
  const auto results = run_sweep(options).results;
  const auto grand = aggregate_all(results);
  EXPECT_EQ(grand.cases, results.size());
  EXPECT_EQ(grand.wcet_regressions, 0u);
  EXPECT_LE(grand.mean_wcet_ratio, 1.0 + 1e-9);
  EXPECT_GE(grand.max_instr_ratio, 1.0);
}


TEST(Regimes, FiltersSelectCorrectCases) {
  std::vector<UseCaseResult> results(3);
  results[0].original.run.cache.fetches = 1000;
  results[0].original.run.cache.misses = 50;  // 5%: in paper regime
  results[0].report.candidates_found = 4;
  results[1].original.run.cache.fetches = 1000;
  results[1].original.run.cache.misses = 2;  // 0.2%: out
  results[1].report.candidates_found = 0;
  results[2].original.run.cache.fetches = 1000;
  results[2].original.run.cache.misses = 400;  // 40%: out (thrash)
  results[2].report.candidates_found = 9;

  EXPECT_EQ(paper_regime(results).size(), 1u);
  EXPECT_EQ(reuse_regime(results).size(), 2u);
}

TEST(ParallelForIndex, VisitsEachIndexOnce) {
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  support::parallel_for_index(
      100, 4, [&](std::size_t i, std::uint32_t) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForIndex, RethrowsWorkerExceptionOnCaller) {
  // An exception escaping `fn` on a worker thread must not terminate the
  // process; the first one surfaces on the calling thread after the pool
  // drains.
  EXPECT_THROW(support::parallel_for_index(64, 4,
                                           [&](std::size_t i, std::uint32_t) {
                                             if (i == 17)
                                               throw std::runtime_error(
                                                   "boom");
                                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace ucp::exp
