// Micro-benchmarks (google-benchmark): throughput of the individual
// analysis components — concrete cache simulation, must/may abstract
// interpretation, VIVU expansion, IPET/ILP solving, and the end-to-end
// optimizer — over representative suite programs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "analysis/domain.hpp"
#include "cache/cache_sim.hpp"
#include "core/optimizer.hpp"
#include "energy/model.hpp"
#include "ilp/model.hpp"
#include "ilp/sparse.hpp"
#include "ir/layout.hpp"
#include "reference/ipet_ilp.hpp"
#include "reference/reference.hpp"
#include "sim/interpreter.hpp"
#include "suite/suite.hpp"
#include "wcet/ipet.hpp"

namespace {

using namespace ucp;

const cache::CacheConfig kConfig{2, 16, 1024};
const cache::MemTiming kTiming =
    energy::derive_timing(kConfig, energy::TechNode::k45nm);

void BM_CacheSimFetch(benchmark::State& state) {
  cache::CacheSim sim(kConfig, kTiming);
  std::uint64_t now = 0;
  cache::MemBlockId block = 0;
  for (auto _ : state) {
    const auto r = sim.fetch(block, now);
    now += r.cycles;
    block = (block * 1664525u + 1013904223u) % 256;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheSimFetch);

// Two abstract sets with partially overlapping contents, as produced where
// control-flow paths with different access histories merge — the operand
// shape of every join on the fixpoint hot path.
analysis::AbstractSet merge_operand(std::uint8_t assoc,
                                    cache::MemBlockId base) {
  analysis::AbstractSet s(assoc);
  for (cache::MemBlockId b = base; b < base + assoc; ++b) s.update_must(b);
  return s;
}

void BM_AbstractSetJoinMust(benchmark::State& state) {
  const auto assoc = static_cast<std::uint8_t>(state.range(0));
  const analysis::AbstractSet a = merge_operand(assoc, 0);
  const analysis::AbstractSet b = merge_operand(assoc, assoc / 2);
  analysis::AbstractSet acc(assoc);
  for (auto _ : state) {
    acc = a;
    const bool changed = acc.join_must_with(b);
    benchmark::DoNotOptimize(changed);
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AbstractSetJoinMust)->Arg(2)->Arg(4);

void BM_AbstractSetJoinMay(benchmark::State& state) {
  const auto assoc = static_cast<std::uint8_t>(state.range(0));
  const analysis::AbstractSet a = merge_operand(assoc, 0);
  const analysis::AbstractSet b = merge_operand(assoc, assoc / 2);
  analysis::AbstractSet acc(assoc);
  for (auto _ : state) {
    acc = a;
    const bool changed = acc.join_may_with(b);
    benchmark::DoNotOptimize(changed);
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AbstractSetJoinMay)->Arg(2)->Arg(4);

void BM_AbstractCacheCopy(benchmark::State& state) {
  // What the fixpoint pays per transfer: copy a state along an edge, then
  // apply one block access to it. The copy alone is a refcount bump; the
  // first write is where copy-on-write storage pays. Arg = set count: 32
  // (2-way 1 KB, mid-grid) and 512 (direct-mapped 8 KB, the widest grid
  // point). Every set is filled so detaching moves real data.
  const auto sets = static_cast<std::uint32_t>(state.range(0));
  const cache::CacheConfig config{sets == 512 ? 1u : 2u, 16,
                                  sets == 512 ? 8192u : 1024u};
  analysis::AbstractCache cache(config);
  for (cache::MemBlockId b = 0; b < 2u * config.num_sets(); ++b) {
    cache.update_must(b);
    cache.update_may(b);
  }
  cache::MemBlockId block = 0;
  for (auto _ : state) {
    analysis::AbstractCache copy = cache;
    copy.update_must(block++);
    benchmark::DoNotOptimize(copy.num_sets());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AbstractCacheCopy)->Arg(32)->Arg(512);

// The hash-consing payoff at the join points: joining a state with a
// shared-payload copy of itself is a pointer compare (the dominant
// reconvergence case once the interner collapses identical out-states),
// while the same join against an equal-but-unshared state walks every set.
analysis::AbstractCache filled_cache() {
  analysis::AbstractCache cache(kConfig);
  for (cache::MemBlockId b = 0; b < 2u * kConfig.num_sets(); ++b) {
    cache.update_must(b);
    cache.update_may(b);
  }
  return cache;
}

void BM_AbstractCacheJoinKernel(benchmark::State& state, bool shared) {
  const analysis::AbstractCache a = filled_cache();
  const analysis::AbstractCache b = shared ? a : filled_cache();
  analysis::AbstractCache acc = a;
  for (auto _ : state) {
    const bool changed = acc.join_must_with(b);
    benchmark::DoNotOptimize(changed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_AbstractCacheJoinShared(benchmark::State& state) {
  BM_AbstractCacheJoinKernel(state, /*shared=*/true);
}
void BM_AbstractCacheJoinRaw(benchmark::State& state) {
  BM_AbstractCacheJoinKernel(state, /*shared=*/false);
}
BENCHMARK(BM_AbstractCacheJoinShared);
BENCHMARK(BM_AbstractCacheJoinRaw);

void BM_Interpreter(benchmark::State& state, const char* name) {
  const ir::Program program = suite::build_benchmark(name);
  for (auto _ : state) {
    const sim::RunMetrics m = sim::run_program(program, kConfig, kTiming);
    benchmark::DoNotOptimize(m.total_cycles);
  }
}
BENCHMARK_CAPTURE(BM_Interpreter, crc, "crc");
BENCHMARK_CAPTURE(BM_Interpreter, matmult, "matmult");
BENCHMARK_CAPTURE(BM_Interpreter, nsichneu, "nsichneu");

void BM_ContextGraph(benchmark::State& state, const char* name) {
  const ir::Program program = suite::build_benchmark(name);
  for (auto _ : state) {
    const analysis::ContextGraph graph(program);
    benchmark::DoNotOptimize(graph.num_nodes());
  }
}
BENCHMARK_CAPTURE(BM_ContextGraph, fdct, "fdct");
BENCHMARK_CAPTURE(BM_ContextGraph, nsichneu, "nsichneu");

void BM_MustMayAnalysis(benchmark::State& state, const char* name) {
  const ir::Program program = suite::build_benchmark(name);
  const ir::Layout layout(program, kConfig.block_bytes);
  const analysis::ContextGraph graph(program);
  for (auto _ : state) {
    const auto cls = analysis::analyze_cache(graph, layout, kConfig);
    benchmark::DoNotOptimize(cls.per_node.size());
  }
}
BENCHMARK_CAPTURE(BM_MustMayAnalysis, fdct, "fdct");
BENCHMARK_CAPTURE(BM_MustMayAnalysis, statemate, "statemate");

void BM_Ipet(benchmark::State& state, const char* name) {
  const ir::Program program = suite::build_benchmark(name);
  const ir::Layout layout(program, kConfig.block_bytes);
  const analysis::ContextGraph graph(program);
  const auto cls = analysis::analyze_cache(graph, layout, kConfig);
  for (auto _ : state) {
    const auto wcet = wcet::compute_wcet(graph, cls, kTiming);
    benchmark::DoNotOptimize(wcet.tau_mem);
  }
}
BENCHMARK_CAPTURE(BM_Ipet, fdct, "fdct");
BENCHMARK_CAPTURE(BM_Ipet, statemate, "statemate");

// The sweep hot path: re-solving a prebuilt IpetSystem under a fresh
// classification. The gap to BM_Ipet (which places every node in its loop
// region again on each call) is what sharing the system buys.
void BM_IpetSystemResolve(benchmark::State& state, const char* name) {
  const ir::Program program = suite::build_benchmark(name);
  const ir::Layout layout(program, kConfig.block_bytes);
  const analysis::ContextGraph graph(program);
  const auto cls = analysis::analyze_cache(graph, layout, kConfig);
  const wcet::IpetSystem system(graph);
  for (auto _ : state) {
    const auto wcet = system.solve(cls, kTiming);
    benchmark::DoNotOptimize(wcet.tau_mem);
  }
}
BENCHMARK_CAPTURE(BM_IpetSystemResolve, fdct, "fdct");
BENCHMARK_CAPTURE(BM_IpetSystemResolve, statemate, "statemate");

// Sparse revised simplex (the ILP oracle's solver) vs the retained
// dense-tableau reference on the same IPET model — the per-pivot/per-solve
// cost gap of the rewrite. BM_IpetSystemResolve is the production engine
// on the same graphs and classifications.
void BM_IpetSolveKernel(benchmark::State& state, const char* name,
                        bool dense) {
  const ir::Program program = suite::build_benchmark(name);
  const ir::Layout layout(program, kConfig.block_bytes);
  const analysis::ContextGraph graph(program);
  const auto cls = analysis::analyze_cache(graph, layout, kConfig);
  const ilp::Model model = reference::ipet_model(graph, cls, kTiming);
  std::uint64_t pivots = 0;
  for (auto _ : state) {
    const ilp::Solution s = dense ? reference::solve_ilp_dense_reference(model)
                                  : ilp::solve_ilp(model);
    pivots += s.stats.pivots;
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["pivots/solve"] = benchmark::Counter(
      static_cast<double>(pivots) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
}
void BM_IpetSolveSparse(benchmark::State& state, const char* name) {
  BM_IpetSolveKernel(state, name, /*dense=*/false);
}
void BM_IpetSolveDenseReference(benchmark::State& state, const char* name) {
  BM_IpetSolveKernel(state, name, /*dense=*/true);
}
BENCHMARK_CAPTURE(BM_IpetSolveSparse, fdct, "fdct");
BENCHMARK_CAPTURE(BM_IpetSolveDenseReference, fdct, "fdct");
BENCHMARK_CAPTURE(BM_IpetSolveSparse, statemate, "statemate");
BENCHMARK_CAPTURE(BM_IpetSolveDenseReference, statemate, "statemate");

// Branch-and-bound on an ILP that actually branches: a knapsack with
// deliberately fractional LP vertices. Every child clones the canonical
// basis, applies its path bounds and re-enters phase 1.
ilp::Model branching_knapsack(int items) {
  ilp::Model m;
  std::vector<ilp::VarId> xs;
  for (int i = 0; i < items; ++i)
    xs.push_back(m.add_var("x" + std::to_string(i), 0, 1, true));
  std::vector<ilp::Term> cap;
  std::vector<ilp::Term> obj;
  for (int i = 0; i < items; ++i) {
    const double w = 2.0 + static_cast<double>((i * 7) % 5);
    const double v = 3.0 + static_cast<double>((i * 11) % 7);
    cap.push_back({xs[static_cast<std::size_t>(i)], w});
    obj.push_back({xs[static_cast<std::size_t>(i)], v});
  }
  m.add_constraint(std::move(cap), ilp::Rel::kLe,
                   1.7 * static_cast<double>(items));
  m.set_objective(std::move(obj));
  return m;
}

void BM_BranchAndBound(benchmark::State& state) {
  const ilp::Model model = branching_knapsack(24);
  const ilp::SparseLp lp(model);
  std::vector<double> obj(model.num_vars(), 0.0);
  for (const ilp::Term& t : model.objective())
    obj[static_cast<std::size_t>(t.var)] = t.coeff;
  std::uint64_t nodes = 0, pivots = 0;
  for (auto _ : state) {
    const ilp::Solution s = lp.solve_ilp_with(obj);
    nodes += s.stats.bb_nodes;
    pivots += s.stats.pivots;
    benchmark::DoNotOptimize(s.objective);
  }
  const auto iters =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.counters["nodes/solve"] =
      benchmark::Counter(static_cast<double>(nodes) / iters);
  state.counters["pivots/solve"] =
      benchmark::Counter(static_cast<double>(pivots) / iters);
}
BENCHMARK(BM_BranchAndBound);

void BM_Optimizer(benchmark::State& state, const char* name) {
  const ir::Program program = suite::build_benchmark(name);
  for (auto _ : state) {
    const auto result =
        core::optimize_prefetches(program, kConfig, kTiming);
    benchmark::DoNotOptimize(result.report.insertions.size());
  }
}
BENCHMARK_CAPTURE(BM_Optimizer, fdct, "fdct");
BENCHMARK_CAPTURE(BM_Optimizer, adpcm, "adpcm");

}  // namespace

BENCHMARK_MAIN();
