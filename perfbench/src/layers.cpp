// The per-layer probe of a trace run. Every figure is the inclusive time of
// one public call, timed here around the call, or a count read from the
// struct that call returns; nothing is read from the program's own spans.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "analysis/cache_analysis.hpp"
#include "bench.hpp"
#include "cache/config.hpp"
#include "core/optimizer.hpp"
#include "ir/layout.hpp"
#include "sim/interpreter.hpp"

namespace perfbench {

namespace {

/// Per-thread sums, merged under a lock when a worker finishes.
struct LayerSums {
  double fixpoint_ms = 0.0;
  double solve_ms = 0.0;
  double pivots = 0.0;
  double sim_ms = 0.0;
  double instructions = 0.0;
  double reanalysis_ms = 0.0;
  double candidates_evaluated = 0.0;
  double incremental_reanalyses = 0.0;
  double nodes_reanalyzed = 0.0;
  double insertions = 0.0;
  std::vector<double> optimize_ms;

  void merge(const LayerSums& o) {
    fixpoint_ms += o.fixpoint_ms;
    solve_ms += o.solve_ms;
    pivots += o.pivots;
    sim_ms += o.sim_ms;
    instructions += o.instructions;
    reanalysis_ms += o.reanalysis_ms;
    candidates_evaluated += o.candidates_evaluated;
    incremental_reanalyses += o.incremental_reanalyses;
    nodes_reanalyzed += o.nodes_reanalyzed;
    insertions += o.insertions;
    optimize_ms.insert(optimize_ms.end(), o.optimize_ms.begin(),
                       o.optimize_ms.end());
  }
};

}  // namespace

void probe_layers(const std::vector<const ucp::ir::Program*>& programs,
                  const std::vector<Case>& cases, unsigned workers,
                  Report& report) {
  using namespace ucp;
  const auto& configs = cache::paper_cache_configs();

  // Distinct (program, configuration) pairs, each at its first case's tech.
  std::map<std::pair<std::size_t, std::size_t>, energy::TechNode> pairs;
  for (const Case& c : cases) pairs.emplace(std::make_pair(c.program, c.config), c.tech);
  std::vector<Case> work;
  for (const auto& [key, tech] : pairs) work.push_back(Case{key.first, key.second, tech});

  // Program-level layers, once per program used.
  std::vector<std::unique_ptr<analysis::ContextGraph>> graphs(programs.size());
  std::vector<std::unique_ptr<wcet::IpetSystem>> ipets(programs.size());
  double graph_ms = 0.0, graph_nodes = 0.0, ipet_build_ms = 0.0;
  for (const Case& c : work) {
    if (graphs[c.program]) continue;
    auto t0 = Clock::now();
    graphs[c.program] =
        std::make_unique<analysis::ContextGraph>(*programs[c.program]);
    graph_ms += ms_since(t0);
    graph_nodes += static_cast<double>(graphs[c.program]->num_nodes());
    t0 = Clock::now();
    ipets[c.program] = std::make_unique<wcet::IpetSystem>(*graphs[c.program]);
    ipet_build_ms += ms_since(t0);
  }

  // Configuration-level layers, on a worker pool like the workloads'.
  LayerSums total;
  std::mutex total_mutex;
  std::atomic<std::size_t> next{0};
  run_workers(workers, [&](unsigned) {
    LayerSums sums;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= work.size()) break;
      const Case& c = work[i];
      const ir::Program& program = *programs[c.program];
      const cache::CacheConfig& config = configs[c.config].config;
      const cache::MemTiming timing = energy::derive_timing(config, c.tech);
      const ir::Layout layout(program, config.block_bytes);

      auto t0 = Clock::now();
      const analysis::CacheAnalysisResult cls =
          analysis::analyze_cache(*graphs[c.program], layout, config);
      sums.fixpoint_ms += ms_since(t0);

      t0 = Clock::now();
      const wcet::WcetResult wcet = ipets[c.program]->solve(cls, timing);
      sums.solve_ms += ms_since(t0);
      sums.pivots += static_cast<double>(wcet.stats.pivots);

      t0 = Clock::now();
      const sim::RunMetrics run = sim::run_program(program, config, timing);
      sums.sim_ms += ms_since(t0);
      sums.instructions += static_cast<double>(run.instructions);

      t0 = Clock::now();
      const core::OptimizationResult opt = core::optimize_prefetches(
          program, config, timing, {}, ipets[c.program].get());
      sums.optimize_ms.push_back(ms_since(t0));
      const core::OptimizationReport& r = opt.report;
      sums.reanalysis_ms += static_cast<double>(r.reanalysis_ns) / 1e6;
      sums.candidates_evaluated += static_cast<double>(r.candidates_evaluated);
      sums.incremental_reanalyses +=
          static_cast<double>(r.incremental_reanalyses);
      sums.nodes_reanalyzed += static_cast<double>(r.nodes_reanalyzed);
      sums.insertions += static_cast<double>(r.insertions.size());
    }
    std::lock_guard<std::mutex> lock(total_mutex);
    total.merge(sums);
  });

  const Summary opt = summarize(total.optimize_ms);
  double optimize_sum = 0.0;
  for (const double ms : total.optimize_ms) optimize_sum += ms;

  report.metric("analysis.graph_ms", graph_ms, "ms");
  report.metric("analysis.graph_nodes", graph_nodes, "count");
  report.metric("analysis.fixpoint_ms", total.fixpoint_ms, "ms");
  report.metric("wcet.ipet_build_ms", ipet_build_ms, "ms");
  report.metric("wcet.ipet_solve_ms", total.solve_ms, "ms");
  report.metric("ilp.pivots", total.pivots, "count");
  report.metric("core.optimize_ms_p50", opt.p50, "ms");
  report.metric("core.optimize_ms_p99", opt.p99, "ms");
  report.metric("core.optimize_ms_sum", optimize_sum, "ms");
  report.metric("core.reanalysis_ms", total.reanalysis_ms, "ms");
  report.metric("core.loop_other_ms", optimize_sum - total.reanalysis_ms, "ms");
  report.metric("core.candidates_evaluated", total.candidates_evaluated, "count");
  report.metric("core.incremental_reanalyses", total.incremental_reanalyses,
                "count");
  report.metric("core.nodes_reanalyzed", total.nodes_reanalyzed, "count");
  report.metric("core.accept_ratio",
                total.candidates_evaluated == 0.0
                    ? 0.0
                    : total.insertions / total.candidates_evaluated,
                "ratio");
  report.metric("sim.run_ms", total.sim_ms, "ms");
  report.metric("sim.instructions", total.instructions, "count");
}

}  // namespace perfbench
