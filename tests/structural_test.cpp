// Structural-WCET differential suite: the production engine
// (IpetSystem::solve, a loop-tree longest path) against the ILP oracle
// (reference::solve_ipet_ilp, the sparse revised simplex) and the
// dense-tableau reference (tests/reference) on real and generated
// programs, for the input binary and for the optimizer's output. The three
// share no solving code. Every answer must also pass its optimality
// certificate (wcet::certificate_violation), the auditor's only IPET check,
// and corrupted answers or certificates must fail it.
//
// On the Table 2 grid the IPET optimum is unique, so the engine's node and
// edge counts must equal the simplex's; elsewhere (generated programs,
// adversarial weights) ties are possible, and the counts must instead be a
// feasible Li/Malik flow that reproduces τ exactly. It covers 300 src/gen
// programs and every Table 2 (program, config, tech) case. Each program is
// also weighted adversarially, since real cache classifications rarely
// make the loop collapse's anti-circulation rule matter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "core/optimizer.hpp"
#include "energy/model.hpp"
#include "gen/generator.hpp"
#include "ilp/model.hpp"
#include "ir/layout.hpp"
#include "reference/ipet_ilp.hpp"
#include "reference/reference.hpp"
#include "suite/suite.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "wcet/certificate.hpp"
#include "wcet/ipet.hpp"

namespace ucp::wcet {
namespace {

constexpr std::uint32_t kThreads = 4;

/// How much of the engine's answer must match the simplex's.
enum class Optimum {
  kUnique,    ///< counts equal the sparse solver's, edge for edge
  kMaybeTied  ///< counts form a feasible flow that reproduces τ
};

/// Compares the engines on one (graph, classification, timing) and returns
/// a description of every disagreement; empty when all agree. Worker
/// threads collect these and the test thread reports them.
std::string disagreement(const IpetSystem& system,
                         const analysis::CacheAnalysisResult& cls,
                         const cache::MemTiming& timing, Optimum optimum) {
  const analysis::ContextGraph& graph = system.graph();
  const WcetResult structural = system.solve(cls, timing);
  if (!structural.ok()) return "structural " + structural.status.message();
  const WcetResult sparse = reference::solve_ipet_ilp(graph, cls, timing);
  if (!sparse.ok()) return "sparse " + sparse.status.message();
  std::string out;
  if (const std::string c = certificate_violation(
          graph, structural, make_certificate(graph, structural));
      !c.empty())
    out += "certificate: " + c + "; ";
  if (structural.tau_mem != sparse.tau_mem)
    out += "structural " + std::to_string(structural.tau_mem) +
           " != sparse " + std::to_string(sparse.tau_mem) + "; ";
  if (optimum == Optimum::kUnique) {
    if (structural.node_counts != sparse.node_counts)
      out += "node counts differ from the sparse solver's; ";
    if (structural.edge_counts != sparse.edge_counts)
      out += "edge counts differ from the sparse solver's; ";
  } else if (const std::string v = ipet_flow_violation(graph, structural);
             !v.empty()) {
    out += "structural counts: " + v + "; ";
  }
  const ilp::Solution dense = reference::solve_ilp_dense_reference(
      reference::ipet_model(graph, cls, timing));
  if (!dense.optimal())
    out += "dense solve " + ilp::status_name(dense.status) + "; ";
  else if (const auto tau =
               static_cast<std::uint64_t>(std::llround(dense.objective));
           tau != structural.tau_mem)
    out += "structural " + std::to_string(structural.tau_mem) +
           " != dense " + std::to_string(tau) + "; ";
  return out;
}

/// Classifications no cache produces, aimed at the loop collapse itself:
/// a hashed per-(node, instruction) hit/miss pattern that gives the
/// contexts of one block different weights, and a "warm FIRST" pattern in
/// which every innermost-FIRST node hits and everything else misses. The
/// latter makes a back-edge circulation detached from the FIRST-to-REST
/// entry outweigh the real path, so it exposes a missing anti-circulation
/// limit that real cold-first-iteration weights hide.
std::vector<analysis::CacheAnalysisResult> adversarial_classifications(
    const analysis::ContextGraph& graph) {
  std::vector<analysis::CacheAnalysisResult> out(2);
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v) {
    const analysis::CgNode& node = graph.node(v);
    const std::size_t instrs =
        graph.program().block(node.block).instrs.size();
    const bool warm_first = !node.ctx.empty() && !node.ctx.back().rest;
    for (analysis::CacheAnalysisResult& cls : out)
      cls.per_node.emplace_back(instrs);
    for (std::size_t i = 0; i < instrs; ++i) {
      out[0].per_node[v][i] = (v * 7 + i * 3) % 5 < 2
                                  ? analysis::Classification::kAlwaysMiss
                                  : analysis::Classification::kAlwaysHit;
      out[1].per_node[v][i] = warm_first
                                  ? analysis::Classification::kAlwaysHit
                                  : analysis::Classification::kAlwaysMiss;
    }
  }
  return out;
}

/// The adversarial classifications of `system`'s graph under `timing`.
std::size_t check_adversarial(const IpetSystem& system,
                              const cache::MemTiming& timing,
                              const std::string& where,
                              std::vector<std::string>& failures) {
  std::size_t compared = 0;
  for (const analysis::CacheAnalysisResult& cls :
       adversarial_classifications(system.graph())) {
    ++compared;
    if (auto d = disagreement(system, cls, timing, Optimum::kMaybeTied);
        !d.empty())
      failures.push_back(where + " adversarial " + std::to_string(compared) +
                         ": " + d);
  }
  return compared;
}

/// One program under one cache geometry and timing: the input binary, then
/// the optimizer's output when it inserted anything (prefetch insertion
/// keeps the CFG, so the input's graph describes it). Returns the number of
/// classifications compared; appends disagreements to `failures`.
std::size_t check_case(const ir::Program& program, const IpetSystem& system,
                       const cache::CacheConfig& config,
                       const cache::MemTiming& timing, Optimum optimum,
                       const std::string& where,
                       std::vector<std::string>& failures) {
  const analysis::ContextGraph& graph = system.graph();
  const ir::Layout layout(program, config.block_bytes);
  const auto input = analysis::analyze_cache(graph, layout, config);
  std::size_t compared = 1;
  if (auto d = disagreement(system, input, timing, optimum); !d.empty())
    failures.push_back(where + " input: " + d);

  const core::OptimizationResult opt =
      core::optimize_prefetches(program, config, timing, {}, &system);
  if (opt.report.code == ErrorCode::kOk && !opt.report.insertions.empty()) {
    const ir::Layout opt_layout(opt.program, config.block_bytes);
    const auto optimized =
        analysis::analyze_cache(graph, opt.program, opt_layout, config);
    ++compared;
    if (auto d = disagreement(system, optimized, timing, optimum); !d.empty())
      failures.push_back(where + " optimized: " + d);
  }
  return compared;
}

/// One suite program, in the RISC-lowered form the sweep and ucpd run,
/// with the context graph and IPET system every grid case of it shares (a
/// const IpetSystem is safe across threads).
struct SuiteProgram {
  explicit SuiteProgram(const suite::BenchmarkInfo& info)
      : name(info.name), program(suite::build_benchmark(info.name)),
        graph(program), system(graph) {}
  std::string name;
  ir::Program program;
  analysis::ContextGraph graph;
  IpetSystem system;
};

/// Every (program, config) of the Table 2 grid, each distinct memory timing
/// of its tech nodes once: every quantity compared here depends on the
/// tech node only through the timing, exactly as in the sweep.
TEST(StructuralDifferential, TableTwoGrid) {
  const auto& benchmarks = suite::all_benchmarks();
  const auto& configs = cache::paper_cache_configs();
  std::vector<std::unique_ptr<SuiteProgram>> programs(benchmarks.size());
  support::parallel_for_index(
      benchmarks.size(), kThreads, [&](std::size_t b, std::uint32_t) {
        programs[b] = std::make_unique<SuiteProgram>(benchmarks[b]);
      });
  // Largest graphs first, so no heavy pair is claimed last.
  std::vector<std::size_t> order(benchmarks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x,
                                                   std::size_t y) {
    return programs[x]->graph.num_nodes() > programs[y]->graph.num_nodes();
  });

  const std::size_t pairs = order.size() * configs.size();
  std::vector<std::vector<std::string>> failures(pairs);
  std::vector<std::size_t> compared(pairs, 0);
  support::parallel_for_index(pairs, kThreads, [&](std::size_t i,
                                                   std::uint32_t) {
    const SuiteProgram& sp = *programs[order[i / configs.size()]];
    const cache::NamedCacheConfig& named = configs[i % configs.size()];
    std::vector<cache::MemTiming> timings;
    for (energy::TechNode tech :
         {energy::TechNode::k45nm, energy::TechNode::k32nm}) {
      const cache::MemTiming t = energy::derive_timing(named.config, tech);
      if (std::find(timings.begin(), timings.end(), t) == timings.end())
        timings.push_back(t);
    }
    for (const cache::MemTiming& timing : timings)
      compared[i] += check_case(
          sp.program, sp.system, named.config, timing, Optimum::kUnique,
          sp.name + "/" + named.id + "/miss" +
              std::to_string(timing.miss_cycles),
          failures[i]);
    // The adversarial weights do not depend on the geometry: once per
    // program, under the first config's timing.
    if (i % configs.size() == 0)
      compared[i] += check_adversarial(sp.system, timings.front(),
                                       sp.name, failures[i]);
  });
  std::size_t total = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    total += compared[i];
    for (const std::string& f : failures[i]) ADD_FAILURE() << f;
  }
  // 37 programs x 36 configs plus the 222 pairs whose tech nodes differ
  // in timing, two adversarial weightings per program, and one optimized
  // program per group that inserted.
  EXPECT_GT(total, 37u * 36u + 222u + 2u * 37u);
}

TEST(StructuralDifferential, GeneratedPrograms) {
  constexpr std::size_t kPrograms = 300;
  const auto& configs = cache::paper_cache_configs();
  std::vector<std::vector<std::string>> failures(kPrograms);
  std::vector<std::size_t> compared(kPrograms, 0);
  support::parallel_for_index(
      kPrograms, kThreads, [&](std::size_t i, std::uint32_t) {
        Rng rng(split_seed(i + 1, 0));
        const gen::GenKnobs knobs = gen::sample_knobs(rng);
        const ir::Program program =
            gen::generate_program(split_seed(i + 1, 1), knobs);
        const cache::NamedCacheConfig& named =
            configs[(i * 7) % configs.size()];
        const analysis::ContextGraph graph(program);
        const IpetSystem system(graph);
        const cache::MemTiming timing =
            energy::derive_timing(named.config, energy::TechNode::k45nm);
        const std::string where =
            "gen seed " + std::to_string(i + 1) + "/" + named.id;
        compared[i] = check_case(program, system, named.config, timing,
                                 Optimum::kMaybeTied, where, failures[i]) +
                      check_adversarial(system, timing, where, failures[i]);
      });
  std::size_t total = 0;
  for (std::size_t i = 0; i < kPrograms; ++i) {
    total += compared[i];
    for (const std::string& f : failures[i]) ADD_FAILURE() << f;
  }
  EXPECT_GE(total, 3 * kPrograms);
}

// --- the optimality certificate --------------------------------------------

/// A generated program analysed under one paper configuration.
struct Solved {
  Solved(const ir::Program& p, const cache::CacheConfig& config)
      : program(p), graph(program) {
    const ir::Layout layout(program, config.block_bytes);
    cls = analysis::analyze_cache(graph, layout, config);
    timing = energy::derive_timing(config, energy::TechNode::k45nm);
    result = IpetSystem(graph).solve(cls, timing);
  }
  ir::Program program;
  analysis::ContextGraph graph;
  analysis::CacheAnalysisResult cls;
  cache::MemTiming timing;
  WcetResult result;
};

/// Seeded src/gen programs under rotated paper configurations, plus one
/// program at four times the Mälardalen-average size: the structural τ
/// must equal the simplex's, and the certificate must check.
TEST(Certificate, ProvesTheSimplexOptimumOnGeneratedPrograms) {
  constexpr std::size_t kPrograms = 120;
  const auto& configs = cache::paper_cache_configs();
  std::vector<std::string> failures(kPrograms + 1);
  support::parallel_for_index(
      kPrograms + 1, kThreads, [&](std::size_t i, std::uint32_t) {
        Rng rng(split_seed(1000 + i, 0));
        const gen::GenKnobs knobs =
            i < kPrograms ? gen::sample_knobs(rng) : gen::scaled_knobs(4);
        const cache::NamedCacheConfig& named =
            configs[(i * 5) % configs.size()];
        const Solved s(gen::generate_program(split_seed(1000 + i, 1), knobs),
                       named.config);
        const std::string where = "gen " + std::to_string(1000 + i) + "/" +
                                  named.id + ": ";
        if (!s.result.ok()) {
          failures[i] = where + s.result.status.message();
          return;
        }
        const WcetResult sparse =
            reference::solve_ipet_ilp(s.graph, s.cls, s.timing);
        if (!sparse.ok() || sparse.tau_mem != s.result.tau_mem)
          failures[i] = where + "simplex " + sparse.status.message() + " " +
                        std::to_string(sparse.tau_mem) + " vs structural " +
                        std::to_string(s.result.tau_mem) + "; ";
        failures[i] += certificate_violation(
            s.graph, s.result, make_certificate(s.graph, s.result));
        if (failures[i] == where) failures[i].clear();
      });
  for (const std::string& f : failures)
    if (!f.empty()) ADD_FAILURE() << f;
}

/// Generated programs whose WCET path runs through a REST loop body that
/// cycles (some β > 0), the shape every corruption below can hit.
std::vector<std::unique_ptr<Solved>> looping_programs() {
  std::vector<std::unique_ptr<Solved>> out;
  const auto& configs = cache::paper_cache_configs();
  for (std::uint64_t seed = 1; out.size() < 8 && seed < 200; ++seed) {
    Rng rng(split_seed(seed, 0));
    const gen::GenKnobs knobs = gen::sample_knobs(rng);
    auto s = std::make_unique<Solved>(
        gen::generate_program(split_seed(seed, 1), knobs),
        configs[seed % configs.size()].config);
    const IpetCertificate cert = make_certificate(s->graph, s->result);
    if (s->result.ok() &&
        std::any_of(cert.loop_price.begin(), cert.loop_price.end(),
                    [](__int128 b) { return b > 0; }))
      out.push_back(std::move(s));
  }
  return out;
}

TEST(Certificate, EveryCorruptionFailsTheCheck) {
  const std::vector<std::unique_ptr<Solved>> programs = looping_programs();
  ASSERT_GE(programs.size(), 8u);
  for (const std::unique_ptr<Solved>& s : programs) {
    SCOPED_TRACE(s->program.name());
    const analysis::ContextGraph& g = s->graph;
    const IpetCertificate cert = make_certificate(g, s->result);
    ASSERT_EQ(certificate_violation(g, s->result, cert), "");
    auto fails = [&](const WcetResult& r, const IpetCertificate& c) {
      return !certificate_violation(g, r, c).empty();
    };

    WcetResult r = s->result;
    ++r.tau_mem;
    EXPECT_TRUE(fails(r, cert)) << "tau + 1";
    r.tau_mem -= 2;
    EXPECT_TRUE(fails(r, cert)) << "tau - 1";

    // One more unit on any edge of the WCET path, and on one it misses.
    for (bool on_path : {true, false}) {
      r = s->result;
      const auto e = static_cast<std::size_t>(
          std::find_if(r.edge_counts.begin(), r.edge_counts.end(),
                       [&](std::uint64_t n) { return (n > 0) == on_path; }) -
          r.edge_counts.begin());
      ASSERT_LT(e, r.edge_counts.size());
      ++r.edge_counts[e];
      EXPECT_TRUE(fails(r, cert)) << "edge " << e << " + 1";
    }

    // One potential - 1, at every node: a halt node's goes negative, the
    // entry's no longer prices τ, and any other node's tightest out-edge
    // gets a positive reduced cost.
    for (analysis::NodeId v = 0; v < g.num_nodes(); ++v) {
      IpetCertificate c = cert;
      --c.potential[v];
      EXPECT_TRUE(fails(s->result, c)) << "potential of node " << v << " - 1";
    }

    // One β - 1, on every priced loop instance: the back edge that closes
    // its largest cycle gets a positive reduced cost.
    for (std::size_t i = 0; i < cert.loop_price.size(); ++i) {
      if (cert.loop_price[i] == 0) continue;
      IpetCertificate c = cert;
      --c.loop_price[i];
      EXPECT_TRUE(fails(s->result, c)) << "beta of loop " << i << " - 1";
    }
  }
}

TEST(Certificate, ResultsThatAreNotOkGetNone) {
  const Solved s(gen::generate_program(7, gen::GenKnobs{}),
                 cache::paper_cache_config("k7").config);
  WcetResult r = s.result;
  r.status = Status(ErrorCode::kInternal, "not solved");
  const IpetCertificate cert = make_certificate(s.graph, r);
  EXPECT_TRUE(cert.potential.empty());
  EXPECT_NE(certificate_violation(s.graph, s.result, cert), "");
}

}  // namespace
}  // namespace ucp::wcet
