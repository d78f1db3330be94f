// bench_scaling: scaling study of the analyze→IPET→optimize pipeline on a
// fixed seeded suite of generated programs at 10×/30×/100× the Mälardalen
// scale (the default GenKnobs CFG size ≈ the paper suite's average).
//
// Every program is analyzed and solved by TWO engine pairs over the same
// inputs:
//   legacy   — global FIFO worklist fixpoint and the unreduced IPET model
//              (the reference engines of tests/reference)
//   default  — SCC-sparse fixpoint + hash-consed states + ILP presolve
// and the bench *fails* (exit 1) if they disagree on τ_mem — the scaling
// suite doubles as a differential oracle at sizes the unit suite never
// reaches. The optimizer has a single analysis path, so only the default
// arm runs it. The legacy arm builds its unreduced sparse LP inside its
// solve stage, so its build stage stays zero.
//
// Per-stage wall-clock (analyze / IPET build / solve, plus the default
// arm's optimize) and the analyze+IPET speedup land in BENCH_scaling.json.
//
//   --smoke        one small 10× program only; prints a result fingerprint
//                  (pinned by the scaling_smoke ctest) and skips the JSON
//   --json=FILE    output path (default BENCH_scaling.json)
//   --trace=FILE / --metrics=FILE / --profile   as in every bench

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "bench_common.hpp"
#include "cache/config.hpp"
#include "core/optimizer.hpp"
#include "gen/generator.hpp"
#include "ir/layout.hpp"
#include "ir/program.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reference/reference.hpp"
#include "wcet/ipet.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct StageTimes {
  double analyze_s = 0.0;
  double ipet_build_s = 0.0;
  double solve_s = 0.0;
  double optimize_s = 0.0;
  double total() const { return ipet_total() + optimize_s; }
  /// The stages both arms run: analyze, IPET build and solve.
  double ipet_total() const { return analyze_s + ipet_build_s + solve_s; }
  void add(const StageTimes& o) {
    analyze_s += o.analyze_s;
    ipet_build_s += o.ipet_build_s;
    solve_s += o.solve_s;
    optimize_s += o.optimize_s;
  }
};

struct PipelineOutcome {
  StageTimes times;
  std::uint64_t tau_mem = 0;
  std::uint64_t tau_optimized = 0;
  std::size_t insertions = 0;
  std::size_t graph_nodes = 0;
  std::size_t ilp_rows = 0;   ///< rows of the system the simplex actually saw
};

/// One program through analyze→IPET-build→solve, then (default arm only)
/// optimize. `modern` selects the production engines; legacy runs the
/// reference engines.
PipelineOutcome run_pipeline(const ucp::ir::Program& program,
                             const ucp::cache::CacheConfig& config,
                             const ucp::cache::MemTiming& timing,
                             bool modern) {
  using namespace ucp;
  PipelineOutcome out;

  Clock::time_point t = Clock::now();
  std::optional<analysis::CacheAnalysisResult> cls;
  std::optional<analysis::ContextGraph> graph;
  {
    obs::Span span("scaling.analyze");
    graph.emplace(program);
    const ir::Layout layout(program, config.block_bytes);
    cls = modern ? analysis::analyze_cache(*graph, layout, config)
                 : reference::analyze_cache_global_worklist(*graph, layout,
                                                            config);
  }
  out.times.analyze_s = seconds_since(t);
  out.graph_nodes = graph->num_nodes();

  // The legacy arm needs the system only for its unreduced model, which
  // it builds (and pays for) inside its own solve stage.
  t = Clock::now();
  std::optional<wcet::IpetSystem> ipet;
  {
    obs::Span span("scaling.ipet_build");
    ipet.emplace(*graph);
  }
  if (modern) out.times.ipet_build_s = seconds_since(t);

  t = Clock::now();
  wcet::WcetResult wcet;
  {
    obs::Span span("scaling.solve");
    wcet = modern ? ipet->solve(*cls, timing)
                  : reference::solve_unpresolved(*ipet, *cls, timing);
  }
  out.times.solve_s = seconds_since(t);
  if (!wcet.ok()) {
    std::cerr << "[bench] FATAL: IPET " << ilp::status_name(wcet.status)
              << " on '" << program.name() << "'\n";
    std::exit(1);
  }
  out.tau_mem = wcet.tau_mem;
  out.ilp_rows = modern ? ipet->lp_rows()
                        : ipet->model_with_objective(*cls, timing)
                              .num_constraints();
  if (!modern) return out;

  t = Clock::now();
  core::OptimizerOptions opt;
  // A deterministic budget that keeps the 100× tier tractable.
  opt.max_evaluations = 96;
  std::optional<core::OptimizationResult> result;
  {
    obs::Span span("scaling.optimize");
    result = core::optimize_prefetches(program, config, timing, opt,
                                       &*ipet);
  }
  out.times.optimize_s = seconds_since(t);
  out.tau_optimized = result->report.tau_optimized != 0
                          ? result->report.tau_optimized
                          : result->report.tau_original;
  out.insertions = result->report.insertions.size();
  return out;
}

struct Tier {
  const char* name;
  std::uint32_t scale;      ///< multiple of the Mälardalen-average CFG size
  std::uint32_t programs;   ///< suite size at this tier
  std::uint64_t seed_base;
};

struct TierResult {
  const Tier* tier = nullptr;
  StageTimes legacy;
  StageTimes modern;
  std::size_t graph_nodes = 0;   ///< summed over the tier's programs
  std::size_t ilp_rows_full = 0;
  std::size_t ilp_rows_reduced = 0;
  std::size_t insertions = 0;
  std::uint64_t fingerprint = 14695981039346656037ull;  ///< FNV-1a offset

  /// Over the stages both arms run (analyze, IPET build, solve).
  double speedup() const {
    return modern.ipet_total() > 0.0
               ? legacy.ipet_total() / modern.ipet_total()
               : 0.0;
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fingerprint ^= (v >> (8 * i)) & 0xffu;
      fingerprint *= 1099511628211ull;
    }
  }
};

ucp::gen::GenKnobs knobs_for(std::uint32_t scale) {
  ucp::gen::GenKnobs knobs;  // defaults ≈ 1× Mälardalen average
  knobs.target_blocks = 24 * scale;
  // Deeper nesting multiplies VIVU contexts *per block*; the tiers scale
  // the program, not the per-block context blowup, so nesting stays at the
  // suite-typical depth and the working set grows with the code footprint.
  knobs.max_loop_depth = 2;
  knobs.working_set_words = 1024;
  return knobs;
}

TierResult run_tier(const Tier& tier, const ucp::cache::CacheConfig& config,
                    const ucp::cache::MemTiming& timing) {
  using namespace ucp;
  TierResult r;
  r.tier = &tier;
  const gen::GenKnobs knobs = knobs_for(tier.scale);
  for (std::uint32_t i = 0; i < tier.programs; ++i) {
    const std::uint64_t seed = tier.seed_base + i;
    const ir::Program program = gen::generate_program(seed, knobs);

    const PipelineOutcome legacy =
        run_pipeline(program, config, timing, /*modern=*/false);
    const PipelineOutcome modern =
        run_pipeline(program, config, timing, /*modern=*/true);

    if (legacy.tau_mem != modern.tau_mem) {
      std::cerr << "[bench] FATAL: legacy/default divergence on seed " << seed
                << " (" << tier.name << "): tau " << legacy.tau_mem << "/"
                << modern.tau_mem << "\n";
      std::exit(1);
    }

    r.legacy.add(legacy.times);
    r.modern.add(modern.times);
    r.graph_nodes += modern.graph_nodes;
    r.ilp_rows_full += legacy.ilp_rows;
    r.ilp_rows_reduced += modern.ilp_rows;
    r.insertions += modern.insertions;
    r.mix(modern.tau_mem);
    r.mix(modern.tau_optimized);
    r.mix(modern.insertions);
    r.mix(modern.graph_nodes);

    std::cerr << "  [scaling] " << tier.name << " seed " << seed << ": "
              << modern.graph_nodes << " ctx nodes, rows "
              << legacy.ilp_rows << "->" << modern.ilp_rows << ", legacy "
              << legacy.times.ipet_total() << "s, default "
              << modern.times.ipet_total() << "s + optimize "
              << modern.times.optimize_s << "s\n";
  }
  return r;
}

void print_stage_row(std::ostream& os, const char* label, const StageTimes& t,
                     bool optimized) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "    %-8s analyze %8.3fs  build %8.3fs  solve %8.3fs", label,
                t.analyze_s, t.ipet_build_s, t.solve_s);
  os << buf;
  if (optimized) {
    std::snprintf(buf, sizeof buf, "  optimize %8.3fs  total %8.3fs",
                  t.optimize_s, t.total());
    os << buf;
  }
  os << "\n";
}

void write_json(const std::string& path, const std::vector<TierResult>& tiers) {
  std::ofstream os(path, std::ios::trunc);
  os.precision(6);
  os << "{\n  \"bench\": \"scaling\",\n  \"build\": "
     << ucp::obs::build_info_json() << ",\n  \"tiers\": [\n";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const TierResult& r = tiers[i];
    auto stages = [&os](const char* key, const StageTimes& t,
                        bool optimized) {
      os << "      \"" << key << "\": {\"analyze_s\": " << t.analyze_s
         << ", \"ipet_build_s\": " << t.ipet_build_s
         << ", \"solve_s\": " << t.solve_s;
      if (optimized) os << ", \"optimize_s\": " << t.optimize_s;
      os << ", \"total_s\": " << t.total() << "}";
    };
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, r.fingerprint);
    os << "    {\n      \"tier\": \"" << r.tier->name << "\",\n"
       << "      \"scale\": " << r.tier->scale << ",\n"
       << "      \"programs\": " << r.tier->programs << ",\n"
       << "      \"seed_base\": " << r.tier->seed_base << ",\n"
       << "      \"graph_nodes\": " << r.graph_nodes << ",\n"
       << "      \"ilp_rows_full\": " << r.ilp_rows_full << ",\n"
       << "      \"ilp_rows_reduced\": " << r.ilp_rows_reduced << ",\n"
       << "      \"insertions\": " << r.insertions << ",\n"
       << "      \"fingerprint\": \"" << fp << "\",\n";
    stages("legacy", r.legacy, false);
    os << ",\n";
    stages("default", r.modern, true);
    os << ",\n      \"speedup\": " << r.speedup() << "\n    }"
       << (i + 1 < tiers.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n"
     << "  \"metrics\": "
     << ucp::obs::snapshot_json(ucp::obs::registry().snapshot()) << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ucp;
  bool smoke = false;
  std::string json_path = "BENCH_scaling.json";
  std::string trace_path, metrics_path;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(8);
    } else if (a.rfind("--metrics=", 0) == 0) {
      metrics_path = a.substr(10);
    } else if (a == "--profile") {
      profile = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n"
                << "usage: " << argv[0]
                << " [--smoke] [--json=FILE] [--trace=FILE] [--metrics=FILE]"
                   " [--profile]\n";
      return 2;
    }
  }
  bench::ObsSession obs_session(trace_path, metrics_path, profile);

  // One mid-grid configuration (k ≈ 2-way, 16-byte blocks, 1 KiB) — large
  // enough that must/may ages do real work, small enough that the generated
  // working sets overflow it and misses exist to optimize.
  cache::CacheConfig config;
  config.assoc = 2;
  config.block_bytes = 16;
  config.capacity_bytes = 1024;
  const cache::MemTiming timing;

  const std::vector<Tier> tiers =
      smoke ? std::vector<Tier>{{"10x", 10, 1, 901010}}
            : std::vector<Tier>{{"10x", 10, 3, 901010},
                                {"30x", 30, 2, 903030},
                                {"100x", 100, 1, 910100}};

  std::vector<TierResult> results;
  for (const Tier& tier : tiers)
    results.push_back(run_tier(tier, config, timing));

  std::cout << "[bench] scaling suite (" << (smoke ? "smoke" : "full")
            << "), legacy = global worklist + unreduced ILP; speedup over "
               "analyze + IPET\n";
  for (const TierResult& r : results) {
    std::cout << "  " << r.tier->name << " (" << r.tier->programs
              << " programs, " << r.graph_nodes << " ctx nodes, ILP rows "
              << r.ilp_rows_full << "->" << r.ilp_rows_reduced << "):\n";
    print_stage_row(std::cout, "legacy", r.legacy, false);
    print_stage_row(std::cout, "default", r.modern, true);
    char buf[64];
    std::snprintf(buf, sizeof buf, "    speedup %.2fx\n", r.speedup());
    std::cout << buf;
  }
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, results.back().fingerprint);
  std::cout << "[bench] scaling fingerprint " << fp << "\n";

  if (!smoke) write_json(json_path, results);
  return 0;
}
