#include "fuzz/oracles.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "analysis/persistence.hpp"
#include "cache/cache_sim.hpp"
#include "ir/layout.hpp"
#include "obs/metrics.hpp"
#include "sim/interpreter.hpp"
#include "support/fault_injection.hpp"
#include "wcet/certificate.hpp"
#include "wcet/ipet.hpp"

namespace ucp::fuzz {

const char* oracle_name(Oracle oracle) {
  switch (oracle) {
    case Oracle::kNone:
      return "none";
    case Oracle::kRuntime:
      return "runtime";
    case Oracle::kSimVsIpet:
      return "sim-vs-ipet";
    case Oracle::kMustHit:
      return "must-hit";
    case Oracle::kMustMiss:
      return "must-miss";
    case Oracle::kPersistence:
      return "persistence";
    case Oracle::kTheorem1:
      return "theorem1";
    case Oracle::kCertificate:
      return "ipet-certificate";
    case Oracle::kInjected:
      return "injected";
  }
  return "unknown";
}

Oracle oracle_from_name(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(Oracle::kInjected); ++i) {
    const auto o = static_cast<Oracle>(i);
    if (name == oracle_name(o)) return o;
  }
  // The oracle's name while it compared against the sparse simplex.
  if (name == "structural-vs-sparse") return Oracle::kCertificate;
  throw InvalidArgument("unknown oracle name '" + name + "'");
}

namespace {

/// Records a failed production IPET solve on the `which` binary. The
/// engine covers every verifier-accepted program, so an internal failure
/// is a pipeline bug (kRuntime); anything else (an injected fault at the
/// solve boundary) is an explained skip.
void engine_failure(const Status& status, const char* which,
                    OracleReport& report) {
  const std::string what =
      "IPET: " + status.message() + " on the " + which + " binary";
  if (status.code() == ErrorCode::kInternal) {
    report.violation = Oracle::kRuntime;
    report.detail = what;
  } else {
    report.pipeline_ok = false;
    report.pipeline_note = what;
  }
}

/// Per-instruction trace aggregation: how often each InstrId fetch hit,
/// missed, or stalled on a late prefetch.
struct TraceCounts {
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> misses;

  explicit TraceCounts(std::size_t n) : hits(n, 0), misses(n, 0) {}
};

/// Conjunction of the abstract verdicts over every context of each
/// instruction. A concrete fetch executes in SOME context; only a property
/// that holds in all of them transfers to the trace unconditionally.
struct ContextConjunction {
  std::vector<bool> always_hit;
  std::vector<bool> always_miss;
  std::vector<bool> persistent;
  std::vector<bool> seen;  ///< instruction appears in at least one context
};

ContextConjunction conjoin_contexts(
    const analysis::ContextGraph& graph, const ir::Program& program,
    const analysis::CacheAnalysisResult& cls,
    const analysis::PersistenceResult& persistence) {
  const std::size_t n = program.num_instr_ids();
  ContextConjunction out;
  out.always_hit.assign(n, true);
  out.always_miss.assign(n, true);
  out.persistent.assign(n, true);
  out.seen.assign(n, false);
  for (analysis::NodeId node = 0; node < graph.num_nodes(); ++node) {
    const ir::BasicBlock& bb = program.block(graph.node(node).block);
    for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
      const ir::InstrId id = bb.instrs[i].id;
      const analysis::Classification c = cls.classify(node, i);
      out.seen[id] = true;
      if (c != analysis::Classification::kAlwaysHit)
        out.always_hit[id] = false;
      if (c != analysis::Classification::kAlwaysMiss)
        out.always_miss[id] = false;
      if (!persistence.persistent(node, i)) out.persistent[id] = false;
    }
  }
  return out;
}

std::string locate(const ir::Program& program, ir::InstrId id) {
  const auto loc = program.locate(id);
  std::ostringstream os;
  os << "instr#" << id << " (bb" << loc.block << " pos " << loc.index << ")";
  return os.str();
}

}  // namespace

OracleReport check_program(const ir::Program& program,
                           const OracleOptions& options) {
  OracleReport report;

  if (UCP_FAULT_POINT("fuzz.oracle")) {
    report.violation = Oracle::kInjected;
    report.detail = "injected oracle violation on '" + program.name() + "'";
    return report;
  }

  const ir::Layout layout(program, options.config.block_bytes);

  // --- concrete execution with a per-instruction hit/miss trace -----------
  TraceCounts trace(program.num_instr_ids());
  {
    cache::CacheSim cache(options.config, options.timing);
    sim::Interpreter interp(program, layout, cache);
    interp.set_trace_hook([&trace](const ir::Instruction& in, std::uint32_t,
                                   const cache::FetchResult& fetch) {
      if (fetch.kind == cache::FetchKind::kHit)
        ++trace.hits[in.id];
      else
        ++trace.misses[in.id];
    });
    Expected<sim::RunMetrics> run =
        Status(ErrorCode::kInternal, "unreached");
    try {
      run = interp.try_run();
    } catch (const std::exception& e) {
      // Generated programs are runtime-clean by construction; any throw
      // (division by zero, data out of bounds) is a generator soundness bug
      // worth shrinking, not an explained skip.
      report.violation = Oracle::kRuntime;
      report.detail = std::string("interpreter threw: ") + e.what();
      return report;
    }
    if (!run.ok()) {
      if (run.code() == ErrorCode::kLoopBoundViolated) {
        // The analyses trust declared bounds; a contradicted bound on a
        // generated program means the generator emitted an unsound flow
        // fact — a real bug, not a resource limitation.
        report.violation = Oracle::kRuntime;
        report.detail = "loop bound contradicted: " + run.status().detail();
        return report;
      }
      report.pipeline_ok = false;
      report.pipeline_note = "simulation: " + run.status().detail();
      return report;
    }
    report.sim_mem_cycles = run.value().mem_cycles;
    report.instructions = run.value().instructions;
  }

  // --- abstract analyses + IPET -------------------------------------------
  const analysis::ContextGraph graph(program);
  const wcet::IpetSystem ipet(graph);
  const analysis::CacheAnalysisResult cls =
      analysis::analyze_cache(graph, layout, options.config);
  const wcet::WcetResult wcet = ipet.solve(cls, options.timing);
  if (!wcet.ok()) {
    engine_failure(wcet.status, "input", report);
    return report;
  }
  report.tau_original = wcet.tau_mem;

  static obs::Counter& checks_counter =
      obs::registry().counter("fuzz.oracle.checks");

  // Oracle 1: the concrete run is one admissible execution, so its memory
  // cycles can never exceed the worst case (prefetch-free binary only).
  ++report.checks_run;
  if (obs::enabled()) checks_counter.increment();
  if (report.sim_mem_cycles > report.tau_original) {
    report.violation = Oracle::kSimVsIpet;
    report.detail = "simulated memory cycles " +
                    std::to_string(report.sim_mem_cycles) +
                    " exceed tau_w " + std::to_string(report.tau_original);
    return report;
  }

  // Oracle 2: classification vs trace, conjoined over contexts.
  ++report.checks_run;
  if (obs::enabled()) checks_counter.increment();
  const analysis::PersistenceResult persistence =
      analysis::analyze_persistence(graph, program, layout, options.config);
  const ContextConjunction conj =
      conjoin_contexts(graph, program, cls, persistence);
  for (ir::InstrId id = 0; id < program.num_instr_ids(); ++id) {
    if (!conj.seen[id]) continue;
    if (conj.always_hit[id] && trace.misses[id] > 0) {
      report.violation = Oracle::kMustHit;
      report.detail = "always-hit " + locate(program, id) + " missed " +
                      std::to_string(trace.misses[id]) + " time(s)";
      return report;
    }
    if (conj.always_miss[id] && trace.hits[id] > 0) {
      report.violation = Oracle::kMustMiss;
      report.detail = "always-miss " + locate(program, id) + " hit " +
                      std::to_string(trace.hits[id]) + " time(s)";
      return report;
    }
    if (conj.persistent[id] && trace.misses[id] > 1) {
      report.violation = Oracle::kPersistence;
      report.detail = "persistent " + locate(program, id) + " missed " +
                      std::to_string(trace.misses[id]) + " times";
      return report;
    }
  }

  // Oracle 3: Theorem 1 over an independent re-analysis of the optimizer's
  // output. Prefetch insertion never changes the CFG, so the input's
  // context graph and constraint system still describe the output; only
  // the layout-dependent objective changes.
  analysis::CacheAnalysisResult opt_cls;
  bool have_opt_cls = false;
  wcet::WcetResult opt_wcet;
  std::optional<core::OptimizationResult> maybe_opt;
  try {
    maybe_opt = core::optimize_prefetches(program, options.config,
                                          options.timing, options.optimizer,
                                          &ipet);
  } catch (const std::exception& e) {
    report.violation = Oracle::kRuntime;
    report.detail = std::string("optimizer threw: ") + e.what();
    return report;
  }
  const core::OptimizationResult& opt = *maybe_opt;
  if (opt.report.code != ErrorCode::kOk) {
    // Identity degradation (budget exhaustion inside the optimizer) is
    // Theorem-1 sound by definition; nothing further to compare.
    report.pipeline_note = "optimizer degraded: " + opt.report.detail;
    report.tau_optimized = report.tau_original;
  } else {
    ++report.checks_run;
    if (obs::enabled()) checks_counter.increment();
    report.prefetches = opt.report.insertions.size();
    const ir::Layout opt_layout(opt.program, options.config.block_bytes);
    opt_cls = analysis::analyze_cache(graph, opt.program, opt_layout,
                                      options.config);
    have_opt_cls = true;
    opt_wcet = ipet.solve(opt_cls, options.timing);
    if (!opt_wcet.ok()) {
      engine_failure(opt_wcet.status, "optimized", report);
      return report;
    }
    report.tau_optimized = opt_wcet.tau_mem;
    if (report.tau_optimized > report.tau_original) {
      report.violation = Oracle::kTheorem1;
      report.detail = "optimized tau_w " +
                      std::to_string(report.tau_optimized) +
                      " > original " + std::to_string(report.tau_original);
      return report;
    }
    if (opt.report.tau_optimized != report.tau_optimized) {
      report.violation = Oracle::kTheorem1;
      report.detail = "optimizer-reported tau_w " +
                      std::to_string(opt.report.tau_optimized) +
                      " disagrees with independent re-analysis " +
                      std::to_string(report.tau_optimized);
      return report;
    }
  }

  // Oracle 4: the structural engine's τ_w and counts must come with an
  // optimality certificate for the Li/Malik IPET — on the optimized
  // classification when one exists, else on the input's.
  ++report.checks_run;
  if (obs::enabled()) checks_counter.increment();
  const wcet::WcetResult& solved = have_opt_cls ? opt_wcet : wcet;
  if (const std::string unproved = wcet::certificate_violation(
          graph, solved, wcet::make_certificate(graph, solved));
      !unproved.empty()) {
    report.violation = Oracle::kCertificate;
    report.detail = "structural tau_w " + std::to_string(solved.tau_mem) +
                    " is not certified optimal: " + unproved;
    return report;
  }

  return report;
}

}  // namespace ucp::fuzz
