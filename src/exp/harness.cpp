#include "exp/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string_view>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "exp/journal.hpp"
#include "ir/layout.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "suite/suite.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"
#include "support/fault_injection.hpp"
#include "support/parallel.hpp"
#include "support/record_log.hpp"
#include "wcet/certificate.hpp"
#include "wcet/ipet.hpp"

namespace ucp::exp {

namespace {

// A zero denominator yields the neutral 1.0; the UseCaseResult degenerate
// flags surface the condition so aggregates count it instead of hiding it.
double ratio(double num, double den) { return den == 0.0 ? 1.0 : num / den; }

}  // namespace

const char* case_outcome_name(CaseOutcome outcome) {
  switch (outcome) {
    case CaseOutcome::kCompleted:
      return "completed";
    case CaseOutcome::kDegraded:
      return "degraded";
    case CaseOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

namespace {

/// The timing-free half of a measurement: one binary's code size and its
/// must/may analysis on one cache configuration.
struct Analysed {
  std::uint32_t code_bytes = 0;
  analysis::CacheAnalysisResult cls;
};

/// `graph` may have been built from the input of an optimization whose
/// output is `program` (prefetch insertion never alters the CFG), so the
/// analysis reads `program`, not the graph's own.
Expected<Analysed> analyse_binary(const ir::Program& program,
                                  const cache::CacheConfig& config,
                                  const analysis::ContextGraph& graph) {
  if (UCP_FAULT_POINT("exp.measure")) {
    return Status(ErrorCode::kFaultInjected,
                  "injected measurement failure for '" + program.name() +
                      "'");
  }
  const ir::Layout layout(program, config.block_bytes);
  return Analysed{layout.code_bytes(),
                  analysis::analyze_cache(graph, program, layout, config)};
}

/// The per-timing half: τ_w by IPET over the analysis, then the trace
/// simulation and its energy. With an IPET system only the
/// classification-dependent objective is solved. `wcet_out`, when given,
/// receives the IPET solution of a successful measurement.
Expected<Metrics> price_binary(const ir::Program& program,
                               const Analysed& analysed,
                               const cache::CacheConfig& config,
                               const cache::MemTiming& timing,
                               energy::TechNode tech,
                               const analysis::ContextGraph& graph,
                               const wcet::IpetSystem* ipet,
                               wcet::WcetResult* wcet_out = nullptr) {
  Metrics m;
  m.code_bytes = analysed.code_bytes;
  wcet::WcetResult wcet = ipet ? ipet->solve(analysed.cls, timing)
                               : wcet::compute_wcet(graph, analysed.cls, timing);
  if (!wcet.ok()) {
    return Status(wcet.status.code(),
                  "IPET failed (" + wcet.status.detail() + ") for program '" +
                      program.name() + "'");
  }
  m.tau_wcet = wcet.tau_mem;
  Expected<sim::RunMetrics> run =
      sim::run_program_checked(program, graph.loops(), config, timing);
  if (!run.ok()) return run.status();
  m.run = std::move(run).value();
  m.energy = energy::memory_energy(m.run, config, tech);
  if (wcet_out) *wcet_out = std::move(wcet);
  return m;
}

}  // namespace

Expected<Metrics> measure_checked(const ir::Program& program,
                                  const cache::CacheConfig& config,
                                  energy::TechNode tech,
                                  const wcet::IpetSystem* shared_ipet) {
  // With a shared system the context graph and IPET constraint matrix come
  // prebuilt (they depend only on the CFG, not the configuration or the
  // prefetches).
  std::optional<analysis::ContextGraph> own_graph;
  if (!shared_ipet) own_graph.emplace(program);
  const analysis::ContextGraph& graph =
      shared_ipet ? shared_ipet->graph() : *own_graph;
  const Expected<Analysed> analysed = analyse_binary(program, config, graph);
  if (!analysed.ok()) return analysed.status();
  return price_binary(program, *analysed, config,
                      energy::derive_timing(config, tech), tech, graph,
                      shared_ipet);
}

Metrics measure(const ir::Program& program, const cache::CacheConfig& config,
                energy::TechNode tech) {
  Expected<Metrics> m = measure_checked(program, config, tech);
  UCP_CHECK_MSG(m.ok(), "measure failed — " + m.status().message());
  return std::move(m).value();
}

double UseCaseResult::wcet_ratio() const {
  return ratio(static_cast<double>(optimized.tau_wcet),
               static_cast<double>(original.tau_wcet));
}

double UseCaseResult::acet_ratio() const {
  return ratio(static_cast<double>(optimized.run.mem_cycles),
               static_cast<double>(original.run.mem_cycles));
}

double UseCaseResult::energy_ratio() const {
  return ratio(optimized.energy.total_nj(), original.energy.total_nj());
}

double UseCaseResult::instr_ratio() const {
  return ratio(static_cast<double>(optimized.run.instructions),
               static_cast<double>(original.run.instructions));
}

namespace {

/// Quarantines `result` as degraded: the shipped binary is the original, so
/// the optimized metrics mirror the original ones (wcet_ratio() == 1) and
/// the optimization report is reset to "no insertions".
void degrade_to_original(UseCaseResult& result, const std::string& stage,
                         ErrorCode code, const std::string& detail) {
  result.outcome = CaseOutcome::kDegraded;
  result.fail_stage = stage;
  result.fail_code = code;
  result.fail_detail = detail;
  result.optimized = result.original;
  result.report = core::OptimizationReport{};
  result.report.code = code;
  result.report.detail = detail;
  result.report.tau_original = result.original.tau_wcet;
  result.report.tau_optimized = result.original.tau_wcet;
  result.report.tau_fixed_final = result.original.tau_wcet;
}

/// Work done once for a lane — the optimizer's trials shared with other
/// lanes — is credited to the lead member only, so sums over rows equal the
/// work done. The decision counters stay per row.
void credit_to_lead_only(core::OptimizationReport& report) {
  report.incremental_reanalyses = 0;
  report.nodes_reanalyzed = 0;
  report.reanalysis_ns = 0;
  report.lanes = 0;
  report.forks = 0;
  report.shared_trials = 0;
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// One row per tech for a (program, configuration) group, identified but
/// unmeasured; a `code` other than kOk marks them failed at `stage`.
std::vector<UseCaseResult> case_rows(const std::string& program_name,
                                     const cache::NamedCacheConfig& config,
                                     const std::vector<energy::TechNode>& techs,
                                     ErrorCode code = ErrorCode::kOk,
                                     const std::string& stage = {},
                                     const std::string& detail = {}) {
  std::vector<UseCaseResult> rows(techs.size());
  for (std::size_t k = 0; k < techs.size(); ++k) {
    UseCaseResult& r = rows[k];
    r.program = program_name;
    r.config_id = config.id;
    r.config = config.config;
    r.tech = techs[k];
    if (code == ErrorCode::kOk) continue;
    r.outcome = CaseOutcome::kFailed;
    r.fail_code = code;
    r.fail_stage = stage;
    r.fail_detail = detail;
    r.degradation_level = 3;
  }
  return rows;
}

/// Failure classes worth another rung of the retry ladder (budgets,
/// cancellation, contained internal errors; semantic verdicts are
/// deterministic, so retrying cannot change them).
bool retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIterationLimit:
    case ErrorCode::kStepBudgetExhausted:
    case ErrorCode::kCancelled:
    case ErrorCode::kAnalysisFailed:
    case ErrorCode::kInternal:
      return true;
    default:
      return false;
  }
}

/// The registry snapshot a sweep journal carries as its `# metrics`
/// annotation, without the wall-clock series (names ending in _ms, _us or
/// _ns). What is left is fixed by the sweep's inputs, so two runs of one
/// sweep write byte-identical journals at any thread count.
obs::Snapshot journal_metrics(const obs::Registry& registry) {
  auto wall_clock = [](std::string_view name) {
    return name.ends_with("_ms") || name.ends_with("_us") ||
           name.ends_with("_ns");
  };
  obs::Snapshot snapshot = registry.snapshot();
  std::erase_if(snapshot.counters,
                [&](const auto& c) { return wall_clock(c.first); });
  std::erase_if(snapshot.gauges,
                [&](const auto& g) { return wall_clock(g.first); });
  std::erase_if(snapshot.histograms,
                [&](const auto& h) { return wall_clock(h.name); });
  return snapshot;
}

/// Ladder order of outcomes: completed (2) > degraded (1) > failed (0).
int outcome_rank(const UseCaseResult& r) {
  return r.outcome == CaseOutcome::kCompleted
             ? 2
             : (r.outcome == CaseOutcome::kDegraded ? 1 : 0);
}

}  // namespace

std::vector<UseCaseResult> run_use_case_group(
    const ir::Program& program, const std::string& program_name,
    const cache::NamedCacheConfig& config,
    const std::vector<energy::TechNode>& techs,
    const core::OptimizerOptions& options, StageTimings* stage_timings,
    const wcet::IpetSystem* shared_ipet, bool audit_soundness,
    std::vector<ir::Program>* row_programs) {
  // Identity transform until a row completes: every early-out path below
  // (failed baseline, rejected optimization, audit demotion) vouches for
  // the input program, which is trivially Theorem-1 sound.
  if (row_programs) row_programs->assign(techs.size(), program);
  std::vector<UseCaseResult> out = case_rows(program_name, config, techs);
  if (techs.empty()) return out;

  if (UCP_FAULT_POINT("exp.task")) {
    throw InternalError("injected failure at the sweep task boundary for '" +
                        program_name + "'");
  }
  // One pool for the task: the fixpoints of both binaries and the
  // optimizer's trials recycle each other's state storage, and none of it
  // outlives the call (a ucpd request solves through here too).
  analysis::StatePool state_pool;

  // One context graph and IPET system serve both binaries, the optimizer
  // and the auditor: prefetch insertion never alters the CFG. A caller
  // without a shared system gets one built here.
  std::optional<ProgramSystem> own_system;
  if (!shared_ipet) {
    own_system.emplace(program);
    shared_ipet = &own_system->ipet;
  }

  // One lane per distinct derived memory timing. Every quantity except the
  // energy pricing depends on the tech node only through the timing, so
  // the members of a lane share one pricing, optimization and simulation
  // verbatim; the lanes themselves share the timing-free cache analyses
  // and, inside the optimizer, every trial they decide alike on.
  std::vector<cache::MemTiming> timings;
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < techs.size(); ++i) {
    const cache::MemTiming t = energy::derive_timing(config.config, techs[i]);
    const auto lane = static_cast<std::size_t>(
        std::find(timings.begin(), timings.end(), t) - timings.begin());
    if (lane == timings.size()) {
      timings.push_back(t);
      members.emplace_back();
    }
    members[lane].push_back(i);
  }
  const analysis::ContextGraph& graph = shared_ipet->graph();

  // The input is analysed once and priced per lane. The baseline hands that
  // analysis and each lane's IPET solution and run to the optimizer, so the
  // input is analysed and simulated once per timing at most.
  core::InputBaseline baseline;
  std::vector<std::size_t> live;  // lanes whose input measured
  std::vector<Metrics> original(timings.size());
  {
    const auto stage_start = std::chrono::steady_clock::now();
    obs::Span span("exp.case.measure");
    Expected<Analysed> input = analyse_binary(program, config.config, graph);
    for (std::size_t l = 0; l < timings.size(); ++l) {
      wcet::WcetResult wcet;
      Expected<Metrics> m =
          input.ok() ? price_binary(program, *input, config.config,
                                    timings[l], techs[members[l].front()],
                                    graph, shared_ipet, &wcet)
                     : Expected<Metrics>(input.status());
      if (!m.ok()) {
        for (std::size_t i : members[l]) {
          out[i].outcome = CaseOutcome::kFailed;
          out[i].fail_stage = "measure_original";
          out[i].fail_code = m.code();
          out[i].fail_detail = m.status().detail();
        }
        continue;
      }
      original[l] = std::move(m).value();
      baseline.wcet.push_back(std::move(wcet));
      baseline.run.push_back(original[l].run);
      live.push_back(l);
    }
    if (input.ok()) baseline.analysis = std::move(input->cls);
    if (stage_timings) stage_timings->measure_ns += ns_since(stage_start);
  }
  for (std::size_t l : live) {
    for (std::size_t i : members[l]) {
      out[i].original = original[l];
      out[i].original.energy =
          energy::memory_energy(out[i].original.run, config.config, techs[i]);
    }
  }
  if (live.empty()) return out;

  std::vector<cache::MemTiming> live_timings;
  for (std::size_t l : live) live_timings.push_back(timings[l]);
  auto stage_start = std::chrono::steady_clock::now();
  const std::vector<core::OptimizationResult> opt = [&] {
    obs::Span span("exp.case.optimize");
    return core::optimize_prefetches(program, config.config, live_timings,
                                     options, shared_ipet, &baseline);
  }();
  if (stage_timings) stage_timings->optimize_ns += ns_since(stage_start);

  // Analyses of the distinct optimized programs: lanes that stayed joined
  // in the optimizer ship the same program, which is analysed once.
  std::vector<std::pair<const ir::Program*, Expected<Analysed>>> outputs;
  outputs.reserve(live.size());
  for (std::size_t j = 0; j < live.size(); ++j) {
    const std::vector<std::size_t>& lane_members = members[live[j]];
    const cache::MemTiming& timing = live_timings[j];
    const core::OptimizationResult& result = opt[j];
    if (result.report.code != ErrorCode::kOk) {
      for (std::size_t i : lane_members)
        degrade_to_original(out[i], "optimize", result.report.code,
                            result.report.detail);
      continue;
    }

    // Without insertions the optimized binary is the input, so its metrics
    // mirror the original ones (re-priced per member, as in
    // degrade_to_original). An optimized binary is measured
    // afresh (fixpoint, IPET solve and run), so nothing the optimizer
    // computed vouches for it; the auditor reuses that fresh fixpoint.
    const bool unchanged = result.report.insertions.empty();
    Expected<Metrics> optimized = original[live[j]];
    const Analysed* fresh = nullptr;
    wcet::WcetResult fresh_wcet;
    if (!unchanged) {
      stage_start = std::chrono::steady_clock::now();
      obs::Span span("exp.case.measure");
      auto same = std::find_if(outputs.begin(), outputs.end(),
                               [&](const auto& o) {
                                 return o.first->blocks() ==
                                        result.program.blocks();
                               });
      if (same == outputs.end()) {
        outputs.emplace_back(
            &result.program,
            analyse_binary(result.program, config.config, graph));
        same = outputs.end() - 1;
      }
      if (same->second.ok()) {
        fresh = &*same->second;
        optimized = price_binary(result.program, *fresh, config.config,
                                 timing, techs[lane_members.front()], graph,
                                 shared_ipet, &fresh_wcet);
      } else {
        optimized = same->second.status();
      }
      if (stage_timings) stage_timings->measure_ns += ns_since(stage_start);
    }
    for (std::size_t i : lane_members) {
      out[i].report = result.report;
      if (i != lane_members.front()) credit_to_lead_only(out[i].report);
      if (!optimized.ok()) {
        degrade_to_original(out[i], "measure_optimized", optimized.code(),
                            optimized.status().detail());
        continue;
      }
      out[i].optimized = optimized.value();
      out[i].optimized.energy = energy::memory_energy(
          out[i].optimized.run, config.config, techs[i]);
    }

    // --- soundness auditor ------------------------------------------------
    // Every accepted optimization is re-checked over an independent path:
    // Theorem 1 and the sim-vs-IPET bound are free; when prefetches were
    // actually inserted, the optimized measurement's τ_w (an IPET solve on
    // a fresh cache analysis, which shares nothing with the optimizer's
    // incremental state) must come with an optimality certificate
    // (wcet::certificate_violation: feasible counts plus a dual solution
    // of the Li/Malik LP, checked in exact arithmetic without a solver and
    // without IpetSystem's collapse). A contradiction demotes the case to
    // quarantined (kAuditFailed): the sweep reports it and carries on. None
    // of this touches the row's metrics, so audited rows stay bit-identical.
    if (audit_soundness && optimized.ok()) {
      stage_start = std::chrono::steady_clock::now();
      obs::Span span("exp.case.audit");
      AuditRecord audit;
      audit.performed = true;
      const Metrics& orig = original[live[j]];
      const Metrics& opti = optimized.value();
      if (UCP_FAULT_POINT("audit.mismatch")) {
        audit.violated = true;
        audit.detail = "injected audit mismatch on '" + program_name + "'";
      } else if (opti.tau_wcet > orig.tau_wcet) {
        audit.violated = true;
        audit.detail = "Theorem 1 violated: optimized tau_w " +
                       std::to_string(opti.tau_wcet) + " > original " +
                       std::to_string(orig.tau_wcet);
      } else if (orig.run.mem_cycles > orig.tau_wcet) {
        // Sim-vs-IPET holds only for the prefetch-free original binary:
        // there, the simulator's mem_cycles and tau_w measure the same
        // quantity, so one concrete run above the bound disproves it. The
        // optimized binary's mem_cycles also count prefetch-issue traffic
        // that tau_w excludes by definition (prefetches fill slack), so
        // the raw comparison is not a soundness predicate on that side —
        // the optimized binary is checked via Theorem 1 and the
        // certificate below instead.
        audit.violated = true;
        audit.detail =
            "simulated memory cycles exceed the IPET bound on the original "
            "binary (" +
            std::to_string(orig.run.mem_cycles) + " > " +
            std::to_string(orig.tau_wcet) + ")";
      } else if (fresh) {
        // Prefetch insertion never alters the CFG, so the input program's
        // context graph still describes the optimized program; only the
        // node weights change, and they are priced per timing.
        const std::string unproved = [&] {
          obs::Span certify_span("exp.audit.certify");
          return wcet::certificate_violation(
              graph, fresh_wcet, wcet::make_certificate(graph, fresh_wcet));
        }();
        if (!unproved.empty()) {
          audit.violated = true;
          audit.detail = "optimized tau_w " + std::to_string(opti.tau_wcet) +
                         " is not certified optimal: " + unproved;
        } else {
          audit.tau_audit = fresh_wcet.tau_mem;
          if (obs::enabled()) {
            static obs::Counter& c_certified =
                obs::registry().counter("exp.audit.certified");
            c_certified.add(lane_members.size());
          }
        }
      }
      if (stage_timings) stage_timings->audit_ns += ns_since(stage_start);
      for (std::size_t i : lane_members) {
        out[i].audit = audit;
        if (audit.violated)
          degrade_to_original(out[i], "audit", ErrorCode::kAuditFailed,
                              audit.detail);
      }
    }

    if (row_programs)
      for (std::size_t i : lane_members)
        if (out[i].outcome == CaseOutcome::kCompleted)
          (*row_programs)[i] = result.program;
  }
  return out;
}

std::vector<UseCaseResult> run_use_case_group(
    const ir::Program& program, const std::string& program_name,
    const cache::NamedCacheConfig& config,
    const std::vector<energy::TechNode>& techs,
    const core::OptimizerOptions& options, StageTimings* stage_timings,
    const wcet::IpetSystem* shared_ipet, bool audit_soundness,
    ir::Program* optimized_out) {
  std::vector<ir::Program> programs;
  std::vector<UseCaseResult> rows = run_use_case_group(
      program, program_name, config, techs, options, stage_timings,
      shared_ipet, audit_soundness, optimized_out ? &programs : nullptr);
  if (optimized_out)
    *optimized_out = programs.empty() ? program : std::move(programs.front());
  return rows;
}

UseCaseResult run_use_case(const ir::Program& program,
                           const std::string& program_name,
                           const cache::NamedCacheConfig& config,
                           energy::TechNode tech) {
  return run_use_case_group(program, program_name, config, {tech}).front();
}

// ---------------------------------------------------------------------------
// Result rows and fingerprints.
// ---------------------------------------------------------------------------

std::string sweep_cache_row(const UseCaseResult& r) {
  std::ostringstream row;
  row.precision(12);
  row << r.program << ',' << r.config_id << ','
      << energy::tech_name(r.tech) << ',' << r.original.tau_wcet << ','
      << r.original.run.mem_cycles << ',' << r.original.run.instructions
      << ',' << r.original.energy.total_nj() << ','
      << r.original.run.cache.fetches << ',' << r.original.run.cache.misses
      << ',' << r.original.run.total_cycles << ',' << r.optimized.tau_wcet
      << ',' << r.optimized.run.mem_cycles << ','
      << r.optimized.run.instructions << ','
      << r.optimized.energy.total_nj() << ','
      << r.optimized.run.cache.fetches << ','
      << r.optimized.run.cache.misses << ','
      << r.optimized.run.total_cycles << ','
      << r.report.insertions.size() << ',' << r.report.candidates_found;
  return support::seal_record(row.str());
}

std::string sweep_results_fingerprint(
    const std::vector<UseCaseResult>& results) {
  std::uint64_t h = support::fnv1a("ucp-sweep-rows");
  for (const UseCaseResult& r : results)
    h = support::fnv1a(sweep_cache_row(r), h);
  return support::to_hex(h);
}

std::string sweep_grid_fingerprint() {
  using support::fnv1a;
  std::uint64_t h = fnv1a("ucp-sweep-grid");
  // "v2" was the format version of the removed sweep memo. It stays in the
  // hash so journals written before the memo was removed still resume.
  h = fnv1a("v2", h);
  for (const suite::BenchmarkInfo& info : suite::all_benchmarks())
    h = fnv1a(info.name, h);
  for (const cache::NamedCacheConfig& named : cache::paper_cache_configs()) {
    h = fnv1a(named.id, h);
    h = fnv1a(named.config.to_string(), h);
  }
  h = fnv1a("45nm,32nm", h);
  return support::to_hex(h);
}

// ---------------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------------

void SweepReport::print(std::ostream& os) const {
  os << "[sweep health] " << total << " use cases: " << completed
     << " completed, " << degraded << " degraded, " << failed << " failed, "
     << degenerate_ratios << " degenerate ratios"
     << (interrupted ? " (INTERRUPTED)" : "") << "\n";
  if (retried + recovered + resumed_rows + audited > 0)
    os << "[sweep supervision] " << audited << " audited ("
       << audit_violations << " violations), " << retried << " retried, "
       << recovered << " recovered, " << resumed_rows
       << " rows resumed from journal\n";
  if (!journal_note.empty()) os << "  [journal] " << journal_note << "\n";
  constexpr std::size_t kMaxListed = 8;
  for (std::size_t i = 0; i < quarantine.size() && i < kMaxListed; ++i) {
    const DegradedCase& q = quarantine[i];
    os << "  quarantined: " << q.program << "/" << q.config_id << "/"
       << energy::tech_name(q.tech) << " " << case_outcome_name(q.outcome)
       << " at " << q.stage << " (" << error_code_name(q.code) << ")"
       << (q.detail.empty() ? "" : " — " + q.detail) << "\n";
  }
  if (quarantine.size() > kMaxListed)
    os << "  ... and " << quarantine.size() - kMaxListed
       << " more quarantined cases\n";
}

namespace {
// Lock-free, so a SIGINT/SIGTERM handler may flip it directly.
std::atomic<bool> g_sweep_interrupt{false};
}  // namespace

void request_sweep_interrupt() {
  g_sweep_interrupt.store(true, std::memory_order_relaxed);
}
bool sweep_interrupt_requested() {
  return g_sweep_interrupt.load(std::memory_order_relaxed);
}
void clear_sweep_interrupt() {
  g_sweep_interrupt.store(false, std::memory_order_relaxed);
}

void publish_sweep_metrics(const Sweep& sweep) {
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::registry();
  auto add = [&](const char* name, std::uint64_t value) {
    reg.counter(name).add(value);
  };

  add("exp.sweep.cases", sweep.report.total);
  add("exp.sweep.completed", sweep.report.completed);
  add("exp.sweep.degraded", sweep.report.degraded);
  add("exp.sweep.failed", sweep.report.failed);
  add("exp.sweep.degenerate_ratios", sweep.report.degenerate_ratios);
  add("exp.sweep.retried", sweep.report.retried);
  add("exp.sweep.recovered", sweep.report.recovered);
  add("exp.sweep.resumed_rows", sweep.report.resumed_rows);
  add("exp.sweep.audited", sweep.report.audited);
  add("exp.sweep.audit_violations", sweep.report.audit_violations);

  std::uint64_t attempts = 0, insertions = 0, cand_found = 0, cand_eval = 0;
  std::uint64_t passes = 0, incr_re = 0, nodes_re = 0;
  for (const UseCaseResult& r : sweep.results) {
    attempts += r.attempts;
    insertions += r.report.insertions.size();
    cand_found += r.report.candidates_found;
    cand_eval += r.report.candidates_evaluated;
    passes += r.report.passes;
    incr_re += r.report.incremental_reanalyses;
    nodes_re += r.report.nodes_reanalyzed;
  }
  add("exp.sweep.attempts", attempts);
  add("exp.sweep.insertions", insertions);
  add("exp.sweep.candidates_found", cand_found);
  add("exp.sweep.candidates_evaluated", cand_eval);
  add("exp.sweep.optimizer_passes", passes);
  add("exp.sweep.incremental_reanalyses", incr_re);
  add("exp.sweep.nodes_reanalyzed", nodes_re);
}

std::vector<UseCaseResult> solve_case(
    const ir::Program& program, const std::string& program_name,
    const cache::NamedCacheConfig& config,
    const std::vector<energy::TechNode>& techs,
    const core::OptimizerOptions& options, StageTimings* timings,
    const wcet::IpetSystem* shared_ipet, bool audit_soundness,
    std::vector<ir::Program>* row_programs, std::uint32_t max_attempts,
    std::uint32_t deadline_ms, Watchdog::Slot& slot) {
  // One rung with every exception contained, CancelledError from the deep
  // kernels included, so one pathological case can never terminate a
  // sweep or the daemon. `deadline_scale` 0 runs the rung unsupervised.
  auto attempt = [&](const core::OptimizerOptions& rung_options,
                     std::int64_t deadline_scale,
                     std::vector<ir::Program>* programs_out) {
    const bool supervised = deadline_scale > 0;
    slot.token.reset();
    // Deterministic watchdog fault: the supervisor "cancels" the rung the
    // moment it registers, exercising cancel -> quarantine -> retry
    // without any timing dependence.
    if (supervised && UCP_FAULT_POINT("supervisor.cancel")) slot.token.cancel();
    CancelScope scope(supervised ? &slot.token : nullptr);
    if (supervised) slot.arm(std::int64_t{deadline_ms} * deadline_scale);
    std::vector<UseCaseResult> rows;
    try {
      rows = run_use_case_group(program, program_name, config, techs,
                                rung_options, timings, shared_ipet,
                                audit_soundness, programs_out);
    } catch (const CancelledError& e) {
      rows = case_rows(program_name, config, techs, ErrorCode::kCancelled,
                       "cancelled", e.what());
    } catch (const std::exception& e) {
      rows = case_rows(program_name, config, techs, ErrorCode::kInternal,
                       "task", e.what());
    } catch (...) {
      rows = case_rows(program_name, config, techs, ErrorCode::kInternal,
                       "task", "non-standard exception");
    }
    if (supervised) slot.disarm();
    return rows;
  };
  auto wants_retry = [](const UseCaseResult& r) {
    return r.quarantined() && retryable(r.fail_code);
  };
  auto any_wants_retry = [&](const std::vector<UseCaseResult>& rows) {
    return std::any_of(rows.begin(), rows.end(), wants_retry);
  };

  std::vector<UseCaseResult> rows = attempt(options, 1, row_programs);
  std::uint32_t attempts = 1;
  if (max_attempts >= 2 && any_wants_retry(rows)) {
    ++attempts;
    core::OptimizerOptions escalated = options;
    escalated.max_evaluations *= 2;
    std::vector<ir::Program> retry_programs;
    std::vector<UseCaseResult> retry =
        attempt(escalated, 4, row_programs ? &retry_programs : nullptr);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (!wants_retry(rows[k]) ||
          outcome_rank(retry[k]) <= outcome_rank(rows[k]))
        continue;
      rows[k] = std::move(retry[k]);
      if (rows[k].outcome == CaseOutcome::kCompleted) {
        rows[k].degradation_level = 1;
        if (row_programs) (*row_programs)[k] = std::move(retry_programs[k]);
      }
    }
  }
  if (max_attempts >= 3 && any_wants_retry(rows)) {
    ++attempts;
    core::OptimizerOptions identity = options;
    identity.max_passes = 0;  // ship the input program
    std::vector<UseCaseResult> fallback = attempt(identity, 0, nullptr);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (!wants_retry(rows[k])) continue;
      if (fallback[k].outcome == CaseOutcome::kCompleted) {
        UseCaseResult repaired = std::move(fallback[k]);
        degrade_to_original(
            repaired, rows[k].fail_stage, rows[k].fail_code,
            rows[k].fail_detail + " (identity-transform fallback)");
        rows[k] = std::move(repaired);
      } else if (outcome_rank(fallback[k]) > outcome_rank(rows[k])) {
        rows[k] = std::move(fallback[k]);
      }
    }
  }

  for (UseCaseResult& r : rows) {
    r.attempts = attempts;
    if (r.outcome == CaseOutcome::kDegraded)
      r.degradation_level = 2;
    else if (r.outcome == CaseOutcome::kFailed)
      r.degradation_level = 3;
  }
  // A row that did not complete ships the input (identity transform),
  // whichever rung produced it, one that threw included.
  if (row_programs) {
    row_programs->resize(rows.size(), program);
    for (std::size_t k = 0; k < rows.size(); ++k)
      if (rows[k].outcome != CaseOutcome::kCompleted)
        (*row_programs)[k] = program;
  }
  return rows;
}

std::shared_ptr<const ProgramSystem> make_program_system(
    const ir::Program& program) {
  try {
    return std::make_shared<const ProgramSystem>(program);
  } catch (...) {
    return nullptr;
  }
}

SweepPlan build_sweep_plan(const SweepOptions& options) {
  SweepPlan plan;
  plan.names = options.programs;
  if (plan.names.empty()) {
    for (const suite::BenchmarkInfo& info : suite::all_benchmarks())
      plan.names.push_back(info.name);
  }

  // Build every program once; a sweep re-measures each against 36 configs,
  // and the builders are deterministic, so the 36 rebuilds were pure waste.
  // A builder failure marks all of that program's cases failed (same rows
  // the per-case task boundary used to produce).
  plan.build_errors.assign(plan.names.size(), std::string());
  std::vector<std::uint64_t> instr_count(plan.names.size(), 1);
  plan.programs.reserve(plan.names.size());
  for (std::size_t i = 0; i < plan.names.size(); ++i) {
    try {
      plan.programs.push_back(suite::build_benchmark(plan.names[i]));
      std::uint64_t instrs = 0;
      for (ir::BlockId b = 0; b < plan.programs.back().num_blocks(); ++b)
        instrs += plan.programs.back().block(b).instrs.size();
      instr_count[i] = std::max<std::uint64_t>(1, instrs);
    } catch (const std::exception& e) {
      plan.programs.push_back(ir::Program("unbuildable"));
      plan.build_errors[i] = e.what();
    }
  }

  const auto& configs = cache::paper_cache_configs();
  for (std::size_t p = 0; p < plan.names.size(); ++p) {
    for (std::size_t c = 0; c < configs.size(); c += options.config_stride) {
      // Analysis cost grows with context nodes (~ instructions) and with
      // abstract state width (~ cache sets); the product ranks the heavy
      // (big program, many sets) cases well enough for scheduling.
      plan.tasks.push_back(SweepPlan::Task{
          p, c, plan.tasks.size() * options.techs.size(),
          instr_count[p] * configs[c].config.num_sets()});
    }
  }
  plan.result_rows = plan.tasks.size() * options.techs.size();

  // Heaviest-first schedule over the whole selection: workers pull from an
  // atomic cursor over this order, so the longest-running cases start first
  // and cannot serialize the sweep's tail. Ties keep grid order, which
  // keeps the schedule — and therefore shard ownership, journal row order
  // and any fault-injection hit — deterministic.
  plan.schedule.resize(plan.tasks.size());
  std::iota(plan.schedule.begin(), plan.schedule.end(), std::size_t{0});
  std::stable_sort(plan.schedule.begin(), plan.schedule.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plan.tasks[a].weight > plan.tasks[b].weight;
                   });
  return plan;
}

SweepReport derive_row_report(const std::vector<UseCaseResult>& results) {
  SweepReport report;
  report.total = results.size();
  for (const UseCaseResult& r : results) {
    switch (r.outcome) {
      case CaseOutcome::kCompleted:
        ++report.completed;
        break;
      case CaseOutcome::kDegraded:
        ++report.degraded;
        break;
      case CaseOutcome::kFailed:
        ++report.failed;
        break;
    }
    if (r.any_degenerate_ratio()) ++report.degenerate_ratios;
    if (r.attempts > 1) ++report.retried;
    if (r.degradation_level == 1) ++report.recovered;
    if (r.audit.performed) ++report.audited;
    if (r.audit.violated) ++report.audit_violations;
    if (r.quarantined())
      report.quarantine.push_back(DegradedCase{
          r.program, r.config_id, r.tech, r.outcome, r.fail_stage,
          r.fail_code, r.fail_detail});
  }
  return report;
}

Sweep run_sweep(const SweepOptions& options) {
  UCP_CHECK_MSG(options.shard_count >= 1 &&
                    options.shard_index < options.shard_count,
                "invalid sweep shard " + std::to_string(options.shard_index) +
                    "/" + std::to_string(options.shard_count));
  const bool sharded = options.shard_count > 1;
  Sweep sweep;
  // Materialize the grid as (program, configuration) tasks; the tech nodes
  // run inside one task (sharing work when their timings coincide) and land
  // at consecutive result indices, so the output order stays the
  // program -> config -> tech grid order regardless of scheduling. The plan
  // — task list, weights and heaviest-first schedule — is the shared
  // deterministic contract between sharded producers and the journal merge.
  SweepPlan plan = build_sweep_plan(options);
  const std::vector<std::string>& names = plan.names;
  const std::vector<ir::Program>& programs = plan.programs;
  const std::vector<std::string>& build_error = plan.build_errors;
  const std::vector<SweepPlan::Task>& tasks = plan.tasks;
  const auto& configs = cache::paper_cache_configs();

  // Shard ownership: position j of the schedule belongs to shard j mod N.
  // Round-robin over the weight-sorted order spreads the heavy head evenly,
  // so shards are load-balanced without any coordination.
  std::vector<bool> owned(tasks.size(), true);
  if (sharded) {
    for (std::size_t pos = 0; pos < plan.schedule.size(); ++pos)
      owned[plan.schedule[pos]] =
          SweepPlan::shard_of(pos, options.shard_count) == options.shard_index;
  }

  // One ProgramSystem per program, shared by all of its configurations,
  // stages and worker threads; a construction failure leaves the slot
  // empty.
  std::vector<std::shared_ptr<const ProgramSystem>> systems(names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    if (build_error[i].empty()) systems[i] = make_program_system(programs[i]);

  std::vector<UseCaseResult>& results = sweep.results;
  results.resize(plan.result_rows);

  // Unified operator feedback: progress lines and the retry/audit/journal
  // notice channels share one reporter (one clock, one rate limit), so a
  // many-threaded sweep cannot flood the terminal however much news the
  // subsystems have.
  obs::ProgressReporter::Options reporter_options;
  reporter_options.enabled = options.progress_every != 0;
  obs::ProgressReporter reporter(reporter_options);

  // Crash-safe checkpoint journal: restore every durable row, then run only
  // the tasks that are not fully journaled. Restored rows are byte-for-byte
  // what the killed sweep computed, so the combined result set is
  // bit-identical to an uninterrupted run. A sharded journal restores (and
  // accepts) only rows this shard owns.
  SweepJournal journal;
  std::vector<bool> have_row(results.size(), false);
  if (!options.journal_path.empty()) {
    auto matches_grid = [&](std::size_t idx, const UseCaseResult& r) {
      const std::size_t per_task = options.techs.size();
      const std::size_t t = idx / per_task;
      const std::size_t k = idx % per_task;
      return t < tasks.size() && owned[t] &&
             r.program == names[tasks[t].program] &&
             r.config_id == configs[tasks[t].config].id &&
             r.tech == options.techs[k];
    };
    const Status opened = journal.open(
        options.journal_path, sweep_grid_fingerprint(),
        SweepJournal::selection_fingerprint(options, names),
        options.shard_index, options.shard_count, results, have_row,
        matches_grid);
    sweep.report.journal_note = journal.note();
    sweep.report.resumed_rows = journal.resumed_rows();
    if (opened.ok()) {
      reporter.announce(sweep.report.journal_note);
    } else {
      sweep.report.journal_note +=
          " — journaling disabled: " + opened.message();
      obs::log(obs::LogLevel::kWarn, "sweep", "journal_disabled",
               sweep.report.journal_note);
    }
  }
  std::size_t resumed_cases = 0;
  std::vector<bool> task_pending(tasks.size(), true);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (!owned[t]) {
      task_pending[t] = false;
      continue;
    }
    bool complete = true;
    for (std::size_t k = 0; k < options.techs.size(); ++k) {
      // Journal rows carry the config id, not the configuration itself.
      if (have_row[tasks[t].first + k])
        results[tasks[t].first + k].config = configs[tasks[t].config].config;
      complete = complete && have_row[tasks[t].first + k];
    }
    if (complete) {
      task_pending[t] = false;
      resumed_cases += options.techs.size();
    }
  }

  // Declare the work ahead in the scheduler's own weight units so the ETA
  // tracks completed *work*, not completed case counts (under heaviest-first
  // scheduling the early cases are the slow ones, so a case-count ETA is
  // badly biased at both ends of the run).
  std::size_t owned_cases = 0;
  std::uint64_t total_weight = 0;
  std::uint64_t resumed_weight = 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (!owned[t]) continue;
    owned_cases += options.techs.size();
    total_weight += tasks[t].weight;
    if (!task_pending[t]) resumed_weight += tasks[t].weight;
  }
  reporter.begin(owned_cases, total_weight, resumed_cases, resumed_weight);

  // The owned tasks in the plan's heaviest-first schedule order: the pool
  // claims them in this order, so the longest-running cases start first.
  std::vector<std::size_t> owned_order;
  owned_order.reserve(tasks.size());
  for (const std::size_t t : plan.schedule)
    if (owned[t]) owned_order.push_back(t);

  // Deterministic journal order (DESIGN.md §13.2). Finished rows stay in
  // `results` until the commit frontier over `owned_order` reaches them, so
  // rows appear in schedule order, never completion order, and the journal
  // bytes are identical at every thread count. Each commit appends its run
  // of tasks as one batch (one fsync), with no lock held during the I/O.
  // Rows already durable from a resumed journal are skipped per task (a
  // torn tail can leave part of a task); `have_row` is frozen after open.
  // Crash window: tasks finished behind a still-running earlier task, and
  // the batch in flight, are not durable yet and are recomputed on resume —
  // bounded work loss, and recomputation is deterministic so the journal
  // still completes exactly.
  support::CommitFrontier frontier(
      owned_order.size(), [&](std::size_t begin, std::size_t end) {
        if (!journal.active()) return;  // none, or disabled mid-sweep
        std::vector<std::pair<std::size_t, std::size_t>> batch;
        for (std::size_t i = begin; i < end; ++i) {
          const SweepPlan::Task& t = tasks[owned_order[i]];
          std::size_t skip = 0;
          while (skip < options.techs.size() && have_row[t.first + skip])
            ++skip;
          if (skip < options.techs.size())
            batch.emplace_back(t.first + skip, options.techs.size() - skip);
        }
        if (batch.empty()) return;
        const Status appended = journal.append_batch(results, batch);
        if (!appended.ok()) {
          sweep.report.journal_note +=
              "; journaling disabled mid-sweep: " + appended.message();
          reporter.notice("journal", appended.message());
        }
      });

  const auto sweep_start = std::chrono::steady_clock::now();
  auto now_ms = [&] {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - sweep_start)
            .count());
  };

  const std::uint32_t threads = support::worker_count(options.threads);
  sweep.report.threads_used = threads;

  // One watchdog slot per worker; the poll thread runs only when a
  // deadline is configured, so unsupervised sweeps carry no extra thread.
  Watchdog watchdog(threads, options.case_deadline_ms > 0);

  // The worker task boundary: the shared case solver runs the ladder; a
  // program that failed to build fails all of its cases.
  auto run_task = [&](const SweepPlan::Task& t, Watchdog::Slot& slot) {
    const std::size_t p = t.program;
    std::vector<UseCaseResult> rows =
        build_error[p].empty()
            ? solve_case(programs[p], names[p], configs[t.config],
                         options.techs, options.optimizer, nullptr,
                         systems[p] ? &systems[p]->ipet : nullptr,
                         options.audit_soundness, nullptr,
                         options.max_attempts, options.case_deadline_ms, slot)
            : case_rows(names[p], configs[t.config], options.techs,
                        ErrorCode::kInternal, "task", build_error[p]);
    const std::uint32_t attempts = rows.empty() ? 1 : rows.front().attempts;

    if (attempts > 1)
      reporter.notice("retry", names[t.program] + "/" + configs[t.config].id +
                                   " took " + std::to_string(attempts) +
                                   " attempts");
    for (const UseCaseResult& r : rows)
      if (r.audit.violated)
        reporter.notice("audit", "soundness violation at " + r.program + "/" +
                                     r.config_id);
    if (obs::enabled()) {
      obs::Registry& reg = obs::registry();
      static obs::Counter& c_tasks = reg.counter("exp.task.runs");
      static obs::Counter& c_attempts = reg.counter("exp.task.attempts");
      static obs::Counter& c_completed =
          reg.counter("exp.task.cases_completed");
      static obs::Counter& c_degraded = reg.counter("exp.task.cases_degraded");
      static obs::Counter& c_failed = reg.counter("exp.task.cases_failed");
      static obs::Counter& c_audited = reg.counter("exp.task.cases_audited");
      static obs::Counter& c_violations =
          reg.counter("exp.task.audit_violations");
      c_tasks.increment();
      c_attempts.add(attempts);
      for (const UseCaseResult& r : rows) {
        switch (r.outcome) {
          case CaseOutcome::kCompleted:
            c_completed.increment();
            break;
          case CaseOutcome::kDegraded:
            c_degraded.increment();
            break;
          case CaseOutcome::kFailed:
            c_failed.increment();
            break;
        }
        if (r.audit.performed) c_audited.increment();
        if (r.audit.violated) c_violations.increment();
      }
    }

    std::move(rows.begin(), rows.end(), results.begin() + t.first);
  };

  // A slot is claimable from the moment the pool starts and again the
  // instant its worker finishes a task; claimable-to-claim is the wait the
  // *scheduler* caused, as opposed to time spent behind earlier tasks.
  std::vector<std::int64_t> free_since_ms(threads, now_ms());
  support::parallel_for_index(
      owned_order.size(), threads, [&](std::size_t i, std::uint32_t worker) {
        const std::size_t task_id = owned_order[i];
        // A task restored from the journal has nothing to run or append.
        if (!task_pending[task_id]) {
          frontier.done(i);
          return;
        }
        // After an interrupt a task stays unrun and unmarked, which stops
        // the journal at it.
        if (sweep_interrupt_requested()) return;
        const SweepPlan::Task& t = tasks[task_id];
        {
          obs::Span span("exp.task.run");
          const std::int64_t claimed_ms = now_ms();
          run_task(t, watchdog.slot(worker));
          if (obs::enabled()) {
            // Two distinct waits (DESIGN.md §13): enqueue_to_claim_ms counts
            // from sweep start (every task is enqueued when the schedule is
            // built), so it grows with queue position by construction — a
            // depth profile, not a health signal. queue_wait_ms is
            // claimable-to-claim: how long a free worker slot sat idle
            // before this claim; ~0 whenever workers are saturated.
            static obs::Histogram& h_enqueue =
                obs::registry().histogram("exp.task.enqueue_to_claim_ms");
            static obs::Histogram& h_wait =
                obs::registry().histogram("exp.task.queue_wait_ms");
            static obs::Histogram& h_run =
                obs::registry().histogram("exp.task.run_ms");
            h_enqueue.record(static_cast<std::uint64_t>(claimed_ms));
            h_wait.record(
                static_cast<std::uint64_t>(claimed_ms - free_since_ms[worker]));
            h_run.record(static_cast<std::uint64_t>(now_ms() - claimed_ms));
          }
        }
        frontier.done(i);
        reporter.case_done(options.techs.size(), t.weight);
        free_since_ms[worker] = now_ms();
      });

  // An interrupted sweep returns what it has: journaled + finished rows are
  // real results; everything unrun (among the tasks this shard owns) is
  // quarantined as "interrupted" so the health report can never pass it off
  // as a full grid.
  bool any_unrun = false;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    if (!owned[ti]) continue;
    const SweepPlan::Task& t = tasks[ti];
    // Per row: a torn journal tail can restore part of a task.
    for (std::size_t k = 0; k < options.techs.size(); ++k) {
      UseCaseResult& r = results[t.first + k];
      if (!r.program.empty()) continue;
      any_unrun = true;
      r = case_rows(names[t.program], configs[t.config], {options.techs[k]},
                    ErrorCode::kCancelled, "interrupted",
                    "sweep interrupted before this use case ran")
              .front();
    }
  }
  sweep.report.interrupted = any_unrun && sweep_interrupt_requested();

  // A sharded sweep returns only the rows it owns — still in grid order;
  // merge_sweep_journals reassembles the full grid from the shard journals.
  if (sharded) {
    std::vector<UseCaseResult> own;
    own.reserve(owned_cases);
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      if (!owned[ti]) continue;
      for (std::size_t k = 0; k < options.techs.size(); ++k)
        own.push_back(std::move(results[tasks[ti].first + k]));
    }
    results = std::move(own);
  }

  sweep.report.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - sweep_start)
          .count());

  // Health accounting, in deterministic grid order. The row-derived half is
  // shared with the journal merge (derive_row_report), so a merged N-shard
  // result reports exactly what an unsharded run derives from the same
  // rows.
  {
    SweepReport derived = derive_row_report(results);
    sweep.report.total = derived.total;
    sweep.report.completed = derived.completed;
    sweep.report.degraded = derived.degraded;
    sweep.report.failed = derived.failed;
    sweep.report.degenerate_ratios = derived.degenerate_ratios;
    sweep.report.retried = derived.retried;
    sweep.report.recovered = derived.recovered;
    sweep.report.audited = derived.audited;
    sweep.report.audit_violations = derived.audit_violations;
    sweep.report.quarantine = std::move(derived.quarantine);
  }

  // Publish the authoritative row-derived counters, then merge the metrics
  // snapshot into the journal as a comment (skipped on resume, so it never
  // perturbs checkpointing). An annotation failure is a warning, not a
  // sweep failure — sinks are observers.
  publish_sweep_metrics(sweep);
  if (journal.active() && obs::enabled()) {
    const Status annotated = journal.annotate(
        "metrics " + obs::snapshot_json(journal_metrics(obs::registry())));
    if (!annotated.ok()) reporter.notice("journal", annotated.message());
  }
  journal.close();
  reporter.finish();

  return sweep;
}

std::vector<SizeAggregate> aggregate_by_size(
    const std::vector<UseCaseResult>& results) {
  std::vector<SizeAggregate> out;
  for (std::uint32_t capacity : {256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
    SizeAggregate agg;
    agg.capacity_bytes = capacity;
    double e = 0, a = 0, w = 0, mo = 0, mp = 0, ir = 0, pf = 0;
    for (const UseCaseResult& r : results) {
      if (r.config.capacity_bytes != capacity) continue;
      ++agg.cases;
      e += r.energy_ratio();
      a += r.acet_ratio();
      w += r.wcet_ratio();
      mo += r.original.miss_rate();
      mp += r.optimized.miss_rate();
      ir += r.instr_ratio();
      pf += static_cast<double>(r.report.insertions.size());
      agg.max_wcet_ratio = std::max(agg.max_wcet_ratio, r.wcet_ratio());
      if (r.any_degenerate_ratio()) ++agg.degenerate_cases;
      if (r.quarantined()) ++agg.quarantined_cases;
    }
    if (agg.cases == 0) continue;
    const auto n = static_cast<double>(agg.cases);
    agg.mean_energy_ratio = e / n;
    agg.mean_acet_ratio = a / n;
    agg.mean_wcet_ratio = w / n;
    agg.mean_missrate_orig = mo / n;
    agg.mean_missrate_opt = mp / n;
    agg.mean_instr_ratio = ir / n;
    agg.mean_prefetches = pf / n;
    out.push_back(agg);
  }
  return out;
}

std::vector<UseCaseResult> paper_regime(
    const std::vector<UseCaseResult>& results, double lo, double hi) {
  std::vector<UseCaseResult> out;
  for (const UseCaseResult& r : results) {
    const double mr = r.original.miss_rate();
    if (mr >= lo && mr <= hi) out.push_back(r);
  }
  return out;
}

std::vector<UseCaseResult> reuse_regime(
    const std::vector<UseCaseResult>& results) {
  std::vector<UseCaseResult> out;
  for (const UseCaseResult& r : results) {
    if (r.report.candidates_found > 0) out.push_back(r);
  }
  return out;
}

GrandAggregate aggregate_all(const std::vector<UseCaseResult>& results) {
  GrandAggregate g;
  if (results.empty()) return g;
  double e = 0, a = 0, w = 0, ir = 0;
  for (const UseCaseResult& r : results) {
    ++g.cases;
    e += r.energy_ratio();
    a += r.acet_ratio();
    w += r.wcet_ratio();
    ir += r.instr_ratio();
    g.max_instr_ratio = std::max(g.max_instr_ratio, r.instr_ratio());
    g.max_wcet_ratio = std::max(g.max_wcet_ratio, r.wcet_ratio());
    if (r.wcet_ratio() > 1.0 + 1e-9) ++g.wcet_regressions;
    if (r.any_degenerate_ratio()) ++g.degenerate_cases;
    if (r.quarantined()) ++g.quarantined_cases;
  }
  const auto n = static_cast<double>(g.cases);
  g.mean_energy_ratio = e / n;
  g.mean_acet_ratio = a / n;
  g.mean_wcet_ratio = w / n;
  g.mean_instr_ratio = ir / n;
  return g;
}

}  // namespace ucp::exp
