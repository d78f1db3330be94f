// Workload `grid`: the paper's evaluation, 37 programs x 36 cache
// configurations x 2 technology nodes = 2664 rows from 1332 (program,
// configuration) tasks, through exp::run_sweep with 2 worker threads, the
// soundness auditor on, a sweep journal and no memo cache.
//
// It exists because it is the batch use of the system and the paper's own
// experiment. It loads every compute layer (suite, analysis, wcet/ilp,
// core, sim, energy, exp) and bypasses serve. The core optimizer dominates
// it, and its work sits in a few heavy programs.
//
// A run first sweeps the grid once through exp::run_sweep, which must
// reproduce the reference fingerprint. The timed rounds (one per 15 s of
// --seconds, at least one) then run the same 1332 tasks through
// exp::run_use_case_group on a 2-thread pool, each call timed from here,
// since run_sweep exposes no per-task times. Every round must reproduce the
// fingerprint too. Each task's time is its median over the rounds; these
// medians are the latency samples, and their sum is the pool's busy time
// behind throughput and CPU per row. The grid and the round orders are the
// same for every seed; the seed picks the tasks re-derived through
// exp::run_use_case.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>

#include "bench.hpp"
#include "cache/config.hpp"
#include "exp/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "suite/suite.hpp"

namespace perfbench {

namespace {

using namespace ucp;

constexpr unsigned kWorkers = 2;
constexpr int kSetupRepeats = 25;
/// Seconds of --seconds per timed round: one round takes 15-23 s on a
/// 4-vCPU x86 host.
constexpr unsigned kSecondsPerRound = 15;
/// Heaviest tasks that open every round, in the sweep's schedule order:
/// they carry about 30 % of the grid's work, and one started late would
/// leave the other worker idle for seconds at the round's end.
constexpr std::size_t kHeavyFirst = 8;
/// Seed of the fixed order of the other tasks in round 0 (round r uses
/// this + r).
constexpr std::uint64_t kTaskOrderSeed = 0x5eed;
constexpr std::size_t kGridRows = 2664;
/// (program, configuration) tasks re-derived through the reference path.
constexpr std::size_t kReferenceSample = 4;
/// Result fingerprint of the full default grid (ROADMAP.md).
constexpr const char* kGridFingerprint = "54eee3b9f691b61d";

/// Checks one finished grid: size, fingerprint, health, audit, Theorem 1.
void check_grid(const std::vector<exp::UseCaseResult>& rows,
                const std::string& what, Report& report) {
  report.check(rows.size() == kGridRows, what + ": row count");
  report.check(exp::sweep_results_fingerprint(rows) == kGridFingerprint,
               what + ": fingerprint " + exp::sweep_results_fingerprint(rows) +
                   " != " + kGridFingerprint);
  std::size_t bad = 0;
  for (const exp::UseCaseResult& r : rows)
    if (r.outcome != exp::CaseOutcome::kCompleted || r.audit.violated ||
        r.optimized.tau_wcet > r.original.tau_wcet)
      ++bad;
  report.check(bad == 0, what + ": " + std::to_string(bad) +
                             " rows degraded, failed, audit-violated or "
                             "with a grown WCET");
}

exp::Sweep sweep_once(exp::SweepOptions options, const std::string& journal,
                      Report& report) {
  options.journal_path = journal;
  std::filesystem::remove(journal);
  exp::Sweep sweep = exp::run_sweep(options);
  report.check(!sweep.report.interrupted, "sweep interrupted");
  report.check(sweep.report.audit_violations == 0, "sweep audit violations");
  report.check(std::filesystem::exists(journal) &&
                   std::filesystem::file_size(journal) > 0,
               "sweep journal not written");
  return sweep;
}

/// The task order of timed round `r`: the heaviest tasks first, then the
/// rest shuffled, so the many light tasks are timed across the whole round
/// and at other moments in each round, not in one burst at its end where a
/// short stretch of host slowdown would move all of them together.
std::vector<std::size_t> round_order(const exp::SweepPlan& plan, unsigned r) {
  std::vector<std::size_t> order(
      plan.schedule.begin(),
      plan.schedule.begin() +
          static_cast<std::ptrdiff_t>(std::min(kHeavyFirst, plan.schedule.size())));
  std::vector<bool> placed(plan.tasks.size(), false);
  for (const std::size_t t : order) placed[t] = true;
  for (const std::size_t t :
       seeded_permutation(plan.tasks.size(), kTaskOrderSeed + r))
    if (!placed[t]) order.push_back(t);
  return order;
}

}  // namespace

void run_grid(const Args& args, Report& report) {
  exp::SweepOptions options;
  options.threads = kWorkers;
  options.progress_every = 0;
  options.audit_soundness = true;

  // --- set-up, repeated: program construction, the sweep plan, and the
  // per-program IPET systems the task phase shares.
  std::vector<double> setup_s;
  exp::SweepPlan plan;
  std::vector<std::unique_ptr<ProgramIpet>> owned;
  for (int r = 0; r < kSetupRepeats; ++r) {
    owned.clear();
    const auto t0 = Clock::now();
    plan = exp::build_sweep_plan(options);
    for (const ir::Program& p : plan.programs)
      owned.push_back(std::make_unique<ProgramIpet>(p));
    setup_s.push_back(seconds_since(t0));
  }
  for (const std::string& e : plan.build_errors)
    report.check(e.empty(), "program build: " + e);
  std::vector<const ir::Program*> programs;
  std::vector<const ProgramIpet*> ipets;
  for (std::size_t p = 0; p < plan.programs.size(); ++p) {
    programs.push_back(&plan.programs[p]);
    ipets.push_back(owned[p].get());
  }

  // --- the sweep: exp::run_sweep over the whole grid with its journal and
  // auditor. It must reproduce the reference fingerprint, and it warms the
  // process (allocator, caches) for the timed rounds.
  const auto sweep_start = Clock::now();
  const exp::Sweep sweep =
      sweep_once(options, args.tmp_dir + "/sweep.journal", report);
  const double sweep_wall_s = seconds_since(sweep_start);
  check_grid(sweep.results, "run_sweep", report);
  std::uint64_t attempted = sweep.results.size();
  std::uint64_t failed = sweep.results.size() - sweep.report.completed;

  // --- timed rounds: the same tasks, each one exp::run_use_case_group call
  // (the call run_sweep's workers make) timed from here, on 2 threads in
  // round_order. Each task's wall and CPU time is its median over the
  // rounds; since every round has its own order, a stretch of host slowdown
  // lands on other tasks in each. Every round must reproduce the
  // fingerprint. A trace run reports no end-to-end figures, so one round
  // does there.
  std::vector<GroupTask> tasks;
  for (const exp::SweepPlan::Task& t : plan.tasks)
    tasks.push_back(GroupTask{t.program, t.config, options.techs});
  const unsigned rounds =
      args.trace ? 1u : std::max(1u, args.seconds / kSecondsPerRound);
  std::vector<std::vector<double>> wall_ms(tasks.size()), cpu_ms(tasks.size());
  Derivation d;
  for (unsigned r = 0; r < rounds; ++r) {
    d = derive(plan.names, programs, ipets, tasks, round_order(plan, r), false,
               kWorkers);
    std::vector<exp::UseCaseResult> rows(plan.result_rows);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      for (std::size_t k = 0; k < d.rows[t].size(); ++k)
        rows[plan.tasks[t].first + k] = d.rows[t][k];
      wall_ms[t].push_back(d.task_ms[t]);
      cpu_ms[t].push_back(d.task_cpu_ms[t]);
    }
    check_grid(rows, "run_use_case_group round " + std::to_string(r), report);
    attempted += rows.size();
    for (const exp::UseCaseResult& row : rows)
      if (row.outcome != exp::CaseOutcome::kCompleted) ++failed;
    std::cerr << "perfbench: round " << r << " wall " << d.wall_s
              << " s, task p50 " << median(d.task_ms) << " ms\n";
  }
  std::vector<double> task_ms;
  double busy_ms = 0.0, task_cpu_ms = 0.0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    task_ms.push_back(median(wall_ms[t]));
    busy_ms += task_ms.back();
    task_cpu_ms += median(cpu_ms[t]);
  }

  // The seed picks tasks to re-derive through the per-case reference path,
  // exp::run_use_case; every metric must match the sweep's rows exactly.
  const auto& configs = cache::paper_cache_configs();
  const std::vector<std::size_t> picks =
      seeded_permutation(plan.tasks.size(), args.seed);
  for (std::size_t i = 0; i < kReferenceSample; ++i) {
    const exp::SweepPlan::Task& t = plan.tasks[picks[i]];
    for (std::size_t k = 0; k < options.techs.size(); ++k) {
      const exp::UseCaseResult ref = exp::run_use_case(
          plan.programs[t.program], plan.names[t.program], configs[t.config],
          options.techs[k]);
      const exp::UseCaseResult& row = sweep.results[t.first + k];
      report.check(ref.original.tau_wcet == row.original.tau_wcet &&
                       ref.optimized.tau_wcet == row.optimized.tau_wcet &&
                       ref.original.run.mem_cycles == row.original.run.mem_cycles &&
                       ref.optimized.run.mem_cycles ==
                           row.optimized.run.mem_cycles &&
                       ref.optimized.energy.total_nj() ==
                           row.optimized.energy.total_nj() &&
                       ref.optimized.run.instructions ==
                           row.optimized.run.instructions &&
                       ref.report.insertions.size() ==
                           row.report.insertions.size(),
                   "run_use_case differs from the sweep for " + row.program +
                       "/" + row.config_id);
    }
  }

  // Peak RSS takes one of a few levels from run to run for the same op list
  // (which tasks overlap, which allocator arena keeps freed memory), so it
  // is a per-layer figure of the trace run, read before its extra passes.
  const double rss_mb = peak_rss_mb();
  std::size_t clean = 0;
  Quality quality;
  for (const exp::UseCaseResult& r : sweep.results) {
    if (r.outcome == exp::CaseOutcome::kCompleted && !r.audit.violated) ++clean;
    quality.add(static_cast<double>(r.original.tau_wcet),
                static_cast<double>(r.optimized.tau_wcet),
                static_cast<double>(r.original.run.mem_cycles),
                static_cast<double>(r.optimized.run.mem_cycles),
                r.original.energy.total_nj(), r.optimized.energy.total_nj(),
                static_cast<double>(r.original.run.instructions),
                static_cast<double>(r.optimized.run.instructions));
  }
  report.ops(attempted, failed);

  if (!args.trace) {
    // Throughput is rows per second of the two workers' busy time: the
    // pool's tail idle, which one slow task can stretch, is left to
    // exp.worker_idle_pct.
    report_service_metrics(report, task_ms,
                           static_cast<double>(sweep.results.size()),
                           busy_ms / 1000.0 / kWorkers, task_cpu_ms / 1000.0,
                           median(setup_s), static_cast<double>(clean));
    report_quality(report, quality);
    return;
  }

  // --- trace run: the sweep again with the program's tracing and metrics
  // on; the wall time difference is the tracing overhead. The untraced side
  // is the run's first sweep, so the figure also holds that pass's warm-up
  // and reads within the run-to-run noise (a few percent either way).
  {
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    const auto traced_start = Clock::now();
    const exp::Sweep traced =
        sweep_once(options, args.tmp_dir + "/sweep-traced.journal", report);
    const double traced_wall_s = seconds_since(traced_start);
    obs::set_trace_enabled(false);
    obs::set_enabled(false);
    obs::reset_trace();
    check_grid(traced.results, "traced run_sweep", report);
    report.metric("obs.trace_overhead_pct",
                  (traced_wall_s - sweep_wall_s) / sweep_wall_s * 100.0, "%");
  }

  double build_ms = 0.0;
  for (const std::string& name : plan.names) {
    const auto b0 = Clock::now();
    const ir::Program p = suite::build_benchmark(name);
    build_ms += ms_since(b0);
  }
  report.metric("suite.build_ms", build_ms, "ms");
  report.metric("peak_rss_mb", rss_mb, "MiB");

  report.metric("exp.measure_ms", d.stages.measure_ns / 1e6, "ms");
  report.metric("exp.optimize_ms", d.stages.optimize_ns / 1e6, "ms");
  report.metric("exp.audit_ms", d.stages.audit_ns / 1e6, "ms");
  report.metric("exp.worker_idle_pct",
                (1.0 - busy_ms / (kWorkers * d.wall_s * 1000.0)) * 100.0, "%");

  // The grid never touches the serve layer or its sockets: those layers
  // report zero work here.
  report.metric("serve.self_ms", 0.0, "ms");
  report.metric("serve.cache_hit_ratio", 0.0, "ratio");
  report.metric("serve.codec_us", 0.0, "us");
  report.metric("serve.journal_append_us", 0.0, "us");
  report.metric("support.connect_us", 0.0, "us");
  for (const char* name : {"serve.degraded", "serve.retried", "serve.shed",
                           "serve.watchdog_fires"})
    report.metric(name, 0.0, "count");

  std::vector<Case> cases;
  for (const exp::SweepPlan::Task& t : plan.tasks)
    cases.push_back(Case{t.program, t.config, options.techs.front()});
  probe_layers(programs, cases, kWorkers, report);
}

}  // namespace perfbench
