#pragma once

// Shared pieces of the perfbench binary: argument block, clocks, exact
// quantiles, the seeded op-list helpers, the paper-quality aggregate and the
// one-line JSON report the binary prints last.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/context_graph.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "ir/program.hpp"
#include "wcet/ipet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;  ///< grid | serve_cold
  std::uint64_t seed = 0;
  unsigned seconds = 10;
  bool trace = false;
  std::string tmp_dir;   ///< scratch directory for journals, inside the checkout
};

double ms_since(Clock::time_point start);
double seconds_since(Clock::time_point start);

/// User + system CPU time of the whole process, in seconds.
double process_cpu_seconds();

/// CPU time of the calling thread, in milliseconds.
double thread_cpu_ms();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Exact quantile of stored samples: linear interpolation between the two
/// nearest order statistics (Hyndman-Fan type 7). Never exceeds the max.
double quantile(const std::vector<double>& sorted, double q);

/// p50/p99/max of a sample set, with its size.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
Summary summarize(std::vector<double> samples);

double median(std::vector<double> samples);

/// A seeded Fisher-Yates permutation of 0..n-1 (identical on every host).
std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed);

/// Runs fn(worker) on `workers` threads and joins them all.
void run_workers(unsigned workers, const std::function<void(unsigned)>& fn);

/// Grand means of the paper's ratios over a set of use cases (Ineqs. 10-12
/// and Fig. 8), reported as savings / growth in percent. A zero
/// denominator counts as the neutral ratio 1, as in exp::aggregate_all.
class Quality {
 public:
  void add(double tau_orig, double tau_opt, double mem_orig, double mem_opt,
           double energy_orig, double energy_opt, double instr_orig,
           double instr_opt);
  std::size_t cases() const { return n_; }
  double wcet_saving_pct() const;
  double acet_saving_pct() const;
  double energy_saving_pct() const;
  double code_growth_pct() const;

 private:
  std::size_t n_ = 0;
  double wcet_ = 0.0, acet_ = 0.0, energy_ = 0.0, instr_ = 0.0;
};

/// One (program, configuration, technology) use case of the paper grid.
struct Case {
  std::size_t program = 0;  ///< index into the suite's program list
  std::size_t config = 0;   ///< index into cache::paper_cache_configs()
  ucp::energy::TechNode tech = ucp::energy::TechNode::k45nm;
};

/// The result line. `metric` collects values; `check` records a
/// correctness failure (the run then reports correct=false and exits 1).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
  void ops(std::uint64_t attempted, std::uint64_t failed);
  bool correct() const { return errors_.empty(); }
  /// Prints the result JSON as the last stdout line; returns the exit code.
  int emit() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// A program's context graph and IPET constraint system, built once and
/// shared by every use case of that program (as run_sweep and ucpd do).
struct ProgramIpet {
  ucp::analysis::ContextGraph graph;
  ucp::wcet::IpetSystem ipet;
  explicit ProgramIpet(const ucp::ir::Program& program)
      : graph(program), ipet(graph) {}
};

/// One exp::run_use_case_group call: a (program, configuration) pair and
/// the technologies it answers for.
struct GroupTask {
  std::size_t program = 0;
  std::size_t config = 0;
  std::vector<ucp::energy::TechNode> techs;
};

/// The outcome of running group tasks through exp::run_use_case_group on a
/// worker pool, each call timed from outside.
struct Derivation {
  std::vector<std::vector<ucp::exp::UseCaseResult>> rows;  ///< per task
  std::vector<std::string> optimized_text;  ///< per task, when requested
  std::vector<double> task_ms;              ///< per task, wall
  std::vector<double> task_cpu_ms;          ///< per task, thread CPU
  ucp::exp::StageTimings stages;            ///< summed over tasks
  double wall_s = 0.0;
};

/// Runs `tasks` in `order` on `workers` threads with the auditor on.
/// `names[p]` labels rows of program p; `ipets[p]` is its shared system.
/// `want_text` keeps the vouched-for program of single-tech tasks.
Derivation derive(const std::vector<std::string>& names,
                  const std::vector<const ucp::ir::Program*>& programs,
                  const std::vector<const ProgramIpet*>& ipets,
                  const std::vector<GroupTask>& tasks,
                  const std::vector<std::size_t>& order, bool want_text,
                  unsigned workers);

/// The per-layer probe of a trace run: calls each layer's public entry
/// point (ContextGraph, analyze_cache, IpetSystem, IpetSystem::solve,
/// sim::run_program, core::optimize_prefetches) for every distinct
/// (program, configuration) pair of `cases`, timed from the benchmark, and
/// records the analysis.*, wcet.*, ilp.*, core.* and sim.* metrics.
void probe_layers(const std::vector<const ucp::ir::Program*>& programs,
                  const std::vector<Case>& cases, unsigned workers,
                  Report& report);

/// Records the latency, throughput, CPU and set-up metrics that every
/// workload reports under the same names.
void report_service_metrics(Report& report, const std::vector<double>& latency_ms,
                            double ops, double wall_s, double cpu_s,
                            double setup_s, double clean_ops);
void report_quality(Report& report, const Quality& quality);

void run_grid(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace perfbench
