#include "bench.hpp"

#include <sys/resource.h>

#include <ctime>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "cache/config.hpp"
#include "ir/text_codec.hpp"
#include "support/rng.hpp"

namespace perfbench {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = quantile(samples, 0.50);
  s.p99 = quantile(samples, 0.99);
  s.max = samples.back();
  return s;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile(samples, 0.5);
}

std::vector<std::size_t> seeded_permutation(std::size_t n,
                                            std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  ucp::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

void run_workers(unsigned workers, const std::function<void(unsigned)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(fn, w);
  for (std::thread& t : threads) t.join();
}

namespace {
double ratio(double num, double den) { return den == 0.0 ? 1.0 : num / den; }
}  // namespace

void Quality::add(double tau_orig, double tau_opt, double mem_orig,
                  double mem_opt, double energy_orig, double energy_opt,
                  double instr_orig, double instr_opt) {
  ++n_;
  wcet_ += ratio(tau_opt, tau_orig);
  acet_ += ratio(mem_opt, mem_orig);
  energy_ += ratio(energy_opt, energy_orig);
  instr_ += ratio(instr_opt, instr_orig);
}

double Quality::wcet_saving_pct() const {
  return n_ == 0 ? 0.0 : (1.0 - wcet_ / static_cast<double>(n_)) * 100.0;
}
double Quality::acet_saving_pct() const {
  return n_ == 0 ? 0.0 : (1.0 - acet_ / static_cast<double>(n_)) * 100.0;
}
double Quality::energy_saving_pct() const {
  return n_ == 0 ? 0.0 : (1.0 - energy_ / static_cast<double>(n_)) * 100.0;
}
double Quality::code_growth_pct() const {
  return n_ == 0 ? 0.0 : (instr_ / static_cast<double>(n_) - 1.0) * 100.0;
}

Derivation derive(const std::vector<std::string>& names,
                  const std::vector<const ucp::ir::Program*>& programs,
                  const std::vector<const ProgramIpet*>& ipets,
                  const std::vector<GroupTask>& tasks,
                  const std::vector<std::size_t>& order, bool want_text,
                  unsigned workers) {
  const auto& configs = ucp::cache::paper_cache_configs();
  Derivation d;
  d.rows.resize(tasks.size());
  d.task_ms.resize(tasks.size(), 0.0);
  d.task_cpu_ms.resize(tasks.size(), 0.0);
  if (want_text) d.optimized_text.resize(tasks.size());
  std::atomic<std::size_t> next{0};
  std::mutex stages_mutex;
  const auto start = Clock::now();
  run_workers(workers, [&](unsigned) {
    ucp::exp::StageTimings local;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= order.size()) break;
      const GroupTask& task = tasks[order[i]];
      const ucp::ir::Program& program = *programs[task.program];
      ucp::ir::Program optimized = program;
      const double cpu0 = thread_cpu_ms();
      const auto t0 = Clock::now();
      d.rows[order[i]] = ucp::exp::run_use_case_group(
          program, names[task.program], configs[task.config], task.techs, {},
          &local, &ipets[task.program]->ipet, /*audit_soundness=*/true,
          want_text ? &optimized : nullptr);
      d.task_ms[order[i]] = ms_since(t0);
      d.task_cpu_ms[order[i]] = thread_cpu_ms() - cpu0;
      if (want_text) d.optimized_text[order[i]] = ucp::ir::to_text(optimized);
    }
    std::lock_guard<std::mutex> lock(stages_mutex);
    d.stages.measure_ns += local.measure_ns;
    d.stages.optimize_ns += local.optimize_ns;
    d.stages.audit_ns += local.audit_ns;
  });
  d.wall_s = seconds_since(start);
  return d;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  if (errors_.size() < 20) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  errors_.push_back(what);
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

int Report::emit() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return correct() ? 0 : 1;
}

void report_service_metrics(Report& report,
                            const std::vector<double>& latency_ms, double ops,
                            double wall_s, double cpu_s, double setup_s,
                            double clean_ops) {
  const Summary lat = summarize(latency_ms);
  report.check(lat.n > 0, "no latency samples");
  report.check(lat.p50 <= lat.p99 && lat.p99 <= lat.max,
               "latency quantiles out of order (p50 <= p99 <= max)");
  std::cerr << "perfbench: latency samples n=" << lat.n << " p50=" << lat.p50
            << " ms p99=" << lat.p99 << " ms max=" << lat.max << " ms\n";
  report.metric("throughput_per_s", ops / wall_s, "1/s");
  report.metric("latency_p50_ms", lat.p50, "ms");
  report.metric("latency_p99_ms", lat.p99, "ms");
  report.metric("cpu_ms_per_op", cpu_s * 1000.0 / ops, "ms");
  report.metric("setup_s", setup_s, "s");
  report.metric("clean_pct", clean_ops * 100.0 / ops, "%");
}

void report_quality(Report& report, const Quality& quality) {
  report.metric("wcet_saving_pct", quality.wcet_saving_pct(), "%");
  report.metric("acet_saving_pct", quality.acet_saving_pct(), "%");
  report.metric("energy_saving_pct", quality.energy_saving_pct(), "%");
  report.metric("code_growth_pct", quality.code_growth_pct(), "%");
}

}  // namespace perfbench
