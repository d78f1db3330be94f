#pragma once

// Shared command-line handling for the figure/table benches.
//
// Every bench accepts:
//   --fast           quarter-size sweep (config stride 4) for smoke runs
//   --programs a,b   restrict to a comma-separated program subset
//   --threads N      worker threads (default: hardware concurrency)
//   --csv            also emit machine-readable CSV rows after the table
//   --trace=FILE     write a Chrome trace_event JSON of the run (Perfetto)
//   --metrics=FILE   write the end-of-run metrics registry snapshot (JSON)
//   --profile        print the top-spans profile table after the run
//
// Observability never changes results: spans and counters sit behind one
// atomic flag each, and a sink write failure degrades to a stderr warning.

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace ucp::bench {

struct BenchArgs {
  bool fast = false;
  bool csv = false;
  bool profile = false;
  std::string trace_path;
  std::string metrics_path;
  std::vector<std::string> programs;
  std::uint32_t threads = 0;

  exp::SweepOptions sweep() const {
    exp::SweepOptions options;
    options.programs = programs;
    options.config_stride = fast ? 4 : 1;
    options.threads = threads;
    // The production ladder: three rungs and a generous watchdog. Escalation
    // only changes rows whose first attempt failed, so a clean sweep is
    // bit-identical with or without it. Every bench that runs the default
    // grid (bench_table2_configs --sweep too) starts from these options, so
    // their journals carry one selection fingerprint and resume each other.
    options.max_attempts = 3;
    options.case_deadline_ms = 120000;
    // Full default sweeps are deterministic, so the figure benches share one
    // journal: the first computes the grid, the others resume every row
    // from it (delete the file to force a re-run).
    if (programs.empty() && !fast) options.journal_path = "ucp_sweep.journal";
    return options;
  }
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fast") {
      args.fast = true;
    } else if (a == "--csv") {
      args.csv = true;
    } else if (a == "--threads" && i + 1 < argc) {
      args.threads = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (a == "--programs" && i + 1 < argc) {
      std::stringstream ss(argv[++i]);
      std::string item;
      while (std::getline(ss, item, ',')) args.programs.push_back(item);
    } else if (a.rfind("--trace=", 0) == 0) {
      args.trace_path = a.substr(8);
    } else if (a.rfind("--metrics=", 0) == 0) {
      args.metrics_path = a.substr(10);
    } else if (a == "--profile") {
      args.profile = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n"
                << "usage: " << argv[0]
                << " [--fast] [--csv] [--threads N] [--programs a,b,c]"
                   " [--trace=FILE] [--metrics=FILE] [--profile]\n";
      std::exit(2);
    }
  }
  return args;
}

/// RAII observability session for a bench main: enables the obs flags the
/// arguments ask for, and on destruction (or an explicit finish()) writes
/// the trace/metrics files and prints the profile table. Sink failures
/// degrade to a stderr warning — observability must never fail a bench.
class ObsSession {
 public:
  ObsSession(std::string trace_path, std::string metrics_path, bool profile)
      : trace_path_(std::move(trace_path)),
        metrics_path_(std::move(metrics_path)),
        profile_(profile) {
    if (!trace_path_.empty() || !metrics_path_.empty() || profile_)
      obs::set_enabled(true);
    if (!trace_path_.empty() || profile_) obs::set_trace_enabled(true);
  }
  explicit ObsSession(const BenchArgs& args)
      : ObsSession(args.trace_path, args.metrics_path, args.profile) {}
  ~ObsSession() { finish(); }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  void finish() {
    if (finished_) return;
    finished_ = true;
    std::vector<obs::TraceEvent> events;
    if (!trace_path_.empty() || profile_) events = obs::drain_trace();
    if (!trace_path_.empty()) {
      const Status written = obs::write_trace_file(trace_path_, events);
      if (written.ok())
        obs::log(obs::LogLevel::kInfo, "obs", "wrote_trace", trace_path_,
                 obs::LogFields().num(
                     "spans", static_cast<std::uint64_t>(events.size())));
      else
        obs::log(obs::LogLevel::kWarn, "obs", "trace_write_failed",
                 written.message());
    }
    if (!metrics_path_.empty()) {
      const Status written =
          obs::write_metrics_file(metrics_path_, obs::registry().snapshot());
      if (written.ok())
        obs::log(obs::LogLevel::kInfo, "obs", "wrote_metrics",
                 metrics_path_);
      else
        obs::log(obs::LogLevel::kWarn, "obs", "metrics_write_failed",
                 written.message());
    }
    if (profile_) std::cout << "\n" << obs::profile_table(events);
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  bool profile_ = false;
  bool finished_ = false;
};

inline std::string pct_improvement(double ratio) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << (1.0 - ratio) * 100.0 << "%";
  return os.str();
}

}  // namespace ucp::bench
