// Table 2 — cache configurations: the 36 (associativity, block size,
// capacity) points, with the derived timing and energy model parameters at
// both technology nodes so every downstream number is reproducible.
//
// Doubles as the supervised-sweep driver and the sweep's CI gates (the
// performance harness is perfbench/):
//   --sweep[=STRIDE]   run the evaluation sweep cold (no shared journal,
//                      unless --journal) and print its health report and
//                      result fingerprint
//   --perf-smoke       run a small strided sweep twice (cold and warm
//                      process state) and fail on any result divergence
//   --threads N        worker threads (default: hardware concurrency)
//   --programs a,b     restrict the sweep to a program subset
//   --journal PATH     crash-safe checkpoint journal: a killed sweep
//                      resumes from the last durable row on the next run
//   --attempts N       retry-with-degradation ladder depth (defaults to the
//                      figure benches' 3; 1 disables retries)
//   --deadline-ms N    per-task watchdog deadline (defaults to the figure
//                      benches' 120000; 0 disables the watchdog)
//   --trace=FILE       write a Chrome trace_event JSON of the sweep
//   --metrics=FILE     write the metrics registry snapshot (JSON)
//   --profile          print the top-spans profile table after the sweep
//   --trace-smoke      observability gate: run the timing slice (every
//                      second configuration of every program) with tracing
//                      off and on, fail on any fingerprint divergence,
//                      missing pipeline layer in the trace, or slowdown
//                      beyond the overhead budget (1% + 150 ms)
//   --ops-smoke        ops-plane gate: run the same slice with the full
//                      ops stack on (metrics + structured logging + flight
//                      recorder) and with everything off; fail on any
//                      fingerprint divergence, an empty flight ring, or
//                      slowdown beyond the same 1%+floor overhead budget
//   --expect-fingerprint=HEX
//                      (sweep mode) fail unless the full-grid result
//                      fingerprint equals HEX — the CI pin for "the ops
//                      plane never changed a number"
//   --shard i/N        run only shard i of N (deterministic round-robin
//                      partition of the heaviest-first schedule); requires
//                      --journal, prints the shard fingerprint
//   --merge-journals a.jnl,b.jnl,...
//                      reassemble a complete set of shard journals:
//                      validates grid+selection fingerprints and shard
//                      ownership, rejects overlaps and gaps, re-derives
//                      the global sweep fingerprint and the row-derived
//                      health report, and (with --merge-out) writes the
//                      merged journal byte-identical to a single-process
//                      run's
//   --merge-out PATH   destination for the merged journal
//   --scaling-smoke    CI gate: the timing slice at threads {1,4}; fails
//                      on fingerprint divergence, and on < 1.5x speedup
//                      when the host actually has >= 4 cores (skipped,
//                      loudly, on smaller machines)
//
// SIGINT/SIGTERM stop the sweep cooperatively: finished rows are already
// durable in the journal, the health report (with the quarantine summary)
// is printed, and the bench exits with 128+signal.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/config.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "exp/journal.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "support/table.hpp"

namespace {

struct Args {
  bool sweep = false;
  bool perf_smoke = false;
  bool trace_smoke = false;
  bool ops_smoke = false;
  std::string expect_fingerprint;
  bool profile = false;
  std::string trace_path;
  std::string metrics_path;
  std::uint32_t stride = 1;
  std::uint32_t threads = 0;
  std::vector<std::string> programs;
  std::string journal;
  std::uint32_t attempts = 0;     ///< 0 = mode default
  std::int64_t deadline_ms = -1;  ///< -1 = mode default
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::vector<std::string> merge_inputs;
  std::string merge_out;
  bool scaling_smoke = false;
};

// Written by the signal handler, read after run_sweep returns.
volatile std::sig_atomic_t g_signal = 0;

// Async-signal-safe: set the flag and ask the sweep to stop pulling tasks.
// Finished rows are already fsync'd in the journal; nothing else to save.
void handle_stop_signal(int signum) {
  g_signal = signum;
  ucp::exp::request_sweep_interrupt();
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--sweep") {
      args.sweep = true;
    } else if (a.rfind("--sweep=", 0) == 0) {
      args.sweep = true;
      args.stride = static_cast<std::uint32_t>(std::stoul(a.substr(8)));
    } else if (a == "--perf-smoke") {
      args.perf_smoke = true;
    } else if (a == "--trace-smoke") {
      args.trace_smoke = true;
    } else if (a == "--ops-smoke") {
      args.ops_smoke = true;
    } else if (a.rfind("--expect-fingerprint=", 0) == 0) {
      args.expect_fingerprint = a.substr(21);
    } else if (a.rfind("--trace=", 0) == 0) {
      args.trace_path = a.substr(8);
    } else if (a.rfind("--metrics=", 0) == 0) {
      args.metrics_path = a.substr(10);
    } else if (a == "--profile") {
      args.profile = true;
    } else if (a == "--threads" && i + 1 < argc) {
      args.threads = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (a == "--programs" && i + 1 < argc) {
      std::stringstream ss(argv[++i]);
      std::string item;
      while (std::getline(ss, item, ',')) args.programs.push_back(item);
    } else if (a == "--journal" && i + 1 < argc) {
      args.journal = argv[++i];
    } else if (a == "--attempts" && i + 1 < argc) {
      args.attempts = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (a == "--deadline-ms" && i + 1 < argc) {
      args.deadline_ms = static_cast<std::int64_t>(std::stoll(argv[++i]));
    } else if (a == "--shard" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t slash = spec.find('/');
      if (slash == std::string::npos) {
        std::cerr << "--shard expects i/N (e.g. --shard 0/4)\n";
        std::exit(2);
      }
      args.shard_index =
          static_cast<std::uint32_t>(std::stoul(spec.substr(0, slash)));
      args.shard_count =
          static_cast<std::uint32_t>(std::stoul(spec.substr(slash + 1)));
      if (args.shard_count == 0 || args.shard_index >= args.shard_count) {
        std::cerr << "--shard " << spec << ": need 0 <= i < N\n";
        std::exit(2);
      }
    } else if (a == "--merge-journals" && i + 1 < argc) {
      std::stringstream ss(argv[++i]);
      std::string item;
      while (std::getline(ss, item, ',')) args.merge_inputs.push_back(item);
    } else if (a == "--merge-out" && i + 1 < argc) {
      args.merge_out = argv[++i];
    } else if (a == "--scaling-smoke") {
      args.scaling_smoke = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n"
                << "usage: " << argv[0]
                << " [--sweep[=STRIDE]] [--perf-smoke] [--trace-smoke]"
                   " [--ops-smoke] [--expect-fingerprint=HEX]"
                   " [--threads N] [--programs a,b,c] [--journal PATH]"
                   " [--attempts N] [--deadline-ms N] [--shard i/N]"
                   " [--merge-journals a,b,...] [--merge-out PATH]"
                   " [--scaling-smoke]"
                   " [--trace=FILE] [--metrics=FILE] [--profile]\n";
      std::exit(2);
    }
  }
  return args;
}

ucp::exp::SweepOptions sweep_options(const Args& args) {
  // The figure benches' production options (full ladder, generous
  // watchdog), so a --sweep journal and the figure benches' shared one
  // carry the same selection fingerprint.
  ucp::bench::BenchArgs bench_args;
  bench_args.programs = args.programs;
  bench_args.threads = args.threads;
  ucp::exp::SweepOptions options = bench_args.sweep();
  options.config_stride = args.stride;
  // Only an explicit --journal: sweep mode computes the grid cold (the
  // figure benches share one journal instead).
  options.journal_path = args.journal;
  if (args.attempts != 0) options.max_attempts = args.attempts;
  if (args.deadline_ms >= 0)
    options.case_deadline_ms = static_cast<std::uint32_t>(args.deadline_ms);
  options.shard_index = args.shard_index;
  options.shard_count = args.shard_count;
  return options;
}

int run_sweep_mode(const Args& args) {
  using namespace ucp;
  // Metrics and the flight recorder fly here exactly as in ucpd: the
  // full-grid fingerprint (and its --expect-fingerprint CI pin) is measured
  // with the daemon's steady-state ops stack on, so "observability never
  // changes a number" is proven in the configuration that actually ships.
  // Tracing/profiling only when asked for.
  bench::ObsSession obs_session(args.trace_path, args.metrics_path,
                                args.profile);
  obs::set_enabled(true);
  obs::set_flight_enabled(true);

  // Cooperative shutdown: ^C / SIGTERM stop the sweep at the next task
  // boundary, the journal keeps every finished row, and the report below
  // shows exactly what was (and was not) computed.
  exp::clear_sweep_interrupt();
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  const exp::Sweep sweep = exp::run_sweep(sweep_options(args));
  sweep.report.print(std::cout);
  if (sweep.report.interrupted) {
    // Partial grid: no fingerprint (it would masquerade as the full
    // result); the journal already holds the finished rows.
    std::cout << "[bench] interrupted by signal " << static_cast<int>(g_signal)
              << "; " << sweep.report.completed
              << " finished rows are durable"
              << (args.journal.empty() ? " only in memory (no --journal)"
                                       : " in " + args.journal)
              << "\n";
    return 128 + static_cast<int>(g_signal != 0 ? g_signal : SIGINT);
  }
  const std::string fp = exp::sweep_results_fingerprint(sweep.results);
  if (args.shard_count > 1) {
    // A shard is not the sweep: report its own (shard-local) fingerprint
    // and row count for the merge step.
    std::cout << "[bench] shard " << args.shard_index << "/"
              << args.shard_count << " fingerprint " << fp << " ("
              << sweep.results.size() << " rows)"
              << (args.journal.empty() ? " — WARNING: no --journal, rows "
                                         "cannot be merged"
                                       : "")
              << "\n";
    return 0;
  }
  std::cout << "[bench] result fingerprint " << fp << "\n";
  if (!args.expect_fingerprint.empty() && fp != args.expect_fingerprint) {
    std::cerr << "[bench] FAIL: result fingerprint " << fp
              << " does not match the expected " << args.expect_fingerprint
              << " — either the numbers changed (a correctness regression) "
                 "or they changed on purpose and the pin needs updating\n";
    return 1;
  }
  return 0;
}

int run_merge_mode(const Args& args) {
  using namespace ucp;
  bench::ObsSession obs_session(args.trace_path, args.metrics_path,
                                args.profile);
  // The options must describe the *same sweep* the shards ran (programs,
  // stride, attempts, deadline); the merge re-derives the plan from them
  // and validates every journal against it.
  Args unsharded = args;
  unsharded.shard_index = 0;
  unsharded.shard_count = 1;
  exp::MergeDiagnostic diagnostic;
  Expected<exp::JournalMerge> merged =
      exp::merge_sweep_journals(args.merge_inputs, sweep_options(unsharded),
                                args.merge_out, &diagnostic);
  if (!merged.ok()) {
    std::cerr << "[merge] FAIL: " << merged.status().message() << "\n";
    std::cerr << "[merge] reason=" << exp::merge_reason_name(diagnostic.reason);
    if (!diagnostic.file.empty())
      std::cerr << " file=" << diagnostic.file;
    if (diagnostic.has_row) std::cerr << " row=" << diagnostic.row_index;
    std::cerr << "\n";
    return 1;
  }

  // Rebuild the sweep view from the merged rows. Everything row-derived —
  // outcome totals, quarantine, solver sums, the exp.sweep.* counters (in
  // a --metrics file) and the fingerprint — is exactly what a
  // single-process run reports; process-local measurements (wall clock,
  // construction charges) are not derivable from rows and stay zero.
  exp::Sweep sweep;
  sweep.results = std::move(merged->results);
  sweep.report = exp::derive_row_report(sweep.results);
  sweep.report.journal_note =
      "merged " + std::to_string(merged->shard_count) + " shard journals";
  exp::publish_sweep_metrics(sweep);
  sweep.report.print(std::cout);
  std::cout << "[merge] " << merged->rows << " rows from "
            << merged->shard_count << " shards, sweep fingerprint "
            << merged->fingerprint << "\n";
  if (!args.merge_out.empty())
    std::cout << "[merge] wrote merged journal to " << args.merge_out
              << "\n";
  return 0;
}

/// The slice the three timing gates (--trace-smoke, --ops-smoke,
/// --scaling-smoke) time: every second configuration of every program
/// (unless --sweep=STRIDE/--programs narrow it), about 5 s of
/// single-threaded work and 1.6 s at 4 threads on a 4-core x86 host. A
/// slice of a few milliseconds would let the overhead budget's 150 ms
/// floor hide a 40x slowdown, and a millisecond of thread start-up decide
/// the speedup floor. Stride 4 is too coarse the other way: one nsichneu
/// task is 1.7 s of its 2.5 s, which caps its 4-thread speedup near 1.5x.
ucp::exp::SweepOptions timing_slice(Args args) {
  if (args.stride == 1) args.stride = 2;
  return sweep_options(args);
}

/// Runs one sweep and returns its wall-clock in microseconds, end to end
/// (SweepReport::wall_ms rounds to whole milliseconds).
std::uint64_t timed_sweep_us(const ucp::exp::SweepOptions& options,
                             std::string& fingerprint) {
  const auto start = std::chrono::steady_clock::now();
  const ucp::exp::Sweep sweep = ucp::exp::run_sweep(options);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  fingerprint = ucp::exp::sweep_results_fingerprint(sweep.results);
  return static_cast<std::uint64_t>(us);
}

/// Microseconds as milliseconds with three decimals, for gate reports.
std::string ms_text(double us) { return ucp::format_double(us / 1000.0, 3); }

/// Wall clock and fingerprint of each arm of an overhead gate.
struct ArmTimes {
  std::uint64_t off_us = ~std::uint64_t{0};
  std::uint64_t on_us = ~std::uint64_t{0};
  std::string fp_off;
  std::string fp_on;
};

/// Times the two arms of an overhead gate over `options`. The arms
/// alternate (off first, which doubles as process warm-up) three times, so
/// a drift in host load hits both alike, and each arm keeps its fastest
/// run, the one least disturbed by other load. `instrument(on)` switches
/// the instrumentation under test on or off.
template <class Instrument>
ArmTimes time_arms(const ucp::exp::SweepOptions& options,
                   Instrument&& instrument) {
  ArmTimes t;
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool on : {false, true}) {
      instrument(on);
      std::uint64_t& best = on ? t.on_us : t.off_us;
      best = std::min(best, timed_sweep_us(options, on ? t.fp_on : t.fp_off));
      instrument(false);
    }
  }
  return t;
}

/// The overhead budget of --trace-smoke and --ops-smoke: the instrumented
/// arm may take at most 1% longer than the baseline, plus a 150 ms floor
/// because scheduler noise alone exceeds 1% of a few-second sweep. Returns
/// the number of failures (0 or 1) after reporting one.
int overhead_failures(const char* gate, const char* arm, std::uint64_t us_off,
                      std::uint64_t us_on) {
  const double budget_us = static_cast<double>(us_off) * 1.01 + 150'000.0;
  if (static_cast<double>(us_on) <= budget_us) return 0;
  std::cerr << "[" << gate << "] FAIL: " << arm << " sweep took "
            << ms_text(us_on) << "ms vs " << ms_text(us_off)
            << "ms baseline (budget " << ms_text(budget_us) << "ms)\n";
  return 1;
}

int run_scaling_smoke(const Args& args) {
  using namespace ucp;
  constexpr std::uint32_t kThreads[] = {1, 4};

  std::uint64_t wall_us[2] = {0, 0};
  std::string fingerprint[2];
  for (int i = 0; i < 2; ++i) {
    Args at = args;
    at.threads = kThreads[i];
    wall_us[i] = timed_sweep_us(timing_slice(at), fingerprint[i]);
    std::cout << "[scaling] threads " << kThreads[i] << ": "
              << ms_text(wall_us[i]) << "ms, fingerprint " << fingerprint[i]
              << "\n";
  }

  int failures = 0;
  if (fingerprint[1] != fingerprint[0]) {
    std::cerr << "[scaling] FAIL: threads " << kThreads[1]
              << " diverged from threads " << kThreads[0] << " ("
              << fingerprint[1] << " vs " << fingerprint[0] << ")\n";
    ++failures;
  }
  const double speedup = wall_us[1] > 0 ? static_cast<double>(wall_us[0]) /
                                              static_cast<double>(wall_us[1])
                                        : 0.0;
  std::cout << "[scaling] speedup at " << kThreads[1] << " threads: "
            << speedup << "x (host has " << std::thread::hardware_concurrency()
            << " cores)\n";
  // The speedup floor only means something when the host can actually run
  // the workers in parallel; on smaller machines the determinism half of
  // the gate still ran, so skip the perf half loudly rather than fail.
  if (std::thread::hardware_concurrency() >= kThreads[1]) {
    if (speedup < 1.5) {
      std::cerr << "[scaling] FAIL: speedup " << speedup << "x at "
                << kThreads[1] << " threads is below the 1.5x floor\n";
      ++failures;
    }
  } else {
    std::cout << "[scaling] SKIP speedup floor: host has only "
              << std::thread::hardware_concurrency() << " cores for "
              << kThreads[1] << " threads\n";
  }
  std::cout << "[scaling] " << (failures == 0 ? "OK" : "FAIL")
            << ": one fingerprint across threads {1,4}\n";
  return failures == 0 ? 0 : 1;
}

int run_perf_smoke(const Args& args) {
  using namespace ucp;
  // Small strided slice: enough work to exercise scheduling, sharing and
  // the incremental optimizer, small enough for test-suite time budgets.
  Args smoke = args;
  if (smoke.stride == 1) smoke.stride = 12;
  if (smoke.programs.empty()) smoke.programs = {"bs", "fdct", "crc"};

  const exp::SweepOptions options = sweep_options(smoke);
  const exp::Sweep cold = exp::run_sweep(options);
  const exp::Sweep warm = exp::run_sweep(options);
  const std::string fp_cold = exp::sweep_results_fingerprint(cold.results);
  const std::string fp_warm = exp::sweep_results_fingerprint(warm.results);
  std::cout << "[perf-smoke] " << cold.report.total << " cases; cold "
            << static_cast<double>(cold.report.wall_ms) / 1000.0
            << "s, warm "
            << static_cast<double>(warm.report.wall_ms) / 1000.0 << "s\n";
  if (fp_cold != fp_warm) {
    std::cerr << "[perf-smoke] FAIL: result divergence between runs ("
              << fp_cold << " vs " << fp_warm << ")\n";
    return 1;
  }
  if (cold.report.total == 0) {
    std::cerr << "[perf-smoke] FAIL: empty sweep\n";
    return 1;
  }
  std::cout << "[perf-smoke] OK: fingerprints match (" << fp_cold << ")\n";
  return 0;
}

int run_trace_smoke(const Args& args) {
  using namespace ucp;
  obs::reset_trace();
  const auto [us_off, us_on, fp_off, fp_on] =
      time_arms(timing_slice(args), [](bool on) {
        obs::set_enabled(on);
        obs::set_trace_enabled(on);
      });

  int failures = 0;
  if (fp_off != fp_on) {
    std::cerr << "[trace-smoke] FAIL: tracing changed the results (" << fp_off
              << " vs " << fp_on << ")\n";
    ++failures;
  }

  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  for (const char* layer :
       {"analysis.", "ilp.", "wcet.", "core.", "sim.", "exp."}) {
    const bool found =
        std::any_of(events.begin(), events.end(), [&](const obs::TraceEvent& e) {
          return std::string_view(e.name).rfind(layer, 0) == 0;
        });
    if (!found) {
      std::cerr << "[trace-smoke] FAIL: no '" << layer
                << "*' span in the trace — a pipeline layer lost its "
                   "instrumentation\n";
      ++failures;
    }
  }

  failures += overhead_failures("trace-smoke", "instrumented", us_off, us_on);

  std::cout << "[trace-smoke] " << (failures == 0 ? "OK" : "FAIL") << ": "
            << events.size() << " spans, baseline " << ms_text(us_off)
            << "ms, instrumented " << ms_text(us_on) << "ms, fingerprint "
            << fp_off << "\n";
  return failures == 0 ? 0 : 1;
}

int run_ops_smoke(const Args& args) {
  using namespace ucp;
  // Same slice as --trace-smoke, but the instrumented configuration is the
  // daemon's steady-state ops stack: metrics registry + structured JSON
  // logging (rate-limited, to a file) + the always-on flight recorder.
  // This is the configuration ucpd actually flies with, so this is the
  // overhead number that matters for "observability is free enough to
  // leave on".
  const std::string log_path =
      "ucp_ops_smoke." + std::to_string(::getpid()) + ".log.jsonl";
  std::remove(log_path.c_str());

  obs::reset_flight();
  const auto [us_off, us_on, fp_off, fp_on] =
      time_arms(timing_slice(args), [&](bool on) {
        obs::LogOptions log_options;
        if (on) {
          log_options.json = true;
          log_options.file_path = log_path;
          log_options.rate_limit = 100;
        }
        obs::configure_logging(log_options);
        obs::set_enabled(on);
        obs::set_flight_enabled(on);
      });

  int failures = 0;
  if (fp_off != fp_on) {
    std::cerr << "[ops-smoke] FAIL: the ops stack changed the results ("
              << fp_off << " vs " << fp_on << ")\n";
    ++failures;
  }

  // The flight recorder actually flew: the rings hold span records from
  // the instrumented sweep.
  const std::vector<obs::FlightRecord> records = obs::flight_snapshot();
  const bool has_span =
      std::any_of(records.begin(), records.end(),
                  [](const obs::FlightRecord& r) { return r.kind == 'S'; });
  if (!has_span) {
    std::cerr << "[ops-smoke] FAIL: no span records in the flight rings — "
                 "the recorder was not recording during the sweep\n";
    ++failures;
  }
  obs::reset_flight();

  failures += overhead_failures("ops-smoke", "ops-enabled", us_off, us_on);

  std::cout << "[ops-smoke] " << (failures == 0 ? "OK" : "FAIL") << ": "
            << records.size() << " flight records, baseline "
            << ms_text(us_off) << "ms, ops-enabled " << ms_text(us_on)
            << "ms, fingerprint " << fp_off << "\n";
  std::remove(log_path.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ucp;
  const Args args = parse(argc, argv);
  if (!args.merge_inputs.empty()) return run_merge_mode(args);
  if (args.scaling_smoke) return run_scaling_smoke(args);
  if (args.trace_smoke) return run_trace_smoke(args);
  if (args.ops_smoke) return run_ops_smoke(args);
  if (args.perf_smoke) return run_perf_smoke(args);
  if (args.sweep) return run_sweep_mode(args);

  std::cout << "Table 2: cache configurations k = (a, b, c) and derived "
               "model parameters\n\n";
  TextTable table({"id", "(a, b, c)", "sets", "hit cy", "miss cy",
                   "read nJ 45/32", "leak mW 45/32"});
  for (const cache::NamedCacheConfig& named : cache::paper_cache_configs()) {
    const cache::CacheConfig& k = named.config;
    const cache::MemTiming t45 =
        energy::derive_timing(k, energy::TechNode::k45nm);
    const energy::CacheEnergyModel m45 =
        energy::cache_model(k, energy::TechNode::k45nm);
    const energy::CacheEnergyModel m32 =
        energy::cache_model(k, energy::TechNode::k32nm);
    table.add_row({named.id, k.to_string(), std::to_string(k.num_sets()),
                   std::to_string(t45.hit_cycles),
                   std::to_string(t45.miss_cycles),
                   format_double(m45.read_energy_nj, 4) + " / " +
                       format_double(m32.read_energy_nj, 4),
                   format_double(m45.leakage_mw, 3) + " / " +
                       format_double(m32.leakage_mw, 3)});
  }
  table.print(std::cout);
  std::cout << "\n(45nm timing shown; prefetch latency equals the miss "
               "service time at each node)\n";
  return 0;
}
