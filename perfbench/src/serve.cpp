// Workload `serve_cold`: an in-process ucpd server (serve::Server, 2
// workers, ucpd's default options) driven by 2 closed-loop clients through
// serve::call, one fresh connection per request, each caller waiting for
// its reply as a build system would.
//
// It exists because it is the online use of the system. Every request is a
// distinct grid case, so each one runs the whole served path: parse ->
// IPET-cache lookup -> analyze/optimize/audit -> respond. It loads the serve
// layer's fixed per-request costs on top of every compute layer (analysis,
// wcet/ilp, core, sim, exp). The op list is the whole 2664-case grid in a
// seeded order, so every run sends the same requests and the heavy programs
// appear at their natural share.
//
// The server keeps no request journal, as ucpd without --journal. The
// journal fsyncs every answer; with it on, ten runs of the same 2664
// requests on a VM with a shared disk gave median latencies from 2.75 to
// 7.59 ms while CPU per request stayed within 9 %. The trace run times the
// journal on its own (serve.journal_append_us). It also re-sends the last answered
// cases to the same server, so the response cache answers them: that pass
// measures the cache-hit path, the protocol codec and support's sockets
// without the compute layers.

#include <algorithm>
#include <atomic>
#include <memory>

#include "bench.hpp"
#include "cache/config.hpp"
#include "ir/text_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/request_journal.hpp"
#include "serve/server.hpp"
#include "sim/interpreter.hpp"
#include "suite/suite.hpp"
#include "support/socket.hpp"

namespace perfbench {

namespace {

using namespace ucp;

constexpr unsigned kServerWorkers = 2;
constexpr unsigned kClients = 2;
/// Set-up repeats per run; setup_s is their median.
constexpr int kSetupRepeats = 25;
/// Responses re-derived in-process per run (seeded choice).
constexpr std::size_t kVerifySample = 12;
/// Cases re-derived in-process for serve.self_ms in a trace run.
constexpr std::size_t kSelfSample = 256;
/// Last answered cases re-sent in a trace run to measure cache hits; well
/// inside the server's 256-entry response cache.
constexpr std::size_t kHitProbes = 128;
constexpr std::size_t kConnectProbes = 256;

/// What the workload sends: its cases and the timed op list (indices into
/// `cases`).
struct OpList {
  std::vector<Case> cases;
  std::vector<std::size_t> ops;
};

/// The whole 2664-case grid, in grid order, sent in a seeded order.
OpList cold_ops(std::size_t programs, std::uint64_t seed) {
  OpList list;
  const std::size_t configs = cache::paper_cache_configs().size();
  for (std::size_t p = 0; p < programs; ++p)
    for (std::size_t c = 0; c < configs; ++c)
      for (const auto tech : {energy::TechNode::k45nm, energy::TechNode::k32nm})
        list.cases.push_back(Case{p, c, tech});
  list.ops = seeded_permutation(list.cases.size(), seed);
  return list;
}

serve::Request make_request(const Case& c,
                            const std::vector<std::string>& texts,
                            std::string id) {
  const cache::NamedCacheConfig& named =
      cache::paper_cache_configs()[c.config];
  serve::Request r;
  r.id = std::move(id);
  r.config_id = named.id;
  r.config = named.config;
  r.tech = c.tech;
  r.program_text = texts[c.program];
  return r;
}

/// True when two responses carry the same answer (everything but the id
/// and the cache/replay flags).
bool same_answer(const serve::Response& a, const serve::Response& b) {
  return a.status == b.status && a.code == b.code && a.audit == b.audit &&
         a.tau_original == b.tau_original &&
         a.tau_optimized == b.tau_optimized &&
         a.mem_cycles_original == b.mem_cycles_original &&
         a.mem_cycles_optimized == b.mem_cycles_optimized &&
         a.energy_original_nj == b.energy_original_nj &&
         a.energy_optimized_nj == b.energy_optimized_nj &&
         a.prefetches == b.prefetches && a.program_text == b.program_text;
}

/// A response the benchmark accepts: served ok, audited clean, and
/// Theorem 1 holds (the optimized WCET contribution never grows).
bool sound(const serve::Response& r) {
  return r.status == serve::ResponseStatus::kOk && r.audit == "clean" &&
         r.tau_optimized <= r.tau_original && !r.program_text.empty();
}

struct Load {
  std::vector<double> latency_ms;  ///< per op, client-side, incl. connect
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::atomic<std::uint64_t> transport_failures{0};
};

/// Closed loop: kClients threads take the next op from a shared cursor,
/// send it on a fresh connection and wait for the reply. `on_response` runs
/// in the client thread after the clock stops.
void drive(std::uint16_t port, const OpList& list,
           const std::vector<std::size_t>& ops,
           const std::vector<std::string>& texts, const std::string& id_prefix,
           const std::function<void(std::size_t, serve::Response&&)>& on_response,
           Load& load) {
  load.latency_ms.assign(ops.size(), 0.0);
  std::atomic<std::size_t> next{0};
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  run_workers(kClients, [&](unsigned) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= ops.size()) break;
      const serve::Request request = make_request(
          list.cases[ops[i]], texts, id_prefix + std::to_string(i));
      const auto t0 = Clock::now();
      Expected<serve::Response> response = serve::call(port, request);
      load.latency_ms[i] = ms_since(t0);
      if (!response.ok()) {
        ++load.transport_failures;
        continue;
      }
      on_response(i, std::move(response).value());
    }
  });
  load.wall_s = seconds_since(start);
  load.cpu_s = process_cpu_seconds() - cpu0;
}

std::unique_ptr<serve::Server> start_server(const std::string& trace_dir,
                                            Report& report) {
  serve::ServerOptions options;
  options.workers = kServerWorkers;
  if (!trace_dir.empty()) {
    // Drain each request's spans as it finishes so a long traced pass keeps
    // its trace memory bounded; the first request's trace is written.
    options.trace_sample_every = 1u << 30;
    options.trace_dir = trace_dir;
  }
  auto server = std::make_unique<serve::Server>(options);
  const Status started = server->start();
  report.check(started.ok(), "server start: " + started.message());
  return started.ok() ? std::move(server) : nullptr;
}

/// Server counter deltas of the timed phase.
struct StatsDelta {
  double requests = 0, cache_hits = 0, degraded = 0, retried = 0, shed = 0,
         watchdog_fires = 0, errors = 0;
};

StatsDelta delta(const serve::ServerStats& a, const serve::ServerStats& b) {
  StatsDelta d;
  d.requests = static_cast<double>(b.requests - a.requests);
  d.cache_hits = static_cast<double>(b.cache_hits - a.cache_hits);
  d.degraded = static_cast<double>(b.degraded - a.degraded);
  d.retried = static_cast<double>(b.retried - a.retried);
  d.shed = static_cast<double>(b.shed - a.shed);
  d.watchdog_fires = static_cast<double>(b.watchdog_fires - a.watchdog_fires);
  d.errors = static_cast<double>(b.errors - a.errors);
  return d;
}

/// Executed instructions of a program text on one configuration (Fig. 8's
/// numerator and denominator).
double executed_instructions(const std::string& text, const Case& c) {
  const cache::CacheConfig& config =
      cache::paper_cache_configs()[c.config].config;
  const ir::Program program = ir::from_text(text);
  return static_cast<double>(
      sim::run_program(program, config, energy::derive_timing(config, c.tech))
          .instructions);
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  // --- set-up, repeated: programs, request texts, server start.
  std::vector<double> setup_s;
  double build_ms = 0.0;
  std::vector<std::string> texts;
  OpList list;
  std::unique_ptr<serve::Server> server;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (server) server->stop();
    server.reset();
    const auto t0 = Clock::now();
    std::vector<ir::Program> built;
    for (const suite::BenchmarkInfo& info : suite::all_benchmarks())
      built.push_back(suite::build_benchmark(info.name));
    build_ms = ms_since(t0);
    texts.clear();
    for (const ir::Program& p : built) texts.push_back(ir::to_text(p));
    list = cold_ops(texts.size(), args.seed);
    server = start_server("", report);
    if (!server) return;
    setup_s.push_back(seconds_since(t0));
  }

  // --- timed phase; each answer is kept, by case.
  const serve::ServerStats before = server->stats();
  Load load;
  std::vector<serve::Response> answers(list.cases.size());
  drive(server->port(), list, list.ops, texts,
        std::string("s") + std::to_string(args.seed) + "-",
        [&](std::size_t i, serve::Response&& resp) {
          answers[list.ops[i]] = std::move(resp);
        },
        load);
  const StatsDelta stats = delta(before, server->stats());
  const double rss_mb = peak_rss_mb();  // per-layer figure, see grid.cpp

  // --- correctness: every op answered and sound, and a seeded sample
  // re-derived in-process exactly.
  const std::uint64_t transport = load.transport_failures.load();
  std::uint64_t errors = 0;
  for (const serve::Response& r : answers) {
    if (r.id.empty()) continue;  // never answered: a transport failure
    if (r.status == serve::ResponseStatus::kError) ++errors;
    report.check(r.status == serve::ResponseStatus::kError || sound(r),
                 "unsound response: " + r.id);
  }
  report.check(transport == 0, std::to_string(transport) + " transport failures");
  report.check(errors == 0, std::to_string(errors) + " error responses");
  report.check(stats.shed == 0, "requests shed on a closed loop");
  const std::uint64_t failed =
      transport + errors + static_cast<std::uint64_t>(stats.shed);
  report.ops(list.ops.size(), failed);

  // In-process re-derivation: the server parses the request text, so the
  // derivation does too, and shares one IPET system per program as the
  // server's IPET cache does.
  std::vector<ir::Program> parsed;
  for (const std::string& t : texts) parsed.push_back(ir::from_text(t));
  std::vector<const ir::Program*> programs;
  std::vector<std::unique_ptr<ProgramIpet>> owned;
  std::vector<const ProgramIpet*> ipets;
  for (const ir::Program& p : parsed) {
    programs.push_back(&p);
    owned.push_back(std::make_unique<ProgramIpet>(p));
    ipets.push_back(owned.back().get());
  }
  const std::vector<std::string> names(parsed.size(), "request");
  // Runs a seeded sample of `n` cases through exp::run_use_case_group.
  auto derive_sample = [&](std::size_t n, bool want_text,
                           std::vector<std::size_t>& sample) {
    sample = seeded_permutation(list.cases.size(), args.seed);
    sample.resize(std::min(n, sample.size()));
    std::vector<GroupTask> tasks;
    for (const std::size_t i : sample) {
      const Case& c = list.cases[i];
      tasks.push_back(GroupTask{c.program, c.config, {c.tech}});
    }
    return derive(names, programs, ipets, tasks,
                  seeded_permutation(tasks.size(), args.seed), want_text,
                  kServerWorkers);
  };
  {
    std::vector<std::size_t> sample;
    const Derivation d = derive_sample(kVerifySample, true, sample);
    for (std::size_t k = 0; k < sample.size(); ++k) {
      const exp::UseCaseResult& row = d.rows[k].front();
      const serve::Response& r = answers[sample[k]];
      const bool match =
          row.outcome == exp::CaseOutcome::kCompleted &&
          row.original.tau_wcet == r.tau_original &&
          row.optimized.tau_wcet == r.tau_optimized &&
          row.original.run.mem_cycles == r.mem_cycles_original &&
          row.optimized.run.mem_cycles == r.mem_cycles_optimized &&
          row.original.energy.total_nj() == r.energy_original_nj &&
          row.optimized.energy.total_nj() == r.energy_optimized_nj &&
          row.report.insertions.size() == r.prefetches &&
          d.optimized_text[k] == r.program_text;
      report.check(match, "in-process re-derivation differs for case " +
                              std::to_string(sample[k]));
    }
  }

  if (!args.trace) {
    // Quality over the distinct cases, in grid order, so the sums repeat
    // bit for bit whatever order the seed sent them in.
    std::vector<double> instr_orig(answers.size()), instr_opt(answers.size());
    std::atomic<std::size_t> next{0};
    run_workers(kClients, [&](unsigned) {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= answers.size()) break;
        if (answers[i].program_text.empty()) continue;
        instr_orig[i] = executed_instructions(texts[list.cases[i].program],
                                              list.cases[i]);
        instr_opt[i] = executed_instructions(answers[i].program_text,
                                             list.cases[i]);
      }
    });
    Quality quality;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const serve::Response& r = answers[i];
      quality.add(static_cast<double>(r.tau_original),
                  static_cast<double>(r.tau_optimized),
                  static_cast<double>(r.mem_cycles_original),
                  static_cast<double>(r.mem_cycles_optimized),
                  r.energy_original_nj, r.energy_optimized_nj, instr_orig[i],
                  instr_opt[i]);
    }
    const double ops = static_cast<double>(list.ops.size());
    report_service_metrics(report, load.latency_ms, ops, load.wall_s,
                           load.cpu_s, median(setup_s),
                           ops - static_cast<double>(failed));
    report_quality(report, quality);
    server->stop();
    return;
  }

  // --- trace run: the same op list again on a fresh server, so it stays
  // cold, with the program's tracing and metrics on; the wall time
  // difference is the tracing overhead, within the run-to-run noise as in
  // grid.cpp.
  {
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    std::unique_ptr<serve::Server> traced_server =
        start_server(args.tmp_dir, report);
    if (!traced_server) return;
    Load traced;
    drive(traced_server->port(), list, list.ops, texts, "t-",
          [](std::size_t, serve::Response&&) {}, traced);
    obs::set_trace_enabled(false);
    obs::set_enabled(false);
    obs::reset_trace();
    traced_server->stop();
    report.metric("obs.trace_overhead_pct",
                  (traced.wall_s - load.wall_s) / load.wall_s * 100.0, "%");
  }

  // serve.cache_hit_ratio: the last answered cases, re-sent to the server
  // that answered them; each must come from the response cache, identical
  // to its first answer.
  {
    const std::vector<std::size_t> last(
        list.ops.end() - static_cast<std::ptrdiff_t>(
                             std::min(kHitProbes, list.ops.size())),
        list.ops.end());
    const serve::ServerStats hit_before = server->stats();
    std::atomic<std::uint64_t> mismatches{0};
    Load hits;
    drive(server->port(), list, last, texts, "h-",
          [&](std::size_t i, serve::Response&& resp) {
            if (!resp.cached || !same_answer(resp, answers[last[i]]))
              ++mismatches;
          },
          hits);
    const StatsDelta hit_stats = delta(hit_before, server->stats());
    report.check(hits.transport_failures.load() == 0 && mismatches.load() == 0,
                 "re-sent cases not all served from the cache, identical to "
                 "their first answer");
    report.metric("serve.cache_hit_ratio",
                  hit_stats.requests == 0
                      ? 0.0
                      : hit_stats.cache_hits / hit_stats.requests,
                  "ratio");
  }

  // serve.self_ms: client latency minus the in-process pipeline time of the
  // same case, over a seeded sample.
  {
    std::vector<std::size_t> sample;
    const Derivation d = derive_sample(kSelfSample, false, sample);
    std::vector<std::size_t> op_of(list.cases.size());
    for (std::size_t i = 0; i < list.ops.size(); ++i) op_of[list.ops[i]] = i;
    std::vector<double> self_ms;
    for (std::size_t k = 0; k < sample.size(); ++k)
      self_ms.push_back(load.latency_ms[op_of[sample[k]]] - d.task_ms[k]);
    double busy_ms = 0.0;
    for (const double ms : d.task_ms) busy_ms += ms;
    report.metric("serve.self_ms", median(self_ms), "ms");
    report.metric("exp.measure_ms", d.stages.measure_ns / 1e6, "ms");
    report.metric("exp.optimize_ms", d.stages.optimize_ns / 1e6, "ms");
    report.metric("exp.audit_ms", d.stages.audit_ns / 1e6, "ms");
    report.metric("exp.worker_idle_pct",
                  (1.0 - busy_ms / (kServerWorkers * d.wall_s * 1000.0)) * 100.0,
                  "%");
  }

  // serve.codec_us: request serialization, response parse and the program
  // text round trip of one exchange, per case.
  {
    std::vector<double> codec_us;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const serve::Request request = make_request(list.cases[i], texts, "codec");
      const std::string response_text = serve::serialize_response(answers[i]);
      const auto t0 = Clock::now();
      const std::string wire = serve::serialize_request(request);
      const Expected<serve::Response> back =
          serve::parse_response_text(response_text, {});
      const std::string round_trip =
          ir::to_text(ir::from_text(back.ok() ? back->program_text : ""));
      codec_us.push_back(ms_since(t0) * 1000.0);
      report.check(back.ok() && !wire.empty() && !round_trip.empty(),
                   "codec round trip");
    }
    report.metric("serve.codec_us", median(codec_us), "us");
  }

  // serve.journal_append_us: what ucpd --journal adds per request, one
  // checksummed, fsync'd RequestJournal::append of each answer.
  {
    serve::RequestJournal journal;
    const Status opened = journal.open(args.tmp_dir + "/ucpd.journal");
    report.check(opened.ok(), "journal open: " + opened.message());
    std::vector<double> append_us;
    for (std::size_t i = 0; opened.ok() && i < answers.size(); ++i) {
      const serve::Request request = make_request(list.cases[i], texts, answers[i].id);
      const std::string response_text = serve::serialize_response(answers[i]);
      const auto t0 = Clock::now();
      const Status appended = journal.append(
          answers[i].id, serve::request_fingerprint(request), response_text);
      append_us.push_back(ms_since(t0) * 1000.0);
      report.check(appended.ok(), "journal append: " + appended.message());
    }
    report.check(journal.rows() == answers.size(), "journal rows");
    report.metric("serve.journal_append_us", median(append_us), "us");
  }

  // support.connect_us: one fresh loopback connection to the server per call.
  {
    std::vector<double> connect_us;
    for (std::size_t i = 0; i < kConnectProbes; ++i) {
      const auto t0 = Clock::now();
      Expected<support::Socket> sock = support::tcp_connect(server->port(), 5000);
      connect_us.push_back(ms_since(t0) * 1000.0);
      report.check(sock.ok(), "tcp_connect");
    }
    report.metric("support.connect_us", median(connect_us), "us");
  }
  server->stop();

  report.metric("serve.degraded", stats.degraded, "count");
  report.metric("serve.retried", stats.retried, "count");
  report.metric("serve.shed", stats.shed, "count");
  report.metric("serve.watchdog_fires", stats.watchdog_fires, "count");
  report.metric("suite.build_ms", build_ms, "ms");
  report.metric("peak_rss_mb", rss_mb, "MiB");
  probe_layers(programs, list.cases, kServerWorkers, report);
}

}  // namespace perfbench
