// bench_serve_load: the live-scrape gate for the ucpd ops plane (the
// service's performance harness is perfbench/).
//
// Starts an in-process Server (same code path as the ucpd binary, minus
// fork/exec noise) with ucpd's steady-state ops stack on — metrics, the
// admin plane and the flight recorder — and drives it from 1 and then 4
// concurrent client threads, each looping over a fixed valid request mix:
// real suite programs across both paper cache configurations and both
// technology nodes. Every level runs a warm phase (the fixed mix after an
// unmeasured warmup pass, answered from the result store) and a cold phase
// (every request fresh, so every one runs the full pipeline). Throughout
// every phase a scraper thread hits HEALTH / STATS / "STATS prom" /
// PROFILE. The gate fails on any unanswered scrape, any error or transport
// loss on the valid-only workload, a final STATS request counter that does
// not reconcile with the generator's own totals, or a FLIGHT scrape that
// does not return a flight dump.
//
//   --trace=FILE / --metrics=FILE / --profile   as in every bench

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/config.hpp"
#include "energy/model.hpp"
#include "ir/text_codec.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "suite/suite.hpp"

namespace {

constexpr unsigned kLevels[] = {1, 4};
constexpr double kPhaseSeconds = 1.0;

struct Args {
  bool profile = false;
  std::string trace_path;
  std::string metrics_path;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--profile") {
      args.profile = true;
    } else if (a.rfind("--trace=", 0) == 0) {
      args.trace_path = a.substr(8);
    } else if (a.rfind("--metrics=", 0) == 0) {
      args.metrics_path = a.substr(10);
    } else {
      std::cerr << "unknown argument: " << a << "\n"
                << "usage: " << argv[0]
                << " [--trace=FILE] [--metrics=FILE] [--profile]\n";
      std::exit(2);
    }
  }
  return args;
}

/// The request mix: a spread of suite programs across both paper cache
/// configurations and both technology nodes. Small enough that the result
/// store holds all of it after one warmup pass, varied enough that the
/// store's program systems see distinct topologies.
std::vector<ucp::serve::Request> build_mix() {
  using namespace ucp;
  static const char* kPrograms[] = {"bs",     "fibcall", "crc",
                                    "matmult", "fdct",    "jfdctint"};
  std::vector<serve::Request> mix;
  for (const char* name : kPrograms) {
    const std::string text = ir::to_text(suite::build_benchmark(name));
    for (const char* config : {"k1", "k2"}) {
      serve::Request r;
      r.config_id = config;
      r.config = cache::paper_cache_config(config).config;
      r.tech = config[1] == '1' ? energy::TechNode::k45nm
                                : energy::TechNode::k32nm;
      r.program_text = text;
      mix.push_back(std::move(r));
    }
  }
  return mix;
}

struct PhaseResult {
  std::uint64_t answered = 0;  ///< responses of any status
  std::uint64_t errors = 0;    ///< status error responses
  std::uint64_t transport_failures = 0;  ///< no response at all
  std::uint64_t malformed = 0;  ///< server-side kMalformedInput replies
  std::uint64_t scrapes = 0;    ///< admin scrapes answered
};

/// One phase at `concurrency` clients. Warm (`cold` false): the fixed mix.
/// Cold (`cold` true): every request carries a unique deadline, so every
/// fingerprint is fresh and every request runs the full
/// analyze→optimize→audit pipeline. A scraper thread hits the admin plane
/// round-robin for the whole phase — the ops plane must answer *while* the
/// workers are saturated, or it is not a live ops plane.
PhaseResult run_phase(ucp::serve::Server& server, unsigned concurrency,
                      bool cold, const std::vector<ucp::serve::Request>& mix,
                      std::uint64_t& id_counter, std::uint64_t& warmups) {
  using namespace ucp;
  const std::uint16_t port = server.port();

  // Warmup: one full pass over the mix, so the phase sees the caches a
  // long-running daemon would have.
  for (std::size_t i = 0; i < mix.size(); ++i) {
    serve::Request r = mix[i];
    r.id = "warm-" + std::to_string(id_counter++);
    const auto response = serve::call(port, r);
    if (!response.ok()) {
      obs::log(obs::LogLevel::kError, "bench", "warmup_transport_failure",
               response.status().message());
      std::exit(1);
    }
    ++warmups;
    if (response->status == serve::ResponseStatus::kError) {
      obs::log(obs::LogLevel::kError, "bench", "warmup_request_failed",
               response->detail,
               obs::LogFields()
                   .num("index", static_cast<std::uint64_t>(i))
                   .str("config", r.config_id)
                   .str("code", error_code_name(response->code)));
      std::exit(1);
    }
  }

  const std::uint64_t malformed_before = server.stats().malformed;
  std::atomic<std::uint64_t> next_id{id_counter};
  std::atomic<bool> running{true};
  std::vector<std::uint64_t> answered(concurrency, 0), errors(concurrency, 0),
      transport(concurrency, 0);

  auto client = [&](unsigned me) {
    std::size_t cursor = me % mix.size();
    while (running.load(std::memory_order_relaxed)) {
      serve::Request r = mix[cursor];
      cursor = (cursor + 1) % mix.size();
      const std::uint64_t id =
          next_id.fetch_add(1, std::memory_order_relaxed);
      r.id = "load-" + std::to_string(id);
      // A unique deadline is part of the result store's key, so the store
      // can never answer.
      if (cold)
        r.deadline_ms = static_cast<std::uint32_t>(60000 + id % 1000000);
      const auto response = serve::call(port, r);
      if (!response.ok()) {
        ++transport[me];
        continue;
      }
      ++answered[me];
      if (response->status == serve::ResponseStatus::kError) ++errors[me];
    }
  };

  std::uint64_t scrapes = 0;
  std::atomic<bool> scrape_failed{false};
  auto scraper = [&] {
    static const char* kVerbs[] = {"HEALTH", "STATS", "STATS prom",
                                   "PROFILE"};
    std::size_t i = 0;
    while (running.load(std::memory_order_relaxed)) {
      const char* verb = kVerbs[i++ % 4];
      const auto reply = serve::admin_call(server.admin_port(), verb);
      if (!reply.ok() || !reply->ok || reply->payload.empty()) {
        obs::log(obs::LogLevel::kError, "bench", "scrape_failed",
                 reply.ok() ? reply->payload : reply.status().message(),
                 obs::LogFields().str("verb", verb));
        scrape_failed.store(true, std::memory_order_relaxed);
        return;
      }
      ++scrapes;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(concurrency + 1);
  for (unsigned i = 0; i < concurrency; ++i) threads.emplace_back(client, i);
  threads.emplace_back(scraper);
  std::this_thread::sleep_for(std::chrono::duration<double>(kPhaseSeconds));
  running.store(false, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  id_counter = next_id.load();

  if (scrape_failed.load() || scrapes == 0) {
    obs::log(obs::LogLevel::kError, "bench", "ops_smoke_failed",
             "admin plane did not answer scrapes during load");
    std::exit(1);
  }

  PhaseResult r;
  for (unsigned i = 0; i < concurrency; ++i) {
    r.answered += answered[i];
    r.errors += errors[i];
    r.transport_failures += transport[i];
  }
  r.malformed = server.stats().malformed - malformed_before;
  r.scrapes = scrapes;
  return r;
}

/// First `"requests": N` in an admin STATS payload — field order in the
/// `server` object is deterministic (stats_json), so this is the daemon's
/// well-formed-request counter.
std::uint64_t parse_stats_requests(const std::string& payload) {
  const std::string needle = "\"requests\":";
  const std::size_t at = payload.find(needle);
  if (at == std::string::npos) return ~0ull;
  std::size_t i = at + needle.size();
  std::uint64_t value = 0;
  bool any = false;
  while (i < payload.size() && payload[i] >= '0' && payload[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(payload[i] - '0');
    ++i;
    any = true;
  }
  return any ? value : ~0ull;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ucp;
  const Args args = parse_args(argc, argv);
  bench::ObsSession obs_session(args.trace_path, args.metrics_path,
                                args.profile);
  obs::set_enabled(true);
  obs::set_flight_enabled(true);

  serve::ServerOptions options;
  options.workers = kLevels[1];  // one worker per client at the top level
  options.queue_capacity = 2 * options.workers;
  options.admin_enabled = true;
  serve::Server server(options);
  const Status started = server.start();
  if (!started.ok()) {
    obs::log(obs::LogLevel::kError, "bench", "server_start_failed",
             started.message());
    return 1;
  }

  const std::vector<serve::Request> mix = build_mix();
  std::uint64_t id_counter = 0;
  std::uint64_t warmups = 0;
  std::uint64_t answered = 0;
  std::uint64_t scrapes = 0;
  for (const unsigned level : kLevels) {
    for (const bool cold : {false, true}) {
      const PhaseResult r =
          run_phase(server, level, cold, mix, id_counter, warmups);
      std::cout << "[ops-smoke] " << level << " client(s), "
                << (cold ? "cold" : "warm") << ": " << r.answered
                << " requests, " << r.scrapes << " scrapes\n";
      if (r.transport_failures > 0 || r.errors > 0 || r.malformed > 0) {
        obs::log(obs::LogLevel::kError, "bench", "load_level_failed",
                 "failures on a valid-only workload",
                 obs::LogFields()
                     .num("level", static_cast<std::uint64_t>(level))
                     .num("transport_failures", r.transport_failures)
                     .num("errors", r.errors)
                     .num("malformed", r.malformed));
        return 1;
      }
      answered += r.answered;
      scrapes += r.scrapes;
    }
  }

  // Reconciliation: the daemon's well-formed-request counter must equal
  // everything this generator got an answer for — phase responses plus
  // warmup passes. A live STATS scrape that cannot account for the load
  // that produced it is an ops plane reporting fiction.
  const std::uint64_t client_total = warmups + answered;
  const auto stats_reply = serve::admin_call(server.admin_port(), "STATS");
  if (!stats_reply.ok() || !stats_reply->ok) {
    obs::log(obs::LogLevel::kError, "bench", "ops_smoke_failed",
             "final STATS scrape did not answer");
    return 1;
  }
  const std::uint64_t served = parse_stats_requests(stats_reply->payload);
  if (served != client_total) {
    obs::log(obs::LogLevel::kError, "bench", "ops_smoke_failed",
             "STATS request counter does not reconcile",
             obs::LogFields()
                 .num("served", served)
                 .num("client_total", client_total));
    return 1;
  }
  const auto flight_reply = serve::admin_call(server.admin_port(), "FLIGHT");
  if (!flight_reply.ok() || !flight_reply->ok ||
      flight_reply->payload.rfind("{\"kind\":\"header\"", 0) != 0) {
    obs::log(obs::LogLevel::kError, "bench", "ops_smoke_failed",
             "FLIGHT scrape did not return a flight dump");
    return 1;
  }
  obs::log(obs::LogLevel::kInfo, "bench", "ops_smoke_ok", {},
           obs::LogFields().num("requests", served).num("scrapes", scrapes));
  server.stop();
  return 0;
}
