// ucpd service-layer suites: wire-protocol totality on hostile bytes,
// admission-control shedding, the per-request retry-with-degradation
// ladder (including the Theorem-1 identity-fallback terminal rung), the
// result store (twin tech nodes, clean-only inserts, concurrent clients,
// LRU eviction, its counters and spans), idempotent journal replay across
// kill -9 + restart of the real daemon binary, and graceful drain
// accounting.
//
// In-process Server instances cover everything that needs fault injection
// or the hold_workers admission gate; the Daemon suite fork/execs the
// installed ucpd binary (UCP_UCPD_PATH) to pin process-level behavior:
// stdout contract, SIGKILL + restart replay, SIGTERM drain, exit codes.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/config.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ir/text_codec.hpp"
#include "ir/verify.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/request_journal.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"
#include "suite/suite.hpp"
#include "support/fault_injection.hpp"
#include "support/record_log.hpp"
#include "support/socket.hpp"

namespace ucp::serve {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name + "." + std::to_string(::getpid())) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

Request bs_request(const std::string& id) {
  Request r;
  r.id = id;
  r.config_id = "k1";
  r.config = cache::paper_cache_config("k1").config;
  r.tech = energy::TechNode::k45nm;
  r.program_text = ir::to_text(suite::build_benchmark("bs"));
  return r;
}

Request fdct_request(const std::string& id) {
  Request r;
  r.id = id;
  r.config_id = "k2";
  r.config = cache::paper_cache_config("k2").config;
  r.tech = energy::TechNode::k32nm;
  r.program_text = ir::to_text(suite::build_benchmark("fdct"));
  return r;
}

ServerOptions quick_options() {
  ServerOptions options;
  options.workers = 1;
  options.io_timeout_ms = 5000;
  return options;
}

/// Raw exchange: writes `bytes` as-is and reads one response — how a
/// hostile or buggy client looks to the daemon.
Expected<Response> raw_call(std::uint16_t port, const std::string& bytes) {
  Expected<support::Socket> conn = support::tcp_connect(port, 5000);
  if (!conn.ok()) return conn.status();
  Status sent = write_all(*conn, bytes);
  if (!sent.ok()) return sent;
  // Half-close so a server waiting on a truncated frame sees EOF at once
  // instead of burning its whole io timeout.
  ::shutdown(conn->fd(), SHUT_WR);
  support::LineReader reader(*conn, 4096, 5000);
  return read_response(reader, ProtocolLimits{});
}

// --- protocol --------------------------------------------------------------

TEST(Protocol, ResponseSerializationRoundTrips) {
  Response r;
  r.id = "req.1:a-b_c";
  r.status = ResponseStatus::kDegraded;
  r.code = ErrorCode::kDeadlineExceeded;
  r.detail = "line one\nline two \\ backslash";
  r.attempts = 3;
  r.degradation_level = 2;
  r.audit = "clean";
  r.tau_original = 12345;
  r.tau_optimized = 12000;
  r.mem_cycles_original = 777;
  r.mem_cycles_optimized = 700;
  r.energy_original_nj = 1.25;
  r.energy_optimized_nj = 1.0625;
  r.prefetches = 4;
  r.cached = true;
  r.replayed = true;
  r.retry_after_ms = 0;
  r.program_text = "# ucp-program v1\nprogram p\n";

  const std::string bytes = serialize_response(r);
  const auto back = parse_response_text(bytes, ProtocolLimits{});
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->id, r.id);
  EXPECT_EQ(back->status, r.status);
  EXPECT_EQ(back->code, r.code);
  EXPECT_EQ(back->detail, r.detail);
  EXPECT_EQ(back->attempts, r.attempts);
  EXPECT_EQ(back->degradation_level, r.degradation_level);
  EXPECT_EQ(back->audit, r.audit);
  EXPECT_EQ(back->tau_original, r.tau_original);
  EXPECT_EQ(back->tau_optimized, r.tau_optimized);
  EXPECT_EQ(back->mem_cycles_original, r.mem_cycles_original);
  EXPECT_EQ(back->mem_cycles_optimized, r.mem_cycles_optimized);
  EXPECT_DOUBLE_EQ(back->energy_original_nj, r.energy_original_nj);
  EXPECT_DOUBLE_EQ(back->energy_optimized_nj, r.energy_optimized_nj);
  EXPECT_EQ(back->prefetches, r.prefetches);
  EXPECT_EQ(back->cached, r.cached);
  EXPECT_EQ(back->replayed, r.replayed);
  EXPECT_EQ(back->program_text, r.program_text);
  // Deterministic: one byte stream per value.
  EXPECT_EQ(serialize_response(*back), bytes);
}

TEST(Protocol, MalformedResponseTextIsStructurallyRejected) {
  const ProtocolLimits limits;
  for (const std::string& bad :
       {std::string(""), std::string("not a response\n"),
        std::string("ucp-response v2\n"),
        std::string("ucp-response v1\nbogus-key value\npayload 0\n"),
        std::string("ucp-response v1\nid x\npayload 99\nshort")}) {
    const auto parsed = parse_response_text(bad, limits);
    EXPECT_FALSE(parsed.ok());
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedInput);
    }
  }
}

TEST(Protocol, RequestIdValidation) {
  EXPECT_TRUE(valid_request_id("a"));
  EXPECT_TRUE(valid_request_id("req.1:A-b_c"));
  EXPECT_TRUE(valid_request_id(std::string(128, 'x')));
  EXPECT_FALSE(valid_request_id(""));
  EXPECT_FALSE(valid_request_id(std::string(129, 'x')));
  EXPECT_FALSE(valid_request_id("spaces are bad"));
  EXPECT_FALSE(valid_request_id("new\nline"));
  EXPECT_FALSE(valid_request_id("sla/sh"));
}

TEST(Protocol, FingerprintCoversEverySemanticField) {
  const Request base = bs_request("id-a");
  const std::string fp = request_fingerprint(base);
  // The id is *not* semantic: two ids, one body, one fingerprint.
  Request same = base;
  same.id = "id-b";
  EXPECT_EQ(request_fingerprint(same), fp);
  // Every semantic field moves the fingerprint.
  Request r = base;
  r.program_text += "\n";
  EXPECT_NE(request_fingerprint(r), fp);
  r = base;
  r.config.capacity_bytes *= 2;
  EXPECT_NE(request_fingerprint(r), fp);
  r = base;
  r.tech = energy::TechNode::k32nm;
  EXPECT_NE(request_fingerprint(r), fp);
  r = base;
  r.deadline_ms = 1234;
  EXPECT_NE(request_fingerprint(r), fp);
  r = base;
  r.attempts = 2;
  EXPECT_NE(request_fingerprint(r), fp);
}

// --- server: happy path, caches, stats -------------------------------------

TEST(Server, OkRequestEndToEndWithWarmCacheAndStats) {
  fault::disarm_all();
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());

  const auto first = call(server.port(), bs_request("e2e-1"));
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(first->id, "e2e-1");
  EXPECT_EQ(first->status, ResponseStatus::kOk);
  EXPECT_EQ(first->code, ErrorCode::kOk);
  EXPECT_EQ(first->attempts, 1u);
  EXPECT_EQ(first->degradation_level, 0u);
  EXPECT_EQ(first->audit, "clean");
  EXPECT_FALSE(first->cached);
  EXPECT_FALSE(first->replayed);
  EXPECT_GT(first->tau_original, 0u);
  EXPECT_LE(first->tau_optimized, first->tau_original);
  // The vouched-for program parses and re-verifies.
  const auto program = ir::from_text_checked(first->program_text);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(ir::verify(*program).empty());

  // Same body, new id: the warm response cache answers without a pipeline
  // run, bit-identical metrics.
  const auto second = call(server.port(), bs_request("e2e-2"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cached);
  EXPECT_EQ(second->id, "e2e-2");
  EXPECT_EQ(second->tau_optimized, first->tau_optimized);
  EXPECT_EQ(second->program_text, first->program_text);

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Server, IpetCacheOutlivesTheRequestThatBuiltIt) {
  // Two requests with the SAME program text but DIFFERENT configs: distinct
  // fingerprints (no response-cache hit), one shared IPET cache entry. The
  // second request exercises the entry after the request-local program that
  // seeded it has been destroyed — it must be self-owned, not a dangling
  // view (regression: heap-use-after-free under the load bench's k1/k2 mix).
  fault::disarm_all();
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());

  Request k1 = bs_request("ipet-k1");
  Request k2 = bs_request("ipet-k2");
  k2.config_id = "k2";
  k2.config = cache::paper_cache_config("k2").config;
  ASSERT_EQ(k1.program_text, k2.program_text);

  const auto first = call(server.port(), k1);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(first->status, ResponseStatus::kOk);
  const auto second = call(server.port(), k2);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second->status, ResponseStatus::kOk);
  EXPECT_FALSE(second->cached);
  EXPECT_GT(second->tau_original, 0u);

  // The same case computed from scratch, with no shared system, agrees —
  // the shared entry changed nothing semantically.
  const auto parsed = ir::from_text_checked(k2.program_text);
  ASSERT_TRUE(parsed.ok());
  const exp::UseCaseResult rebuilt = exp::run_use_case(
      *parsed, "request", {k2.config_id, k2.config}, k2.tech);
  EXPECT_EQ(rebuilt.original.tau_wcet, second->tau_original);
  EXPECT_EQ(rebuilt.optimized.tau_wcet, second->tau_optimized);
  server.stop();
}

// --- server: the result store ---------------------------------------------

/// A response's bytes without the fields that differ per serving.
std::string answer_bytes(Response r) {
  r.id.clear();
  r.cached = false;
  r.replayed = false;
  return serialize_response(r);
}

/// The row and program an in-process single-tech group derives for
/// `request`, with the auditor on as in the daemon.
std::pair<exp::UseCaseResult, std::string> derive(const Request& request) {
  const auto parsed = ir::from_text_checked(request.program_text);
  EXPECT_TRUE(parsed.ok());
  ir::Program shipped(parsed->name());
  exp::UseCaseResult row =
      exp::run_use_case_group(*parsed, "request",
                              {request.config_id, request.config},
                              {request.tech}, {}, nullptr, nullptr,
                              /*audit_soundness=*/true, &shipped)
          .front();
  return {std::move(row), ir::to_text(shipped)};
}

void expect_derived(const Response& r, const Request& request) {
  const auto [row, text] = derive(request);
  ASSERT_EQ(row.outcome, exp::CaseOutcome::kCompleted);
  EXPECT_EQ(r.tau_original, row.original.tau_wcet);
  EXPECT_EQ(r.tau_optimized, row.optimized.tau_wcet);
  EXPECT_EQ(r.mem_cycles_original, row.original.run.mem_cycles);
  EXPECT_EQ(r.mem_cycles_optimized, row.optimized.run.mem_cycles);
  EXPECT_EQ(r.energy_original_nj, row.original.energy.total_nj());
  EXPECT_EQ(r.energy_optimized_nj, row.optimized.energy.total_nj());
  EXPECT_EQ(r.prefetches, row.report.insertions.size());
  EXPECT_EQ(r.program_text, text);
}

TEST(Server, TwinTechIsAnsweredFromTheStore) {
  // A miss solves fdct/k2 for both tech nodes; the 32nm request that
  // follows the 45nm one is a lookup, and its answer is the one a daemon
  // that computes 32nm first gives, byte for byte.
  fault::disarm_all();
  Request first = fdct_request("twin-45");
  first.tech = energy::TechNode::k45nm;
  const Request twin = fdct_request("twin-32");
  ASSERT_EQ(twin.tech, energy::TechNode::k32nm);

  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());
  const auto a = call(server.port(), first);
  const auto b = call(server.port(), twin);
  server.stop();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a->cached);
  EXPECT_TRUE(b->cached);
  EXPECT_EQ(b->id, "twin-32");
  EXPECT_EQ(b->status, ResponseStatus::kOk);
  EXPECT_EQ(b->attempts, 1u);
  EXPECT_GT(b->prefetches, 0u);
  EXPECT_EQ(server.stats().cache_hits, 1u);
  expect_derived(*a, first);
  expect_derived(*b, twin);

  Server fresh(quick_options());
  ASSERT_TRUE(fresh.start().ok());
  const auto direct = call(fresh.port(), twin);
  fresh.stop();
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(direct->cached);
  EXPECT_EQ(answer_bytes(*b), answer_bytes(*direct));
}

TEST(Server, DegradedAnswerIsNeverStored) {
  // A transient fault degrades one answer. The same body afterwards is
  // computed afresh and comes back clean; only that clean answer is
  // stored.
  fault::disarm_all();
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());
  fault::arm("core.reanalyze", /*skip=*/0, /*shots=*/2);
  const auto degraded = call(server.port(), fdct_request("degraded-1"));
  fault::disarm_all();
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();
  EXPECT_EQ(degraded->status, ResponseStatus::kDegraded);

  const auto clean = call(server.port(), fdct_request("degraded-2"));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->status, ResponseStatus::kOk);
  EXPECT_FALSE(clean->cached);
  EXPECT_EQ(clean->attempts, 1u);

  const auto stored = call(server.port(), fdct_request("degraded-3"));
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(stored->cached);
  EXPECT_EQ(answer_bytes(*stored), answer_bytes(*clean));

  // An answer the escalated retry recovered is not stored either (another
  // deadline makes it another group).
  Request retried = fdct_request("retried-1");
  retried.deadline_ms = 60000;
  fault::arm("core.reanalyze");
  const auto recovered = call(server.port(), retried);
  fault::disarm_all();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->status, ResponseStatus::kOk);
  EXPECT_EQ(recovered->attempts, 2u);
  retried.id = "retried-2";
  const auto recomputed = call(server.port(), retried);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed->cached);
  EXPECT_EQ(recomputed->attempts, 1u);
  server.stop();
  EXPECT_EQ(server.stats().cache_hits, 1u);

  // Without the auditor nothing is audited clean, so nothing is stored.
  ServerOptions unaudited = quick_options();
  unaudited.audit_soundness = false;
  Server plain(unaudited);
  ASSERT_TRUE(plain.start().ok());
  for (const char* id : {"unaudited-1", "unaudited-2"}) {
    const auto r = call(plain.port(), fdct_request(id));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, ResponseStatus::kOk);
    EXPECT_EQ(r->audit, "skipped");
    EXPECT_FALSE(r->cached);
  }
  plain.stop();
}

TEST(Server, ConcurrentClientsShareTheStore) {
  // Four clients against four workers, both tech nodes of each group sent
  // back to back and every case twice, so twins race to compute and
  // insert the same group. Every answer is the in-process derivation of
  // its case, however it was served.
  fault::disarm_all();
  std::vector<Request> cases;
  for (const char* program : {"bs", "crc", "fdct"})
    for (const char* config : {"k1", "k2"})
      for (const auto tech : {energy::TechNode::k45nm, energy::TechNode::k32nm}) {
        Request r = bs_request("");
        r.config_id = config;
        r.config = cache::paper_cache_config(config).config;
        r.tech = tech;
        r.program_text = ir::to_text(suite::build_benchmark(program));
        cases.push_back(std::move(r));
      }
  std::vector<Request> requests;
  for (int round = 0; round < 2; ++round)
    for (const Request& c : cases) {
      requests.push_back(c);
      requests.back().id = "mix-" + std::to_string(requests.size());
    }

  ServerOptions options = quick_options();
  options.workers = 4;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  std::vector<Response> answers(requests.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
        auto r = call(server.port(), requests[i]);
        if (r.ok()) answers[i] = std::move(r).value();
        else ++failures;
      }
    });
  for (std::thread& t : clients) t.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0u);
  std::uint64_t cached = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(answers[i].status, ResponseStatus::kOk) << requests[i].id;
    EXPECT_EQ(answers[i].id, requests[i].id);
    cached += answers[i].cached;
    // Both sends of a case carry the same answer.
    EXPECT_EQ(answer_bytes(answers[i]),
              answer_bytes(answers[i % cases.size()]))
        << requests[i].id;
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(requests[i].id);
    expect_derived(answers[i], cases[i]);
  }
  EXPECT_EQ(server.stats().cache_hits, cached);
  EXPECT_GT(cached, 0u);
}

TEST(ResultStore, EvictsLeastRecentlyUsedGroupsToItsByteBound) {
  auto request = [](std::uint32_t capacity, energy::TechNode tech) {
    Request r;
    r.config = {1, 16, capacity};
    r.tech = tech;
    r.program_text = "program";
    return r;
  };
  auto answer = [](char fill) {
    Response r;
    r.status = ResponseStatus::kOk;
    r.program_text = std::string(1000, fill);
    return r;
  };
  const auto k45 = energy::TechNode::k45nm;
  const auto k32 = energy::TechNode::k32nm;

  // One group's charge, from a store that never evicts.
  ResultStore unbounded(SIZE_MAX);
  EXPECT_EQ(unbounded.bytes(), 0u);
  unbounded.insert(request(256, k45), nullptr, {{k45, answer('a')}});
  const std::size_t group = unbounded.bytes();
  ASSERT_GT(group, 1000u);
  // The first insert of a tech wins; the twin joins the same group.
  unbounded.insert(request(256, k45), nullptr, {{k45, answer('x')}});
  EXPECT_EQ(unbounded.find(request(256, k45))->program_text[0], 'a');
  EXPECT_FALSE(unbounded.find(request(256, k32)));
  unbounded.insert(request(256, k32), nullptr, {{k32, answer('b')}});
  EXPECT_EQ(unbounded.find(request(256, k32))->program_text[0], 'b');

  // Room for two groups: the least recently used one leaves.
  const std::size_t bound = 2 * group + group / 2;
  ResultStore store(bound);
  store.insert(request(256, k45), nullptr, {{k45, answer('a')}});
  store.insert(request(512, k45), nullptr, {{k45, answer('b')}});
  EXPECT_TRUE(store.find(request(256, k45)));  // 512 is now the oldest
  store.insert(request(1024, k45), nullptr, {{k45, answer('c')}});
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_LE(store.bytes(), bound);
  EXPECT_FALSE(store.find(request(512, k45)));
  EXPECT_TRUE(store.find(request(256, k45)));
  EXPECT_TRUE(store.find(request(1024, k45)));

  // A group larger than the whole bound is not kept at all.
  ResultStore tiny(group / 2);
  tiny.insert(request(256, k45), nullptr, {{k45, answer('a')}});
  EXPECT_EQ(tiny.bytes(), 0u);
  EXPECT_EQ(tiny.evictions(), 1u);
  EXPECT_FALSE(tiny.find(request(256, k45)));
}

TEST(StoreObs, CountersAndSpansTellHitsFromMisses) {
  // serve.store.hits reconciles with ServerStats::cache_hits, and each
  // request's own trace shows whether it ran the pipeline.
  fault::disarm_all();
  const bool metrics_were = obs::enabled();
  const bool trace_was = obs::trace_enabled();
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  obs::reset_trace();
  auto counter = [](const char* name) {
    for (const auto& [n, v] : obs::registry().snapshot().counters)
      if (n == name) return v;
    return std::uint64_t{0};
  };
  const std::uint64_t hits_before = counter("serve.store.hits");
  const std::uint64_t misses_before = counter("serve.store.misses");

  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());
  Request twin = bs_request("obs-twin");
  twin.tech = energy::TechNode::k32nm;
  Request other = bs_request("obs-other-config");
  other.config_id = "k2";
  other.config = cache::paper_cache_config("k2").config;
  for (const Request& r :
       {bs_request("obs-miss"), twin, bs_request("obs-again"), other})
    ASSERT_TRUE(call(server.port(), r).ok());
  server.stop();

  const std::uint64_t hits = counter("serve.store.hits") - hits_before;
  EXPECT_EQ(hits, server.stats().cache_hits);
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(counter("serve.store.misses") - misses_before, 2u);
  auto spans_of = [](const std::string& id) {
    std::vector<std::string> names;
    std::uint64_t ctx = support::fnv1a(id);
    if (ctx == 0) ctx = 1;
    for (const obs::TraceEvent& e : obs::drain_trace_context(ctx))
      names.emplace_back(e.name);
    return names;
  };
  auto has = [](const std::vector<std::string>& names, const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const char* id : {"obs-miss", "obs-other-config"}) {
    const std::vector<std::string> names = spans_of(id);
    for (const char* span : {"serve.process", "serve.store_lookup",
                             "serve.parse", "serve.pipeline", "serve.encode"})
      EXPECT_TRUE(has(names, span)) << id << " lacks " << span;
  }
  for (const char* id : {"obs-twin", "obs-again"}) {
    const std::vector<std::string> names = spans_of(id);
    EXPECT_TRUE(has(names, "serve.store_lookup")) << id;
    EXPECT_FALSE(has(names, "serve.pipeline")) << id;
    EXPECT_FALSE(has(names, "serve.parse")) << id;
  }
  obs::reset_trace();
  obs::set_trace_enabled(trace_was);
  obs::set_enabled(metrics_were);
}

TEST(Server, StopIsIdempotentAndServesNothingAfterDrain) {
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());
  const std::uint16_t port = server.port();
  server.stop();
  server.stop();  // second drain is a no-op
  const auto refused = call(port, bs_request("after-drain"));
  EXPECT_FALSE(refused.ok());
}

// --- server: untrusted bytes -----------------------------------------------

TEST(Server, HostileBytesGetStructuredErrorsNeverHangs) {
  fault::disarm_all();
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());

  // Wrong magic line.
  auto r = raw_call(server.port(), "GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->status, ResponseStatus::kError);
  EXPECT_EQ(r->code, ErrorCode::kMalformedInput);
  EXPECT_EQ(r->id, "-");

  // Unknown header key.
  r = raw_call(server.port(),
               "ucp-request v1\nid x\nevil-key 1\npayload 0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, ErrorCode::kMalformedInput);

  // Declared payload beyond the cap: rejected before allocation.
  r = raw_call(server.port(),
               "ucp-request v1\nid x\nconfig k1 4 32 16384\ntech 45nm\n"
               "payload 999999999999\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, ErrorCode::kMalformedInput);

  // Truncated framed payload (declares more bytes than it sends).
  r = raw_call(server.port(),
               "ucp-request v1\nid x\nconfig k1 4 32 16384\ntech 45nm\n"
               "payload 64\nshort");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, ErrorCode::kMalformedInput);

  // Well-framed request whose payload is not a program: the codec rejects,
  // and the reply is attributed to the request id.
  Request bad = bs_request("bad-program");
  bad.program_text = "# ucp-program v1\nprogram p\nentry 0\nblock zero\n";
  const auto served = call(server.port(), bad);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->id, "bad-program");
  EXPECT_EQ(served->status, ResponseStatus::kError);
  EXPECT_EQ(served->code, ErrorCode::kMalformedInput);
  EXPECT_TRUE(served->program_text.empty());

  // A clean disconnect (no bytes) is dropped, not counted malformed.
  { support::tcp_connect(server.port(), 5000); }

  // The daemon survived all of it and still serves.
  const auto healthy = call(server.port(), bs_request("still-alive"));
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->status, ResponseStatus::kOk);

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.malformed, 5u);
  EXPECT_EQ(stats.ok, 1u);
}

// --- server: admission control ---------------------------------------------

TEST(Server, OverloadShedsWithRetryAfterBeforeReadingBytes) {
  fault::disarm_all();
  std::atomic<bool> hold{true};
  ServerOptions options = quick_options();
  options.queue_capacity = 2;
  options.retry_after_ms = 70;
  options.hold_workers = &hold;
  Server server(options);
  ASSERT_TRUE(server.start().ok());

  // Fill the admission queue while workers are held, then overflow it.
  // Shed connections get the structured kOverloaded reply *without sending
  // a single request byte*.
  std::vector<support::Socket> held_conns;
  std::size_t shed_seen = 0;
  const std::size_t total = options.queue_capacity + 3;
  for (std::size_t i = 0; i < total; ++i) {
    auto conn = support::tcp_connect(server.port(), 5000);
    ASSERT_TRUE(conn.ok());
    // Wait until the accept loop has classified this connection: either
    // admitted (queue depth grows) or shed (a response arrives).
    for (int spin = 0; spin < 200; ++spin) {
      const ServerStats s = server.stats();
      if (s.accepted + s.shed > i) break;
      ::usleep(10000);
    }
    if (server.stats().shed > shed_seen) {
      ++shed_seen;
      support::LineReader reader(*conn, 4096, 5000);
      const auto shed = read_response(reader, ProtocolLimits{});
      ASSERT_TRUE(shed.ok()) << shed.status().message();
      EXPECT_EQ(shed->status, ResponseStatus::kError);
      EXPECT_EQ(shed->code, ErrorCode::kOverloaded);
      EXPECT_EQ(shed->retry_after_ms, 70u);
      EXPECT_EQ(shed->id, "-");
    } else {
      held_conns.push_back(std::move(*conn));
    }
  }
  EXPECT_EQ(shed_seen, 3u);
  EXPECT_EQ(held_conns.size(), options.queue_capacity);

  // Release the workers; the admitted connections are served normally.
  hold.store(false);
  for (support::Socket& conn : held_conns) {
    ASSERT_TRUE(write_all(conn, serialize_request(bs_request("held"))).ok());
    support::LineReader reader(conn, 4096, 10000);
    const auto response = read_response(reader, ProtocolLimits{});
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_NE(response->status, ResponseStatus::kError);
  }
  server.stop();
  EXPECT_EQ(server.stats().shed, 3u);
}

// --- server: retry ladder --------------------------------------------------

TEST(Server, TransientFaultRecoversOnTheEscalatedRetry) {
  fault::disarm_all();
  ServerOptions options = quick_options();
  options.audit_soundness = true;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  fault::arm("core.reanalyze");  // one-shot: first attempt degrades
  const auto response = call(server.port(), fdct_request("ladder-retry"));
  fault::disarm_all();
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, ResponseStatus::kOk);
  EXPECT_EQ(response->attempts, 2u);
  EXPECT_EQ(response->degradation_level, 1u);
  EXPECT_EQ(response->audit, "clean");
  server.stop();
  EXPECT_EQ(server.stats().retried, 1u);
}

TEST(Server, PersistentFaultDegradesToIdentityFallbackNeverErrors) {
  fault::disarm_all();
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());
  // Fires on the configured *and* the escalated attempt; the terminal rung
  // ships the identity transform — a degraded response, not an error.
  fault::arm("core.reanalyze", /*skip=*/0, /*shots=*/2);
  const Request request = fdct_request("ladder-identity");
  const auto response = call(server.port(), request);
  fault::disarm_all();
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, ResponseStatus::kDegraded);
  EXPECT_EQ(response->code, ErrorCode::kAnalysisFailed);
  EXPECT_EQ(response->attempts, 3u);
  EXPECT_EQ(response->degradation_level, 2u);
  EXPECT_NE(response->detail.find("identity-transform fallback"),
            std::string::npos)
      << response->detail;
  // The identity transform is sound and inserted nothing: the vouched-for
  // program is the canonicalized input, with baseline metrics.
  EXPECT_EQ(response->prefetches, 0u);
  EXPECT_EQ(response->tau_optimized, response->tau_original);
  const auto parsed = ir::from_text_checked(request.program_text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(response->program_text, ir::to_text(*parsed));
  server.stop();
}

TEST(Server, NonRetryableFaultIsAStructuredErrorInOneAttempt) {
  fault::disarm_all();
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());
  fault::arm("exp.measure");  // baseline measurement fails, not retryable
  const auto response = call(server.port(), bs_request("ladder-fail"));
  fault::disarm_all();
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, ResponseStatus::kError);
  EXPECT_EQ(response->code, ErrorCode::kFaultInjected);
  EXPECT_EQ(response->attempts, 1u);
  EXPECT_EQ(response->degradation_level, 3u);
  EXPECT_TRUE(response->program_text.empty());
  server.stop();
}

TEST(Server, RequestedDeadlineNeverProducesAnUnsoundResponse) {
  // A 1ms deadline on a real program: whatever the watchdog manages to
  // cancel, the ladder's terminal rung guarantees the response is ok or
  // degraded — never an error, and any returned program is sound.
  fault::disarm_all();
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());
  Request request = fdct_request("deadline-1ms");
  request.deadline_ms = 1;
  const auto response = call(server.port(), request);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_NE(response->status, ResponseStatus::kError)
      << "deadline pressure must degrade, not fail";
  if (response->status == ResponseStatus::kDegraded) {
    EXPECT_TRUE(response->code == ErrorCode::kCancelled ||
                response->code == ErrorCode::kDeadlineExceeded)
        << error_code_name(response->code);
    EXPECT_EQ(response->tau_optimized, response->tau_original);
  }
  EXPECT_FALSE(response->program_text.empty());
  server.stop();
}

// --- server: fault containment at the service boundaries -------------------

TEST(Server, ServiceBoundaryFaultsAreContained) {
  fault::disarm_all();
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());

  // Pipeline-boundary fault: structured error, daemon survives.
  fault::arm("serve.process");
  auto r = call(server.port(), bs_request("fault-process"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, ResponseStatus::kError);
  EXPECT_EQ(r->code, ErrorCode::kFaultInjected);

  // Parse-boundary fault: structured, un-attributed error.
  fault::arm("serve.parse");
  r = call(server.port(), bs_request("fault-parse"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, ErrorCode::kFaultInjected);
  EXPECT_EQ(r->id, "-");

  // Read-boundary fault: the connection is dropped (transport error on the
  // client side), never a wedged worker.
  fault::arm("serve.read");
  r = call(server.port(), bs_request("fault-read"));
  EXPECT_FALSE(r.ok());

  fault::disarm_all();
  const auto healthy = call(server.port(), bs_request("fault-survivor"));
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->status, ResponseStatus::kOk);
  server.stop();
}

// --- server: idempotent journal replay -------------------------------------

TEST(Server, JournalReplaysIdsIdempotentlyAcrossRestart) {
  fault::disarm_all();
  TempFile journal("serve_journal");
  ServerOptions options = quick_options();
  options.journal_path = journal.path;

  Response original;
  {
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    const auto first = call(server.port(), bs_request("idem-1"));
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first->status, ResponseStatus::kOk);
    original = *first;

    // Same id, same body, same process: replayed from the journal.
    const auto again = call(server.port(), bs_request("idem-1"));
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->replayed);
    EXPECT_EQ(again->tau_optimized, original.tau_optimized);

    // Same id, *different* body: a client bug, structurally rejected.
    Request conflicting = bs_request("idem-1");
    conflicting.deadline_ms = 4242;
    const auto conflict = call(server.port(), conflicting);
    ASSERT_TRUE(conflict.ok());
    EXPECT_EQ(conflict->status, ResponseStatus::kError);
    EXPECT_EQ(conflict->code, ErrorCode::kMalformedInput);
    EXPECT_NE(conflict->detail.find("idem-1"), std::string::npos);
    server.stop();
    EXPECT_EQ(server.stats().replayed, 1u);
  }

  // Restart on the same journal: the id still answers without recomputing,
  // metric for metric.
  {
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    EXPECT_NE(server.journal_note().find("restored"), std::string::npos)
        << server.journal_note();
    const auto replay = call(server.port(), bs_request("idem-1"));
    ASSERT_TRUE(replay.ok());
    EXPECT_TRUE(replay->replayed);
    EXPECT_EQ(replay->status, ResponseStatus::kOk);
    EXPECT_EQ(replay->tau_original, original.tau_original);
    EXPECT_EQ(replay->tau_optimized, original.tau_optimized);
    EXPECT_EQ(replay->program_text, original.program_text);
    server.stop();
  }
}

TEST(Server, JournalWriteFaultDisablesJournalingNotService) {
  fault::disarm_all();
  TempFile journal("serve_journal_fault");
  ServerOptions options = quick_options();
  options.journal_path = journal.path;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  fault::arm("serve.journal_write");
  const auto response = call(server.port(), bs_request("jw-fault"));
  fault::disarm_all();
  // The request is served; journaling degraded to off for this process.
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, ResponseStatus::kOk);
  // Without a journal entry the id recomputes (response cache still hits,
  // but the replay flag must stay false).
  const auto again = call(server.port(), bs_request("jw-fault"));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->replayed);
  server.stop();
}

TEST(Server, RespondFaultAfterJournalingIsRecoveredByClientRetry) {
  fault::disarm_all();
  TempFile journal("serve_journal_respond");
  ServerOptions options = quick_options();
  options.journal_path = journal.path;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  // The response write is dropped *after* the journal append — the crash
  // window the journal exists for. The client sees a transport error...
  fault::arm("serve.respond");
  const auto dropped = call(server.port(), bs_request("respond-fault"));
  fault::disarm_all();
  EXPECT_FALSE(dropped.ok());
  // ...and its retry with the same id replays the journaled answer instead
  // of recomputing.
  const auto retry = call(server.port(), bs_request("respond-fault"));
  ASSERT_TRUE(retry.ok()) << retry.status().message();
  EXPECT_TRUE(retry->replayed);
  EXPECT_EQ(retry->status, ResponseStatus::kOk);
  server.stop();
}

// --- admin plane -----------------------------------------------------------

TEST(Admin, DisabledByDefaultInProcess) {
  Server server(quick_options());
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(server.admin_port(), 0);
  server.stop();
}

TEST(Admin, HealthStatsProfileFlightAndUnknownVerb) {
  const bool flight_was_on = obs::flight_enabled();
  obs::set_flight_enabled(false);
  ServerOptions options = quick_options();
  options.admin_enabled = true;
  Server server(options);
  ASSERT_TRUE(server.start().ok());
  ASSERT_NE(server.admin_port(), 0);
  ASSERT_NE(server.admin_port(), server.port());

  // HEALTH answers before any request: serving, idle, build-stamped.
  const auto health = admin_call(server.admin_port(), "HEALTH");
  ASSERT_TRUE(health.ok()) << health.status().message();
  EXPECT_TRUE(health->ok);
  EXPECT_EQ(health->verb, "HEALTH");
  EXPECT_EQ(health->payload.rfind("{\"status\":\"serving\"", 0), 0u)
      << health->payload;
  EXPECT_NE(health->payload.find("\"workers\":1"), std::string::npos);
  EXPECT_NE(health->payload.find("\"build\":{\"git_sha\":"),
            std::string::npos);

  // Two served requests and one malformed probe, then STATS reconciles
  // with what the clients saw.
  for (const char* id : {"admin-1", "admin-2"}) {
    const auto response = call(server.port(), bs_request(id));
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response->status, ResponseStatus::kOk);
  }
  {
    const auto malformed = raw_call(server.port(), "junk\n");
    ASSERT_TRUE(malformed.ok());
    EXPECT_EQ(malformed->code, ErrorCode::kMalformedInput);
  }
  const auto stats = admin_call(server.admin_port(), "STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(stats->ok);
  EXPECT_EQ(stats->payload.rfind("{\"server\":{\"accepted\":", 0), 0u)
      << stats->payload;
  EXPECT_NE(stats->payload.find("\"requests\":2"), std::string::npos)
      << stats->payload;
  EXPECT_NE(stats->payload.find("\"ok\":2"), std::string::npos);
  EXPECT_NE(stats->payload.find("\"malformed\":1"), std::string::npos);
  EXPECT_NE(stats->payload.find("\"uptime_ms\":"), std::string::npos);
  EXPECT_NE(stats->payload.find("\"metrics\":{\"build\":"),
            std::string::npos);

  // The same counters in Prometheus text exposition, under the ucp_ucpd_
  // namespace (the registry owns ucp_serve_*, so one scrape never emits a
  // duplicate metric name, whatever the registry holds by now).
  const auto prom = admin_call(server.admin_port(), "STATS prom");
  ASSERT_TRUE(prom.ok()) << prom.status().message();
  EXPECT_TRUE(prom->ok);
  EXPECT_NE(prom->payload.find("# TYPE ucp_ucpd_requests counter\n"
                               "ucp_ucpd_requests 2\n"),
            std::string::npos)
      << prom->payload;
  EXPECT_NE(prom->payload.find("ucp_ucpd_malformed 1\n"), std::string::npos);
  std::vector<std::string> declared;
  std::istringstream lines(prom->payload);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("# TYPE ", 0) == 0)
      declared.push_back(line.substr(7, line.find(' ', 7) - 7));
  std::sort(declared.begin(), declared.end());
  EXPECT_EQ(std::adjacent_find(declared.begin(), declared.end()),
            declared.end())
      << "a metric name is declared twice in one scrape";

  // PROFILE with tracing off explains itself instead of dumping nothing.
  const auto profile = admin_call(server.admin_port(), "PROFILE");
  ASSERT_TRUE(profile.ok()) << profile.status().message();
  EXPECT_TRUE(profile->ok);
  EXPECT_NE(profile->payload.find("no spans recorded"), std::string::npos);

  // FLIGHT is a served error while the recorder is off, and a parseable
  // JSON-lines dump once it is on.
  const auto off = admin_call(server.admin_port(), "FLIGHT");
  ASSERT_TRUE(off.ok()) << off.status().message();
  EXPECT_FALSE(off->ok);
  EXPECT_EQ(off->payload, "flight recorder disabled\n");
  obs::set_flight_enabled(true);
  obs::flight_note("test.admin", "flight on");
  const auto flight = admin_call(server.admin_port(), "FLIGHT");
  ASSERT_TRUE(flight.ok()) << flight.status().message();
  EXPECT_TRUE(flight->ok);
  EXPECT_EQ(
      flight->payload.rfind("{\"kind\":\"header\",\"reason\":\"admin_scrape\"",
                            0),
      0u)
      << flight->payload.substr(0, 120);
  obs::set_flight_enabled(flight_was_on);

  // Unknown verbs get a served error that names the verb and the menu.
  const auto bogus = admin_call(server.admin_port(), "BOGUS");
  ASSERT_TRUE(bogus.ok()) << bogus.status().message();
  EXPECT_FALSE(bogus->ok);
  EXPECT_NE(bogus->payload.find("unknown admin verb 'BOGUS'"),
            std::string::npos);

  // Every successful scrape above was counted (the failed FLIGHT and the
  // unknown verb still produced framed replies, so they count too). The
  // counter is bumped after the reply write, so give the admin thread a
  // beat to get there.
  ServerStats after = server.stats();
  for (int i = 0; i < 100 && after.admin_scrapes < 7u; ++i) {
    ::usleep(10000);
    after = server.stats();
  }
  EXPECT_EQ(after.admin_scrapes, 7u);
  EXPECT_EQ(after.admin_dropped, 0u);
  EXPECT_EQ(after.flight_dumps, 1u);
  server.stop();

  // Draining flips the HEALTH status for scrapes that race the shutdown;
  // after stop() the listener is gone entirely.
  EXPECT_FALSE(admin_call(server.admin_port(), "HEALTH").ok());
}

// --- the real daemon binary ------------------------------------------------

struct DaemonProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  std::uint16_t port = 0;

  ~DaemonProcess() {
    if (stdout_fd >= 0) ::close(stdout_fd);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
};

/// fork/execs ucpd with `extra_args`, blocks until the "listening" line
/// announces the port. Returns a handle that SIGKILLs on destruction.
bool spawn_daemon(const std::vector<std::string>& extra_args,
                  DaemonProcess& daemon) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<std::string> args = {UCP_UCPD_PATH, "--port=0",
                                     "--workers=2"};
    for (const std::string& a : extra_args) args.push_back(a);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(UCP_UCPD_PATH, argv.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  daemon.pid = pid;
  daemon.stdout_fd = out_pipe[0];
  // Read stdout until the announce line: "ucpd listening on 127.0.0.1:N".
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos) {
    const ssize_t n = ::read(daemon.stdout_fd, &c, 1);
    if (n <= 0) return false;
    banner.push_back(c);
  }
  const std::string needle = "127.0.0.1:";
  const std::size_t at = banner.find(needle);
  if (at == std::string::npos) return false;
  daemon.port = static_cast<std::uint16_t>(
      std::stoul(banner.substr(at + needle.size())));
  return daemon.port != 0;
}

TEST(Daemon, SigkillAndRestartReplaysJournaledIdsThenDrainsClean) {
  TempFile journal("ucpd_journal");

  // First daemon: answer one request, then die by SIGKILL with another
  // connection open mid-flight (no response will ever come for it).
  Response first;
  {
    DaemonProcess daemon;
    ASSERT_TRUE(spawn_daemon({"--journal=" + journal.path}, daemon));
    const auto response = call(daemon.port, bs_request("kill-1"), 60000);
    ASSERT_TRUE(response.ok()) << response.status().message();
    ASSERT_EQ(response->status, ResponseStatus::kOk);
    first = *response;

    auto midflight = support::tcp_connect(daemon.port, 5000);
    ASSERT_TRUE(midflight.ok());
    ASSERT_TRUE(
        write_all(*midflight, serialize_request(bs_request("kill-2")))
            .ok());
    ASSERT_EQ(::kill(daemon.pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    daemon.pid = -1;  // already reaped
  }

  // Second daemon on the same journal: the answered id replays
  // byte-identically; the mid-flight id is served correctly either way
  // (replayed if the first daemon journaled it before SIGKILL landed,
  // computed fresh if not); a malformed probe gets a structured error;
  // SIGTERM drains with exit code 0.
  {
    DaemonProcess daemon;
    ASSERT_TRUE(spawn_daemon({"--journal=" + journal.path}, daemon));

    const auto replay = call(daemon.port, bs_request("kill-1"), 60000);
    ASSERT_TRUE(replay.ok()) << replay.status().message();
    EXPECT_TRUE(replay->replayed);
    EXPECT_EQ(replay->status, ResponseStatus::kOk);
    EXPECT_EQ(replay->tau_original, first.tau_original);
    EXPECT_EQ(replay->tau_optimized, first.tau_optimized);
    EXPECT_EQ(replay->program_text, first.program_text);

    // The mid-flight id: whether the SIGKILL beat the journal write is a
    // genuine race, but both outcomes must serve the same sound answer —
    // and it must match the journaled sibling (identical request body).
    const auto fresh = call(daemon.port, bs_request("kill-2"), 60000);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh->status, ResponseStatus::kOk);
    EXPECT_EQ(fresh->tau_original, first.tau_original);
    EXPECT_EQ(fresh->tau_optimized, first.tau_optimized);

    const auto malformed = raw_call(daemon.port, "junk\n");
    ASSERT_TRUE(malformed.ok());
    EXPECT_EQ(malformed->code, ErrorCode::kMalformedInput);

    ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    daemon.pid = -1;
  }
}

/// Reads the next '\n'-terminated line from the daemon's stdout pipe.
bool read_stdout_line(DaemonProcess& daemon, std::string& line) {
  line.clear();
  char c = 0;
  while (true) {
    const ssize_t n = ::read(daemon.stdout_fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line.push_back(c);
  }
}

TEST(Daemon, AdminPlaneAnnouncesScrapesAndSigquitDumpsFlight) {
  TempFile flight("ucpd_flight");
  DaemonProcess daemon;
  ASSERT_TRUE(spawn_daemon({"--flight=" + flight.path}, daemon));

  // The second stdout line announces the admin plane (the first line is
  // the listening announce, parsed byte-by-byte by spawn_daemon — the
  // ordering is part of the stdout contract).
  std::string admin_line;
  ASSERT_TRUE(read_stdout_line(daemon, admin_line));
  const std::string needle = "ucpd admin on 127.0.0.1:";
  ASSERT_EQ(admin_line.rfind(needle, 0), 0u) << admin_line;
  const auto admin_port =
      static_cast<std::uint16_t>(std::stoul(admin_line.substr(needle.size())));
  ASSERT_NE(admin_port, 0);

  const auto response = call(daemon.port, bs_request("ops-1"), 60000);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, ResponseStatus::kOk);

  const auto health = admin_call(admin_port, "HEALTH");
  ASSERT_TRUE(health.ok()) << health.status().message();
  EXPECT_TRUE(health->ok);
  EXPECT_NE(health->payload.find("\"status\":\"serving\""),
            std::string::npos);
  const auto stats = admin_call(admin_port, "STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_NE(stats->payload.find("\"requests\":1"), std::string::npos)
      << stats->payload;

  // SIGQUIT: a forced flight dump to --flight=FILE, and the daemon keeps
  // serving afterwards — the dump is an operator snapshot, not a shutdown.
  ASSERT_EQ(::kill(daemon.pid, SIGQUIT), 0);
  std::string dump;
  for (int i = 0; i < 200 && dump.empty(); ++i) {
    std::FILE* f = std::fopen(flight.path.c_str(), "rb");
    if (f != nullptr) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) dump.append(buf, n);
      std::fclose(f);
    }
    if (dump.empty()) ::usleep(20000);
  }
  ASSERT_FALSE(dump.empty()) << "no flight dump after SIGQUIT";
  EXPECT_EQ(dump.rfind("{\"kind\":\"header\",\"reason\":\"sigquit\"", 0), 0u)
      << dump.substr(0, 120);
  EXPECT_NE(dump.find("\"build\":{\"git_sha\":"), std::string::npos);

  const auto after = call(daemon.port, bs_request("ops-2"), 60000);
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(after->status, ResponseStatus::kOk);

  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  daemon.pid = -1;
}

TEST(Daemon, NoAdminFlagKeepsTheOpsPlaneOff) {
  DaemonProcess daemon;
  ASSERT_TRUE(spawn_daemon({"--no-admin"}, daemon));
  const auto response = call(daemon.port, bs_request("noadmin-1"), 60000);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, ResponseStatus::kOk);
  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  daemon.pid = -1;
}

TEST(Daemon, RejectsBadArgumentsWithUsage) {
  DaemonProcess daemon;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Silence the usage message in the test log.
    ::freopen("/dev/null", "w", stderr);
    ::execl(UCP_UCPD_PATH, UCP_UCPD_PATH, "--bogus-flag", nullptr);
    ::_exit(127);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

}  // namespace
}  // namespace ucp::serve
