#include "serve/server.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "exp/harness.hpp"
#include "ir/text_codec.hpp"
#include "ir/verify.hpp"
#include "obs/build_info.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "serve/request_journal.hpp"
#include "serve/result_store.hpp"
#include "support/cancellation.hpp"
#include "support/fault_injection.hpp"
#include "support/record_log.hpp"
#include "support/socket.hpp"

namespace ucp::serve {

namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using support::fnv1a;
using support::to_hex;

// Every tech node: a miss solves its (program, geometry) for all of them.
const std::vector<energy::TechNode> kAllTechs = {energy::TechNode::k45nm,
                                                 energy::TechNode::k32nm};
// Minimum gap between trigger-initiated flight dumps (an admin FLIGHT
// scrape always answers; see dump_flight).
constexpr std::int64_t kFlightDumpMinGapMs = 5000;

Response error_response(ErrorCode code, const std::string& detail) {
  Response r;
  r.status = ResponseStatus::kError;
  r.code = code;
  r.detail = detail;
  return r;
}

/// Request ids are `[A-Za-z0-9_.:-]` — everything but ':' is already safe
/// in a filename; keep the per-request trace paths shell-friendly.
std::string trace_file_name(const std::string& id) {
  std::string name = "req-";
  for (const char c : id) name += c == ':' ? '_' : c;
  name += ".trace.json";
  return name;
}

/// Deterministic JSON rendering of a stats snapshot (admin STATS verb;
/// docs/schemas/admin_stats.schema.json). Key order is the declaration
/// order of ServerStats.
std::string stats_json(const ucp::serve::ServerStats& s) {
  std::string out = "{";
  auto field = [&out](const char* key, std::uint64_t v) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(v);
  };
  field("accepted", s.accepted);
  field("shed", s.shed);
  field("requests", s.requests);
  field("malformed", s.malformed);
  field("dropped", s.dropped);
  field("ok", s.ok);
  field("degraded", s.degraded);
  field("errors", s.errors);
  field("cache_hits", s.cache_hits);
  field("replayed", s.replayed);
  field("retried", s.retried);
  field("admin_scrapes", s.admin_scrapes);
  field("admin_dropped", s.admin_dropped);
  field("flight_dumps", s.flight_dumps);
  field("watchdog_fires", s.watchdog_fires);
  field("trace_dumps", s.trace_dumps);
  field("queue_depth", s.queue_depth);
  field("inflight", s.inflight);
  out += '}';
  return out;
}

/// The daemon-lifetime counters in Prometheus text exposition, prefixed
/// `ucp_ucpd_` so they never collide with the registry's `ucp_serve_*`
/// series in the same scrape.
std::string stats_prom(const ucp::serve::ServerStats& s) {
  std::string out;
  auto metric = [&out](const char* name, const char* type, std::uint64_t v) {
    out += "# TYPE ucp_ucpd_";
    out += name;
    out += ' ';
    out += type;
    out += "\nucp_ucpd_";
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  metric("accepted", "counter", s.accepted);
  metric("shed", "counter", s.shed);
  metric("requests", "counter", s.requests);
  metric("malformed", "counter", s.malformed);
  metric("dropped", "counter", s.dropped);
  metric("ok", "counter", s.ok);
  metric("degraded", "counter", s.degraded);
  metric("errors", "counter", s.errors);
  metric("cache_hits", "counter", s.cache_hits);
  metric("replayed", "counter", s.replayed);
  metric("retried", "counter", s.retried);
  metric("admin_scrapes", "counter", s.admin_scrapes);
  metric("admin_dropped", "counter", s.admin_dropped);
  metric("flight_dumps", "counter", s.flight_dumps);
  metric("watchdog_fires", "counter", s.watchdog_fires);
  metric("trace_dumps", "counter", s.trace_dumps);
  metric("queue_depth", "gauge", s.queue_depth);
  metric("inflight", "gauge", s.inflight);
  return out;
}

/// The response of one solved row; `program` is the one the row vouches
/// for.
Response to_response(const exp::UseCaseResult& row,
                     const ir::Program& program) {
  Response response;
  response.attempts = row.attempts;
  response.degradation_level = row.degradation_level;
  response.audit = !row.audit.performed  ? "skipped"
                   : row.audit.violated ? "violated"
                                        : "clean";
  switch (row.outcome) {
    case exp::CaseOutcome::kCompleted:
      response.status = ResponseStatus::kOk;
      response.code = ErrorCode::kOk;
      break;
    case exp::CaseOutcome::kDegraded:
      response.status = ResponseStatus::kDegraded;
      response.code = row.fail_code;
      response.detail = row.fail_detail;
      break;
    case exp::CaseOutcome::kFailed:
      response.status = ResponseStatus::kError;
      response.code = row.fail_code;
      response.detail = row.fail_detail;
      break;
  }
  if (row.outcome != exp::CaseOutcome::kFailed) {
    response.tau_original = row.original.tau_wcet;
    response.tau_optimized = row.optimized.tau_wcet;
    response.mem_cycles_original = row.original.run.mem_cycles;
    response.mem_cycles_optimized = row.optimized.run.mem_cycles;
    response.energy_original_nj = row.original.energy.total_nj();
    response.energy_optimized_nj = row.optimized.energy.total_nj();
    response.prefetches = row.report.insertions.size();
    // The program this response vouches for: the optimizer's output on ok,
    // the canonicalized input (identity transform) on degraded.
    response.program_text = ir::to_text(program);
  }
  return response;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts) : options(std::move(opts)) {}

  ServerOptions options;
  support::Socket listener;
  std::uint16_t port = 0;
  bool started = false;
  std::int64_t start_at_ms = 0;  ///< steady-clock ms at start(), for uptime

  // --- admin plane ---------------------------------------------------------
  support::Socket admin_listener;
  std::uint16_t admin_port = 0;
  std::thread admin_thread;

  // --- admission queue -----------------------------------------------------
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<support::Socket> queue;
  bool draining = false;

  std::thread accept_thread;
  std::vector<std::thread> worker_threads;
  std::unique_ptr<Watchdog> watchdog;  ///< one slot per worker

  // --- idempotent-replay journal -------------------------------------------
  std::mutex journal_mutex;
  RequestJournal journal;
  std::string journal_note;

  // Clean answers of every tech node, and each program's system.
  ResultStore store{kResultStoreBytes};

  // --- stats ---------------------------------------------------------------
  std::atomic<std::uint64_t> n_accepted{0}, n_shed{0}, n_requests{0},
      n_malformed{0}, n_dropped{0}, n_ok{0}, n_degraded{0}, n_errors{0},
      n_cache_hits{0}, n_replayed{0}, n_retried{0}, n_admin_scrapes{0},
      n_admin_dropped{0}, n_flight_dumps{0}, n_watchdog_fires{0},
      n_trace_dumps{0};
  std::atomic<std::int64_t> n_inflight{0};
  std::atomic<std::int64_t> last_flight_dump_ms{-1};

  bool workers_held() const {
    return options.hold_workers &&
           options.hold_workers->load(std::memory_order_relaxed);
  }

  // ---------------------------------------------------------------------
  void accept_loop();
  void worker_loop(Watchdog::Slot& slot);
  void on_watchdog_fire(std::int64_t overdue_ms);
  void admin_loop();
  void handle_admin(support::Socket conn);
  std::string admin_payload(const std::string& verb, bool& ok);
  ServerStats collect_stats();
  void dump_flight(const std::string& reason, bool force);
  void maybe_dump_request_trace(const Request& request, std::uint64_t ctx,
                                bool sampled);
  void shed_connection(support::Socket conn);
  void handle_connection(support::Socket conn, Watchdog::Slot& slot);
  Response process_request(const Request& request, Watchdog::Slot& slot);
  Response run_pipeline(const Request& request, Watchdog::Slot& slot);
  void journal_terminal(const std::string& id, const std::string& fingerprint,
                        const Response& response);
  void send_response(const support::Socket& conn, const Response& response);
  void count_status(const Response& response);
};

void Server::Impl::accept_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (draining) return;
    }
    Expected<support::Socket> conn = tcp_accept(listener, 100);
    if (!conn.ok()) continue;       // transient accept failure
    if (!conn->valid()) continue;   // timeout: re-check the drain flag
    if (UCP_FAULT_POINT("serve.accept")) {
      // Injected accept-boundary failure: the connection is dropped on the
      // floor, exactly like a peer reset between accept and hand-off.
      n_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    bool admit = false;
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (!draining && queue.size() < options.queue_capacity) {
        queue.push_back(std::move(*conn));
        depth = queue.size();
        admit = true;
      }
    }
    if (admit) {
      n_accepted.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        obs::Registry& reg = obs::registry();
        reg.gauge("serve.queue_depth").set(static_cast<std::int64_t>(depth));
        reg.gauge("serve.queue_depth_peak")
            .set_max(static_cast<std::int64_t>(depth));
      }
      queue_cv.notify_one();
    } else {
      shed_connection(std::move(*conn));
    }
  }
}

void Server::Impl::shed_connection(support::Socket conn) {
  // Load shedding happens before a single request byte is read: the
  // structured kOverloaded reply (with an advisory back-off) costs one
  // small write, so a saturated daemon stays responsive instead of letting
  // the accept backlog grow without bound. The id is unknown at this point;
  // "-" marks an un-attributed response.
  n_shed.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled())
    obs::registry().counter("serve.shed").increment();
  Response r = error_response(
      ErrorCode::kOverloaded,
      "admission queue full (" + std::to_string(options.queue_capacity) +
          " pending); retry after " +
          std::to_string(options.retry_after_ms) + "ms");
  r.id = "-";
  r.retry_after_ms = options.retry_after_ms;
  (void)write_all(conn, serialize_response(r));
}

void Server::Impl::worker_loop(Watchdog::Slot& slot) {
  for (;;) {
    support::Socket conn;
    {
      std::unique_lock<std::mutex> lock(queue_mutex);
      for (;;) {
        if (!queue.empty() && !workers_held()) break;
        if (draining && queue.empty()) return;
        // Polling wait: the test-only hold gate is released without a
        // notification, and drain must never strand a worker.
        queue_cv.wait_for(lock, std::chrono::milliseconds(50));
      }
      conn = std::move(queue.front());
      queue.pop_front();
      if (obs::enabled())
        obs::registry()
            .gauge("serve.queue_depth")
            .set(static_cast<std::int64_t>(queue.size()));
    }
    handle_connection(std::move(conn), slot);
  }
}

void Server::Impl::on_watchdog_fire(std::int64_t overdue_ms) {
  n_watchdog_fires.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled())
    obs::registry().counter("serve.watchdog_fires").increment();
  obs::log(obs::LogLevel::kWarn, "serve", "watchdog_fire",
           "wall-clock deadline enforced; cancelling the worker slot",
           obs::LogFields().num("overdue_ms", overdue_ms));
  // A fired deadline is exactly the "what was the daemon doing?" moment the
  // flight recorder exists for.
  dump_flight("watchdog_fire", /*force=*/false);
}

void Server::Impl::send_response(const support::Socket& conn,
                                 const Response& response) {
  if (UCP_FAULT_POINT("serve.respond")) {
    // Injected respond-boundary failure: connection dropped after the work
    // (and the journal append) happened — the client's retry with the same
    // id replays the journaled response instead of recomputing.
    n_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Status written = write_all(conn, serialize_response(response));
  if (!written.ok()) n_dropped.fetch_add(1, std::memory_order_relaxed);
}

void Server::Impl::count_status(const Response& response) {
  switch (response.status) {
    case ResponseStatus::kOk:
      n_ok.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kDegraded:
      n_degraded.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kError:
      n_errors.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    static obs::Counter& c_ok = reg.counter("serve.responses_ok");
    static obs::Counter& c_degraded =
        reg.counter("serve.responses_degraded");
    static obs::Counter& c_errors = reg.counter("serve.responses_error");
    (response.status == ResponseStatus::kOk
         ? c_ok
         : response.status == ResponseStatus::kDegraded ? c_degraded
                                                        : c_errors)
        .increment();
  }
}

void Server::Impl::handle_connection(support::Socket conn,
                                     Watchdog::Slot& slot) {
  obs::Span span("serve.request");
  const auto started_at = std::chrono::steady_clock::now();
  if (UCP_FAULT_POINT("serve.read")) {
    n_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  support::LineReader reader(conn, options.limits.max_line_bytes,
                             options.io_timeout_ms);
  Expected<Request> request = read_request(reader, options.limits);
  const bool parse_fault = UCP_FAULT_POINT("serve.parse");
  Response response;
  if (parse_fault || !request.ok()) {
    if (!parse_fault && request.code() == ErrorCode::kNotFound) {
      // Peer connected and hung up without a byte: a clean disconnect, not
      // a malformed request.
      n_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    n_malformed.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
      obs::registry().counter("serve.malformed").increment();
    response = parse_fault
                   ? error_response(ErrorCode::kFaultInjected,
                                    "injected request-parse failure")
                   : error_response(request.code(),
                                    request.status().detail());
    response.id = "-";
  } else {
    const std::uint64_t seq =
        n_requests.fetch_add(1, std::memory_order_relaxed);
    // Correlation id for everything this request triggers: spans and
    // flight records opened under the scope carry it, so one request's
    // work is separable from a loaded daemon's interleaved trace. Zero
    // means "uncorrelated", so an unlucky hash is nudged off it.
    std::uint64_t ctx = fnv1a(request->id);
    if (ctx == 0) ctx = 1;
    const bool sampled = options.trace_sample_every > 0 &&
                         obs::trace_enabled() &&
                         seq % options.trace_sample_every == 0;
    const std::int64_t inflight =
        n_inflight.fetch_add(1, std::memory_order_relaxed) + 1;
    if (obs::enabled()) obs::registry().gauge("serve.inflight").set(inflight);
    {
      obs::TraceContextScope ctx_scope(ctx);
      response = process_request(*request, slot);
    }
    n_inflight.fetch_sub(1, std::memory_order_relaxed);
    if (obs::enabled())
      obs::registry()
          .gauge("serve.inflight")
          .set(n_inflight.load(std::memory_order_relaxed));
    maybe_dump_request_trace(*request, ctx, sampled);
    response.id = request->id;
    if (response.attempts > 1)
      n_retried.fetch_add(1, std::memory_order_relaxed);
  }
  count_status(response);
  send_response(conn, response);
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    static obs::Counter& c_requests = reg.counter("serve.requests");
    static obs::Histogram& h_us = reg.histogram("serve.request_us");
    c_requests.increment();
    h_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started_at)
            .count()));
  }
}

Response Server::Impl::process_request(const Request& request,
                                       Watchdog::Slot& slot) {
  const std::string fingerprint = request_fingerprint(request);

  // Idempotent replay: a journaled id answers from the journal — byte
  // identically, however the daemon has been killed and restarted in
  // between — and an id reused for a *different* request body is a client
  // bug, reported as such rather than silently serving stale bytes.
  {
    std::lock_guard<std::mutex> lock(journal_mutex);
    const RequestJournal::Entry* entry = journal.find(request.id);
    if (entry) {
      if (entry->fingerprint != fingerprint)
        return error_response(
            ErrorCode::kMalformedInput,
            "request id '" + request.id +
                "' was already used for a different request body");
      Expected<Response> replay =
          parse_response_text(entry->response_text, options.limits);
      if (replay.ok()) {
        replay->replayed = true;
        n_replayed.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled())
          obs::registry().counter("serve.replayed").increment();
        return std::move(replay).value();
      }
      // A journaled response that no longer parses would be a bug; fall
      // through and recompute rather than fail the request.
    }
  }

  // Result store: a hit skips the whole pipeline. It is journaled under
  // the *new* id so the idempotency contract holds for it too.
  obs::Span span("serve.process");
  std::optional<Response> hit;
  {
    obs::Span lookup("serve.store_lookup");
    hit = store.find(request);
  }
  Response response;
  if (hit) {
    response = std::move(*hit);
    response.cached = true;
    n_cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    response = run_pipeline(request, slot);
  }
  response.id = request.id;
  journal_terminal(request.id, fingerprint, response);
  return response;
}

Response Server::Impl::run_pipeline(const Request& request,
                                    Watchdog::Slot& slot) {
  if (UCP_FAULT_POINT("serve.process")) {
    // Injected pipeline failure, contained to this request: the client gets
    // a structured error, the daemon keeps serving.
    return error_response(ErrorCode::kFaultInjected,
                          "injected failure at the request pipeline "
                          "boundary");
  }

  // A well-framed request whose payload is not a valid program is still
  // malformed input — same counter as framing rejections, but the reply is
  // attributed to the request id.
  auto malformed_payload = [&](const std::string& detail) {
    n_malformed.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
      obs::registry().counter("serve.malformed").increment();
    return error_response(ErrorCode::kMalformedInput, detail);
  };
  std::vector<std::string> issues;
  Expected<ir::Program> parsed = [&] {
    obs::Span parse("serve.parse");
    Expected<ir::Program> p =
        ir::from_text_checked(request.program_text, options.limits.codec);
    if (p.ok()) issues = ir::verify(*p);
    return p;
  }();
  if (!parsed.ok()) return malformed_payload(parsed.status().detail());
  if (!issues.empty())
    return malformed_payload(
        "program failed verification (" + std::to_string(issues.size()) +
        " issue" + (issues.size() == 1 ? "" : "s") + "): " + issues.front());

  // The group is solved for every tech node at once, as in the sweep: the
  // cache analysis does not depend on the tech, so the twin costs little
  // and is answered from the store when it is asked for.
  const ir::Program& program = *parsed;
  std::shared_ptr<const exp::ProgramSystem> system = store.system(request);
  std::vector<ir::Program> programs;
  std::vector<exp::UseCaseResult> rows;
  {
    obs::Span pipeline("serve.pipeline");
    if (!system) system = exp::make_program_system(program);
    rows = exp::solve_case(
        program, "request", {request.config_id, request.config}, kAllTechs,
        core::OptimizerOptions{}, nullptr, system ? &system->ipet : nullptr,
        options.audit_soundness, &programs,
        request.attempts > 0 ? request.attempts : options.default_attempts,
        request.deadline_ms > 0 ? request.deadline_ms
                                : options.default_deadline_ms,
        slot);
  }

  obs::Span encode("serve.encode");
  Response answer;
  std::vector<std::pair<energy::TechNode, Response>> clean;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k].audit.performed && rows[k].audit.violated) {
      // A soundness-audit violation is the worst thing this daemon can
      // observe about itself; capture the flight tail while the evidence
      // is still in the rings.
      obs::log(obs::LogLevel::kError, "serve", "audit_violation",
               rows[k].fail_detail,
               obs::LogFields().str("request", request.id));
      dump_flight("audit_violation", /*force=*/false);
    }
    Response response = to_response(rows[k], programs[k]);
    // Only clean pipeline products enter the store: a degraded, retried,
    // failed, unaudited or audit-doubted answer is served once and
    // recomputed next time.
    const bool storable = response.status == ResponseStatus::kOk &&
                          response.attempts == 1 && response.audit == "clean";
    if (rows[k].tech == request.tech) answer = response;
    if (storable) clean.emplace_back(rows[k].tech, std::move(response));
  }
  store.insert(request, std::move(system), std::move(clean));
  return answer;
}

void Server::Impl::journal_terminal(const std::string& id,
                                    const std::string& fingerprint,
                                    const Response& response) {
  std::lock_guard<std::mutex> lock(journal_mutex);
  if (!journal.active()) return;
  // Journaled before the client sees a byte: a crash after this line
  // replays; a crash before it recomputes — either way the id's answer is
  // well-defined.
  Response stored = response;
  stored.replayed = false;
  Status appended =
      journal.append(id, fingerprint, serialize_response(stored));
  if (!appended.ok())
    obs::log(obs::LogLevel::kWarn, "serve", "journal_disabled",
             appended.message(), obs::LogFields().str("request", id));
}

// --- ops plane -------------------------------------------------------------

void Server::Impl::admin_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (draining) return;
    }
    Expected<support::Socket> conn = tcp_accept(admin_listener, 100);
    if (!conn.ok()) continue;
    if (!conn->valid()) continue;  // timeout: re-check the drain flag
    // Scrapes are served inline on the admin thread: one small read, one
    // framed write, never touching the worker pool — an operator can
    // always get HEALTH out of a daemon whose workers are saturated.
    handle_admin(std::move(*conn));
  }
}

void Server::Impl::handle_admin(support::Socket conn) {
  obs::Span span("serve.admin");
  support::LineReader reader(conn, 256, 2000);
  Expected<std::string> line = reader.read_line();
  if (!line.ok()) {
    n_admin_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  bool ok = true;
  const std::string payload = admin_payload(*line, ok);
  std::string reply = "ucp-admin v1\nverb " + *line + "\nstatus " +
                      (ok ? "ok" : "error") + "\npayload " +
                      std::to_string(payload.size()) + "\n" + payload;
  if (UCP_FAULT_POINT("serve.admin_write")) {
    // Injected scrape-write failure: the admin connection is dropped on
    // the floor — and nothing else happens. The containment property the
    // battery pins: a failed scrape never perturbs an in-flight request.
    n_admin_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Status written = write_all(conn, reply);
  if (!written.ok()) {
    n_admin_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  n_admin_scrapes.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled())
    obs::registry().counter("serve.admin_scrapes").increment();
}

std::string Server::Impl::admin_payload(const std::string& verb, bool& ok) {
  const std::int64_t uptime_ms = now_ms() - start_at_ms;
  if (verb == "HEALTH") {
    bool drain;
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      drain = draining;
      depth = queue.size();
    }
    std::string out = "{\"status\":\"";
    out += drain ? "draining" : "serving";
    out += "\",\"uptime_ms\":" + std::to_string(uptime_ms);
    out += ",\"queue_depth\":" + std::to_string(depth);
    out += ",\"inflight\":" +
           std::to_string(n_inflight.load(std::memory_order_relaxed));
    out += ",\"workers\":" + std::to_string(std::max(1u, options.workers));
    out += ",\"build\":" + obs::build_info_json();
    out += "}\n";
    return out;
  }
  if (verb == "STATS") {
    return "{\"server\":" + stats_json(collect_stats()) +
           ",\"uptime_ms\":" + std::to_string(uptime_ms) +
           ",\"metrics\":" + obs::snapshot_json(obs::registry().snapshot()) +
           "}\n";
  }
  if (verb == "STATS prom") {
    return stats_prom(collect_stats()) +
           obs::prometheus_text(obs::registry().snapshot());
  }
  if (verb == "PROFILE") {
    std::string table = obs::profile_table(obs::snapshot_trace());
    if (table.empty()) table = "no spans recorded (tracing disabled?)\n";
    return table;
  }
  if (verb == "FLIGHT") {
    if (!obs::flight_enabled()) {
      ok = false;
      return "flight recorder disabled\n";
    }
    n_flight_dumps.fetch_add(1, std::memory_order_relaxed);
    return obs::flight_dump_json("admin_scrape");
  }
  ok = false;
  return "unknown admin verb '" + verb +
         "' (expected HEALTH | STATS [prom] | PROFILE | FLIGHT)\n";
}

ServerStats Server::Impl::collect_stats() {
  ServerStats s;
  s.accepted = n_accepted.load(std::memory_order_relaxed);
  s.shed = n_shed.load(std::memory_order_relaxed);
  s.requests = n_requests.load(std::memory_order_relaxed);
  s.malformed = n_malformed.load(std::memory_order_relaxed);
  s.dropped = n_dropped.load(std::memory_order_relaxed);
  s.ok = n_ok.load(std::memory_order_relaxed);
  s.degraded = n_degraded.load(std::memory_order_relaxed);
  s.errors = n_errors.load(std::memory_order_relaxed);
  s.cache_hits = n_cache_hits.load(std::memory_order_relaxed);
  s.replayed = n_replayed.load(std::memory_order_relaxed);
  s.retried = n_retried.load(std::memory_order_relaxed);
  s.admin_scrapes = n_admin_scrapes.load(std::memory_order_relaxed);
  s.admin_dropped = n_admin_dropped.load(std::memory_order_relaxed);
  s.flight_dumps = n_flight_dumps.load(std::memory_order_relaxed);
  s.watchdog_fires = n_watchdog_fires.load(std::memory_order_relaxed);
  s.trace_dumps = n_trace_dumps.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    s.queue_depth = queue.size();
  }
  s.inflight = static_cast<std::size_t>(
      std::max<std::int64_t>(0, n_inflight.load(std::memory_order_relaxed)));
  return s;
}

void Server::Impl::dump_flight(const std::string& reason, bool force) {
  if (!obs::flight_enabled()) return;
  if (!force) {
    // Trigger-initiated dumps are rate limited: a watchdog storm must not
    // turn the recorder into an I/O amplifier. (Benign race on the stamp:
    // two concurrent triggers can both dump, never more.)
    const std::int64_t now = now_ms();
    const std::int64_t last =
        last_flight_dump_ms.load(std::memory_order_relaxed);
    if (last >= 0 && now - last < kFlightDumpMinGapMs) return;
    last_flight_dump_ms.store(now, std::memory_order_relaxed);
  }
  n_flight_dumps.fetch_add(1, std::memory_order_relaxed);
  const std::size_t records = obs::flight_snapshot().size();
  if (!options.flight_path.empty()) {
    Status written = obs::write_flight_file(options.flight_path, reason);
    if (written.ok()) {
      obs::log(obs::LogLevel::kInfo, "serve", "flight_dump",
               options.flight_path,
               obs::LogFields()
                   .str("reason", reason)
                   .num(
                       "records",
                       static_cast<std::uint64_t>(records)));
    } else {
      // Observer discipline: a failed dump degrades to a warning; it may
      // never compound the failure that triggered it.
      obs::log(obs::LogLevel::kWarn, "serve", "flight_dump_failed",
               written.message(), obs::LogFields().str("reason", reason));
    }
  } else {
    obs::log(obs::LogLevel::kWarn, "serve", "flight_dump",
             "no flight_path configured; recorder tail stays in memory",
             obs::LogFields()
                 .str("reason", reason)
                 .num("records", static_cast<std::uint64_t>(records)));
  }
}

void Server::Impl::maybe_dump_request_trace(const Request& request,
                                            std::uint64_t ctx, bool sampled) {
  if (options.trace_sample_every == 0 || !obs::trace_enabled()) return;
  // Every request's spans are drained per request — the sampled ones
  // written, the rest discarded — so a long-lived daemon's trace memory is
  // bounded by requests in flight, not requests ever served.
  std::vector<obs::TraceEvent> events = obs::drain_trace_context(ctx);
  if (!sampled || events.empty()) return;
  const std::string path =
      options.trace_dir + "/" + trace_file_name(request.id);
  Status written = obs::write_trace_file(path, events);
  if (written.ok()) {
    n_trace_dumps.fetch_add(1, std::memory_order_relaxed);
    obs::log(obs::LogLevel::kInfo, "serve", "trace_sampled", path,
             obs::LogFields()
                 .str("request", request.id)
                 .str("ctx", to_hex(ctx))
                 .num("spans", static_cast<std::uint64_t>(events.size())));
  } else {
    obs::log(obs::LogLevel::kWarn, "serve", "trace_write_failed",
             written.message(), obs::LogFields().str("request", request.id));
  }
}

// ---------------------------------------------------------------------------

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

Status Server::start() {
  Impl& impl = *impl_;
  UCP_REQUIRE(!impl.started, "Server::start() called twice");
  Expected<support::Socket> listener = support::tcp_listen(
      impl.options.port,
      static_cast<int>(impl.options.queue_capacity + impl.options.workers) +
          16);
  if (!listener.ok()) return listener.status();
  impl.listener = std::move(listener).value();
  Expected<std::uint16_t> port = support::local_port(impl.listener);
  if (!port.ok()) return port.status();
  impl.port = *port;
  impl.start_at_ms = now_ms();

  if (impl.options.admin_enabled) {
    Expected<support::Socket> admin =
        support::tcp_listen(impl.options.admin_port, 8);
    if (!admin.ok()) return admin.status();
    impl.admin_listener = std::move(admin).value();
    Expected<std::uint16_t> admin_port =
        support::local_port(impl.admin_listener);
    if (!admin_port.ok()) return admin_port.status();
    impl.admin_port = *admin_port;
  }

  if (!impl.options.journal_path.empty()) {
    Status opened = impl.journal.open(impl.options.journal_path);
    if (!opened.ok()) return opened;
    impl.journal_note = impl.journal.note();
  } else {
    impl.journal_note = "request journal disabled (no path)";
  }

  const std::uint32_t workers = std::max(1u, impl.options.workers);
  impl.watchdog = std::make_unique<Watchdog>(
      workers, true,
      [&impl](std::int64_t overdue_ms) { impl.on_watchdog_fire(overdue_ms); });
  impl.started = true;
  impl.accept_thread = std::thread([&impl] { impl.accept_loop(); });
  for (std::uint32_t w = 0; w < workers; ++w)
    impl.worker_threads.emplace_back(
        [&impl, w] { impl.worker_loop(impl.watchdog->slot(w)); });
  if (impl.options.admin_enabled)
    impl.admin_thread = std::thread([&impl] { impl.admin_loop(); });
  obs::log(obs::LogLevel::kInfo, "serve", "started", impl.journal_note,
           obs::LogFields()
               .num("port", static_cast<std::uint64_t>(impl.port))
               .num("admin_port", static_cast<std::uint64_t>(impl.admin_port))
               .num("workers", static_cast<std::uint64_t>(workers)));
  return Status::Ok();
}

std::uint16_t Server::port() const { return impl_->port; }

std::uint16_t Server::admin_port() const { return impl_->admin_port; }

void Server::dump_flight(const std::string& reason, bool force) {
  impl_->dump_flight(reason, force);
}

void Server::stop() {
  Impl& impl = *impl_;
  if (!impl.started) return;
  {
    std::lock_guard<std::mutex> lock(impl.queue_mutex);
    impl.draining = true;
  }
  impl.queue_cv.notify_all();
  if (impl.accept_thread.joinable()) impl.accept_thread.join();
  for (std::thread& t : impl.worker_threads)
    if (t.joinable()) t.join();
  impl.worker_threads.clear();
  impl.watchdog.reset();
  if (impl.admin_thread.joinable()) impl.admin_thread.join();
  impl.listener.close();
  impl.admin_listener.close();
  {
    std::lock_guard<std::mutex> lock(impl.journal_mutex);
    impl.journal.close();
  }
  impl.started = false;
  obs::log(obs::LogLevel::kInfo, "serve", "stopped", {},
           obs::LogFields().num(
               "requests",
               impl.n_requests.load(std::memory_order_relaxed)));
}

ServerStats Server::stats() const { return impl_->collect_stats(); }

std::string Server::journal_note() const { return impl_->journal_note; }

}  // namespace ucp::serve
