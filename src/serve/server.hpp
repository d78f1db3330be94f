#pragma once

// The ucpd analysis daemon: a multi-threaded TCP server that accepts
// optimization requests (serve/protocol.hpp), runs each through the
// sweep's case solver (exp::solve_case: analyze -> optimize -> audit under
// the retry ladder), and streams back the vouched-for program plus its
// metrics and audit verdict. Robustness is the design center:
//
//  - bounded admission: a connection beyond the queue capacity is shed
//    *before* any request bytes are read, with a structured kOverloaded
//    response carrying an advisory retry_after_ms — never a hang, never an
//    unbounded queue;
//  - per-request watchdog deadlines and the retry-with-degradation ladder
//    are exp::solve_case's, shared with the sweep: a cancelled or
//    over-budget request is retried with escalated budgets and finally
//    answered with the Theorem-1 identity transform — a degraded response
//    is still *sound*, never an error;
//  - crash-safe idempotent replay: terminal responses are journaled
//    (fsync'd, checksummed) before the client sees a byte, so kill -9 and
//    restart answers re-sent ids byte-identically (serve/request_journal);
//  - one result store (serve/result_store.hpp): a miss solves its
//    (program, geometry) for every tech node, as the sweep does, and the
//    clean answers are served from the result store afterwards, the other
//    tech's included. Keys are request content (program text, geometry,
//    budgets), so any change misses by construction, which is the whole
//    invalidation story; a byte bound evicts in LRU order;
//  - graceful drain: stop accepting, finish queued requests, join every
//    thread; pair with the request journal for SIGKILL coverage.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/protocol.hpp"
#include "support/status.hpp"

namespace ucp::serve {

struct ServerOptions {
  std::uint16_t port = 0;        ///< 0 = kernel-assigned (see Server::port)
  std::uint32_t workers = 2;     ///< request worker threads
  std::size_t queue_capacity = 16;  ///< accepted-but-unclaimed connections
  /// Watchdog deadline applied when a request names none; 0 disables.
  std::uint32_t default_deadline_ms = 10000;
  /// Ladder depth applied when a request names none (1..3).
  std::uint32_t default_attempts = 3;
  /// Advisory client back-off carried by kOverloaded shed responses.
  std::uint32_t retry_after_ms = 50;
  /// Per-read/-write socket deadline; a peer that stalls longer is dropped.
  int io_timeout_ms = 10000;
  /// Idempotent-replay journal; empty = no journal (a repeated body is
  /// still answered from the result store while the process lives).
  std::string journal_path;
  bool audit_soundness = true;
  ProtocolLimits limits;
  /// Test hook: while the pointee is true, workers idle before claiming
  /// connections, so a test can fill the admission queue deterministically.
  const std::atomic<bool>* hold_workers = nullptr;

  // --- ops plane -----------------------------------------------------------
  /// Second loopback listener serving HEALTH / STATS [prom] / PROFILE /
  /// FLIGHT scrapes (see serve/admin in DESIGN.md §16). Off by default so
  /// embedded Server instances (tests, the load bench's data-path floor)
  /// opt in; the ucpd binary turns it on unless --no-admin.
  bool admin_enabled = false;
  std::uint16_t admin_port = 0;  ///< 0 = kernel-assigned (Server::admin_port)
  /// Dump every Nth well-formed request's spans as a standalone Chrome
  /// trace (requires tracing enabled); 0 disables sampling. While active,
  /// every request's spans are drained per request — sampled ones written,
  /// the rest discarded — so a long-lived daemon's trace memory stays
  /// bounded by requests in flight, not requests ever served.
  std::uint32_t trace_sample_every = 0;
  std::string trace_dir = ".";  ///< where req-<id>.trace.json files land
  /// Flight-recorder dump file for watchdog-fire / audit-violation / admin
  /// FLIGHT triggers; empty = dumps are logged to the structured log only.
  std::string flight_path;
};

/// Monotonic counters of one daemon's lifetime (stats() snapshot).
struct ServerStats {
  std::uint64_t accepted = 0;       ///< connections admitted to the queue
  std::uint64_t shed = 0;           ///< connections rejected kOverloaded
  std::uint64_t requests = 0;       ///< well-formed requests processed
  std::uint64_t malformed = 0;      ///< structured kMalformedInput replies
  std::uint64_t dropped = 0;        ///< connections dropped pre-response
  std::uint64_t ok = 0;             ///< status ok responses
  std::uint64_t degraded = 0;       ///< status degraded responses
  std::uint64_t errors = 0;         ///< status error responses (non-shed)
  std::uint64_t cache_hits = 0;     ///< served from the result store
  std::uint64_t replayed = 0;       ///< served from the request journal
  std::uint64_t retried = 0;        ///< requests that took > 1 attempt
  std::uint64_t admin_scrapes = 0;  ///< admin-plane requests answered
  std::uint64_t admin_dropped = 0;  ///< admin connections dropped pre-reply
  std::uint64_t flight_dumps = 0;   ///< flight-recorder dumps triggered
  std::uint64_t watchdog_fires = 0; ///< per-request deadlines enforced
  std::uint64_t trace_dumps = 0;    ///< sampled per-request traces written
  std::size_t queue_depth = 0;      ///< current admission-queue depth
  std::size_t inflight = 0;         ///< requests currently in the pipeline
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener, opens the journal, spawns accept/worker/watchdog
  /// threads. After start() the daemon is serving.
  Status start();

  /// The bound port (after start()).
  std::uint16_t port() const;

  /// The admin-plane port (after start(); 0 when admin_enabled is false).
  std::uint16_t admin_port() const;

  /// Triggers a flight-recorder dump (to options.flight_path when set,
  /// otherwise into the structured log as a summary): the SIGQUIT path of
  /// the ucpd binary, also used internally on watchdog fires and audit
  /// violations. `force` bypasses the rate limit (operator-initiated
  /// dumps always run).
  void dump_flight(const std::string& reason, bool force = false);

  /// Graceful drain: stop accepting, finish every queued request, join all
  /// threads, close the journal. Idempotent; the destructor calls it.
  void stop();

  ServerStats stats() const;

  /// What the request journal did at open ("restored N..." / "reset ...").
  std::string journal_note() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ucp::serve
