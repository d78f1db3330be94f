#pragma once

// Wire protocol of the ucpd analysis daemon.
//
// One request and one response per connection, both in the same shape: a
// line-delimited header ("ucp-request v1" / "ucp-response v1" magic, then
// `key value` lines), terminated by a `payload <nbytes>` line followed by
// exactly that many raw bytes. The request payload is an ir text-codec
// program; the response payload is the (optimized or identity) program the
// daemon vouches for. Framing by declared byte count means the payload
// needs no escaping and a truncated upload is detected as such, not parsed.
//
// Every parse path is a structured kMalformedInput Status — the daemon
// serves untrusted input and must outlive any byte sequence a client can
// produce. Limits (header line count, line length, payload bytes, and the
// ir::CodecLimits applied to the program text) are enforced while reading,
// before any allocation proportional to attacker-declared sizes.

#include <cstdint>
#include <string>

#include "cache/config.hpp"
#include "energy/model.hpp"
#include "ir/text_codec.hpp"
#include "support/socket.hpp"
#include "support/status.hpp"

namespace ucp::serve {

/// Reader/parser ceilings for one protocol exchange.
struct ProtocolLimits {
  std::size_t max_header_lines = 32;
  std::size_t max_line_bytes = 4096;
  std::size_t max_payload_bytes = 8u << 20;
  ir::CodecLimits codec;  ///< applied to the request's program text
};

/// One optimization request: which program text to optimize, on which cache
/// configuration and technology node, under which supervision budgets.
struct Request {
  /// Client-chosen idempotency key, `[A-Za-z0-9_.:-]{1,128}`. A replayed id
  /// with an identical request body returns the journaled response; a
  /// replayed id with a *different* body is rejected (kMalformedInput).
  std::string id;
  std::string config_id;       ///< paper label ("k7") or "custom"
  cache::CacheConfig config;   ///< resolved geometry
  energy::TechNode tech = energy::TechNode::k45nm;
  std::uint32_t deadline_ms = 0;  ///< watchdog deadline; 0 = server default
  std::uint32_t attempts = 0;     ///< retry-ladder depth 1..3; 0 = default
  std::string program_text;       ///< ir text-codec payload
};

enum class ResponseStatus : std::uint8_t {
  kOk,        ///< optimized program produced, Theorem 1 audited
  kDegraded,  ///< ladder exhausted; payload is the identity transform,
              ///< still sound (Theorem 1 holds trivially)
  kError,     ///< no sound program can be vouched for (structured cause)
};

const char* response_status_name(ResponseStatus status);

/// One response. `code` carries the failure (or degradation) cause;
/// `attempts`/`degradation_level` mirror exp::UseCaseResult semantics
/// (0 clean, 1 recovered-by-retry, 2 degraded, 3 failed).
struct Response {
  std::string id;
  ResponseStatus status = ResponseStatus::kError;
  ErrorCode code = ErrorCode::kOk;
  std::string detail;
  std::uint32_t attempts = 0;
  std::uint32_t degradation_level = 0;
  /// clean | violated | skipped ("inconclusive", from older journals,
  /// still parses)
  std::string audit = "skipped";
  std::uint64_t tau_original = 0;
  std::uint64_t tau_optimized = 0;
  std::uint64_t mem_cycles_original = 0;
  std::uint64_t mem_cycles_optimized = 0;
  double energy_original_nj = 0.0;
  double energy_optimized_nj = 0.0;
  std::uint64_t prefetches = 0;
  bool cached = false;    ///< served from the result store
  bool replayed = false;  ///< served from the request journal (idempotent)
  std::uint32_t retry_after_ms = 0;  ///< only with code kOverloaded
  std::string program_text;          ///< the vouched-for program ("" on error)
};

// --- serialization ---------------------------------------------------------
// serialize_* is deterministic: one byte stream per value. parse_response /
// read_request are total on arbitrary bytes (structured error, never UB).

std::string serialize_request(const Request& request);
std::string serialize_response(const Response& response);

/// Reads and validates one request from the socket. kNotFound when the peer
/// closed before sending anything (clean disconnect); kMalformedInput for
/// everything else a hostile or buggy client can produce. The program text
/// is *framed* but not yet codec-parsed — the worker does that so parse
/// cost lands inside the per-request pipeline boundary.
Expected<Request> read_request(support::LineReader& reader,
                               const ProtocolLimits& limits);

/// Reads one response (client side).
Expected<Response> read_response(support::LineReader& reader,
                                 const ProtocolLimits& limits);

/// Parses a serialized response from a string (journal replay path).
Expected<Response> parse_response_text(const std::string& text,
                                       const ProtocolLimits& limits);

/// Inverse of error_code_name; kMalformedInput Status on unknown names.
Expected<ErrorCode> error_code_from_name(const std::string& name);

/// Whether `id` is a well-formed request id: `[A-Za-z0-9_.:-]{1,128}`.
bool valid_request_id(const std::string& id);

/// FNV-1a fingerprint (16 hex chars) over everything that makes two
/// requests semantically identical: program text, cache geometry, tech,
/// budgets. The idempotency key.
std::string request_fingerprint(const Request& request);

}  // namespace ucp::serve
