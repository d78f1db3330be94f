#include "serve/protocol.hpp"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "support/record_log.hpp"

namespace ucp::serve {

namespace {

constexpr char kRequestMagic[] = "ucp-request v1";
constexpr char kResponseMagic[] = "ucp-response v1";

using support::fnv1a;
using support::to_hex;

Status malformed(const std::string& why) {
  return Status(ErrorCode::kMalformedInput, why);
}

/// One-line field escaping for free-text cells (the `detail` line): header
/// lines are newline-delimited, so embedded newlines and backslashes travel
/// escaped.
std::string escape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Expected<std::string> unescape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) return malformed("dangling escape in field");
    ++i;
    switch (s[i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return malformed(std::string("unknown escape '\\") + s[i] +
                         "' in field");
    }
  }
  return out;
}

Expected<std::uint64_t> parse_u64(const std::string& w, const char* what) {
  std::uint64_t v = 0;
  if (w.size() > 19 || !support::parse_u64(w, v))
    return malformed(std::string("bad ") + what + " '" + w + "'");
  return v;
}

Expected<std::uint32_t> parse_u32(const std::string& w, const char* what) {
  Expected<std::uint64_t> v = parse_u64(w, what);
  if (!v.ok()) return v.status();
  if (*v > UINT32_MAX)
    return malformed(std::string(what) + " '" + w + "' out of range");
  return static_cast<std::uint32_t>(*v);
}

Expected<double> parse_f64(const std::string& w, const char* what) {
  if (w.empty() || w.size() > 64)
    return malformed(std::string("bad ") + what + " '" + w + "'");
  char* end = nullptr;
  const double v = std::strtod(w.c_str(), &end);
  if (end != w.c_str() + w.size())
    return malformed(std::string("bad ") + what + " '" + w + "'");
  return v;
}

std::string format_f64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Splits `line` at the first space into key and value ("" when absent).
void split_kv(const std::string& line, std::string& key, std::string& value) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    key = line;
    value.clear();
  } else {
    key = line.substr(0, sp);
    value = line.substr(sp + 1);
  }
}

std::vector<std::string> split_words(const std::string& s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && s[i] == ' ') ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

/// A line-oriented byte source: the socket reader or an in-memory string.
/// Both protocol directions parse through this, so journal replay and the
/// live wire share one (fully bounds-checked) parser.
struct LineSource {
  std::function<Expected<std::string>()> next_line;
  std::function<Expected<std::string>(std::size_t)> take_exact;
};

LineSource socket_source(support::LineReader& reader) {
  return LineSource{
      [&reader] { return reader.read_line(); },
      [&reader](std::size_t n) { return reader.read_exact(n); },
  };
}

/// In-memory source over `text`; shares LineReader's error shapes.
struct StringCursor {
  const std::string& text;
  std::size_t pos = 0;
};

LineSource string_source(StringCursor& cursor, std::size_t max_line) {
  return LineSource{
      [&cursor, max_line]() -> Expected<std::string> {
        if (cursor.pos >= cursor.text.size())
          return Status(ErrorCode::kNotFound, "end of text");
        const std::size_t nl = cursor.text.find('\n', cursor.pos);
        if (nl == std::string::npos)
          return malformed("text ends mid-line");
        if (nl - cursor.pos > max_line)
          return malformed("line exceeds " + std::to_string(max_line) +
                           " bytes");
        std::string line = cursor.text.substr(cursor.pos, nl - cursor.pos);
        cursor.pos = nl + 1;
        return line;
      },
      [&cursor](std::size_t n) -> Expected<std::string> {
        if (cursor.text.size() - cursor.pos < n)
          return malformed("text ends " +
                           std::to_string(n -
                                          (cursor.text.size() - cursor.pos)) +
                           " bytes short of the declared payload");
        std::string out = cursor.text.substr(cursor.pos, n);
        cursor.pos += n;
        return out;
      },
  };
}

/// Reads `key value` header lines until the `payload <n>` terminator, then
/// the framed payload. `on_field` validates and stores one field; duplicate
/// keys and unknown keys are structured errors.
Status read_framed(LineSource& source, const ProtocolLimits& limits,
                   const char* magic,
                   const std::function<Status(const std::string& key,
                                              const std::string& value)>&
                       on_field,
                   std::string& payload_out) {
  Expected<std::string> first = source.next_line();
  if (!first.ok()) return first.status();
  if (*first != magic)
    return malformed(std::string("bad magic line (expected '") + magic +
                     "')");
  for (std::size_t n = 0;; ++n) {
    if (n >= limits.max_header_lines)
      return malformed("more than " +
                       std::to_string(limits.max_header_lines) +
                       " header lines");
    Expected<std::string> line = source.next_line();
    if (!line.ok()) {
      if (line.code() == ErrorCode::kNotFound)
        return malformed("header truncated before 'payload'");
      return line.status();
    }
    std::string key, value;
    split_kv(*line, key, value);
    if (key == "payload") {
      Expected<std::uint64_t> bytes = parse_u64(value, "payload size");
      if (!bytes.ok()) return bytes.status();
      if (*bytes > limits.max_payload_bytes)
        return malformed("payload of " + std::to_string(*bytes) +
                         " bytes exceeds the " +
                         std::to_string(limits.max_payload_bytes) +
                         "-byte limit");
      Expected<std::string> payload =
          source.take_exact(static_cast<std::size_t>(*bytes));
      if (!payload.ok()) return payload.status();
      payload_out = std::move(payload).value();
      return Status::Ok();
    }
    if (key.empty()) return malformed("empty header line");
    Status field = on_field(key, value);
    if (!field.ok()) return field;
  }
}

Expected<energy::TechNode> parse_tech(const std::string& w) {
  if (w == energy::tech_name(energy::TechNode::k45nm))
    return energy::TechNode::k45nm;
  if (w == energy::tech_name(energy::TechNode::k32nm))
    return energy::TechNode::k32nm;
  return malformed("unknown technology node '" + w + "'");
}

Expected<Response> parse_response_source(LineSource& source,
                                         const ProtocolLimits& limits) {
  Response r;
  bool have_id = false, have_status = false;
  auto on_field = [&](const std::string& key,
                      const std::string& value) -> Status {
    if (key == "id") {
      if (have_id) return malformed("duplicate id");
      if (!valid_request_id(value)) return malformed("bad response id");
      r.id = value;
      have_id = true;
    } else if (key == "status") {
      if (have_status) return malformed("duplicate status");
      if (value == "ok")
        r.status = ResponseStatus::kOk;
      else if (value == "degraded")
        r.status = ResponseStatus::kDegraded;
      else if (value == "error")
        r.status = ResponseStatus::kError;
      else
        return malformed("unknown response status '" + value + "'");
      have_status = true;
    } else if (key == "code") {
      Expected<ErrorCode> code = error_code_from_name(value);
      if (!code.ok()) return code.status();
      r.code = *code;
    } else if (key == "detail") {
      Expected<std::string> detail = unescape_field(value);
      if (!detail.ok()) return detail.status();
      r.detail = std::move(detail).value();
    } else if (key == "attempts") {
      Expected<std::uint32_t> v = parse_u32(value, "attempts");
      if (!v.ok()) return v.status();
      r.attempts = *v;
    } else if (key == "degradation_level") {
      Expected<std::uint32_t> v = parse_u32(value, "degradation_level");
      if (!v.ok()) return v.status();
      r.degradation_level = *v;
    } else if (key == "audit") {
      // "inconclusive" is no longer written (the audit's certificate check
      // always answers) but still reads, from journals that predate it.
      if (value != "clean" && value != "violated" &&
          value != "inconclusive" && value != "skipped")
        return malformed("unknown audit verdict '" + value + "'");
      r.audit = value;
    } else if (key == "tau_original" || key == "tau_optimized" ||
               key == "mem_cycles_original" ||
               key == "mem_cycles_optimized" || key == "prefetches") {
      Expected<std::uint64_t> v = parse_u64(value, key.c_str());
      if (!v.ok()) return v.status();
      if (key == "tau_original")
        r.tau_original = *v;
      else if (key == "tau_optimized")
        r.tau_optimized = *v;
      else if (key == "mem_cycles_original")
        r.mem_cycles_original = *v;
      else if (key == "mem_cycles_optimized")
        r.mem_cycles_optimized = *v;
      else
        r.prefetches = *v;
    } else if (key == "energy_original_nj" || key == "energy_optimized_nj") {
      Expected<double> v = parse_f64(value, key.c_str());
      if (!v.ok()) return v.status();
      (key == "energy_original_nj" ? r.energy_original_nj
                                   : r.energy_optimized_nj) = *v;
    } else if (key == "cached" || key == "replayed") {
      if (value != "0" && value != "1")
        return malformed("bad flag value '" + value + "' for " + key);
      (key == "cached" ? r.cached : r.replayed) = value == "1";
    } else if (key == "retry_after_ms") {
      Expected<std::uint32_t> v = parse_u32(value, "retry_after_ms");
      if (!v.ok()) return v.status();
      r.retry_after_ms = *v;
    } else {
      return malformed("unknown response field '" + key + "'");
    }
    return Status::Ok();
  };
  Status read = read_framed(source, limits, kResponseMagic, on_field,
                            r.program_text);
  if (!read.ok()) return read;
  if (!have_id) return malformed("response missing id");
  if (!have_status) return malformed("response missing status");
  return r;
}

}  // namespace

const char* response_status_name(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kDegraded:
      return "degraded";
    case ResponseStatus::kError:
      return "error";
  }
  return "unknown";
}

bool valid_request_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Expected<ErrorCode> error_code_from_name(const std::string& name) {
  for (std::uint8_t i = 0;
       i <= static_cast<std::uint8_t>(ErrorCode::kOverloaded); ++i) {
    const ErrorCode code = static_cast<ErrorCode>(i);
    if (name == error_code_name(code)) return code;
  }
  return malformed("unknown error code '" + name + "'");
}

std::string request_fingerprint(const Request& request) {
  std::uint64_t h = fnv1a(request.program_text);
  h = fnv1a(request.config_id + "," +
                std::to_string(request.config.assoc) + "," +
                std::to_string(request.config.block_bytes) + "," +
                std::to_string(request.config.capacity_bytes) + "," +
                energy::tech_name(request.tech) + "," +
                std::to_string(request.deadline_ms) + "," +
                std::to_string(request.attempts),
            h);
  return to_hex(h);
}

std::string serialize_request(const Request& request) {
  std::string out = std::string(kRequestMagic) + "\n";
  out += "id " + request.id + "\n";
  out += "config " + request.config_id + " " +
         std::to_string(request.config.assoc) + " " +
         std::to_string(request.config.block_bytes) + " " +
         std::to_string(request.config.capacity_bytes) + "\n";
  out += "tech " + energy::tech_name(request.tech) + "\n";
  if (request.deadline_ms > 0)
    out += "deadline_ms " + std::to_string(request.deadline_ms) + "\n";
  if (request.attempts > 0)
    out += "attempts " + std::to_string(request.attempts) + "\n";
  out += "payload " + std::to_string(request.program_text.size()) + "\n";
  out += request.program_text;
  return out;
}

std::string serialize_response(const Response& response) {
  std::string out = std::string(kResponseMagic) + "\n";
  out += "id " + response.id + "\n";
  out += "status " + std::string(response_status_name(response.status)) +
         "\n";
  out += "code " + std::string(error_code_name(response.code)) + "\n";
  if (!response.detail.empty())
    out += "detail " + escape_field(response.detail) + "\n";
  out += "attempts " + std::to_string(response.attempts) + "\n";
  out += "degradation_level " + std::to_string(response.degradation_level) +
         "\n";
  out += "audit " + response.audit + "\n";
  out += "tau_original " + std::to_string(response.tau_original) + "\n";
  out += "tau_optimized " + std::to_string(response.tau_optimized) + "\n";
  out += "mem_cycles_original " +
         std::to_string(response.mem_cycles_original) + "\n";
  out += "mem_cycles_optimized " +
         std::to_string(response.mem_cycles_optimized) + "\n";
  out += "energy_original_nj " + format_f64(response.energy_original_nj) +
         "\n";
  out += "energy_optimized_nj " + format_f64(response.energy_optimized_nj) +
         "\n";
  out += "prefetches " + std::to_string(response.prefetches) + "\n";
  out += "cached " + std::string(response.cached ? "1" : "0") + "\n";
  out += "replayed " + std::string(response.replayed ? "1" : "0") + "\n";
  if (response.retry_after_ms > 0)
    out += "retry_after_ms " + std::to_string(response.retry_after_ms) +
           "\n";
  out += "payload " + std::to_string(response.program_text.size()) + "\n";
  out += response.program_text;
  return out;
}

Expected<Request> read_request(support::LineReader& reader,
                               const ProtocolLimits& limits) {
  LineSource source = socket_source(reader);
  Request r;
  bool have_id = false, have_config = false;
  auto on_field = [&](const std::string& key,
                      const std::string& value) -> Status {
    if (key == "id") {
      if (have_id) return malformed("duplicate id");
      if (!valid_request_id(value))
        return malformed(
            "bad request id (want [A-Za-z0-9_.:-]{1,128}, got '" +
            escape_field(value.substr(0, 160)) + "')");
      r.id = value;
      have_id = true;
    } else if (key == "config") {
      if (have_config) return malformed("duplicate config");
      const std::vector<std::string> w = split_words(value);
      if (w.size() != 4)
        return malformed(
            "config wants '<label> <assoc> <block_bytes> <capacity_bytes>'");
      Expected<std::uint32_t> assoc = parse_u32(w[1], "config assoc");
      Expected<std::uint32_t> block = parse_u32(w[2], "config block_bytes");
      Expected<std::uint32_t> cap = parse_u32(w[3], "config capacity_bytes");
      if (!assoc.ok()) return assoc.status();
      if (!block.ok()) return block.status();
      if (!cap.ok()) return cap.status();
      if (w[0].empty() || w[0].size() > 32)
        return malformed("bad config label");
      r.config_id = w[0];
      r.config.assoc = *assoc;
      r.config.block_bytes = *block;
      r.config.capacity_bytes = *cap;
      try {
        r.config.validate();
      } catch (const std::exception& e) {
        return malformed(std::string("invalid cache geometry: ") + e.what());
      }
      have_config = true;
    } else if (key == "tech") {
      Expected<energy::TechNode> tech = parse_tech(value);
      if (!tech.ok()) return tech.status();
      r.tech = *tech;
    } else if (key == "deadline_ms") {
      Expected<std::uint32_t> v = parse_u32(value, "deadline_ms");
      if (!v.ok()) return v.status();
      r.deadline_ms = *v;
    } else if (key == "attempts") {
      Expected<std::uint32_t> v = parse_u32(value, "attempts");
      if (!v.ok()) return v.status();
      if (*v < 1 || *v > 3)
        return malformed("attempts must be 1..3, got " + value);
      r.attempts = *v;
    } else {
      return malformed("unknown request field '" + key + "'");
    }
    return Status::Ok();
  };
  // A peer that connected and closed without a byte surfaces as the first
  // line's kNotFound (clean disconnect); everything else keeps its
  // structured kMalformedInput cause.
  Status read =
      read_framed(source, limits, kRequestMagic, on_field, r.program_text);
  if (!read.ok()) return read;
  if (!have_id) return malformed("request missing id");
  if (!have_config) return malformed("request missing config");
  if (r.program_text.empty()) return malformed("request has empty payload");
  return r;
}

Expected<Response> read_response(support::LineReader& reader,
                                 const ProtocolLimits& limits) {
  LineSource source = socket_source(reader);
  return parse_response_source(source, limits);
}

Expected<Response> parse_response_text(const std::string& text,
                                       const ProtocolLimits& limits) {
  StringCursor cursor{text};
  LineSource source = string_source(cursor, limits.max_line_bytes);
  Expected<Response> response = parse_response_source(source, limits);
  if (!response.ok()) {
    // kNotFound means "no bytes at all" — a clean disconnect on a socket,
    // but in-memory text has no peer: an empty buffer is malformed.
    if (response.code() == ErrorCode::kNotFound)
      return malformed("empty response text");
    return response;
  }
  if (cursor.pos != text.size())
    return malformed("trailing bytes after the response payload");
  return response;
}

}  // namespace ucp::serve
