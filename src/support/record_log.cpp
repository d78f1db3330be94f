#include "support/record_log.hpp"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstring>

#include "support/durable_io.hpp"
#include "support/fault_injection.hpp"

namespace ucp::support {

namespace {

Status io_error(const std::string& what) {
  return Status(ErrorCode::kInternal, what + ": " + std::strerror(errno));
}

}  // namespace

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string to_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

bool parse_u64(std::string_view cell, std::uint64_t& out) {
  const char* end = cell.data() + cell.size();
  const auto [at, ec] = std::from_chars(cell.data(), end, out);
  return !cell.empty() && ec == std::errc() && at == end;
}

std::string escape_cell(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == ',' || c == '\n') {
      out += '\\';
      out += c == ',' ? 'c' : c == '\n' ? 'n' : '\\';
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_cell(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    const char next = s[++i];
    out += next == 'c' ? ',' : next == 'n' ? '\n' : next;
  }
  return out;
}

std::vector<std::string> split_cells(std::string_view body) {
  std::vector<std::string> cells(1);
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] == '\\' && i + 1 < body.size()) {
      cells.back() += body[i];
      cells.back() += body[++i];
    } else if (body[i] == ',') {
      cells.emplace_back();
    } else {
      cells.back() += body[i];
    }
  }
  return cells;
}

std::string seal_record(std::string_view body) {
  std::string line(body);
  line += ',';
  line += to_hex(fnv1a(body));
  return line;
}

std::optional<std::string_view> unseal_record(std::string_view line) {
  const std::size_t comma = line.rfind(',');
  if (comma == std::string_view::npos || line.size() - comma != 17 ||
      to_hex(fnv1a(line.substr(0, comma))) != line.substr(comma + 1))
    return std::nullopt;
  return line.substr(0, comma);
}

bool RecordReader::getline() {
  offset_ = end_;
  if (!std::getline(in_, line_)) return false;
  newline_ = !in_.eof();
  end_ = offset_ + line_.size() + (newline_ ? 1 : 0);
  return true;
}

bool RecordReader::header(std::string& line) {
  if (!getline() || !newline_) return false;
  line = line_;
  return true;
}

RecordReader::Next RecordReader::next() {
  while (getline()) {
    // Every writer ends its lines in '\n'; a line without one is torn.
    if (!newline_) return Next::kInvalid;
    if (line_.empty() || line_[0] == '#') continue;  // annotation
    const std::optional<std::string_view> body = unseal_record(line_);
    if (!body) return Next::kInvalid;
    body_ = *body;
    return Next::kRecord;
  }
  return Next::kEnd;
}

Status RecordLog::open(
    const std::string& path, const Format& format,
    const std::function<bool(std::string_view body)>& accept) {
  close();
  path_ = path;
  reset_reason_.clear();
  created_ = truncated_ = false;
  const std::string header = format.header();
  std::uint64_t valid_bytes = 0;
  {
    RecordReader reader(path);
    std::string line;
    if (!reader.is_open()) {
      created_ = true;
    } else if (!reader.header(line)) {
      reset_reason_ = "empty or torn header";
    } else if (line != header) {
      const std::string magic = "# " + format.name + " v";
      const std::size_t at = magic.size();
      const std::string version = line.substr(at, line.find(' ', at) - at);
      reset_reason_ =
          line.rfind(magic, 0) != 0 ? "not a " + format.name + " file"
          : version != std::to_string(format.version)
              ? "journal format v" + version + ", expected v" +
                    std::to_string(format.version)
              : format.changed;
    } else {
      for (;;) {
        const RecordReader::Next next = reader.next();
        if (next == RecordReader::Next::kEnd) break;
        if (next == RecordReader::Next::kInvalid || !accept(reader.body())) {
          truncated_ = true;
          valid_bytes = reader.offset();
          break;
        }
      }
    }
  }

  if (!reset_reason_.empty()) {
    std::remove(path.c_str());
    created_ = true;
  } else if (truncated_ &&
             ::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return io_error("cannot truncate the torn tail of '" + path + "'");
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (!file_) return io_error("cannot open '" + path + "' for append");
  if (!created_) return Status::Ok();
  Status written = write(header + "\n");
  if (written.ok()) written = fsync_parent(path);
  if (!written.ok()) close();
  return written;
}

Status RecordLog::write(const std::string& bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size() ||
      std::fflush(file_) != 0)
    return io_error("write to '" + path_ + "' failed");
  return fsync_fd(fileno(file_), "'" + path_ + "'");
}

Status RecordLog::append(const std::vector<std::string>& bodies) {
  if (!active())
    return Status(ErrorCode::kInternal, "'" + path_ + "' is not open");
  std::string batch;
  for (const std::string& body : bodies) {
    batch += seal_record(body);
    batch += '\n';
  }
  if (batch.empty()) return Status::Ok();

  if (sites_.kill && UCP_FAULT_POINT(sites_.kill)) {
    // Simulated power loss mid-append: make a *partial* batch durable and
    // die without unwinding. Recovery tests assert the torn tail is
    // truncated on resume and the records before it survive.
    const std::size_t torn = batch.size() > 7 ? batch.size() - 7 : 0;
    std::fwrite(batch.data(), 1, torn, file_);
    std::fflush(file_);
    (void)fsync_fd(fileno(file_), path_);
    ::raise(SIGKILL);
  }
  // A caller without durability beats no caller: every failure deactivates
  // the log, and the caller carries on and reports it.
  const Status written =
      sites_.write && UCP_FAULT_POINT(sites_.write)
          ? Status(ErrorCode::kInternal,
                   "injected write failure on '" + path_ + "'")
          : write(batch);
  if (!written.ok()) close();
  return written;
}

Status RecordLog::annotate(const std::string& text) {
  if (!active())
    return Status(ErrorCode::kInternal, "'" + path_ + "' is not open");
  // A newline would turn one annotation into a torn-tail candidate.
  std::string line = "# ";
  for (const char c : text) line += c == '\n' ? ' ' : c;
  line += '\n';
  if (UCP_FAULT_POINT("obs.sink_write"))
    return Status(ErrorCode::kInternal,
                  "injected annotation failure on '" + path_ + "'");
  return write(line);
}

void RecordLog::close() {
  if (file_) std::fclose(file_);
  file_ = nullptr;
}

Status RecordLog::publish(const std::string& path,
                          const std::string& contents) {
  // fsync the temp file *before* the rename (a rename can survive a crash
  // that loses the renamed file's bytes) and the parent directory after it.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (!file) return io_error("cannot open '" + tmp + "' for writing");
  Status s = std::fwrite(contents.data(), 1, contents.size(), file) ==
                         contents.size() &&
                     std::fflush(file) == 0
                 ? fsync_fd(fileno(file), "'" + tmp + "'")
                 : io_error("write to '" + tmp + "' failed");
  if (std::fclose(file) != 0 && s.ok()) s = io_error("close '" + tmp + "'");
  if (s.ok() && std::rename(tmp.c_str(), path.c_str()) != 0)
    s = io_error("rename '" + tmp + "' -> '" + path + "' failed");
  if (s.ok()) return fsync_parent(path);
  std::remove(tmp.c_str());
  return s;
}

}  // namespace ucp::support
