#pragma once

// One durable record log: the persistence idiom shared by the sweep journal
// (exp/journal.hpp), the ucpd request journal (serve/request_journal.hpp)
// and the fuzz-campaign journal (fuzz/campaign.cpp).
//
// File format: one header line, `# <name> v<version><fields>`, then one
// record per line, `<body>,<16-hex FNV-1a of body>`; `#` lines are
// annotations, skipped on read. Durability discipline:
//  - a created file's header is fsync'd, file and parent directory;
//  - each append batch is one fwrite + fflush + fsync;
//  - a line that fails its checksum (a torn tail after a crash mid-append)
//    is truncated away on open with everything after it, never trusted; a
//    valid prefix is never rewritten;
//  - a header that does not match resets the file: a stale log is
//    worthless, not dangerous.
// Each journal keeps only its row codec and its acceptance policy, handed
// to open() as a callback.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace ucp::support {

/// 64-bit FNV-1a. The basis is the standard offset basis
/// 14695981039346656037 with its last digit dropped. Keep it as written:
/// the pinned grid fingerprint 54eee3b9f691b61d, every ucpd request
/// fingerprint and every journal checksum depend on it.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnvBasis);

/// Exactly 16 lowercase hex digits.
std::string to_hex(std::uint64_t v);

/// Strict decimal parse: digits only, the whole cell, no overflow.
bool parse_u64(std::string_view cell, std::uint64_t& out);

/// Cell codec of comma-separated record bodies: `\` -> `\\`, `,` -> `\c`,
/// newline -> `\n`, so a cell never breaks its row or its line.
std::string escape_cell(std::string_view s);
std::string unescape_cell(std::string_view s);
/// Splits a body on unescaped commas; the cells stay escaped.
std::vector<std::string> split_cells(std::string_view body);

/// `<body>,<checksum>`, and its inverse: the body when the checksum holds.
std::string seal_record(std::string_view body);
std::optional<std::string_view> unseal_record(std::string_view line);

/// Reads a record log front to back. The strict reader of the journal
/// merge uses it directly; RecordLog::open uses it to resume.
class RecordReader {
 public:
  enum class Next { kRecord, kInvalid, kEnd };

  explicit RecordReader(const std::string& path)
      : in_(path, std::ios::binary) {}
  bool is_open() const { return in_.is_open(); }
  /// Reads the header line; false on an empty file or a torn header.
  bool header(std::string& line);
  /// Advances past annotations and blank lines to the next line. kRecord:
  /// body() is a record whose checksum holds. kInvalid: the line fails its
  /// checksum or lacks its newline (a torn tail).
  Next next();
  std::string_view body() const { return body_; }
  /// Byte offset of the line next() last stopped at.
  std::uint64_t offset() const { return offset_; }

 private:
  bool getline();

  std::ifstream in_;
  std::string line_;
  std::string_view body_;
  std::uint64_t offset_ = 0;
  std::uint64_t end_ = 0;  ///< offset just past line_
  bool newline_ = false;   ///< whether line_ ended in '\n'
};

class RecordLog {
 public:
  /// The header line `# <name> v<version><fields>`.
  struct Format {
    std::string name;     ///< e.g. "ucp-sweep-journal"
    std::uint32_t version = 1;
    std::string fields{};  ///< rest of the line, e.g. " grid=<fp> sel=<fp>"
    /// Reset reason when only `fields` differ.
    std::string changed = "header fields changed since last run";
    std::string header() const {
      return "# " + name + " v" + std::to_string(version) + fields;
    }
  };
  /// Fault-injection sites of append() (nullptr = none): `write` fails the
  /// append; `kill` writes a torn batch, fsyncs it and raises SIGKILL.
  struct Sites {
    const char* write = nullptr;
    const char* kill = nullptr;
  };

  explicit RecordLog(Sites sites) : sites_(sites) {}
  ~RecordLog() { close(); }
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Opens `path` for append. A missing file is created with `format`'s
  /// header; a file whose header differs is reset, and reset_reason() says
  /// why ("journal format v4, expected v5"). Otherwise every valid record
  /// is handed to `accept` in file order; the first line that fails its
  /// checksum or that `accept` rejects is truncated away together with
  /// everything after it (truncated() is then true).
  Status open(const std::string& path, const Format& format,
              const std::function<bool(std::string_view body)>& accept);

  /// Appends `bodies` as one batch: one fwrite, one fflush, one fsync. Any
  /// failure deactivates the log and is returned.
  Status append(const std::vector<std::string>& bodies);

  /// Appends `text` as a `# ` annotation line, newlines flattened. Behind
  /// the obs.sink_write fault point; a failure is returned but leaves the
  /// log active (annotations are observability, not records).
  Status annotate(const std::string& text);

  bool active() const { return file_ != nullptr; }
  bool created() const { return created_; }  ///< open() wrote a new header
  bool truncated() const { return truncated_; }
  const std::string& reset_reason() const { return reset_reason_; }
  void close();

  /// Publishes `contents` at `path` atomically and durably: a temp file,
  /// fsync, rename, fsync of the parent directory.
  static Status publish(const std::string& path, const std::string& contents);

 private:
  Status write(const std::string& bytes);

  Sites sites_;
  std::FILE* file_ = nullptr;
  std::string path_;
  std::string reset_reason_;
  bool created_ = false;
  bool truncated_ = false;
};

}  // namespace ucp::support
