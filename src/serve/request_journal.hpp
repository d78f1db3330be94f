#pragma once

// Crash-safe request journal of the ucpd daemon — the idempotent-replay
// store, on support::RecordLog. Every *terminal* response (ok / degraded /
// structured error, but never overload sheds) is appended, checksummed and
// fsync'd before the bytes go to the client, so a daemon killed at any
// instant and restarted on the same journal answers a re-sent request id
// with the byte-identical response instead of recomputing (or worse,
// recomputing differently).
//
// RecordLog owns the durability (header `# ucp-serve-journal v1`, checksummed
// rows, torn-tail truncation on open); this class keeps the row codec and
// the later-id-wins policy. Rows map a request id to its request
// fingerprint and full serialized response:
//
//   req,<id>,<fingerprint>,<escaped response bytes>,<checksum>
//
// The fingerprint pins idempotency semantics: a replayed id with a
// matching fingerprint returns the stored response (flagged `replayed 1`);
// the same id with a *different* fingerprint is a client bug and gets a
// structured kMalformedInput error.

#include <map>
#include <string>

#include "support/record_log.hpp"
#include "support/status.hpp"

namespace ucp::serve {

class RequestJournal {
 public:
  struct Entry {
    std::string fingerprint;
    std::string response_text;  ///< serialize_response bytes, replayed 0
  };

  /// Opens (or creates) the journal at `path`, restoring every valid row
  /// into the in-memory replay map. A missing file starts fresh; a bad
  /// header resets the file; a torn tail is truncated away. After open()
  /// the journal is active() and `note()` says what happened.
  Status open(const std::string& path);

  /// Appends one terminal response durably (fwrite + fflush + fsync) and
  /// records it in the replay map. Sits behind the serve.journal_write
  /// fault point; a write failure deactivates the journal (the daemon
  /// keeps serving, without replay durability) and returns the Status.
  Status append(const std::string& id, const std::string& fingerprint,
                const std::string& response_text);

  /// Replay lookup; nullptr when the id was never journaled.
  const Entry* find(const std::string& id) const;

  bool active() const { return log_.active(); }
  const std::string& note() const { return note_; }
  std::size_t restored() const { return restored_; }
  std::size_t rows() const { return entries_.size(); }

  void close() { log_.close(); }

 private:
  support::RecordLog log_{{"serve.journal_write", nullptr}};
  std::string note_;
  std::size_t restored_ = 0;
  std::map<std::string, Entry> entries_;
};

}  // namespace ucp::serve
