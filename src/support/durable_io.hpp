#pragma once

// POSIX durability helpers behind support::RecordLog (record_log.hpp), the
// one writer of crash-safe files. A rename alone publishes atomically but
// does not persist: a power loss can still surface the old name, a
// zero-length file, or a torn tail. The durable sequence is fsync(temp) →
// rename → fsync(parent dir), and appenders fsync their descriptor after
// each batch.

#include <string>

#include "support/status.hpp"

namespace ucp::support {

/// fsync(2) the parent directory of `path`, making a rename/creation of the
/// entry itself durable.
Status fsync_parent(const std::string& path);

/// fsync(2) an already-open descriptor.
Status fsync_fd(int fd, const std::string& what);

}  // namespace ucp::support
