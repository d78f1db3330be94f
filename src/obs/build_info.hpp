#pragma once

// Build metadata, stamped once at configure/compile time and carried by
// every metrics snapshot, every flight-recorder dump and the admin HEALTH
// payload. Two runs are only comparable when their build stamps match — the
// stamp is what lets a latency regression be blamed on a flag change (or a
// sanitizer preset) instead of the code under test.

#include <cstdint>
#include <string>

namespace ucp::obs {

/// Configure/compile-time facts about this binary. Every field is a plain
/// string so the stamp can be embedded verbatim in any JSON artifact.
struct BuildInfo {
  std::string git_sha;    ///< `git rev-parse --short` at configure time
  std::string compiler;   ///< compiler id + version (e.g. "GNU 13.2.0")
  std::string flags;      ///< CMAKE_CXX_FLAGS + build-type flags
  std::string build_type; ///< CMAKE_BUILD_TYPE
  std::string sanitizer;  ///< UCP_SANITIZE preset: OFF / ADDRESS / THREAD
  /// std::thread::hardware_concurrency() of the *running* host — the one
  /// runtime field, because thread-scaling figures are meaningless without
  /// it.
  unsigned hardware_concurrency = 0;
};

/// The process-wide stamp (hardware_concurrency resolved on first call).
const BuildInfo& build_info();

/// Deterministic single-line JSON object of `build_info()`, key order
/// fixed: git_sha, compiler, flags, build_type, sanitizer,
/// hardware_concurrency.
const std::string& build_info_json();

}  // namespace ucp::obs
