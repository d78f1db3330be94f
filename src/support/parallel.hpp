#pragma once

// Shared worker pool and in-order commit frontier.
//
// One primitive serves every fan-out in the tree (the sweep grid, fuzz
// campaigns, figure benches): parallel_for_index runs fn(index, worker) for
// 0..n-1 on a pool of workers pulling indices from an atomic cursor, so
// indices are claimed in increasing order. `worker` is the calling worker's
// slot in [0, worker_count(threads)), stable for the life of the call; a
// caller keys per-worker state (a watchdog slot, an idle clock) on it.
//
// Error discipline — deterministic first-*index* propagation: when fn
// throws, the exception surfacing to the caller is the one from the LOWEST
// failing index, not from whichever thread happened to fail first.
// Concretely:
//  - a failure at index k stops the claiming of indices > k (indices below
//    k that are already claimed or still claimable keep running, because in
//    the sequential semantics they would have run before k);
//  - a later failure at a lower index replaces the recorded error;
//  - after the pool drains, the recorded (lowest-index) exception is
//    rethrown on the calling thread.
// With failure a deterministic property of the index, the surfaced error is
// therefore identical at every thread count, matching threads == 1.
//
// CommitFrontier turns completion order back into index order: workers mark
// indices done in any order, and the finished prefix is handed to one
// commit callback at a time, in index order. The sweep journal and the fuzz
// campaign journal append through it, so their bytes are identical at every
// thread count (DESIGN.md §13.2).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace ucp::support {

/// Resolved pool size: `threads`, or the hardware concurrency when 0.
std::uint32_t worker_count(std::uint32_t threads);

/// Runs fn(index, worker) for index 0..n-1 on a pool of
/// worker_count(threads) workers (never more than n; the calling thread is
/// worker 0). Exceptions follow the deterministic first-failing-index
/// discipline documented above; indices greater than the lowest failing
/// index may be abandoned (never silently: the rethrown error marks the run
/// failed).
void parallel_for_index(
    std::size_t n, std::uint32_t threads,
    const std::function<void(std::size_t index, std::uint32_t worker)>& fn);

/// In-order commit frontier over indices 0..n-1. done(i) is thread-safe.
/// Whichever caller finds no commit in progress becomes the one committer:
/// it calls commit(begin, end) for the longest finished prefix not yet
/// committed, holding no lock, and repeats until no further index is
/// finished, so indices marked meanwhile by other threads are committed
/// too. Every index is committed exactly once, in index order, and an index
/// never marked done stops all commits at that index. If commit throws, the
/// range counts as committed and the exception leaves done().
class CommitFrontier {
 public:
  using Commit = std::function<void(std::size_t begin, std::size_t end)>;

  CommitFrontier(std::size_t n, Commit commit);

  void done(std::size_t index);

 private:
  std::mutex mutex_;          ///< guards done_, next_ and committing_
  std::vector<char> done_;
  std::size_t next_ = 0;      ///< first index not yet committed
  bool committing_ = false;   ///< a caller is inside the commit loop
  Commit commit_;
};

}  // namespace ucp::support
