#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

namespace ucp::support {

std::uint32_t worker_count(std::uint32_t threads) {
  return threads != 0 ? threads
                      : std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for_index(
    std::size_t n, std::uint32_t threads,
    const std::function<void(std::size_t index, std::uint32_t worker)>& fn) {
  std::atomic<std::size_t> next{0};
  // Indices >= fail_bound are abandoned; everything below it still runs, so
  // a lower-index failure can still be observed and take precedence.
  std::atomic<std::size_t> fail_bound{std::numeric_limits<std::size_t>::max()};
  std::size_t first_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto workers = static_cast<std::uint32_t>(
      std::min<std::size_t>(worker_count(threads), n));
  // Task boundary: capture exceptions instead of letting them escape a
  // worker thread (which would std::terminate), keep the error of the
  // lowest failing index, and rethrow it on the calling thread once the
  // pool has drained.
  auto worker = [&](std::uint32_t slot) {
    for (;;) {
      const std::size_t idx = next.fetch_add(1);
      if (idx >= n || idx >= fail_bound.load(std::memory_order_relaxed))
        return;
      try {
        fn(idx, slot);
      } catch (...) {
        std::size_t bound = fail_bound.load(std::memory_order_relaxed);
        while (idx < bound && !fail_bound.compare_exchange_weak(
                                  bound, idx, std::memory_order_relaxed)) {
        }
        std::lock_guard<std::mutex> lock(error_mutex);
        if (idx < first_index) {
          first_index = idx;
          first_error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t slot = 1; slot < workers; ++slot)
    pool.emplace_back(worker, slot);
  worker(0);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

CommitFrontier::CommitFrontier(std::size_t n, Commit commit)
    : done_(n, 0), commit_(std::move(commit)) {}

void CommitFrontier::done(std::size_t index) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_[index] = 1;
  if (committing_) return;  // the active committer will pick it up
  committing_ = true;
  for (;;) {
    const std::size_t begin = next_;
    while (next_ < done_.size() && done_[next_] != 0) ++next_;
    if (next_ == begin) break;
    const std::size_t end = next_;
    lock.unlock();
    try {
      commit_(begin, end);
    } catch (...) {
      lock.lock();
      committing_ = false;
      throw;
    }
    lock.lock();
  }
  committing_ = false;
}

}  // namespace ucp::support
