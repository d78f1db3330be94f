#pragma once

// Cooperative cancellation for the supervised sweep and ucpd.
//
// A CancellationToken is a single atomic flag owned by the supervisor (one
// per Watchdog worker slot). The case solver installs it into thread-local
// storage with a CancelScope; the long-running kernels under it — the
// cache-analysis fixpoints, the simplex pivot loops, the interpreter step
// loop and the optimizer's candidate walk — poll `cancellation_requested()`
// at their existing budget-check cadence. The unset fast path is one
// thread-local load, so the checks are free on un-supervised runs (tests,
// benches, library users that never install a scope).
//
// Two exits exist by design:
//  - kernels that already speak the Status channel (the interpreter, the
//    optimizer's pass loop) return ErrorCode::kCancelled and degrade
//    gracefully, keeping whatever sound partial state they have;
//  - deep pure-compute kernels (fixpoints, simplex pivots) throw
//    CancelledError, which the case solver's rung boundary catches and
//    converts into a quarantined row. Everything in between is RAII, so the
//    throw is safe, and the retry ladder then re-runs the case with a fresh
//    token.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace ucp {

/// One supervisor-owned cancellation flag. `cancel()` may be called from any
/// thread (the watchdog); `cancelled()` is a relaxed load. Reset between
/// tasks by the owning worker only.
class CancellationToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  void reset() { cancelled_.store(false, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

namespace detail {
inline thread_local const CancellationToken* g_cancel_token = nullptr;
}

/// Installs `token` as the calling thread's active token for the scope's
/// lifetime; nests (the previous token is restored on exit).
class CancelScope {
 public:
  explicit CancelScope(const CancellationToken* token)
      : previous_(detail::g_cancel_token) {
    detail::g_cancel_token = token;
  }
  ~CancelScope() { detail::g_cancel_token = previous_; }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancellationToken* previous_;
};

/// True iff the calling thread runs under a cancelled token. Cheap enough
/// for per-pivot polling: a thread-local load plus, when a scope is
/// installed, one relaxed atomic load.
inline bool cancellation_requested() {
  const CancellationToken* token = detail::g_cancel_token;
  return token != nullptr && token->cancelled();
}

/// Thrown by deep compute kernels on cancellation; the sweep task boundary
/// converts it into a quarantined (kCancelled) row.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& where)
      : std::runtime_error("cancelled by supervisor in " + where) {}
};

inline void throw_if_cancelled(const char* where) {
  if (cancellation_requested()) throw CancelledError(where);
}

/// The wall-clock supervisor of the sweep and ucpd: one token per worker
/// slot, and a thread that polls every 20 ms and cancels any slot whose
/// armed deadline has passed. A worker arms its slot around a supervised
/// stretch of work and runs it under the slot token's CancelScope.
class Watchdog {
 public:
  /// Runs on the poll thread, outside its lock, once per fire, with how far
  /// past the deadline the poll noticed it. Must not throw.
  using OnFire = std::function<void(std::int64_t overdue_ms)>;

  class Slot {
   public:
    CancellationToken token;
    /// Cancels `token` once `deadline_ms` from now has passed; a deadline
    /// <= 0 leaves the slot disarmed.
    void arm(std::int64_t deadline_ms);
    /// Once disarm() returns, the previous arming can no longer cancel the
    /// token, so a following reset() is never undone by a late fire.
    void disarm();

   private:
    friend class Watchdog;
    Watchdog* owner_ = nullptr;
    std::int64_t cancel_at_ms_ = -1;  ///< guarded by owner_->mutex_
  };

  /// `poll` = false builds the slots without the poll thread (deadlines
  /// are then never enforced), so unsupervised runs carry no extra thread.
  Watchdog(std::size_t slots, bool poll, OnFire on_fire = {});
  ~Watchdog();  ///< stops and joins the poll thread
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  Slot& slot(std::size_t i) { return slots_[i]; }

 private:
  void poll_loop();

  std::unique_ptr<Slot[]> slots_;
  std::size_t size_;
  OnFire on_fire_;
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  ///< guarded by mutex_
  std::thread thread_;
};

}  // namespace ucp
