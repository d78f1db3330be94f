#include "support/cancellation.hpp"

#include <chrono>
#include <vector>

namespace ucp {

namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Watchdog::Slot::arm(std::int64_t deadline_ms) {
  if (deadline_ms <= 0) return;
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  cancel_at_ms_ = now_ms() + deadline_ms;
}

void Watchdog::Slot::disarm() {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  cancel_at_ms_ = -1;
}

Watchdog::Watchdog(std::size_t slots, bool poll, OnFire on_fire)
    : slots_(new Slot[slots]), size_(slots), on_fire_(std::move(on_fire)) {
  for (std::size_t i = 0; i < size_; ++i) slots_[i].owner_ = this;
  if (poll) thread_ = std::thread([this] { poll_loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::poll_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<std::int64_t> overdue;
  while (!stop_) {
    // Cancel under the lock: a disarm() that returned first has retired
    // its deadline, so a fire can never land on the slot's next arming.
    const std::int64_t now = now_ms();
    for (std::size_t i = 0; i < size_; ++i) {
      Slot& s = slots_[i];
      if (s.cancel_at_ms_ < 0 || now < s.cancel_at_ms_) continue;
      s.token.cancel();
      overdue.push_back(now - s.cancel_at_ms_);
      s.cancel_at_ms_ = -1;
    }
    if (on_fire_ && !overdue.empty()) {
      lock.unlock();
      for (const std::int64_t late : overdue) on_fire_(late);
      lock.lock();
    }
    overdue.clear();
    stop_cv_.wait_for(lock, std::chrono::milliseconds(20),
                      [this] { return stop_; });
  }
}

}  // namespace ucp
