#pragma once

// Status / Expected<T>: the recoverable-error channel of the pipeline.
//
// Exceptions (UCP_CHECK / UCP_REQUIRE) remain the channel for *bugs and API
// misuse*; Status is the channel for failures that a production sweep must
// survive: solver budget exhaustion, runaway simulations, wall-clock
// deadlines, corrupt journals. Any stage that can fail recoverably returns
// Status (or Expected<T>) so the experiment harness can quarantine the use
// case and degrade to the identity transform instead of dying (the identity
// transform — ship the original binary — trivially satisfies Theorem 1, so
// the pipeline never has to crash to stay correct).

#include <optional>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace ucp {

/// Recoverable failure classes, shared across modules.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kIterationLimit,       ///< ILP pivot / branch-and-bound node budget
  kStepBudgetExhausted,  ///< interpreter dynamic instruction budget
  kDeadlineExceeded,     ///< kept for the wire protocol; no stage returns it
  kLoopBoundViolated,    ///< declared flow fact contradicted concretely
  kAnalysisFailed,       ///< cache/WCET analysis could not complete
  kInfeasible,           ///< ILP infeasible
  kUnbounded,            ///< ILP unbounded
  kCorruptCache,         ///< persisted file (journal, corpus) failed validation
  kNotFound,             ///< expected file absent
  kFaultInjected,        ///< forced by the fault-injection registry
  kDegraded,             ///< result fell back to the safe identity transform
  kInternal,             ///< unexpected exception contained at a boundary
  kCancelled,            ///< cooperatively cancelled (watchdog / SIGINT)
  kAuditFailed,          ///< soundness auditor contradicted the optimizer
  kMalformedInput,       ///< untrusted input failed parsing/validation
  kOverloaded,           ///< admission control shed the request (retry later)
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kIterationLimit:
      return "iteration-limit";
    case ErrorCode::kStepBudgetExhausted:
      return "step-budget-exhausted";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kLoopBoundViolated:
      return "loop-bound-violated";
    case ErrorCode::kAnalysisFailed:
      return "analysis-failed";
    case ErrorCode::kInfeasible:
      return "infeasible";
    case ErrorCode::kUnbounded:
      return "unbounded";
    case ErrorCode::kCorruptCache:
      return "corrupt-cache";
    case ErrorCode::kNotFound:
      return "not-found";
    case ErrorCode::kFaultInjected:
      return "fault-injected";
    case ErrorCode::kDegraded:
      return "degraded";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kAuditFailed:
      return "audit-failed";
    case ErrorCode::kMalformedInput:
      return "malformed-input";
    case ErrorCode::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

/// An error code plus a human-readable detail string. Default-constructed
/// Status is OK; the detail is empty for OK statuses.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string detail)
      : code_(code), detail_(std::move(detail)) {
    UCP_CHECK_MSG(code_ != ErrorCode::kOk,
                  "error Status constructed with kOk");
  }

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& detail() const { return detail_; }

  /// "<code-name>: <detail>" (or "ok").
  std::string message() const {
    if (ok()) return "ok";
    return detail_.empty() ? std::string(error_code_name(code_))
                           : std::string(error_code_name(code_)) + ": " +
                                 detail_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.detail_ == b.detail_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string detail_;
};

/// Either a value or a non-OK Status. Accessing the value of an errored
/// Expected is a UCP_CHECK failure (a bug, not a recoverable condition).
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Expected(Status status) : status_(std::move(status)) {  // NOLINT
    UCP_CHECK_MSG(!status_.ok(), "Expected built from an OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }
  ErrorCode code() const { return status_.code(); }

  const T& value() const& {
    UCP_CHECK_MSG(ok(), "value() on errored Expected: " + status_.message());
    return *value_;
  }
  T& value() & {
    UCP_CHECK_MSG(ok(), "value() on errored Expected: " + status_.message());
    return *value_;
  }
  T&& value() && {
    UCP_CHECK_MSG(ok(), "value() on errored Expected: " + status_.message());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace ucp
