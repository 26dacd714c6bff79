#pragma once
// Typed error taxonomy for the serving runtime. The client API boundary
// (run_model / run_model_batched) reports failures as Status / Result<T>
// values instead of raw ahn::Error exceptions, so callers can branch on
// *why* a request failed (deadline, shutdown, QoI rejection, transient
// device fault, ...) without string-matching exception text.
// AHN_CHECK remains the contract-violation path (programmer errors still
// throw); Status covers expected runtime failure modes.

#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace ahn {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    ///< malformed request (bad row shape, null deadline, ...)
  kNotFound,           ///< missing tensor key
  kModelUnavailable,   ///< unknown / unregistered model name
  kDeadlineExceeded,   ///< request expired before (or while) being served
  kTransientFailure,   ///< retriable fault persisted past the retry budget
  kQoIRejected,        ///< §7.1 quality miss with no original-code fallback
  kShuttingDown,       ///< runtime is draining; request was not accepted
  kInternal,           ///< invariant failure escaping a serving thread
};

[[nodiscard]] constexpr const char* status_code_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kModelUnavailable: return "MODEL_UNAVAILABLE";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kTransientFailure: return "TRANSIENT_FAILURE";
    case StatusCode::kQoIRejected: return "QOI_REJECTED";
    case StatusCode::kShuttingDown: return "SHUTTING_DOWN";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// A status code plus an optional human-readable detail message.
class Status {
 public:
  Status() noexcept = default;  ///< OK
  explicit Status(StatusCode code, std::string message = "")
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok() noexcept { return Status{}; }

  [[nodiscard]] bool is_ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  [[nodiscard]] std::string to_string() const {
    std::string s = status_code_name(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value or the Status explaining its absence (StatusOr-style). An OK
/// Result always holds a value; a non-OK Result never does.
template <typename T>
class Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {
    AHN_CHECK_MSG(!status_.is_ok(), "OK Result must carry a value");
  }
  /*implicit*/ Result(StatusCode code) : Result(Status(code)) {}

  [[nodiscard]] bool is_ok() const noexcept { return status_.is_ok(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }
  [[nodiscard]] StatusCode code() const noexcept { return status_.code(); }

  [[nodiscard]] T& value() {
    AHN_CHECK_MSG(is_ok(), "value() on non-OK Result: " << status_.to_string());
    return *value_;
  }
  [[nodiscard]] const T& value() const {
    AHN_CHECK_MSG(is_ok(), "value() on non-OK Result: " << status_.to_string());
    return *value_;
  }

  [[nodiscard]] T value_or(T fallback) const {
    return is_ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;           // OK unless constructed from a non-OK Status
  std::optional<T> value_;  // engaged iff status_ is OK
};

}  // namespace ahn
