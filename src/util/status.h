// Arrow-style Status / StatusOr error handling for fallible boundaries
// (file I/O, configuration parsing). Internal algorithmic code uses
// ASM_CHECK instead: a broken invariant there is a bug the caller cannot
// act on, so it aborts naming the failed condition rather than threading
// a Status through every hot loop.

#pragma once

#include <string>
#include <utility>
#include <variant>

#include "util/check.h"

namespace asti {

/// Coarse error taxonomy; mirrors the categories database engines expose.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kIOError,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kResourceExhausted,
  kCancelled,
  kDeadlineExceeded,
};

/// Returns a short human-readable name for a status code ("OK", "IOError"...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error result for operations that return no value.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Dereferencing an errored
/// StatusOr aborts via ASM_CHECK.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : payload_(std::move(value)) {}       // NOLINT implicit
  StatusOr(Status status) : payload_(std::move(status)) {  // NOLINT implicit
    ASM_CHECK(!std::get<Status>(payload_).ok())
        << "StatusOr constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status ok_status = Status::OK();
    return ok() ? ok_status : std::get<Status>(payload_);
  }

  T& value() & {
    ASM_CHECK(ok()) << status().ToString();
    return std::get<T>(payload_);
  }
  const T& value() const& {
    ASM_CHECK(ok()) << status().ToString();
    return std::get<T>(payload_);
  }
  T&& value() && {
    ASM_CHECK(ok()) << status().ToString();
    return std::get<T>(std::move(payload_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> payload_;
};

}  // namespace asti

/// Propagates a non-OK status to the caller, Arrow-style.
#define ASM_RETURN_NOT_OK(expr)            \
  do {                                     \
    ::asti::Status _st = (expr);           \
    if (!_st.ok()) return _st;             \
  } while (false)

#define ASM_STATUS_CONCAT_INNER_(a, b) a##b
#define ASM_STATUS_CONCAT_(a, b) ASM_STATUS_CONCAT_INNER_(a, b)

/// Evaluates a StatusOr expression; on error returns its Status, otherwise
/// moves the value into `lhs` (which may be a declaration):
///   ASM_ASSIGN_OR_RETURN(const size_t index, FindSection(type));
#define ASM_ASSIGN_OR_RETURN(lhs, expr)                                     \
  ASM_ASSIGN_OR_RETURN_IMPL_(ASM_STATUS_CONCAT_(_status_or_, __LINE__), lhs, expr)
#define ASM_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr) \
  auto var = (expr);                               \
  if (!var.ok()) return var.status();              \
  lhs = std::move(var).value()
