// Minimal expected<T, Error>-style result type.
//
// The simulated control plane mirrors the errno-style failures of the real
// Xen toolstack (EEXIST from the XenStore, ENOMEM from the hypervisor, EAGAIN
// for transaction conflicts, ...). Result<T> carries either a value or an
// Error with one of those codes plus a human-readable message.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "src/base/assert.h"

namespace lv {

enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,   // EINVAL
  kNotFound,          // ENOENT
  kAlreadyExists,     // EEXIST
  kOutOfMemory,       // ENOMEM
  kConflict,          // EAGAIN: transaction conflict, retry
  kPermissionDenied,  // EACCES
  kUnavailable,       // EBUSY / resource exhausted
  kAborted,           // operation cancelled (e.g. domain destroyed mid-boot)
  kTimeout,           // deadline exceeded
  kInternal,          // invariant violation surfaced as an error
};

// Returns the canonical short name, e.g. "NOT_FOUND".
const char* ErrorCodeName(ErrorCode code);

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  std::string ToString() const { return std::string(ErrorCodeName(code)) + ": " + message; }
};

inline Error Err(ErrorCode code, std::string message) {
  return Error{code, std::move(message)};
}

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error error) : v_(std::move(error)) {}  // NOLINT: implicit by design

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    LV_CHECK_MSG(ok(), error().message.c_str());
    return std::get<T>(v_);
  }
  T& value() & {
    LV_CHECK_MSG(ok(), error().message.c_str());
    return std::get<T>(v_);
  }
  T&& value() && {
    LV_CHECK_MSG(ok(), error().message.c_str());
    return std::get<T>(std::move(v_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  const Error& error() const {
    LV_CHECK(!ok());
    return std::get<Error>(v_);
  }
  ErrorCode code() const { return ok() ? ErrorCode::kOk : error().code; }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> v_;
};

// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() : ok_(true) {}
  Status(Error error) : ok_(false), error_(std::move(error)) {}  // NOLINT: implicit

  static Status Ok() { return Status(); }

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }
  const Error& error() const {
    LV_CHECK(!ok_);
    return error_;
  }
  ErrorCode code() const { return ok_ ? ErrorCode::kOk : error_.code; }

 private:
  bool ok_;
  Error error_;
};

}  // namespace lv
