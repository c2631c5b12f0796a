#include "src/base/result.h"

namespace lv {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case ErrorCode::kOutOfMemory:
      return "OUT_OF_MEMORY";
    case ErrorCode::kConflict:
      return "CONFLICT";
    case ErrorCode::kPermissionDenied:
      return "PERMISSION_DENIED";
    case ErrorCode::kUnavailable:
      return "UNAVAILABLE";
    case ErrorCode::kAborted:
      return "ABORTED";
    case ErrorCode::kTimeout:
      return "TIMEOUT";
    case ErrorCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

}  // namespace lv
