#include "serve/errors.hpp"

#include <array>

namespace qtda {

namespace {

constexpr std::size_t kNumCodes = 9;  // kNone .. kTimeout

constexpr std::array<const char*, kNumCodes> kNames = {
    "none",     "protocol", "limit",       "overloaded", "deadline",
    "shutdown", "internal", "unavailable", "timeout",
};

}  // namespace

const char* serve_error_name(ServeErrorCode code) {
  const auto index = static_cast<std::size_t>(code);
  return index < kNames.size() ? kNames[index] : "internal";
}

ServeErrorCode serve_error_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kNames.size(); ++i)
    if (name == kNames[i]) return static_cast<ServeErrorCode>(i);
  return ServeErrorCode::kInternal;
}

bool serve_error_retryable(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kOverloaded:
    case ServeErrorCode::kShutdown:
    case ServeErrorCode::kUnavailable:
    case ServeErrorCode::kTimeout:
      return true;
    case ServeErrorCode::kNone:
    case ServeErrorCode::kProtocol:
    case ServeErrorCode::kLimit:
    case ServeErrorCode::kDeadline:
    case ServeErrorCode::kInternal:
      return false;
  }
  return false;
}

}  // namespace qtda
