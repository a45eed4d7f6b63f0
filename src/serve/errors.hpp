/// \file errors.hpp
/// \brief The serving layer's structured error taxonomy.
///
/// Every failed request is answered with a stable error *code* plus a
/// `retryable` flag, so clients can distinguish "try again" (overloaded,
/// shutdown, transport loss) from "fix the request" (protocol, limit) and
/// "give up" (deadline, internal) without parsing free-text messages.  The
/// codes travel on the wire (`error id=.. code=.. retryable=..`, see
/// protocol.hpp), surface as typed ServeError exceptions in ServeClient,
/// and are counted per code in the telemetry registry as
/// `serve.errors.<code>` by the server that answers them.
///
/// | code        | retryable | meaning                                       |
/// |-------------|-----------|-----------------------------------------------|
/// | protocol    | no        | malformed line / unknown verb or key          |
/// | limit       | no        | request exceeds a validation cap              |
/// | overloaded  | yes       | admission queue full (carries retry_after_ms) |
/// | deadline    | no        | deadline expired while queued or executing    |
/// | shutdown    | yes       | server is stopping (retry another replica)    |
/// | internal    | no        | exception escaped the estimator               |
/// | unavailable | yes       | client-side: transport broke mid-request      |
/// | timeout     | yes       | client-side: per-request timeout elapsed      |
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace qtda {

/// Stable request-failure codes.  kNone marks a successful response (never
/// on the wire); kUnavailable/kTimeout are synthesized client-side and do
/// not originate from the server.
enum class ServeErrorCode {
  kNone = 0,
  kProtocol,
  kLimit,
  kOverloaded,
  kDeadline,
  kShutdown,
  kInternal,
  kUnavailable,
  kTimeout,
};

/// Wire name of a code ("protocol", "limit", ...; kNone renders "none").
const char* serve_error_name(ServeErrorCode code);

/// Inverse of serve_error_name.  Unknown names map to kInternal so a newer
/// server's codes degrade to non-retryable on an older client.
ServeErrorCode serve_error_from_name(const std::string& name);

/// Whether an identical retry can reasonably succeed (see the table above).
bool serve_error_retryable(ServeErrorCode code);

/// Typed failure thrown by ServeClient when a request cannot be served
/// (retries exhausted, non-retryable error, timeout).
class ServeError : public Error {
 public:
  ServeError(ServeErrorCode code, const std::string& message,
             std::uint64_t retry_after_ms = 0)
      : Error(std::string(serve_error_name(code)) + ": " + message),
        code_(code),
        retry_after_ms_(retry_after_ms) {}

  ServeErrorCode code() const { return code_; }
  bool retryable() const { return serve_error_retryable(code_); }
  std::uint64_t retry_after_ms() const { return retry_after_ms_; }

 private:
  ServeErrorCode code_;
  std::uint64_t retry_after_ms_;
};

}  // namespace qtda
