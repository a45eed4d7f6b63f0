/// \file transport.hpp
/// \brief Byte transports for qtda_serve: Unix socket, TCP, and in-process
/// loopback.
///
/// The server speaks to clients through two tiny interfaces — Connection
/// (blocking line read/write) and Transport (blocking accept) — so the same
/// BettiServer runs unchanged over a real AF_UNIX stream socket (the
/// daemon), a TCP listener (remote reachability), or an in-process loopback
/// pair (tests and the --smoke mode, where multithreaded stress must not
/// depend on filesystem socket paths).
///
/// Lifetime rules: close() on either endpoint wakes blocked readers on both
/// sides with end-of-stream; shutdown() on a Transport unblocks accept().
/// Connections are handed out as shared_ptr because the server's completion
/// queue may outlive the reader thread that accepted the connection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace qtda {

/// One bidirectional, newline-framed byte stream.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Blocks for the next newline-terminated line (returned without the
  /// newline).  nullopt = end of stream (peer closed or close() called).
  virtual std::optional<std::string> read_line() = 0;

  /// read_line() with a timeout.  On timeout returns nullopt and sets
  /// *timed_out (end-of-stream leaves it false, disambiguating the two
  /// nullopt cases).  The base implementation ignores the timeout and
  /// blocks — every transport in this file overrides it; a decorator that
  /// cannot honor timeouts still degrades to plain blocking reads.
  virtual std::optional<std::string> read_line_for(std::uint64_t timeout_ms,
                                                   bool* timed_out) {
    (void)timeout_ms;
    if (timed_out != nullptr) *timed_out = false;
    return read_line();
  }

  /// Caps what a read buffers of one line: a longer line is read as its
  /// first \p max_line_bytes + 1 bytes, and the rest of it, through the
  /// next newline, is discarded as it arrives — so the server's size check
  /// refuses it without ever holding it.  Set before the first read.  The
  /// base implementation does nothing: an in-process transport hands over
  /// lines its writer already built.
  virtual void set_max_line_bytes(std::size_t max_line_bytes) {
    (void)max_line_bytes;
  }

  /// Writes one line (the newline is appended).  Returns false once the
  /// stream is closed.  Thread-safe against concurrent write_line calls.
  virtual bool write_line(const std::string& line) = 0;

  /// Closes both directions; idempotent.
  virtual void close() = 0;
};

/// Listening endpoint producing Connections.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks for the next client; nullptr once shutdown() was called.
  virtual std::shared_ptr<Connection> accept() = 0;

  /// Unblocks accept() permanently.  Idempotent.
  virtual void shutdown() = 0;
};

/// In-process transport: connect() hands the client endpoint of a freshly
/// created pair to the caller and queues the server endpoint for accept().
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport();
  ~LoopbackTransport() override;

  /// Client side of a new connection (callable from any thread).
  std::shared_ptr<Connection> connect();

  std::shared_ptr<Connection> accept() override;
  void shutdown() override;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// AF_UNIX stream-socket transport bound to \p path (an existing socket
/// file at the path is replaced).  accept() polls so shutdown() takes
/// effect within ~100 ms even with no client activity.
class UnixSocketTransport final : public Transport {
 public:
  explicit UnixSocketTransport(std::string path);
  ~UnixSocketTransport() override;

  std::shared_ptr<Connection> accept() override;
  void shutdown() override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
};

/// Client-side connect to a Unix-socket server.
std::shared_ptr<Connection> connect_unix(const std::string& path);

/// TCP stream-socket transport bound to \p host:\p port (port 0 binds an
/// ephemeral port — read the actual one back with port()).  Same polling
/// accept loop as the Unix transport; accepted connections get TCP_NODELAY
/// so one-line responses are not Nagle-delayed.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(std::uint16_t port = 0,
                        std::string host = "127.0.0.1");
  ~TcpTransport() override;

  std::shared_ptr<Connection> accept() override;
  void shutdown() override;

  const std::string& host() const { return host_; }
  /// The bound port (resolves port 0 to the kernel-assigned ephemeral one).
  std::uint16_t port() const { return port_; }

 private:
  std::string host_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
};

/// Client-side connect to a TCP server.
std::shared_ptr<Connection> connect_tcp(const std::string& host,
                                        std::uint16_t port);

}  // namespace qtda
