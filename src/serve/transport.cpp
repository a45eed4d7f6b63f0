#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread_annotations.hpp"

namespace qtda {

namespace {

/// One direction of a loopback pair: a line queue with blocking pop.
struct LineQueue {
  Mutex mutex;
  CondVar ready;
  std::deque<std::string> lines QTDA_GUARDED_BY(mutex);
  bool closed QTDA_GUARDED_BY(mutex) = false;

  void push(std::string line) {
    {
      MutexLock lock(mutex);
      if (closed) return;
      lines.push_back(std::move(line));
    }
    ready.notify_one();
  }

  std::optional<std::string> pop() {
    MutexLock lock(mutex);
    while (!closed && lines.empty()) ready.wait(mutex);
    if (lines.empty()) return std::nullopt;  // closed and drained
    std::string line = std::move(lines.front());
    lines.pop_front();
    return line;
  }

  std::optional<std::string> pop_for(std::uint64_t timeout_ms,
                                     bool* timed_out) {
    if (timed_out != nullptr) *timed_out = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    MutexLock lock(mutex);
    while (!closed && lines.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        if (timed_out != nullptr) *timed_out = true;
        return std::nullopt;
      }
      ready.wait_for(mutex, deadline - now);
    }
    if (lines.empty()) return std::nullopt;  // closed and drained
    std::string line = std::move(lines.front());
    lines.pop_front();
    return line;
  }

  void close() {
    {
      MutexLock lock(mutex);
      closed = true;
    }
    ready.notify_all();
  }
};

/// Shared channel of one loopback connection (two directed queues).
struct LoopbackChannel {
  LineQueue to_server;
  LineQueue to_client;

  void close_both() {
    to_server.close();
    to_client.close();
  }
};

/// One endpoint of a loopback channel.
class LoopbackConnection final : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<LoopbackChannel> channel, bool is_server)
      : channel_(std::move(channel)), is_server_(is_server) {}
  ~LoopbackConnection() override { close(); }

  std::optional<std::string> read_line() override {
    return (is_server_ ? channel_->to_server : channel_->to_client).pop();
  }

  std::optional<std::string> read_line_for(std::uint64_t timeout_ms,
                                           bool* timed_out) override {
    return (is_server_ ? channel_->to_server : channel_->to_client)
        .pop_for(timeout_ms, timed_out);
  }

  bool write_line(const std::string& line) override {
    LineQueue& queue = is_server_ ? channel_->to_client : channel_->to_server;
    {
      MutexLock lock(queue.mutex);
      if (queue.closed) return false;
      queue.lines.push_back(line);
    }
    queue.ready.notify_one();
    return true;
  }

  void close() override { channel_->close_both(); }

 private:
  std::shared_ptr<LoopbackChannel> channel_;
  bool is_server_;
};

}  // namespace

struct LoopbackTransport::State {
  Mutex mutex;
  CondVar ready;
  std::deque<std::shared_ptr<Connection>> pending QTDA_GUARDED_BY(mutex);
  bool stopping QTDA_GUARDED_BY(mutex) = false;
};

LoopbackTransport::LoopbackTransport() : state_(std::make_shared<State>()) {}

LoopbackTransport::~LoopbackTransport() { shutdown(); }

std::shared_ptr<Connection> LoopbackTransport::connect() {
  auto channel = std::make_shared<LoopbackChannel>();
  auto client = std::make_shared<LoopbackConnection>(channel, /*is_server=*/false);
  auto server = std::make_shared<LoopbackConnection>(channel, /*is_server=*/true);
  {
    MutexLock lock(state_->mutex);
    QTDA_REQUIRE(!state_->stopping, "connect() on a shut-down transport");
    state_->pending.push_back(std::move(server));
  }
  state_->ready.notify_one();
  return client;
}

std::shared_ptr<Connection> LoopbackTransport::accept() {
  MutexLock lock(state_->mutex);
  while (!state_->stopping && state_->pending.empty())
    state_->ready.wait(state_->mutex);
  if (state_->pending.empty()) return nullptr;
  auto connection = std::move(state_->pending.front());
  state_->pending.pop_front();
  return connection;
}

void LoopbackTransport::shutdown() {
  {
    MutexLock lock(state_->mutex);
    state_->stopping = true;
  }
  state_->ready.notify_all();
}

namespace {

/// Connection over a stream-socket file descriptor.
class FdConnection final : public Connection {
 public:
  explicit FdConnection(int fd) : fd_(fd) {}
  ~FdConnection() override {
    close();
    // The fd is released only here, once no thread can still hold this
    // connection — closing it inside close() would race with a reader
    // blocked in recv and risk the kernel reusing the fd number under it.
    ::close(fd_);
  }

  std::optional<std::string> read_line() override {
    return next_line(std::nullopt, nullptr);
  }

  std::optional<std::string> read_line_for(std::uint64_t timeout_ms,
                                           bool* timed_out) override {
    return next_line(std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeout_ms),
                     timed_out);
  }

  void set_max_line_bytes(std::size_t max_line_bytes) override {
    // max_line_bytes + 1, saturating.
    kept_line_bytes_ = std::max(max_line_bytes, max_line_bytes + 1);
  }

  bool write_line(const std::string& line) override {
    MutexLock lock(write_mutex_);
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      // MSG_NOSIGNAL: a vanished peer yields EPIPE instead of killing the
      // process with SIGPIPE; EINTR restarts the send so a signal cannot
      // tear a frame mid-line.
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  void close() override {
    if (!closed_.exchange(true)) {
      // shutdown() wakes a reader blocked in recv on another thread and
      // fails every later send/recv, while keeping the fd number reserved
      // until the destructor's ::close.
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  /// The scan loop behind read_line (no deadline) and read_line_for.
  std::optional<std::string> next_line(
      std::optional<std::chrono::steady_clock::time_point> deadline,
      bool* timed_out) {
    if (timed_out != nullptr) *timed_out = false;
    for (;;) {
      const std::size_t newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(
            line_start_, std::min(newline - line_start_, kept_line_bytes_));
        line_start_ = scanned_ = newline + 1;
        return line;
      }
      if (buffer_.size() - line_start_ > kept_line_bytes_) {
        buffer_.resize(line_start_ + kept_line_bytes_);
        discarding_ = true;
      }
      scanned_ = buffer_.size();  // resume the newline search here
      if (deadline.has_value()) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= *deadline) {
          if (timed_out != nullptr) *timed_out = true;
          return std::nullopt;
        }
        const auto remaining_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(*deadline -
                                                                  now)
                .count();
        pollfd poller{fd_, POLLIN, 0};
        const int ready = ::poll(
            &poller, 1, static_cast<int>(std::max<long long>(1, remaining_ms)));
        if (ready < 0 && errno != EINTR) return std::nullopt;
        if (ready <= 0) continue;  // timeout slice or EINTR: re-check deadline
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;  // signal: retry the read
      if (n <= 0) return std::nullopt;        // EOF, error, or shutdown
      append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Appends received bytes, dropping those of an over-long line up to its
  /// newline.  Consumed lines are compacted away here, once per receive.
  void append(const char* data, std::size_t size) {
    buffer_.erase(0, line_start_);
    scanned_ -= line_start_;
    line_start_ = 0;
    if (discarding_) {
      const char* newline =
          static_cast<const char*>(std::memchr(data, '\n', size));
      if (newline == nullptr) return;
      size -= static_cast<std::size_t>(newline - data);
      data = newline;  // the newline ends the truncated line
      discarding_ = false;
    }
    buffer_.append(data, size);
  }

  int fd_;
  // Reader state; only the (single) reader thread touches it.
  std::string buffer_;
  std::size_t line_start_ = 0;  ///< first byte of the line being read
  std::size_t scanned_ = 0;     ///< bytes before this hold no newline
  bool discarding_ = false;     ///< dropping an over-long line's tail
  /// Bytes of one line a read keeps (max_line_bytes + 1; unbounded until
  /// set_max_line_bytes).
  std::size_t kept_line_bytes_ = std::numeric_limits<std::size_t>::max();
  Mutex write_mutex_;   ///< guards the fd's write side (whole-line framing)
  std::atomic<bool> closed_{false};
};

sockaddr_un make_unix_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  QTDA_REQUIRE(path.size() < sizeof(address.sun_path),
               "socket path too long: " << path);
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

UnixSocketTransport::UnixSocketTransport(std::string path)
    : path_(std::move(path)) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  QTDA_REQUIRE(listen_fd_ >= 0, "socket() failed for " << path_);
  ::unlink(path_.c_str());  // replace a stale socket file
  sockaddr_un address = make_unix_address(path_);
  QTDA_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)) == 0,
               "bind() failed for " << path_);
  QTDA_REQUIRE(::listen(listen_fd_, 64) == 0, "listen() failed for " << path_);
}

UnixSocketTransport::~UnixSocketTransport() {
  shutdown();
  // Deferred from shutdown(): the acceptor thread may still be inside
  // poll/accept on this fd there; by destruction time it has joined.
  ::close(listen_fd_);
  ::unlink(path_.c_str());
}

std::shared_ptr<Connection> UnixSocketTransport::accept() {
  while (!stopping_.load()) {
    pollfd poller{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&poller, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!stopping_.load())
        QTDA_ERROR << "accept() failed on " << path_ << ": "
                   << std::strerror(errno);
      continue;
    }
    return std::make_shared<FdConnection>(fd);
  }
  return nullptr;
}

void UnixSocketTransport::shutdown() {
  // shutdown() alone: it wakes the acceptor's poll and fails its accept,
  // while the fd number stays reserved until ~UnixSocketTransport closes
  // it (closing here would race with the still-polling acceptor thread).
  if (!stopping_.exchange(true)) ::shutdown(listen_fd_, SHUT_RDWR);
}

std::shared_ptr<Connection> connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  QTDA_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_un address = make_unix_address(path);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    QTDA_REQUIRE(false, "connect() failed for " << path);
  }
  return std::make_shared<FdConnection>(fd);
}

namespace {

sockaddr_in make_tcp_address(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  QTDA_REQUIRE(::inet_pton(AF_INET, host.c_str(), &address.sin_addr) == 1,
               "invalid IPv4 address \"" << host << '"');
  return address;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(std::uint16_t port, std::string host)
    : host_(std::move(host)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  QTDA_REQUIRE(listen_fd_ >= 0, "socket() failed for " << host_);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address = make_tcp_address(host_, port);
  QTDA_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)) == 0,
               "bind() failed for " << host_ << ':' << port);
  QTDA_REQUIRE(::listen(listen_fd_, 64) == 0,
               "listen() failed for " << host_ << ':' << port);
  // Port 0 asks the kernel for an ephemeral port; read back the real one.
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  QTDA_REQUIRE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                             &bound_size) == 0,
               "getsockname() failed for " << host_);
  port_ = ntohs(bound.sin_port);
}

TcpTransport::~TcpTransport() {
  shutdown();
  // Deferred from shutdown(), same reasoning as ~UnixSocketTransport.
  ::close(listen_fd_);
}

std::shared_ptr<Connection> TcpTransport::accept() {
  while (!stopping_.load()) {
    pollfd poller{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&poller, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!stopping_.load())
        QTDA_ERROR << "accept() failed on " << host_ << ':' << port_ << ": "
                   << std::strerror(errno);
      continue;
    }
    set_nodelay(fd);
    return std::make_shared<FdConnection>(fd);
  }
  return nullptr;
}

void TcpTransport::shutdown() {
  // See UnixSocketTransport::shutdown for why the fd closes in the dtor.
  if (!stopping_.exchange(true)) ::shutdown(listen_fd_, SHUT_RDWR);
}

std::shared_ptr<Connection> connect_tcp(const std::string& host,
                                        std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  QTDA_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in address = make_tcp_address(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    QTDA_REQUIRE(false, "connect() failed for " << host << ':' << port);
  }
  set_nodelay(fd);
  return std::make_shared<FdConnection>(fd);
}

}  // namespace qtda
