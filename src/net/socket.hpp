// POSIX TCP primitives for the waves transport: RAII fds, deadline-driven
// all-or-nothing I/O, and an ephemeral-port listener.
//
// Everything here is nonblocking under the hood and polls against a
// steady-clock deadline, so no referee round or party daemon can hang on a
// dead peer — the worst case is the caller's deadline. Hosts are IPv4
// literals ("127.0.0.1"); the deployment model is referee-to-parties over a
// trusted network (or loopback in tests/benches), not general name
// resolution.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace waves::net {

using Clock = std::chrono::steady_clock;
using Deadline = Clock::time_point;

[[nodiscard]] inline Deadline deadline_in(std::chrono::milliseconds ms) {
  return Clock::now() + ms;
}

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

enum class IoResult {
  kOk,
  kTimeout,  // deadline passed before the transfer completed
  kClosed,   // peer closed the connection
  kError,    // socket error (connection reset, bad fd, ...)
};

/// Move-only connected-socket handle. I/O never transfers partially to the
/// caller: a failed recv_exact delivers no bytes of the message, a failed
/// send_all may have written a prefix (the connection is then dead to the
/// protocol and must be dropped).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& o) noexcept;
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  [[nodiscard]] bool send_all(const void* data, std::size_t len, Deadline dl);
  [[nodiscard]] IoResult recv_exact(void* data, std::size_t len, Deadline dl);
  /// Wait until at least one byte (or EOF) is readable. False on timeout.
  [[nodiscard]] bool wait_readable(Deadline dl);

 private:
  int fd_ = -1;
};

/// Connect to host:port by `dl`; invalid Socket on failure. `timed_out`
/// (optional) distinguishes deadline expiry from refusal.
[[nodiscard]] Socket tcp_connect(const std::string& host, std::uint16_t port,
                                 Deadline dl, bool* timed_out = nullptr);

/// Start a nonblocking connect to host:port; the socket turns writable
/// once it completes, and connect_succeeded() then says how. Invalid when
/// it fails at once (refused, unparsable host, an injected connect drop).
[[nodiscard]] Socket connect_nonblocking(const std::string& host,
                                         std::uint16_t port);
/// SO_ERROR of a completed nonblocking connect is 0.
[[nodiscard]] bool connect_succeeded(int fd);

/// One shared socket-option bundle for every fd the transport creates —
/// server, hub, and client sockets all go through here so the options can
/// never drift apart: every fd goes nonblocking, listeners get
/// SO_REUSEADDR (fast restart re-bind), connections get TCP_NODELAY (the
/// protocol is small request/reply frames; Nagle only adds latency).
/// False if the fd can't be made nonblocking (options are best-effort).
enum class SocketKind : std::uint8_t { kListener, kConnection };
[[nodiscard]] bool prepare_socket(int fd, SocketKind kind);

/// Listening socket; port 0 binds an ephemeral port (read it back via
/// port(), which waved prints in its READY line).
class Listener {
 public:
  [[nodiscard]] bool listen_on(const std::string& host, std::uint16_t port);
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool valid() const noexcept { return sock_.valid(); }
  /// One accepted connection, or an invalid Socket on timeout/error —
  /// a blocking accept for single-connection peers (test fixtures, fake
  /// servers); the serving cores use try_accept.
  [[nodiscard]] Socket accept_one(Deadline dl);
  /// Nonblocking accept of one already-queued connection; invalid Socket
  /// when none is pending. The event-loop accept handler calls this in a
  /// loop until it drains the backlog (accept-until-EAGAIN), so one
  /// readiness event never strands queued peers.
  [[nodiscard]] Socket try_accept();
  /// Raw listening fd for event-loop registration.
  [[nodiscard]] int fd() const noexcept { return sock_.fd(); }
  void close() noexcept { sock_.close(); }

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

}  // namespace waves::net
