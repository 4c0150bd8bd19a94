#include "net/socket.hpp"

#include <arpa/inet.h>
#include <vector>

#include "net/fault.hpp"
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace waves::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Remaining whole milliseconds until `dl`, clamped to [0, INT_MAX] for
// poll(2). Rounds up so a 0.5ms remainder polls for 1ms instead of spinning.
int poll_budget_ms(Deadline dl) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      dl - Clock::now() + std::chrono::microseconds(999));
  if (left.count() <= 0) return 0;
  constexpr long kMax = 60'000;  // re-check even if a caller passes "forever"
  return static_cast<int>(left.count() < kMax ? left.count() : kMax);
}

// Wait for `events` on fd until the deadline. True iff the event arrived.
bool poll_until(int fd, short events, Deadline dl) {
  while (true) {
    const int budget = poll_budget_ms(dl);
    if (budget <= 0 && Clock::now() >= dl) return false;
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, budget);
    if (rc > 0) return true;
    if (rc < 0 && errno != EINTR) return false;
    // rc == 0 (or EINTR): loop re-checks the deadline.
  }
}

}  // namespace

bool prepare_socket(int fd, SocketKind kind) {
  if (fd < 0 || !set_nonblocking(fd)) return false;
  const int one = 1;
  if (kind == SocketKind::kListener) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return true;
}

Socket::Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::send_all(const void* data, std::size_t len, Deadline dl) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::vector<std::uint8_t> mangled;  // only allocated when a fault fires
  bool fail_after = false;
  if constexpr (kFaultsEnabled) {
    const FaultDecision f = next_send_fault(len);
    switch (f.action) {
      case FaultAction::kDrop:
        return false;
      case FaultAction::kReset:
        close();
        return false;
      case FaultAction::kTruncate:
        len = f.offset;  // deliver a strict prefix, then report failure
        fail_after = true;
        break;
      case FaultAction::kCorrupt:
        mangled.assign(p, p + len);
        mangled[f.offset] ^= f.xor_mask;
        p = mangled.data();
        break;
      case FaultAction::kDelay:
      case FaultAction::kNone:
        break;
    }
  }
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!poll_until(fd_, POLLOUT, dl)) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone or hard error
  }
  return !fail_after;
}

IoResult Socket::recv_exact(void* data, std::size_t len, Deadline dl) {
  auto* p = static_cast<std::uint8_t*>(data);
  if constexpr (kFaultsEnabled) {
    const FaultDecision f = next_recv_fault();
    if (f.action == FaultAction::kDrop) return IoResult::kError;
    if (f.action == FaultAction::kReset) {
      close();
      return IoResult::kError;
    }
  }
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoResult::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_until(fd_, POLLIN, dl)) return IoResult::kTimeout;
      continue;
    }
    if (errno == EINTR) continue;
    return IoResult::kError;
  }
  return IoResult::kOk;
}

bool Socket::wait_readable(Deadline dl) {
  return poll_until(fd_, POLLIN, dl);
}

Socket connect_nonblocking(const std::string& host, std::uint16_t port) {
  if constexpr (kFaultsEnabled) {
    if (next_connect_drop()) return Socket{};
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return Socket{};

  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid() || !prepare_socket(s.fd(), SocketKind::kConnection)) {
    return Socket{};
  }
  if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    return Socket{};
  }
  return s;
}

bool connect_succeeded(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  return ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0;
}

Socket tcp_connect(const std::string& host, std::uint16_t port, Deadline dl,
                   bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  Socket s = connect_nonblocking(host, port);
  if (!s.valid()) return Socket{};
  // Writable once the connect completes either way; SO_ERROR says which.
  if (!poll_until(s.fd(), POLLOUT, dl)) {
    if (timed_out != nullptr) *timed_out = true;
    return Socket{};
  }
  return connect_succeeded(s.fd()) ? std::move(s) : Socket{};
}

bool Listener::listen_on(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;

  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid() || !prepare_socket(s.fd(), SocketKind::kListener)) {
    return false;
  }

  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(s.fd(), SOMAXCONN) != 0) {
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return false;
  }
  port_ = ntohs(bound.sin_port);
  sock_ = std::move(s);
  return true;
}

Socket Listener::accept_one(Deadline dl) {
  while (true) {
    Socket s = try_accept();
    if (s.valid()) return s;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_until(sock_.fd(), POLLIN, dl)) return Socket{};
      continue;
    }
    return Socket{};
  }
}

Socket Listener::try_accept() {
  while (true) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket s(fd);
      if (!prepare_socket(s.fd(), SocketKind::kConnection)) return Socket{};
      return s;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return Socket{};  // EAGAIN (backlog drained) or a hard error
  }
}

}  // namespace waves::net
