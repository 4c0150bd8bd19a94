// Test helpers shared by the transport edge tests: the two listeners that
// serve through net::ConnLoop — a PartyServer and a MonitorHub's watcher
// port — behind one handle, so a hostile-peer test runs the same input
// against both (the listener is one more input to the test, not a second
// copy of it), plus raw-socket helpers that make a peer's writes stall.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <memory>

#include "distributed/party.hpp"
#include "monitor/hub.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace waves::net::edge {

enum class ListenerKind { kPartyServer, kHubWatch };
inline constexpr ListenerKind kBothListeners[] = {ListenerKind::kPartyServer,
                                                  ListenerKind::kHubWatch};

inline const char* listener_name(ListenerKind kind) {
  return kind == ListenerKind::kPartyServer ? "party-server" : "hub-watch";
}

/// A started listener of one kind whose per-connection I/O deadline is
/// `io_deadline`. The hub kind monitors a count party served on a second,
/// default-configured PartyServer.
class EdgeListener {
 public:
  static constexpr std::uint64_t kWindow = 1024;
  static constexpr int kInstances = 3;
  static constexpr std::uint64_t kSeed = 9;

  EdgeListener(ListenerKind kind, std::chrono::milliseconds io_deadline)
      : kind_(kind), party_(params(), kInstances, kSeed) {
    for (int i = 0; i < 1000; ++i) party_.observe(true);
    ServerConfig scfg;
    if (kind == ListenerKind::kPartyServer) scfg.io_deadline = io_deadline;
    server_ = std::make_unique<PartyServer>(scfg, &party_);
    ok_ = server_->start();
    if (!ok_ || kind == ListenerKind::kPartyServer) return;
    monitor::HubConfig hcfg;
    hcfg.parties = {{"127.0.0.1", server_->port()}};
    hcfg.role = PartyRole::kCount;
    hcfg.n = kWindow;
    hcfg.io_deadline = io_deadline;
    hcfg.count_params = params();
    hcfg.instances = kInstances;
    hcfg.shared_seed = kSeed;
    hub_ = std::make_unique<monitor::MonitorHub>(hcfg);
    ok_ = hub_->start();
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::uint16_t port() const {
    return hub_ != nullptr ? hub_->watch_port() : server_->port();
  }

  /// One request/reply exchange the listener answers and stays open for:
  /// a count snapshot from the party server, a Hello from the hub.
  [[nodiscard]] bool healthy_exchange(Socket& sock, std::uint64_t id) const {
    const auto dl = deadline_in(std::chrono::milliseconds(2000));
    MsgType want = MsgType::kHelloAck;
    bool sent = false;
    if (kind_ == ListenerKind::kHubWatch) {
      sent = write_frame(sock, MsgType::kHello, Hello{id}.encode(), dl);
    } else {
      SnapshotRequest req;
      req.request_id = id;
      req.role = PartyRole::kCount;
      req.n = kWindow;
      want = MsgType::kCountReply;
      sent = write_frame(sock, MsgType::kSnapshotRequest, req.encode(), dl);
    }
    Frame f;
    return sent && read_frame(sock, f, dl) == ReadStatus::kOk &&
           f.type == want;
  }

 private:
  static core::RandWave::Params params() {
    return {.eps = 0.2, .window = kWindow, .c = 36};
  }

  ListenerKind kind_;
  distributed::CountParty party_;
  std::unique_ptr<PartyServer> server_;
  std::unique_ptr<monitor::MonitorHub> hub_;
  bool ok_ = false;
};

/// Shrink the send buffer of the listening socket bound to `port` (accepted
/// sockets inherit it) to the kernel's floor, a few KB: the stand-in for a
/// congested link. With the default auto-tuned buffer the kernel absorbs
/// megabytes of unread replies before a write stalls.
inline void shrink_listener_send_buffer(std::uint16_t port) {
  int listener = -1;
  for (int fd = 0; fd < 4096 && listener < 0; ++fd) {
    int accepting = 0;
    socklen_t len = sizeof accepting;
    if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &accepting, &len) != 0 ||
        accepting == 0) {
      continue;
    }
    sockaddr_in addr{};
    socklen_t alen = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0 &&
        addr.sin_family == AF_INET && ntohs(addr.sin_port) == port) {
      listener = fd;
    }
  }
  ASSERT_GE(listener, 0) << "listener not found";
  int one = 1;  // the kernel clamps this to its floor
  ASSERT_EQ(::setsockopt(listener, SOL_SOCKET, SO_SNDBUF, &one, sizeof one),
            0);
}

/// Connect with a minimal kernel receive buffer (set before connect so the
/// advertised window stays tiny), so a peer that stops reading stalls the
/// other side's writes after a few KB.
inline Socket connect_tiny_rcvbuf(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return Socket(fd);
}

}  // namespace waves::net::edge
