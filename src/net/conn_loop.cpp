#include "net/conn_loop.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>

#include <utility>

#include "net/client_leg.hpp"
#include "net/fault.hpp"
#include "obs/net_obs.hpp"

namespace waves::net {

namespace {

// Per-event read bound: one readable event pulls at most this much, so a
// firehose peer cannot starve the loop's other connections.
constexpr std::size_t kReadBudget = std::size_t{256} << 10;
constexpr std::size_t kReadChunk = std::size_t{64} << 10;
// Courtesy budget for a rejected peer to take its kOverloaded frame.
constexpr std::chrono::milliseconds kRejectBudget{100};

void bump(const obs::Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->add(n);
}

Bytes frame_bytes(MsgType type, const Bytes& payload) {
  const auto header =
      put_header(type, static_cast<std::uint32_t>(payload.size()));
  Bytes buf(kHeaderSize + payload.size());
  std::memcpy(buf.data(), header.data(), kHeaderSize);
  if (!payload.empty()) {
    std::memcpy(buf.data() + kHeaderSize, payload.data(), payload.size());
  }
  return buf;
}

}  // namespace

ConnLoop::ConnLoop(Listener& listener, const ConnPolicy& policy)
    : listener_(&listener), policy_(policy), rdbuf_(kReadChunk) {}

ConnLoop::ConnLoop(const ConnPolicy& policy)
    : listener_(nullptr), policy_(policy), rdbuf_(kReadChunk) {}

ConnLoop::~ConnLoop() { stop(); }

bool ConnLoop::start() {
  if (!loop_.ok()) return false;
  if (listener_ != nullptr &&
      !loop_.add_fd(listener_->fd(), /*read=*/true, /*write=*/false,
                    [this](std::uint32_t) { on_accept(); })) {
    return false;
  }
  thread_ =
      std::jthread([this](const std::stop_token& st) { loop_.run(st); });
  return true;
}

void ConnLoop::stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  loop_.wake();
  thread_.join();
}

std::vector<ConnPtr> ConnLoop::snapshot() const {
  std::vector<ConnPtr> out;
  for (const auto& [fd, c] : conns_) {
    if (c->client == nullptr) out.push_back(c);
  }
  return out;
}

ConnPtr ConnLoop::connect(const std::string& host, std::uint16_t port,
                          ClientLeg& client) {
  Socket s = connect_nonblocking(host, port);
  if (!s.valid()) return nullptr;
  // Even a connect that completed at once reports through the writable
  // event, so the client's hooks never run inside this call.
  auto c = std::make_shared<Conn>();
  c->sock = std::move(s);
  c->client = &client;
  c->connecting = true;
  c->read_enabled = false;
  c->want_write = true;
  c->write_budget = policy_.write_budget;
  const int fd = c->sock.fd();
  if (!loop_.add_fd(fd, /*read=*/false, /*write=*/true,
                    [this, fd](std::uint32_t mask) { on_event(fd, mask); })) {
    return nullptr;
  }
  conns_.emplace(fd, c);
  return c;
}

void ConnLoop::finish_connect(const ConnPtr& c) {
  if (!connect_succeeded(c->sock.fd())) return close(c);
  c->connecting = false;
  set_interest(c, /*read=*/true, /*write=*/false);
  c->client->on_connected(c);
}

void ConnLoop::on_accept() {
  // Until EAGAIN: one readiness event may carry a whole burst of peers.
  while (true) {
    Socket s = listener_->try_accept();
    if (!s.valid()) break;
    bump(policy_.accepted);
    ConnPtr c = make_conn();
    c->sock = std::move(s);
    c->write_budget = policy_.write_budget;
    const bool reject = live() >= policy_.max_conns;
    c->read_enabled = !reject;
    const int fd = c->sock.fd();
    if (!loop_.add_fd(fd, c->read_enabled, /*write=*/false,
                      [this, fd](std::uint32_t mask) { on_event(fd, mask); })) {
      continue;  // RAII closes it
    }
    conns_.emplace(fd, c);
    if (reject) {  // typed rejection with a short courtesy budget
      bump(policy_.rejected);
      c->write_budget = kRejectBudget;
      fail(c, ErrReply{0, ErrCode::kOverloaded, policy_.overload_msg});
    } else {
      c->counted = true;
      live_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ConnLoop::on_event(int fd, std::uint32_t mask) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const ConnPtr c = it->second;
  const ClientLeg::Charge charge(c->client);
  if (c->connecting) return finish_connect(c);
  if ((mask & EventLoop::kReadable) != 0) on_readable(c);
  if ((mask & EventLoop::kWritable) != 0) flush(c);
  if ((mask & EventLoop::kError) != 0 &&
      (mask & (EventLoop::kReadable | EventLoop::kWritable)) == 0) {
    close(c);
  }
}

void ConnLoop::on_readable(const ConnPtr& c) {
  if constexpr (kFaultsEnabled) {
    const FaultAction f = next_recv_fault().action;
    if (f == FaultAction::kDrop || f == FaultAction::kReset) return close(c);
  }
  std::size_t got = 0;
  while (got < kReadBudget) {
    const ssize_t n = ::recv(c->sock.fd(), rdbuf_.data(), rdbuf_.size(), 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      c->inbuf.insert(c->inbuf.end(), rdbuf_.data(), rdbuf_.data() + n);
      if (static_cast<std::size_t>(n) < rdbuf_.size()) break;
      continue;
    }
    if (n == 0) {
      c->peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close(c);  // hard socket error
    return;
  }

  // Deliver every complete frame; a malformed header loses framing for
  // good, so the connection gets one typed Err and closes.
  while (!c->closed && !c->close_after_flush &&
         c->inbuf.size() - c->inpos >= kHeaderSize) {
    MsgType type{};
    std::uint32_t len = 0;
    if (!parse_header(c->inbuf.data() + c->inpos, type, len)) {
      bump(policy_.frame_errors);
      if (c->client != nullptr) {  // a server is owed no Err back
        c->bad_frame = true;
        return close(c);
      }
      return fail(c, ErrReply{0, ErrCode::kBadRequest, "malformed frame"});
    }
    if (c->inbuf.size() - c->inpos < kHeaderSize + len) break;
    Frame f;
    f.type = type;
    const auto* p = c->inbuf.data() + c->inpos + kHeaderSize;
    f.payload.assign(p, p + len);
    c->inpos += kHeaderSize + len;
    bump(policy_.bytes_received, kHeaderSize + len);
    if (c->client != nullptr) {
      c->client->on_frame(c, std::move(f));
    } else {
      on_frame(c, std::move(f));
    }
  }
  if (c->closed) return;
  if (c->inpos == c->inbuf.size()) {
    c->inbuf.clear();
    c->inpos = 0;
  } else if (c->inpos > rdbuf_.size()) {
    c->inbuf.erase(c->inbuf.begin(),
                   c->inbuf.begin() + static_cast<std::ptrdiff_t>(c->inpos));
    c->inpos = 0;
  }

  // Slow-loris guard: a partial frame must complete within read_deadline
  // of its first byte, or the timer wheel expires the connection.
  const bool partial = c->inbuf.size() > c->inpos;
  if (partial && c->read_timer == 0) {
    std::weak_ptr<Conn> w = c;
    c->read_timer = loop_.arm_timer(policy_.read_deadline, [this, w] {
      if (auto cc = w.lock(); cc && !cc->closed) {
        cc->read_timer = 0;
        close(cc);
      }
    });
  } else if (!partial) {
    loop_.cancel_timer(c->read_timer);
    c->read_timer = 0;
  }
  if (c->client == nullptr) return on_read(c);
  if (c->peer_eof) close(c);
}

void ConnLoop::send(const ConnPtr& c, MsgType type, const Bytes& payload) {
  if (c->closed) return;
  Bytes buf = frame_bytes(type, payload);
  if constexpr (kFaultsEnabled) {  // Socket::send_all's per-frame draw
    const FaultDecision f = next_send_fault(buf.size());
    if (f.action == FaultAction::kDrop || f.action == FaultAction::kReset) {
      return close(c);
    }
    if (f.action == FaultAction::kTruncate) {
      buf.resize(f.offset);
      c->close_after_flush = true;
    } else if (f.action == FaultAction::kCorrupt) {
      buf[f.offset] ^= f.xor_mask;
    }
  }
  c->wq_bytes += buf.size();
  c->writeq.push_back(std::move(buf));
  bump(policy_.bytes_sent, kHeaderSize + payload.size());
  if (c->wq_bytes > policy_.max_queue_bytes) stall(c);
}

void ConnLoop::flush(const ConnPtr& c) {
  while (true) {
    if (c->closed) return;
    if (!write_some(*c)) return close(c);
    if (!c->writeq.empty()) break;
    loop_.cancel_timer(c->write_timer);
    c->write_timer = 0;
    set_interest(c, c->read_enabled, /*write=*/false);
    if (c->close_after_flush) return close(c);
    if (c->client != nullptr) return;
    on_drained(c);
    if (c->writeq.empty()) return;  // the hook queued nothing more
  }
  // Residue: arm write interest and the write budget.
  obs::NetLoopObs::instance().stalled_writes.add();
  set_interest(c, c->read_enabled, /*write=*/true);
  if (c->write_timer == 0) {
    std::weak_ptr<Conn> w = c;
    c->write_timer = loop_.arm_timer(c->write_budget, [this, w] {
      if (auto cc = w.lock(); cc && !cc->closed) {
        cc->write_timer = 0;
        stall(cc);
      }
    });
  }
}

bool ConnLoop::write_some(Conn& c) {
  while (!c.writeq.empty()) {
    const Bytes& front = c.writeq.front();
    const ssize_t n = ::send(c.sock.fd(), front.data() + c.wq_head,
                             front.size() - c.wq_head, MSG_NOSIGNAL);
    if (n > 0) {
      c.wq_head += static_cast<std::size_t>(n);
      c.wq_bytes -= static_cast<std::size_t>(n);
      if (c.wq_head == front.size()) {
        c.writeq.pop_front();
        c.wq_head = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void ConnLoop::stall(const ConnPtr& c) {
  // A closing connection's courtesy flush expired, or an outbound one's
  // queue stalled: no owner policy applies.
  return c->close_after_flush || c->client != nullptr ? close(c)
                                                      : on_stall(c);
}

void ConnLoop::set_interest(const ConnPtr& c, bool read, bool write) {
  if (c->closed || (c->read_enabled == read && c->want_write == write)) {
    return;
  }
  c->read_enabled = read;
  c->want_write = write;
  (void)loop_.mod_fd(c->sock.fd(), read, write);
}

void ConnLoop::set_reading(const ConnPtr& c, bool on) {
  set_interest(c, on && !c->close_after_flush && !c->peer_eof,
               c->want_write);
}

void ConnLoop::begin_close(const ConnPtr& c) {
  c->close_after_flush = true;
  set_interest(c, /*read=*/false, c->want_write);
}

void ConnLoop::fail(const ConnPtr& c, const ErrReply& err) {
  send(c, MsgType::kErr, err.encode());
  begin_close(c);
  flush(c);
}

void ConnLoop::close_typed(const ConnPtr& c, const ErrReply& err) {
  if (c->closed) return;
  // Mid-frame, any byte written now would read as the tail of the
  // half-sent frame, so only a frame boundary gets the Err. The queued
  // frames are superseded by the close; the Err lands if the socket has
  // room (one attempt, no wait).
  if (c->wq_head == 0) {
    c->writeq.assign(1, frame_bytes(MsgType::kErr, err.encode()));
    c->wq_bytes = c->writeq.front().size();
    (void)write_some(*c);
  }
  close(c);
}

void ConnLoop::close(const ConnPtr& c) {
  if (c->closed) return;
  c->closed = true;
  loop_.cancel_timer(c->read_timer);
  loop_.cancel_timer(c->write_timer);
  loop_.del_fd(c->sock.fd());
  conns_.erase(c->sock.fd());
  if (c->counted) live_.fetch_sub(1, std::memory_order_relaxed);
  c->sock.close();
  if (c->client != nullptr) return c->client->on_close(c);
  on_close(c);
}

}  // namespace waves::net
