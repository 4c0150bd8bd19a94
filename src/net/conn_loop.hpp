// ConnLoop — the one nonblocking connection layer under PartyServer
// (net/server_loop.cpp), the MonitorHub (monitor/hub_loop.cpp: watcher
// fan-out and party legs) and RefereeClient (net/client.cpp): the
// transport mechanics live here once, and an owner derives to supply only
// its policy — a Conn subclass, the hooks, and a ConnPolicy
// (docs/networking.md "Server core").
//
// Connections come two ways. Accepted ones (the listener is optional: a
// client-only loop has none) go to the owner's hooks. Outbound ones,
// opened by connect(), belong to a net::ClientLeg (net/client_leg.hpp) and
// their events go to it instead — peer EOF, a write stall and a malformed
// header just close them — so an owner's hooks only ever see the
// connections it accepted.
//
// Wire invariant: a peer receives a prefix of whole frames; close_typed
// appends its Err only at a frame boundary, mid-frame it just closes.
// Threading: all on the loop thread except start(), stop(), live() and
// loop().post()/wake(). The loop thread calls the owner's hooks, so an
// owner's destructor calls stop() before its members go.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace waves::net {

class ClientLeg;

/// One connection's transport state: owners read it and change it only
/// through ConnLoop, and derive to add theirs (make_conn's make_shared
/// destroys the whole object, so no virtual destructor is needed).
struct Conn {
  Socket sock;
  std::vector<std::uint8_t> inbuf;
  std::size_t inpos = 0;  // consumed prefix of inbuf
  bool peer_eof = false;
  bool read_enabled = true;
  std::deque<Bytes> writeq;  // whole frames (header + payload)
  std::size_t wq_head = 0;   // sent prefix of writeq.front()
  std::size_t wq_bytes = 0;
  bool want_write = false;
  bool close_after_flush = false;
  bool counted = false;  // counts against max_conns (not rejected)
  bool closed = false;
  ClientLeg* client = nullptr;  // outbound: whose events these are
  bool connecting = false;       // outbound connect still in progress
  bool bad_frame = false;        // closed on a malformed inbound header
  std::chrono::milliseconds write_budget{0};
  EventLoop::TimerId read_timer = 0;
  EventLoop::TimerId write_timer = 0;
};

using ConnPtr = std::shared_ptr<Conn>;

struct ConnPolicy {
  std::size_t max_conns = 64;
  const char* overload_msg = "connection limit reached";
  // A partial inbound frame must complete within this of its first byte.
  std::chrono::milliseconds read_deadline{5000};
  // A non-empty write queue must drain within this, or on_stall fires.
  std::chrono::milliseconds write_budget{5000};
  std::size_t max_queue_bytes = std::size_t{4} << 20;  // over: on_stall
  // Null = not counted. Stalled flushes always count in
  // waves_net_loop_stalled_writes_total.
  const obs::Counter* accepted = nullptr;
  const obs::Counter* rejected = nullptr;  // over max_conns
  const obs::Counter* frame_errors = nullptr;
  const obs::Counter* bytes_received = nullptr;
  const obs::Counter* bytes_sent = nullptr;
};

class ConnLoop {
 public:
  ConnLoop(Listener& listener, const ConnPolicy& policy);
  /// Client-only: no listener, outbound connections only.
  explicit ConnLoop(const ConnPolicy& policy);
  virtual ~ConnLoop();  // stop()
  ConnLoop(const ConnLoop&) = delete;
  ConnLoop& operator=(const ConnLoop&) = delete;

  /// Register the listener (if any) and start the loop thread; false on
  /// failure.
  [[nodiscard]] bool start();
  /// Join the loop thread. Idempotent; never from the loop thread.
  void stop();
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }
  /// Counted (not rejected) connections still open.
  [[nodiscard]] std::size_t live() const noexcept { return live_.load(); }

  /// Start a nonblocking connect to host:port for `client`, which gets the
  /// connection's events (connected once it is writable with SO_ERROR 0,
  /// closed if it fails). Null when it fails at once (refused, unparsable
  /// host, an injected connect drop); no hook fires then.
  [[nodiscard]] ConnPtr connect(const std::string& host, std::uint16_t port,
                                ClientLeg& client);

 protected:
  /// Fresh per-connection state; owners return their Conn subclass.
  virtual ConnPtr make_conn() { return std::make_shared<Conn>(); }
  /// One complete inbound frame, in arrival order.
  virtual void on_frame(const ConnPtr& c, Frame f) = 0;
  /// One read event's frames are all delivered (peer-EOF policy).
  virtual void on_read(const ConnPtr& c) = 0;
  /// The queue is empty after a flush; what this queues is flushed too.
  virtual void on_drained(const ConnPtr& c) { (void)c; }
  /// The queue outlived the write budget or the byte cap.
  virtual void on_stall(const ConnPtr& c) { close(c); }
  virtual void on_close(const ConnPtr& c) { (void)c; }

  /// Open accepted connections, copied so the caller may close any of
  /// them.
  [[nodiscard]] std::vector<ConnPtr> snapshot() const;
  /// Frame `payload` onto the queue (fault hooks apply; the byte cap may
  /// stall the connection). flush() sends.
  void send(const ConnPtr& c, MsgType type, const Bytes& payload);
  /// Send until EAGAIN. Drained: on_drained, or close if closing. Residue:
  /// write interest plus the write-budget timer.
  void flush(const ConnPtr& c);
  /// Stop reading; close once the queue drains or its budget expires.
  void begin_close(const ConnPtr& c);
  /// Protocol lost: queue `err`, begin_close, flush.
  void fail(const ConnPtr& c, const ErrReply& err);
  /// Owner read throttle; never re-enables a closing or half-closed peer.
  void set_reading(const ConnPtr& c, bool on);
  /// At a frame boundary, drop the queue and try once to send `err`;
  /// mid-frame, just close.
  void close_typed(const ConnPtr& c, const ErrReply& err);
  void close(const ConnPtr& c);

 private:
  friend class ClientLeg;  // drives its outbound connection directly

  void on_accept();
  void on_event(int fd, std::uint32_t mask);
  void finish_connect(const ConnPtr& c);
  void on_readable(const ConnPtr& c);
  /// send(2) queued bytes until empty or EAGAIN; false on a socket error.
  [[nodiscard]] bool write_some(Conn& c);
  void stall(const ConnPtr& c);
  void set_interest(const ConnPtr& c, bool read, bool write);

  Listener* listener_;  // null: client-only
  ConnPolicy policy_;
  EventLoop loop_;
  std::unordered_map<int, ConnPtr> conns_;
  std::atomic<std::size_t> live_{0};
  std::vector<std::uint8_t> rdbuf_;
  std::jthread thread_;  // last: runs on every member above
};

}  // namespace waves::net
