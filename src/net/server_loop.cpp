// PartyServer's serving policy on the shared connection layer
// (net/conn_loop.hpp): a fixed WorkerPool runs process_frame (server.cpp)
// off the loop thread, push-drift checks are timer-wheel entries, and
// drain() lets in-flight exchanges finish.
//
// Invariants that keep this core race-free with zero per-connection locks:
//   - the loop thread owns every ServerConn field except `sub`, which the
//     worker owns while `busy` is set (handoff happens-before via the pool
//     queue and loop.post's mutex);
//   - at most one worker job per connection is in flight (`busy`), so
//     frames are processed — and replies written — strictly in arrival
//     order, keeping request/reply alignment on a pipelined connection.
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "net/conn_loop.hpp"
#include "net/server.hpp"
#include "obs/net_obs.hpp"

namespace waves::net {

namespace {

// Pipelining bound: pending-but-undispatched frames per connection before
// the loop stops reading from it (kernel backpressure does the rest).
constexpr std::size_t kMaxPendingFrames = 32;
// Queued-write bound; a peer that won't drain this much is closed.
constexpr std::size_t kMaxWriteQueueBytes = std::size_t{4} << 20;
// Read throttle: stop pulling new requests while this much reply data is
// still queued, so a peer that pipelines without reading can't grow the
// write queue faster than it drains.
constexpr std::size_t kWriteHighWater = std::size_t{256} << 10;

ConnPolicy server_policy(const ServerConfig& cfg) {
  const auto& obs = obs::NetServerObs::instance();
  return {.max_conns = cfg.max_connections,
          .overload_msg = "connection limit reached",
          .read_deadline = cfg.io_deadline,
          .write_budget = cfg.io_deadline,
          .max_queue_bytes = kMaxWriteQueueBytes,
          .accepted = &obs.connections,
          .rejected = &obs.overload_rejected,
          .frame_errors = &obs.frame_errors,
          .bytes_received = &obs.bytes_received,
          .bytes_sent = &obs.bytes_sent};
}

}  // namespace

// A stalled write queue closes the connection (ConnLoop's on_stall).
struct PartyServer::LoopCore final : ConnLoop {
  struct ServerConn : Conn {
    std::deque<Frame> pending;
    bool busy = false;           // one worker job in flight
    bool drift_pending = false;  // drift tick arrived while busy
    Subscription sub;            // worker-owned while busy
    bool sub_active = false;     // loop-thread snapshot of sub.active
    std::chrono::milliseconds drift_check{25};
    EventLoop::TimerId drift_timer = 0;
  };
  static ServerConn& of(const ConnPtr& c) {
    return static_cast<ServerConn&>(*c);
  }

  explicit LoopCore(PartyServer& server)
      : ConnLoop(server.listener_, server_policy(server.cfg_)),
        srv(server),
        pool(default_worker_count()) {}
  // Join the loop first; then the pool joins its workers, whose last
  // completions post into the still-live loop and are never run.
  ~LoopCore() override { stop(); }

  PartyServer& srv;
  WorkerPool pool;

  ConnPtr make_conn() override { return std::make_shared<ServerConn>(); }
  void on_frame(const ConnPtr& c, Frame f) override {
    of(c).pending.push_back(std::move(f));
  }
  void on_drained(const ConnPtr& c) override { update_read_interest(c); }
  void on_close(const ConnPtr& c) override {
    loop().cancel_timer(of(c).drift_timer);
  }

  void on_read(const ConnPtr& c) override {
    const ServerConn& s = of(c);
    if (s.peer_eof && s.pending.empty() && !s.busy && s.writeq.empty()) {
      return close(c);
    }
    update_read_interest(c);
    dispatch_next(c);
  }

  void update_read_interest(const ConnPtr& c) {
    const ServerConn& s = of(c);
    set_reading(c, s.pending.size() < kMaxPendingFrames &&
                       s.wq_bytes < kWriteHighWater);
  }

  void begin_drain() {
    loop().del_fd(srv.listener_.fd());  // no more accepts
    // Close everything idle; busy connections flush their last reply and
    // close at completion, so an in-flight exchange finishes within grace.
    for (const ConnPtr& c : snapshot()) {
      begin_close(c);
      if (!of(c).busy) flush(c);
    }
  }

  void dispatch_next(const ConnPtr& c) {
    ServerConn& s = of(c);
    if (s.busy || s.closed || s.close_after_flush) return;
    if (!s.pending.empty()) {
      Frame f = std::move(s.pending.front());
      s.pending.pop_front();
      s.busy = true;
      pool.submit([this, c, f = std::move(f)]() mutable {
        auto out = std::make_shared<Outbox>();
        const ConnAction act = srv.process_frame(f, of(c).sub, *out);
        loop().post([this, c, out, act] { complete(c, *out, act); });
      });
    } else if (s.drift_pending) {
      s.drift_pending = false;
      s.busy = true;
      pool.submit([this, c] {
        auto out = std::make_shared<Outbox>();
        srv.drift_tick(of(c).sub, *out);
        loop().post([this, c, out] { complete(c, *out, ConnAction::kKeep); });
      });
    }
  }

  void complete(const ConnPtr& c, const Outbox& out, ConnAction act) {
    ServerConn& s = of(c);
    s.busy = false;
    if (s.closed) return;
    // The worker has handed `sub` back; snapshot what the loop thread
    // needs for timer management.
    s.sub_active = s.sub.active;
    s.drift_check = s.sub.check;
    for (const OutFrame& f : out) {
      send(c, f.type, f.payload);
      if (s.closed) return;  // injected send fault dropped the connection
    }
    if (act == ConnAction::kClose) begin_close(c);
    flush(c);
    if (s.closed || s.close_after_flush) return;
    manage_drift_timer(c);
    on_read(c);  // the same next step as after a read: EOF close or dispatch
  }

  void manage_drift_timer(const ConnPtr& c) {
    ServerConn& s = of(c);
    if (s.sub_active && s.drift_timer == 0) {
      arm_drift_timer(c);
    } else if (!s.sub_active && s.drift_timer != 0) {
      loop().cancel_timer(s.drift_timer);
      s.drift_timer = 0;
      s.drift_pending = false;
    }
  }

  void arm_drift_timer(const ConnPtr& c) {
    std::weak_ptr<Conn> w = c;
    of(c).drift_timer = loop().arm_timer(of(c).drift_check, [this, w] {
      const ConnPtr cc = w.lock();
      if (!cc || cc->closed) return;
      ServerConn& s = of(cc);
      s.drift_timer = 0;
      if (!s.sub_active || s.close_after_flush) return;
      arm_drift_timer(cc);  // fixed cadence
      // Coalesces: one pending check at most. A busy connection picks it
      // up in complete() -> dispatch_next.
      s.drift_pending = true;
      dispatch_next(cc);
    });
  }
};

PartyServer::~PartyServer() { stop(); }

void PartyServer::LoopCoreDeleter::operator()(LoopCore* core) const {
  delete core;
}

bool PartyServer::start() {
  if (!listener_.listen_on(cfg_.host, cfg_.port)) return false;
  loop_.reset(new LoopCore(*this));
  if (loop_->start()) return true;
  loop_.reset();
  listener_.close();
  return false;
}

void PartyServer::stop() {
  loop_.reset();
  listener_.close();
}

void PartyServer::drain(std::chrono::milliseconds grace) {
  if (loop_ != nullptr) {
    loop_->loop().post([core = loop_.get()] { core->begin_drain(); });
    loop_->loop().wake();
    const Deadline dl = deadline_in(grace);
    while (loop_->live() > 0 && Clock::now() < dl) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop();  // stragglers past the grace window are stopped the hard way
}

}  // namespace waves::net
