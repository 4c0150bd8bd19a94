// MonitorHub's loop on the shared connection layer (net/conn_loop.hpp):
// the watcher fan-out policy — the protocol inline on the loop thread,
// latest-wins fan-out (a stalled watcher is sent the newest revision when
// its queue drains, never a backlog; seq counts pushes with no gaps), and
// eviction of a watcher whose queue outlives watcher_write_budget or the
// byte cap — with the party legs (hub.cpp) as outbound connections on the
// same loop, so pushes land and fan out on one thread.
#include <algorithm>
#include <memory>

#include "monitor/hub.hpp"
#include "net/conn_loop.hpp"
#include "obs/monitor_obs.hpp"

namespace waves::monitor {

namespace {

using net::ConnPtr;

// Queued-write byte cap per watcher. Coalescing keeps the queue at one
// estimate frame in steady state; the cap is the hard stop if a peer
// stalls mid-ack while protocol replies pile up.
constexpr std::size_t kMaxWatcherQueueBytes = std::size_t{64} << 10;

net::ConnPolicy watch_policy(const HubConfig& cfg) {
  const auto& mobs = obs::MonitorHubObs::instance();
  return {.max_conns = cfg.max_watchers,
          .overload_msg = "watcher limit reached",
          .read_deadline = cfg.io_deadline,
          .write_budget = cfg.watcher_write_budget,
          .max_queue_bytes = kMaxWatcherQueueBytes,
          .accepted = &mobs.watchers,
          .rejected = &mobs.watcher_rejected};
}

}  // namespace

struct MonitorHub::WatchCore final : net::ConnLoop {
  struct Watcher : net::Conn {
    bool subscribed = false;
    std::uint64_t seq = 0;            // per-watcher push counter (no gaps)
    std::uint64_t sent_revision = 0;  // newest revision on the wire
  };
  static Watcher& of(const ConnPtr& c) { return static_cast<Watcher&>(*c); }

  explicit WatchCore(MonitorHub& owner)
      : ConnLoop(owner.listener_, watch_policy(owner.cfg_)), hub(owner) {}
  ~WatchCore() override { stop(); }

  MonitorHub& hub;

  ConnPtr make_conn() override { return std::make_shared<Watcher>(); }
  void on_read(const ConnPtr& c) override {
    // A watcher that hung up reads nothing more; drop whatever is queued.
    if (c->peer_eof && !c->close_after_flush) return close(c);
    flush(c);
  }
  /// Keep a subscribed watcher current: queue the newest unseen revision.
  /// The layer's flush loop ends because each refill advances
  /// sent_revision.
  void on_drained(const ConnPtr& c) override {
    if (!of(c).subscribed) return;
    const HubEstimate e = hub.estimate();
    if (e.revision > of(c).sent_revision) enqueue_estimate(c, e);
  }
  void on_stall(const ConnPtr& c) override {
    obs::MonitorHubObs::instance().watcher_evicted.add();
    close_typed(c,
                {0, net::ErrCode::kOverloaded, "watcher too slow; evicted"});
  }

  // Every handler is a few varint decodes, cheap enough for the loop
  // thread. An undecodable frame gets a typed kBadRequest and closes the
  // connection; a wrong role or window keeps it.
  void on_frame(const ConnPtr& c, net::Frame f) override {
    const auto bad = [&](const char* msg) {
      fail(c, {0, net::ErrCode::kBadRequest, msg});
    };
    const auto refuse = [&](std::uint64_t id, net::ErrCode code,
                            const char* msg) {
      send(c, net::MsgType::kErr, net::ErrReply{id, code, msg}.encode());
    };
    switch (f.type) {
      case net::MsgType::kHello: {
        net::Hello h;
        if (!net::Hello::decode(f.payload, h)) return bad("bad hello");
        net::HelloAck ack;
        ack.role = hub.cfg_.role;
        ack.instances =
            static_cast<std::uint64_t>(std::max(hub.cfg_.instances, 0));
        ack.window = hub.cfg_.n;
        return send(c, net::MsgType::kHelloAck, ack.encode());
      }
      case net::MsgType::kSubscribe: {
        net::SubscribeRequest req;
        if (!net::SubscribeRequest::decode(f.payload, req)) {
          return bad("bad subscribe");
        }
        if (req.role != hub.cfg_.role) {
          return refuse(req.request_id, net::ErrCode::kWrongRole,
                        "hub monitors a different role");
        }
        if (req.n != hub.cfg_.n) {
          return refuse(req.request_id, net::ErrCode::kBadRequest,
                        "hub monitors a different window");
        }
        of(c).subscribed = true;
        // The current estimate is the subscription's ack, whatever its
        // revision.
        return enqueue_estimate(c, hub.estimate());
      }
      case net::MsgType::kUnsubscribe: {
        net::Unsubscribe u;
        if (!net::Unsubscribe::decode(f.payload, u)) {
          return bad("bad unsubscribe");
        }
        of(c).subscribed = false;
        return;
      }
      default:
        return bad("unsupported message for a monitor hub");
    }
  }

  void fan_out() {
    const HubEstimate e = hub.estimate();
    for (const ConnPtr& c : snapshot()) {
      const Watcher& w = of(c);
      // A stalled watcher (queue non-empty) skips the round; on_drained
      // sends it the newest revision if its queue drains — latest wins.
      if (w.closed || w.close_after_flush || !w.subscribed ||
          e.revision <= w.sent_revision || !w.writeq.empty()) {
        continue;
      }
      enqueue_estimate(c, e);
      flush(c);
    }
  }

  void enqueue_estimate(const ConnPtr& c, const HubEstimate& e) {
    Watcher& w = of(c);
    net::EstimateUpdate up;
    up.seq = ++w.seq;
    up.round = e.revision;
    up.status = e.status == distributed::QueryStatus::kOk ? 1
                : e.status == distributed::QueryStatus::kDegraded ? 2
                                                                  : 3;
    up.value = e.value;
    up.exact = e.exact;
    up.n = hub.cfg_.n;
    up.missing = e.missing;
    up.error_slack = e.error_slack;
    w.sent_revision = e.revision;
    obs::MonitorHubObs::instance().watcher_updates.add();
    send(c, net::MsgType::kPushUpdate, up.encode());
  }
};

void MonitorHub::WatchCoreDeleter::operator()(WatchCore* core) const {
  delete core;
}

bool MonitorHub::start() {
  if (!listener_.listen_on(cfg_.host, cfg_.port)) return false;
  watch_core_.reset(new WatchCore(*this));
  for (std::size_t i = 0; i < cfg_.parties.size(); ++i) {
    parties_.push_back(std::make_unique<Leg>(*this, i, *watch_core_));
  }
  if (!watch_core_->start()) {
    stop();
    return false;
  }
  watch_core_->loop().post([this] {
    for (const auto& leg : parties_) leg->next_cycle();
  });
  return true;
}

void MonitorHub::stop() {
  // Join the loop before the pointer it reads (watch_notify) is cleared;
  // nothing runs on the legs after.
  if (watch_core_ != nullptr) watch_core_->stop();
  watch_core_.reset();
  parties_.clear();
  listener_.close();
}

void MonitorHub::watch_notify() {
  if (watch_core_ != nullptr) watch_core_->fan_out();
}

}  // namespace waves::monitor
