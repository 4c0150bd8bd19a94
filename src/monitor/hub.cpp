#include "monitor/hub.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "distributed/wire.hpp"
#include "obs/monitor_obs.hpp"

namespace waves::monitor {

using distributed::Bytes;

namespace {

// Per-leg circuit breaker: this many consecutive failed connect/subscribe
// cycles trip a leg open (see HubConfig::breaker_cooldown).
constexpr int kLegBreakerThreshold = 5;

// Mirror-backed snapshot source: the same SnapshotSource contract the TCP
// and in-process paths implement, so recompute() runs the identical
// union/median code — that, plus snapshots derived by the same
// recovery::PartyMirror the polling client uses, is what makes a hub
// estimate byte-identical to a poll of the same party states. collect()
// runs on the loop thread; each live mirror rebuilds its snapshot cache
// only when its push-chain cursor moved.
template <class Leg, class Mirror, class Party>
class MirrorSource final
    : public distributed::SnapshotSource<typename Mirror::Snapshot> {
 public:
  using Snapshot = typename Mirror::Snapshot;
  MirrorSource(std::vector<std::unique_ptr<Leg>>& states,
               Mirror net::ClientLeg::*mirror, const Party& ref,
               int instances, std::uint64_t window)
      : states_(states),
        mirror_(mirror),
        ref_(ref),
        instances_(instances),
        window_(window) {}
  [[nodiscard]] std::size_t party_count() const override {
    return states_.size();
  }
  [[nodiscard]] int instances() const override { return instances_; }
  [[nodiscard]] const gf2::ExpHash& hash(int instance) const override {
    return ref_.instance(instance).hash();
  }
  [[nodiscard]] const char* transport() const override { return "push"; }
  std::vector<std::vector<Snapshot>> collect(
      std::uint64_t n, std::vector<std::size_t>& missing,
      distributed::WireStats* /*stats*/,
      distributed::CollectStats& /*info*/) override {
    std::vector<std::vector<Snapshot>> out;
    out.reserve(states_.size());
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (!states_[i]->live) {
        missing.push_back(i);
        out.emplace_back();
        continue;
      }
      bool hit = false;
      out.push_back((*states_[i].*mirror_).snapshots(n, window_, hit));
    }
    return out;
  }

 private:
  std::vector<std::unique_ptr<Leg>>& states_;
  Mirror net::ClientLeg::*mirror_;
  const Party& ref_;  // hash oracle
  int instances_;
  std::uint64_t window_;
};

net::LegConfig leg_config(const HubConfig& cfg, std::size_t i) {
  const obs::MonitorHubObs& mobs = obs::MonitorHubObs::instance();
  net::LegConfig lc;
  lc.ep = cfg.parties[i];
  lc.client_id = cfg.client_id;
  if (cfg.role == net::PartyRole::kCount ||
      cfg.role == net::PartyRole::kDistinct) {
    lc.instances = static_cast<std::uint64_t>(std::max(cfg.instances, 0));
  }
  lc.backoff_base = cfg.reconnect_base;
  lc.backoff_max = cfg.reconnect_max;
  lc.breaker_threshold = kLegBreakerThreshold;
  lc.breaker_cooldown = cfg.breaker_cooldown;
  lc.reconnects = &mobs.leg_reconnects;
  lc.breaker = {.trips = &mobs.breaker_trips,
                .fast_fails = &mobs.breaker_fast_fails,
                .probes = &mobs.breaker_probes,
                .closes = &mobs.breaker_closes};
  return lc;
}

}  // namespace

MonitorHub::MonitorHub(HubConfig cfg)
    : cfg_(std::move(cfg)),
      budget_{cfg_.eps, cfg_.parties.size(), cfg_.split} {
  if (cfg_.role == net::PartyRole::kCount && cfg_.instances > 0) {
    count_ref_ = std::make_unique<distributed::CountParty>(
        cfg_.count_params, cfg_.instances, cfg_.shared_seed);
  }
  if (cfg_.role == net::PartyRole::kDistinct && cfg_.instances > 0) {
    distinct_ref_ = std::make_unique<distributed::DistinctParty>(
        cfg_.distinct_params, cfg_.instances, cfg_.shared_seed);
  }
}

MonitorHub::~MonitorHub() { stop(); }

// start() and stop() live in hub_loop.cpp, where WatchCore is complete.

HubEstimate MonitorHub::estimate() const {
  std::lock_guard lk(est_mu_);
  return est_;
}

HubEstimate MonitorHub::wait_revision(std::uint64_t after,
                                      std::chrono::milliseconds timeout) const {
  std::unique_lock lk(est_mu_);
  est_cv_.wait_for(lk, timeout, [&] { return est_.revision > after; });
  return est_;
}

void MonitorHub::emit(const std::string& line) {
  if (cfg_.on_event) cfg_.on_event(line);
}

void MonitorHub::recompute() {
  const obs::MonitorHubObs& mobs = obs::MonitorHubObs::instance();
  mobs.recomputes.add();
  HubEstimate next;
  {
    // Pushes from different parties land at different instants, so the
    // mirrors sit at different stream positions between push waves. The
    // Scenario-3 positionwise union is only defined over aligned streams
    // (referee_union_count asserts it), so with every leg live the merge
    // waits for the laggards' pushes to realign the mirrors; the standing
    // estimate keeps serving reads meanwhile — exactly the staleness the
    // slack shares budget for. A dead leg skips the union math entirely
    // (fail closed), so misalignment can't block that publication.
    if (cfg_.role == net::PartyRole::kCount ||
        cfg_.role == net::PartyRole::kDistinct) {
      bool all_live = true;
      bool aligned = true;
      std::uint64_t pos = 0;
      bool first = true;
      for (const auto& m : parties_) {
        if (!m->live) {
          all_live = false;
          break;
        }
        const std::uint64_t c = cfg_.role == net::PartyRole::kCount
                                    ? m->count.base().cursor
                                    : m->distinct.base().cursor;
        if (first) {
          pos = c;
          first = false;
        } else if (c != pos) {
          aligned = false;
        }
      }
      if (all_live && !aligned) return;
    }
    const auto publish = [&next](const distributed::QueryResult& qr) {
      next.status = qr.status;
      next.value = qr.estimate.value;
      next.exact = qr.estimate.exact;
      next.missing = qr.missing.size();
      next.error_slack = qr.error_slack;
    };
    switch (cfg_.role) {
      case net::PartyRole::kCount: {
        MirrorSource src(parties_, &net::ClientLeg::count, *count_ref_,
                         cfg_.instances, 0);
        publish(distributed::union_count(src, cfg_.n));
        break;
      }
      case net::PartyRole::kDistinct: {
        MirrorSource src(parties_, &net::ClientLeg::distinct,
                         *distinct_ref_, cfg_.instances,
                         cfg_.distinct_params.window);
        publish(distributed::distinct_count(src, cfg_.n));
        break;
      }
      case net::PartyRole::kBasic:
      case net::PartyRole::kSum: {
        // Scenario-1 quorum rules, as in net::total_query: responders sum,
        // missing parties widen the error by what they could contribute.
        double sum = 0.0;
        bool exact = true;
        std::uint64_t missing = 0;
        for (const auto& m : parties_) {
          if (!m->live) {
            ++missing;
            continue;
          }
          sum += m->value;
          exact = exact && m->exact;
        }
        next.missing = missing;
        if (missing == parties_.size()) {
          next.status = distributed::QueryStatus::kFailed;
        } else if (missing > 0) {
          next.status = distributed::QueryStatus::kDegraded;
          next.value = sum;
          next.exact = false;
          next.error_slack = static_cast<double>(missing) *
                             static_cast<double>(cfg_.n) *
                             static_cast<double>(cfg_.max_value);
        } else {
          next.status = distributed::QueryStatus::kOk;
          next.value = sum;
          next.exact = exact;
        }
        break;
      }
      case net::PartyRole::kAgg:
        next.status = distributed::QueryStatus::kFailed;
        break;
    }
  }
  {
    std::lock_guard lk(est_mu_);
    next.revision = est_.revision + 1;
    est_ = next;
  }
  est_cv_.notify_all();
  watch_notify();
}

bool MonitorHub::apply_push(Leg& m, const net::PushUpdate& u,
                            std::string& err) {
  if (u.cursor == 0) {
    err = "push carries cursor 0";
    return false;
  }
  switch (cfg_.role) {
    case net::PartyRole::kCount:
    case net::PartyRole::kDistinct: {
      const auto expected =
          static_cast<std::size_t>(std::max(cfg_.instances, 0));
      const auto fold = [&](auto& mirror) {
        return mirror.apply(u.base_cursor, u.cursor, u.body, u.generation,
                            expected, err);
      };
      const recovery::MirrorApply what = cfg_.role == net::PartyRole::kCount
                                             ? fold(m.count)
                                             : fold(m.distinct);
      if (what == recovery::MirrorApply::kRejected) return false;
      break;
    }
    case net::PartyRole::kBasic:
    case net::PartyRole::kSum: {
      std::size_t at = 0;
      std::uint64_t bits = 0;
      std::uint64_t exact = 0;
      if (!distributed::get_fixed64(u.body, at, bits) ||
          !distributed::get_varint(u.body, at, exact) || exact > 1 ||
          at != u.body.size()) {
        err = "undecodable total push body";
        return false;
      }
      const double v = std::bit_cast<double>(bits);
      if (!std::isfinite(v)) {
        err = "non-finite total";
        return false;
      }
      m.value = v;
      m.exact = exact == 1;
      break;
    }
    case net::PartyRole::kAgg:
      err = "agg role is not monitorable";
      return false;
  }
  m.live = true;
  return true;
}

MonitorHub::Leg::Leg(MonitorHub& owner, std::size_t i, net::ConnLoop& loop)
    : net::ClientLeg(loop, leg_config(owner.cfg_, i)), hub(owner), index(i) {}

void MonitorHub::Leg::next_cycle() {
  const Admit admitted = admit();
  if (admitted == Admit::kFastFail) return;
  if (admitted == Admit::kProbe) backoff.reset();
  open(hub.cfg_.role, net::deadline_in(hub.cfg_.io_deadline));
}

void MonitorHub::Leg::on_ready(bool resynced) {
  const std::string party = "party=" + std::to_string(index);
  if (resynced) {
    obs::MonitorHubObs::instance().resyncs.add();
    hub.emit("HUB RESYNC " + party +
             " generation=" + std::to_string(ack().generation));
  }
  // The subscription is the successful cycle: it closes an open breaker.
  subscribed = true;
  last_seq = 0;
  if (note(true) == Verdict::kClosed) hub.emit("HUB BREAKER CLOSED " + party);
  const HubConfig& cfg = hub.cfg_;
  net::SubscribeRequest req;
  req.request_id = index + 1;
  req.role = cfg.role;
  req.n = cfg.n;
  req.has_slack = true;
  req.slack = hub.budget_.threshold(cfg.role, cfg.n, cfg.max_value);
  req.check_every_ms = static_cast<std::uint64_t>(cfg.check_every.count());
  send(net::MsgType::kSubscribe, req.encode());
}

void MonitorHub::Leg::on_message(net::Frame f) {
  if (f.type == net::MsgType::kErr) {
    net::ErrReply e;
    const std::string msg =
        net::ErrReply::decode(f.payload, e) ? e.message : "(undecodable)";
    hub.emit("HUB LEG ERROR party=" + std::to_string(index) + " " + msg);
    return drop(net::FetchStatus::kRemoteError, msg);
  }
  net::PushUpdate u;
  if (f.type != net::MsgType::kPushUpdate ||
      !net::PushUpdate::decode(f.payload, u)) {
    return drop(net::FetchStatus::kProtocolError, "undecodable push");
  }
  // A generation moved mid-subscription or a seq gap both mean the chain
  // is broken; drop the leg and let the reconnect handshake sort out
  // whether a rebase is needed.
  if (u.request_id != index + 1 || u.role != hub.cfg_.role ||
      u.generation != ack().generation || u.seq != last_seq + 1) {
    return drop(net::FetchStatus::kProtocolError, "push chain broken");
  }
  last_seq = u.seq;
  std::string err;
  if (!hub.apply_push(*this, u, err)) {
    hub.emit("HUB LEG DESYNC party=" + std::to_string(index) + " " + err);
    return drop(net::FetchStatus::kProtocolError, err);
  }
  obs::MonitorHubObs::instance().updates.add();
  backoff.reset();
  hub.recompute();
}

void MonitorHub::Leg::on_down(net::FetchStatus status,
                              const std::string& /*why*/) {
  const obs::MonitorHubObs& mobs = obs::MonitorHubObs::instance();
  const bool cycle_ok = subscribed;
  subscribed = false;
  // Hostile or undecodable frames, a failed handshake check (a wrong role
  // answers kRemoteError before the subscription); a party's own Err
  // frame after it is not one.
  if (status == net::FetchStatus::kProtocolError ||
      (status == net::FetchStatus::kRemoteError && !cycle_ok)) {
    mobs.protocol_errors.add();
  }
  // Quorum rules apply immediately: count/distinct fail closed, totals
  // degrade. Only publish when the leg was actually contributing.
  if (live) {
    live = false;
    hub.recompute();
  }
  if (!cycle_ok && note(false) == Verdict::kTripped) {
    hub.emit("HUB BREAKER OPEN party=" + std::to_string(index));
  }
  // Open, the next cycle is a fast fail and the cooldown brings the probe;
  // closed, the leg reconnects after the backoff.
  if (breaker_open()) return next_cycle();
  after(backoff.next(), [this] { next_cycle(); });
}

}  // namespace waves::monitor
