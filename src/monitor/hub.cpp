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
// runs under mu_ (recompute holds it); each live mirror rebuilds its
// snapshot cache only when its push-chain cursor moved.
template <class State, class Mirror, class Party>
class MirrorSource final
    : public distributed::SnapshotSource<typename Mirror::Snapshot> {
 public:
  using Snapshot = typename Mirror::Snapshot;
  MirrorSource(std::vector<State>& states, Mirror State::*mirror,
               const Party& ref, int instances, std::uint64_t window)
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
      if (!states_[i].live) {
        missing.push_back(i);
        out.emplace_back();
        continue;
      }
      bool hit = false;
      out.push_back((states_[i].*mirror_).snapshots(n, window_, hit));
    }
    return out;
  }

 private:
  std::vector<State>& states_;
  Mirror State::*mirror_;
  const Party& ref_;  // hash oracle
  int instances_;
  std::uint64_t window_;
};

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
  states_.resize(cfg_.parties.size());
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
  if (!cfg_.on_event) return;
  std::lock_guard lk(event_mu_);
  cfg_.on_event(line);
}

void MonitorHub::set_leg_down(std::size_t i) {
  bool changed = false;
  {
    std::lock_guard lk(mu_);
    if (states_[i].live) {
      states_[i].live = false;
      changed = true;
    }
  }
  // Quorum rules apply immediately: count/distinct fail closed, totals
  // degrade. Only publish when the leg was actually contributing.
  if (changed) recompute();
}

void MonitorHub::recompute() {
  const obs::MonitorHubObs& mobs = obs::MonitorHubObs::instance();
  mobs.recomputes.add();
  HubEstimate next;
  {
    std::lock_guard lk(mu_);
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
      for (const PartyState& m : states_) {
        if (!m.live) {
          all_live = false;
          break;
        }
        const std::uint64_t c = cfg_.role == net::PartyRole::kCount
                                    ? m.count.base().cursor
                                    : m.distinct.base().cursor;
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
        MirrorSource src(states_, &PartyState::count, *count_ref_,
                         cfg_.instances, 0);
        publish(distributed::union_count(src, cfg_.n));
        break;
      }
      case net::PartyRole::kDistinct: {
        MirrorSource src(states_, &PartyState::distinct, *distinct_ref_,
                         cfg_.instances, cfg_.distinct_params.window);
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
        for (const PartyState& m : states_) {
          if (!m.live) {
            ++missing;
            continue;
          }
          sum += m.value;
          exact = exact && m.exact;
        }
        next.missing = missing;
        if (missing == states_.size()) {
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

bool MonitorHub::apply_push(std::size_t i, const net::PushUpdate& u,
                            std::string& err) {
  if (u.cursor == 0) {
    err = "push carries cursor 0";
    return false;
  }
  std::lock_guard lk(mu_);
  PartyState& m = states_[i];
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
  m.generation = u.generation;
  m.cursor = u.cursor;
  return true;
}

void MonitorHub::leg_loop(std::size_t i, const std::stop_token& st) {
  const obs::MonitorHubObs& mobs = obs::MonitorHubObs::instance();
  const net::Endpoint& ep = cfg_.parties[i];
  auto backoff = cfg_.reconnect_base;
  bool ever_connected = false;
  // Per-leg circuit breaker: kLegBreakerThreshold consecutive failed
  // cycles trip it; while open the leg probes once per cooldown instead of
  // reconnect-backoff hammering a dead endpoint.
  int breaker_failures = 0;
  bool breaker_open = false;
  net::Frame frame;
  // Stop-aware sleep: backoff never delays shutdown by more than a slice.
  const auto nap = [&](std::chrono::milliseconds ms) {
    const net::Deadline until = net::Clock::now() + ms;
    while (!st.stop_requested() && net::Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  while (!st.stop_requested()) {
    net::Socket sock =
        net::tcp_connect(ep.host, ep.port, net::deadline_in(cfg_.io_deadline));
    bool pushed_any = false;
    bool cycle_ok = false;  // handshake + subscribe landed this cycle
    if (sock.valid()) {
      if (ever_connected) mobs.leg_reconnects.add();
      ever_connected = true;
      do {
        const net::Deadline hs = net::deadline_in(cfg_.io_deadline);
        net::Hello hello;
        hello.client_id = cfg_.client_id;
        if (!net::write_frame(sock, net::MsgType::kHello, hello.encode(), hs)) {
          break;
        }
        if (net::read_frame(sock, frame, hs) != net::ReadStatus::kOk) break;
        net::HelloAck ack;
        if (frame.type != net::MsgType::kHelloAck ||
            !net::HelloAck::decode(frame.payload, ack) ||
            ack.role != cfg_.role) {
          mobs.protocol_errors.add();
          break;
        }
        // Epoch-aware resync: a generation the mirror doesn't know means
        // the party restarted, so its push-chain state died with it. Drop
        // the mirror and rebase on the subscription's full initial push.
        bool resync = false;
        {
          std::lock_guard lk(mu_);
          PartyState& m = states_[i];
          if (m.cursor != 0 && ack.generation != m.generation) {
            m = PartyState{};
            resync = true;
          }
        }
        if (resync) {
          mobs.resyncs.add();
          emit("HUB RESYNC party=" + std::to_string(i) +
               " generation=" + std::to_string(ack.generation));
        }
        net::SubscribeRequest req;
        req.request_id = i + 1;
        req.role = cfg_.role;
        req.n = cfg_.n;
        req.has_slack = true;
        req.slack = budget_.threshold(cfg_.role, cfg_.n, cfg_.max_value);
        req.check_every_ms =
            static_cast<std::uint64_t>(cfg_.check_every.count());
        if (!net::write_frame(sock, net::MsgType::kSubscribe, req.encode(),
                              net::deadline_in(cfg_.io_deadline))) {
          break;
        }
        cycle_ok = true;
        std::uint64_t last_seq = 0;
        while (!st.stop_requested()) {
          if (!sock.wait_readable(
                  net::deadline_in(std::chrono::milliseconds(100)))) {
            continue;
          }
          const net::ReadStatus rs =
              net::read_frame(sock, frame, net::deadline_in(cfg_.io_deadline));
          if (rs != net::ReadStatus::kOk) {
            if (rs == net::ReadStatus::kMalformed) mobs.protocol_errors.add();
            break;
          }
          if (frame.type == net::MsgType::kErr) {
            net::ErrReply e;
            emit("HUB LEG ERROR party=" + std::to_string(i) + " " +
                 (net::ErrReply::decode(frame.payload, e) ? e.message
                                                          : "(undecodable)"));
            break;
          }
          net::PushUpdate u;
          if (frame.type != net::MsgType::kPushUpdate ||
              !net::PushUpdate::decode(frame.payload, u)) {
            mobs.protocol_errors.add();
            break;
          }
          // A generation moved mid-subscription or a seq gap both mean the
          // chain is broken; drop the leg and let the reconnect handshake
          // sort out whether a rebase is needed.
          if (u.request_id != req.request_id || u.role != cfg_.role ||
              u.generation != ack.generation || u.seq != last_seq + 1) {
            mobs.protocol_errors.add();
            break;
          }
          last_seq = u.seq;
          std::string err;
          if (!apply_push(i, u, err)) {
            mobs.protocol_errors.add();
            emit("HUB LEG DESYNC party=" + std::to_string(i) + " " + err);
            break;
          }
          mobs.updates.add();
          pushed_any = true;
          backoff = cfg_.reconnect_base;
          recompute();
        }
      } while (false);
      sock.close();
    }
    set_leg_down(i);
    if (cycle_ok) {
      if (breaker_open) {
        breaker_open = false;
        mobs.breaker_closes.add();
        emit("HUB BREAKER CLOSED party=" + std::to_string(i));
      }
      breaker_failures = 0;
    } else if (!breaker_open && ++breaker_failures >= kLegBreakerThreshold) {
      breaker_open = true;
      mobs.breaker_trips.add();
      emit("HUB BREAKER OPEN party=" + std::to_string(i));
    }
    // A failed probe cycle keeps the breaker open: fall through to another
    // cooldown below.
    if (st.stop_requested()) break;
    if (breaker_open) {
      // One probe cycle per cooldown; every skipped reconnect in between
      // is a fast fail the dead endpoint never sees.
      mobs.breaker_fast_fails.add();
      nap(cfg_.breaker_cooldown);
      mobs.breaker_probes.add();
      backoff = cfg_.reconnect_base;
      continue;
    }
    nap(backoff);
    if (!pushed_any) {
      backoff = std::min(backoff * 2, cfg_.reconnect_max);
    }
  }
}

}  // namespace waves::monitor
