#include "net/client_leg.hpp"

#include <algorithm>
#include <utility>

namespace waves::net {

ClientLeg::ClientLeg(ConnLoop& loop, LegConfig cfg)
    : backoff(cfg.backoff_base, cfg.backoff_max),
      loop_(loop),
      cfg_(std::move(cfg)) {}

std::string ClientLeg::where() const {
  return cfg_.ep.host + ":" + std::to_string(cfg_.ep.port);
}

void ClientLeg::open(PartyRole role, Deadline dl) {
  if (state_ != State::kDown) return;
  state_ = State::kConnecting;
  role_ = role;
  have_reason_ = false;
  conn_ = loop_.connect(cfg_.ep.host, cfg_.ep.port, *this);
  if (conn_ == nullptr) {
    // Refused at once: report it from the next timer tick, so on_down
    // never runs inside the owner's own call.
    have_reason_ = true;
    reason_ = FetchStatus::kConnectError;
    why_ = "connect failed: " + where();
    dl = Clock::now();
  }
  expect_by(dl);
}

void ClientLeg::send(MsgType type, const Bytes& payload) {
  if (state_ == State::kDown || state_ == State::kConnecting) return;
  sent_ += kHeaderSize + payload.size();
  // Hold the connection: a send fault or write error closes it inside.
  const ConnPtr c = conn_;
  loop_.send(c, type, payload);
  loop_.flush(c);
}

void ClientLeg::expect_by(Deadline dl) {
  deadline_at_ = dl;
  // Lazy: the armed timer stays when it fires no later than `dl`, and
  // re-arms itself for the rest, so a steady stream of requests costs one
  // wheel entry per leg, not one per request.
  if (deadline_ != 0 && armed_for_ <= dl) return;
  loop_.loop().cancel_timer(deadline_);
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(dl - Clock::now());
  armed_for_ = dl;
  deadline_ = loop_.loop().arm_timer(
      std::max(left, std::chrono::milliseconds(0)), [this] {
        const Charge charge(this);
        deadline_ = 0;
        if (deadline_at_ == Deadline::max()) return;
        if (Clock::now() < deadline_at_) return expect_by(deadline_at_);
        expire();
      });
}

void ClientLeg::clear_deadline() { deadline_at_ = Deadline::max(); }

void ClientLeg::expire() {
  deadline_at_ = Deadline::max();
  if (state_ == State::kDown) return;
  if (conn_ == nullptr) {  // the refused connect, reported now
    state_ = State::kDown;
    return on_down(reason_, why_);
  }
  drop(FetchStatus::kTimeout, state_ == State::kConnecting
                                  ? "connect timeout: " + where()
                                  : std::string("reply deadline exceeded"));
}

void ClientLeg::drop(FetchStatus status, std::string why) {
  if (conn_ == nullptr) return;
  have_reason_ = true;
  reason_ = status;
  why_ = std::move(why);
  loop_.close(conn_);  // -> on_close
}

void ClientLeg::on_connected(const ConnPtr& c) {
  if (c != conn_) return;
  if (ever_connected_ && cfg_.reconnects != nullptr) cfg_.reconnects->add();
  ever_connected_ = true;
  state_ = State::kHello;
  send(MsgType::kHello, Hello{cfg_.client_id}.encode());
}

void ClientLeg::on_frame(const ConnPtr& c, Frame f) {
  if (c != conn_) return;
  received_ += kHeaderSize + f.payload.size();
  if (state_ == State::kReady) {
    clear_deadline();
    return on_message(std::move(f));
  }
  // The handshake: it confirms liveness, the protocol version (the frame
  // header carries it) and the party's role before the real traffic.
  HelloAck ack;
  if (f.type != MsgType::kHelloAck || !HelloAck::decode(f.payload, ack)) {
    return drop(FetchStatus::kProtocolError, "bad hello ack");
  }
  if (ack.role != role_) {
    return drop(FetchStatus::kRemoteError,
                std::string("party serves role ") + role_name(ack.role) +
                    ", wanted " + role_name(role_));
  }
  if (cfg_.instances > 0 && ack.instances != cfg_.instances) {
    return drop(FetchStatus::kProtocolError,
                "party runs " + std::to_string(ack.instances) +
                    " instances, wanted " + std::to_string(cfg_.instances));
  }
  clear_deadline();
  // A generation the mirrors don't know means the party restarted since
  // they were shipped: its delta/push-chain state died with it, so drop
  // them; the next body must be a full one. Not an error.
  const bool count_dropped = count.resync(ack.generation);
  const bool distinct_dropped = distinct.resync(ack.generation);
  ack_ = ack;
  state_ = State::kReady;
  on_ready(count_dropped || distinct_dropped);
}

void ClientLeg::on_close(const ConnPtr& c) {
  if (c != conn_) return;
  const bool was_connecting = state_ == State::kConnecting;
  conn_.reset();
  state_ = State::kDown;
  clear_deadline();
  if (!have_reason_) {
    reason_ = FetchStatus::kConnectError;
    if (was_connecting) {
      why_ = "connect failed: " + where();
    } else if (c->bad_frame) {
      reason_ = FetchStatus::kProtocolError;
      why_ = "malformed reply frame";
    } else {
      // Peer died (or dropped an idle keep-alive link); retryable like a
      // failed connect.
      why_ = "connection closed mid-request";
    }
  }
  on_down(reason_, why_);
}

ClientLeg::Admit ClientLeg::admit() {
  const auto bump = [](const obs::Counter* c) {
    if (c != nullptr) c->add();
  };
  if (!open_) return Admit::kPass;
  if (cooled_ && !probing_) {
    // Half-open: exactly one trial; everyone else keeps failing fast
    // until it reports back.
    probing_ = true;
    bump(cfg_.breaker.probes);
    return Admit::kProbe;
  }
  bump(cfg_.breaker.fast_fails);
  return Admit::kFastFail;
}

ClientLeg::Verdict ClientLeg::note(bool ok) {
  if (ok) {
    failures_ = 0;
    if (!open_) return Verdict::kNone;
    open_ = cooled_ = probing_ = false;
    loop_.loop().cancel_timer(cooldown_);
    cooldown_ = 0;
    if (cfg_.breaker.closes != nullptr) cfg_.breaker.closes->add();
    return Verdict::kClosed;
  }
  if (open_) {
    arm_cooldown();
    return Verdict::kNone;
  }
  if (++failures_ < cfg_.breaker_threshold) return Verdict::kNone;
  open_ = true;
  arm_cooldown();
  if (cfg_.breaker.trips != nullptr) cfg_.breaker.trips->add();
  return Verdict::kTripped;
}

void ClientLeg::arm_cooldown() {
  cooled_ = probing_ = false;
  loop_.loop().cancel_timer(cooldown_);
  cooldown_ = loop_.loop().arm_timer(cfg_.breaker_cooldown, [this] {
    const Charge charge(this);
    cooldown_ = 0;
    cooled_ = true;
    on_cooled();
  });
}

void ClientLeg::after(std::chrono::milliseconds delay,
                      std::function<void()> fn) {
  loop_.loop().cancel_timer(retry_);
  retry_ = loop_.loop().arm_timer(delay, [this, fn = std::move(fn)] {
    const Charge charge(this);
    retry_ = 0;
    fn();
  });
}

}  // namespace waves::net
