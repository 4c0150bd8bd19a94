#include "net/server.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "obs/export.hpp"
#include "obs/monitor_obs.hpp"
#include "obs/net_obs.hpp"
#include "obs/trace.hpp"
#include "recovery/delta.hpp"

namespace waves::net {

void BasicPartyState::observe(bool bit) {
  std::lock_guard lk(mu_);
  wave_.update(bit);
  ++items_;
}

void BasicPartyState::observe_batch(const util::PackedBitStream& bits) {
  std::lock_guard lk(mu_);
  wave_.update_batch(bits);
  items_ += bits.size();
}

core::Estimate BasicPartyState::query(std::uint64_t n) const {
  std::lock_guard lk(mu_);
  return wave_.query(n);
}

std::uint64_t BasicPartyState::items() const {
  std::lock_guard lk(mu_);
  return items_;
}

std::uint64_t BasicPartyState::change_cursor() const {
  std::lock_guard lk(mu_);
  return wave_.change_cursor();
}

recovery::BasicPartyCheckpoint BasicPartyState::checkpoint() const {
  std::lock_guard lk(mu_);
  return recovery::BasicPartyCheckpoint{items_, wave_.checkpoint()};
}

void BasicPartyState::restore(const recovery::BasicPartyCheckpoint& ck) {
  std::lock_guard lk(mu_);
  wave_ = core::DetWave::restore(inv_eps_, window_, ck.wave);
  items_ = ck.cursor;
}

void SumPartyState::observe(std::uint64_t value) {
  std::lock_guard lk(mu_);
  wave_.update(value);
  ++items_;
}

void SumPartyState::observe_batch(std::span<const std::uint64_t> values) {
  std::lock_guard lk(mu_);
  for (const std::uint64_t v : values) wave_.update(v);
  items_ += values.size();
}

core::Estimate SumPartyState::query(std::uint64_t n) const {
  std::lock_guard lk(mu_);
  return wave_.query(n);
}

std::uint64_t SumPartyState::items() const {
  std::lock_guard lk(mu_);
  return items_;
}

std::uint64_t SumPartyState::change_cursor() const {
  std::lock_guard lk(mu_);
  return wave_.change_cursor();
}

recovery::SumPartyCheckpoint SumPartyState::checkpoint() const {
  std::lock_guard lk(mu_);
  return recovery::SumPartyCheckpoint{items_, wave_.checkpoint()};
}

void SumPartyState::restore(const recovery::SumPartyCheckpoint& ck) {
  std::lock_guard lk(mu_);
  wave_ = core::SumWave::restore(inv_eps_, window_, max_value_, ck.wave);
  items_ = ck.cursor;
}

void AggPartyState::observe(std::int64_t value) {
  std::lock_guard lk(mu_);
  wave_.update(value);
  ++items_;
}

void AggPartyState::observe_batch(std::span<const std::int64_t> values) {
  std::lock_guard lk(mu_);
  wave_.update_bulk(values);
  items_ += values.size();
}

std::int64_t AggPartyState::value() const {
  std::lock_guard lk(mu_);
  return wave_.value();
}

std::uint64_t AggPartyState::items() const {
  std::lock_guard lk(mu_);
  return items_;
}

recovery::AggPartyCheckpoint AggPartyState::checkpoint() const {
  std::lock_guard lk(mu_);
  return recovery::AggPartyCheckpoint{items_, wave_.checkpoint()};
}

void AggPartyState::restore(const recovery::AggPartyCheckpoint& ck) {
  std::lock_guard lk(mu_);
  wave_ = agg::AggWave::restore(wave_.op(), wave_.window(), ck.wave);
  items_ = ck.cursor;
}

PartyServer::PartyServer(ServerConfig cfg, distributed::CountParty* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kCount), count_(party) {}

PartyServer::PartyServer(ServerConfig cfg, distributed::DistinctParty* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kDistinct), distinct_(party) {}

PartyServer::PartyServer(ServerConfig cfg, BasicPartyState* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kBasic), basic_(party) {}

PartyServer::PartyServer(ServerConfig cfg, SumPartyState* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kSum), sum_(party) {}

PartyServer::PartyServer(ServerConfig cfg, AggPartyState* party)
    : cfg_(std::move(cfg)), role_(PartyRole::kAgg), agg_(party) {}

// ~PartyServer and the start/stop/drain lifecycle live in
// server_loop.cpp, where LoopCore is complete.

void PartyServer::note_checkpoint() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  last_checkpoint_ns_.store(static_cast<std::uint64_t>(ns),
                            std::memory_order_relaxed);
}

HealthReply PartyServer::health_reply(std::uint64_t request_id) const {
  HealthReply r;
  r.request_id = request_id;
  r.role = role_;
  r.party_id = cfg_.party_id;
  r.generation = cfg_.generation;
  switch (role_) {
    case PartyRole::kCount:
      r.items_observed = count_->items_observed();
      break;
    case PartyRole::kDistinct:
      r.items_observed = distinct_->items_observed();
      break;
    case PartyRole::kBasic:
      r.items_observed = basic_->items();
      break;
    case PartyRole::kSum:
      r.items_observed = sum_->items();
      break;
    case PartyRole::kAgg:
      r.items_observed = agg_->items();
      break;
  }
  const auto now = Clock::now();
  r.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - started_)
          .count());
  const std::uint64_t ck = last_checkpoint_ns_.load(std::memory_order_relaxed);
  if (ck == 0) {
    r.checkpoint_age_ms = ~std::uint64_t{0};
  } else {
    const auto now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
    r.checkpoint_age_ms = now_ns >= ck ? (now_ns - ck) / 1'000'000 : 0;
  }
  return r;
}

HelloAck PartyServer::hello_ack() const {
  HelloAck ack;
  ack.role = role_;
  ack.party_id = cfg_.party_id;
  ack.generation = cfg_.generation;
  switch (role_) {
    case PartyRole::kCount:
      ack.instances = static_cast<std::uint64_t>(count_->instances());
      ack.items_observed = count_->items_observed();
      // All instances share the window parameter; a delta-capable client
      // needs it to derive snapshots from mirrored checkpoints.
      ack.window = count_->instances() > 0 ? count_->instance(0).window() : 0;
      break;
    case PartyRole::kDistinct:
      ack.instances = static_cast<std::uint64_t>(distinct_->instances());
      ack.items_observed = distinct_->items_observed();
      ack.window =
          distinct_->instances() > 0 ? distinct_->instance(0).window() : 0;
      break;
    case PartyRole::kBasic:
      ack.window = basic_->window();
      ack.items_observed = basic_->items();
      break;
    case PartyRole::kSum:
      ack.window = sum_->window();
      ack.items_observed = sum_->items();
      break;
    case PartyRole::kAgg:
      ack.window = agg_->window();
      ack.items_observed = agg_->items();
      break;
  }
  return ack;
}

namespace {

// The two halves of shipping a party's state against a held baseline, one
// overloaded pair per role, shared by the pull replies and the push chain.
//
// encode_from_baseline appends the diff from `base` to the live state to
// `out` and advances `base` to the state just encoded; false (with `out`
// and `base` untouched) when the diff form can't express the change and
// the caller must ship a full body instead.
//
// encode_full checkpoints the party, writes the self-contained body to
// `out`, and refreshes `base` to describe it.

bool encode_from_baseline(const distributed::CountParty& party,
                          recovery::CountDeltaBaseline& base, Bytes& out) {
  // O(change) diff straight out of the live rings.
  return recovery::encode_delta_live(party, base, out);
}

void encode_full(const distributed::CountParty& party,
                 recovery::CountDeltaBaseline& base, Bytes& out) {
  const distributed::CountPartyCheckpoint now = party.checkpoint();
  out = recovery::encode(now);
  recovery::baseline_from_checkpoint(now, base);
}

bool encode_from_baseline(const distributed::DistinctParty& party,
                          distributed::DistinctPartyCheckpoint& base,
                          Bytes& out) {
  // The checkpoint diff falls back to full-form waves internally, so it
  // always expresses the change.
  distributed::DistinctPartyCheckpoint now = party.checkpoint();
  out = recovery::encode_delta(base, now);
  base = std::move(now);
  return true;
}

void encode_full(const distributed::DistinctParty& party,
                 distributed::DistinctPartyCheckpoint& base, Bytes& out) {
  base = party.checkpoint();
  out = recovery::encode(base);
}

// Ships the party's state into `out`: a diff against `base` when
// `has_base` and the role's encoder can express it, otherwise a full body
// that rebases `base`. True when `out` is a diff.
template <class Party, class Baseline>
bool encode_against(const Party& party, bool has_base, Baseline& base,
                    Bytes& out) {
  out.clear();
  if (has_base && encode_from_baseline(party, base, out)) return true;
  encode_full(party, base, out);
  return false;
}

}  // namespace

template <class Party, class Baseline>
void PartyServer::delta_answer(const Party& party, PullChain<Baseline>& st,
                               const SnapshotRequest& req,
                               DeltaReply& r) const {
  const auto& obs = obs::NetServerObs::instance();
  std::lock_guard lk(st.mu);
  // Both baselines carry the party's items_observed at encode time.
  const std::uint64_t items = party.items_observed();
  const bool holds_since =
      req.since_cursor != 0 && req.since_cursor == st.serial;
  // Unchanged fast-path: the client's baseline is our current one and the
  // party ingested nothing since it was taken — echo the cursor, empty
  // body, no synopsis walk at all.
  if (holds_since && items == st.baseline.cursor) {
    r.base_cursor = st.serial;
    r.cursor = st.serial;
    obs.delta_unchanged.add();
    return;
  }
  // Retry cache: same since_cursor as the previous reply and nothing
  // ingested since it was encoded — the client never applied it (timeout,
  // reconnect), so the identical body is still the right answer even
  // though the baseline has moved past req.since_cursor.
  if (st.cache_valid && req.since_cursor != 0 &&
      req.since_cursor == st.cached_since && items == st.cached_items) {
    r.base_cursor = st.cached_base_cursor;
    r.cursor = st.cached_cursor;
    r.body = st.cached_body;
    (r.base_cursor != 0 ? obs.delta_replies : obs.delta_full).add();
    return;
  }
  // Bootstrap (since_cursor 0) or a cursor we no longer hold (another
  // client advanced the baseline, or this process restarted) ships a
  // self-contained full body; base_cursor 0 tells the client so.
  const bool diff = encode_against(party, holds_since, st.baseline, r.body);
  r.base_cursor = diff ? st.serial : 0;
  (diff ? obs.delta_replies : obs.delta_full).add();
  r.cursor = ++st.serial;
  st.cache_valid = true;
  st.cached_since = req.since_cursor;
  st.cached_items = st.baseline.cursor;
  st.cached_base_cursor = r.base_cursor;
  st.cached_cursor = r.cursor;
  st.cached_body = r.body;
}

void PartyServer::answer(const SnapshotRequest& req, Outbox& out) {
  // Server-side handling span. When the request carries a trace context
  // (extension tag 2) this joins the client's trace: a later format=trace
  // scrape of this process returns it under the same trace id, and
  // `wavecli query --trace` stitches it below the client's per-party span.
  auto span = obs::Tracer::instance().start(
      "party.answer", obs::TraceContext{req.trace_id, req.parent_span_id});
  span.set("party", static_cast<double>(cfg_.party_id));
  span.set("n", static_cast<double>(req.n));
  auto send = [&](MsgType type, Bytes payload) {
    span.set("reply_bytes", static_cast<double>(payload.size()));
    out.push_back(OutFrame{type, std::move(payload)});
  };

  if (req.role != role_) {
    ErrReply err{req.request_id, ErrCode::kWrongRole,
                 std::string("party serves role ") + role_name(role_)};
    send(MsgType::kErr, err.encode());
    return;
  }

  const bool delta = req.delta_capable && cfg_.enable_delta &&
                     (role_ == PartyRole::kCount ||
                      role_ == PartyRole::kDistinct);

  // Count/distinct: a v3 delta reply from the role's pull chain, or the v2
  // full snapshot reply.
  const auto snapshot_reply = [&](const auto& party, auto& pull, auto reply,
                                  MsgType type) {
    if (delta) {
      DeltaReply r;
      r.request_id = req.request_id;
      r.generation = cfg_.generation;
      r.role = role_;
      {
        // Covers the checkpoint walk (which contends with the ingest
        // lock) and the delta diff — the "interference" phase.
        auto d = obs::Tracer::instance().start("party.delta", span.context());
        delta_answer(party, pull, req, r);
        d.set("body_bytes", static_cast<double>(r.body.size()));
        d.set("full", r.base_cursor == 0 ? 1.0 : 0.0);
      }
      send(MsgType::kDeltaReply, r.encode());
      return;
    }
    reply.request_id = req.request_id;
    reply.generation = cfg_.generation;
    {
      [[maybe_unused]] auto s =
          obs::Tracer::instance().start("party.snapshot", span.context());
      reply.snapshots = party.snapshots(req.n);
    }
    send(type, reply.encode());
  };

  switch (role_) {
    case PartyRole::kCount:
      snapshot_reply(*count_, count_pull_, CountReply{}, MsgType::kCountReply);
      return;
    case PartyRole::kDistinct:
      snapshot_reply(*distinct_, distinct_pull_, DistinctReply{},
                     MsgType::kDistinctReply);
      return;
    case PartyRole::kBasic: {
      const core::Estimate est = basic_->query(req.n);
      TotalReply r{req.request_id, cfg_.generation, est.value, est.exact,
                   basic_->items()};
      send(MsgType::kTotalReply, r.encode());
      return;
    }
    case PartyRole::kSum: {
      const core::Estimate est = sum_->query(req.n);
      TotalReply r{req.request_id, cfg_.generation, est.value, est.exact,
                   sum_->items()};
      send(MsgType::kTotalReply, r.encode());
      return;
    }
    case PartyRole::kAgg: {
      AggReply r;
      r.request_id = req.request_id;
      r.generation = cfg_.generation;
      r.op = agg_->op();
      r.value = agg_->value();
      r.items_observed = agg_->items();
      r.window = agg_->window();
      send(MsgType::kAggReply, r.encode());
      return;
    }
  }
}

void PartyServer::subscribe(const SubscribeRequest& req, Subscription& sub,
                            Outbox& out) {
  const auto& mobs = obs::MonitorPartyObs::instance();
  // Joins the subscriber's trace (tag 2) like party.answer does, so one
  // `wavecli hub` bring-up stitches across processes.
  auto span = obs::Tracer::instance().start(
      "party.subscribe", obs::TraceContext{req.trace_id, req.parent_span_id});
  span.set("party", static_cast<double>(cfg_.party_id));
  span.set("n", static_cast<double>(req.n));
  // A replacing kSubscribe restarts the chain from scratch. A nonzero
  // since_cursor (tag 1) can never name one of our baselines — they are
  // per-subscription and this one is new — so per the DeltaReply fallback
  // rule the chain always opens with a full body; the field is accepted
  // for forward compatibility with server-side persistent baselines.
  sub = Subscription{};
  sub.active = true;
  sub.request_id = req.request_id;
  sub.n = req.n;
  if (req.has_slack) sub.slack = req.slack;
  sub.check = req.check_every_ms > 0
                  ? std::chrono::milliseconds(req.check_every_ms)
                  : cfg_.push_check;
  mobs.subscribes.add();
  push_update(sub, out);
}

void PartyServer::push_update(Subscription& sub, Outbox& out) {
  const auto& mobs = obs::MonitorPartyObs::instance();
  PushUpdate u;
  u.request_id = sub.request_id;
  u.seq = sub.seq + 1;
  u.generation = cfg_.generation;
  u.role = role_;
  bool full = true;
  // Count/distinct: the same encode pair as the pull path, but against this
  // subscription's own baseline — two subscribers at different points in
  // their chains never corrupt each other.
  const auto chain = [&](const auto& party, auto& base) {
    full = !encode_against(party, sub.cursor != 0, base, u.body);
    u.base_cursor = full ? 0 : sub.cursor;
    u.items_observed = base.cursor;
    sub.pushed_items = base.cursor;
  };
  switch (role_) {
    case PartyRole::kCount:
      chain(*count_, sub.count_base);
      break;
    case PartyRole::kDistinct:
      chain(*distinct_, sub.distinct_base);
      break;
    case PartyRole::kBasic: {
      const core::Estimate est = basic_->query(sub.n);
      distributed::put_fixed64(u.body,
                               std::bit_cast<std::uint64_t>(est.value));
      distributed::put_varint(u.body, est.exact ? 1 : 0);
      u.items_observed = basic_->items();
      sub.pushed_value = est.value;
      sub.last_change = basic_->change_cursor();
      break;
    }
    case PartyRole::kSum: {
      const core::Estimate est = sum_->query(sub.n);
      distributed::put_fixed64(u.body,
                               std::bit_cast<std::uint64_t>(est.value));
      distributed::put_varint(u.body, est.exact ? 1 : 0);
      u.items_observed = sum_->items();
      sub.pushed_value = est.value;
      sub.last_change = sum_->change_cursor();
      break;
    }
    case PartyRole::kAgg:
      return;  // unreachable: subscribe() rejects the agg role
  }
  u.cursor = sub.cursor + 1;
  sub.cursor = u.cursor;
  sub.seq = u.seq;
  Bytes payload = u.encode();
  mobs.pushes.add();
  mobs.push_bytes.add(kHeaderSize + payload.size());
  if (full) {
    mobs.push_full.add();
  } else {
    mobs.push_delta.add();
  }
  out.push_back(OutFrame{MsgType::kPushUpdate, std::move(payload)});
}

void PartyServer::drift_tick(Subscription& sub, Outbox& out) {
  const auto& mobs = obs::MonitorPartyObs::instance();
  mobs.push_checks.add();
  switch (role_) {
    case PartyRole::kCount:
    case PartyRole::kDistinct: {
      // Count-based windows expire only when items arrive, so the party's
      // item cursor covers window-expiry drift too: a quiescent stream is
      // provably drift-free and the check costs one atomic-ish read.
      const std::uint64_t items = role_ == PartyRole::kCount
                                      ? count_->items_observed()
                                      : distinct_->items_observed();
      if (items == sub.pushed_items ||
          static_cast<double>(items - sub.pushed_items) < sub.slack) {
        return;
      }
      push_update(sub, out);
      return;
    }
    case PartyRole::kBasic: {
      // change_cursor gates the (lock + query) estimate walk: if the wave
      // didn't mutate since the last check, the estimate can't have moved.
      const std::uint64_t cc = basic_->change_cursor();
      if (cc == sub.last_change) return;
      sub.last_change = cc;
      const double v = basic_->query(sub.n).value;
      if (std::abs(v - sub.pushed_value) < sub.slack) return;
      push_update(sub, out);
      return;
    }
    case PartyRole::kSum: {
      const std::uint64_t cc = sum_->change_cursor();
      if (cc == sub.last_change) return;
      sub.last_change = cc;
      const double v = sum_->query(sub.n).value;
      if (std::abs(v - sub.pushed_value) < sub.slack) return;
      push_update(sub, out);
      return;
    }
    case PartyRole::kAgg:
      return;
  }
}

PartyServer::ConnAction PartyServer::process_frame(const Frame& frame,
                                                   Subscription& sub,
                                                   Outbox& out) {
  const auto& obs = obs::NetServerObs::instance();
  auto err_out = [&](std::uint64_t request_id, ErrCode code,
                     std::string message) {
    out.push_back(OutFrame{
        MsgType::kErr,
        ErrReply{request_id, code, std::move(message)}.encode()});
  };

  switch (frame.type) {
    case MsgType::kHello: {
      Hello hello;
      if (!Hello::decode(frame.payload, hello)) {
        obs.frame_errors.add();
        err_out(0, ErrCode::kBadRequest, "bad hello");
        return ConnAction::kClose;
      }
      out.push_back(OutFrame{MsgType::kHelloAck, hello_ack().encode()});
      break;
    }
    case MsgType::kSnapshotRequest: {
      obs.requests.add();
      SnapshotRequest req;
      if (!SnapshotRequest::decode(frame.payload, req)) {
        obs.frame_errors.add();
        err_out(0, ErrCode::kBadRequest, "bad snapshot request");
        return ConnAction::kClose;
      }
      answer(req, out);
      break;
    }
    case MsgType::kMetricsRequest: {
      // Scrape of this process's obs registry. No Hello required: a
      // scrape-only connection (wavecli metrics --connect, the CI schema
      // check) sends this as its first frame.
      MetricsRequest req;
      if (!MetricsRequest::decode(frame.payload, req)) {
        obs.frame_errors.add();
        err_out(0, ErrCode::kBadRequest, "bad metrics request");
        return ConnAction::kClose;
      }
      MetricsReply r;
      r.request_id = req.request_id;
      r.generation = cfg_.generation;
      r.format = req.format;
      switch (req.format) {
        case MetricsFormat::kProm:
          r.text = obs::prometheus_text();
          break;
        case MetricsFormat::kJson:
          r.text = obs::json_text();
          break;
        case MetricsFormat::kTrace:
          r.text = obs::trace_text(req.trace_filter);
          break;
      }
      out.push_back(OutFrame{MsgType::kMetricsReply, r.encode()});
      break;
    }
    case MsgType::kHealthRequest: {
      // Liveness probe (src/supervise/). Like kMetricsRequest, no Hello
      // required: a supervisor's probe connection sends this as its
      // first frame and never touches snapshot state.
      HealthRequest req;
      if (!HealthRequest::decode(frame.payload, req)) {
        obs.frame_errors.add();
        err_out(0, ErrCode::kBadRequest, "bad health request");
        return ConnAction::kClose;
      }
      out.push_back(
          OutFrame{MsgType::kHealthReply, health_reply(req.request_id).encode()});
      obs.health_probes.add();
      break;
    }
    case MsgType::kSubscribe: {
      obs.requests.add();
      SubscribeRequest req;
      if (!SubscribeRequest::decode(frame.payload, req)) {
        obs.frame_errors.add();
        err_out(0, ErrCode::kBadRequest, "bad subscribe request");
        return ConnAction::kClose;
      }
      // Typed rejections keep the connection: the request parsed fine,
      // the framing is intact, and the peer may fall back to polling.
      const char* reject = nullptr;
      if (!cfg_.enable_push) {
        reject = "push subscriptions disabled";
      } else if (role_ == PartyRole::kAgg) {
        reject = "push unsupported for role agg";
      }
      if (reject != nullptr) {
        err_out(req.request_id, ErrCode::kBadRequest, reject);
        break;
      }
      if (req.role != role_) {
        err_out(req.request_id, ErrCode::kWrongRole,
                std::string("party serves role ") + role_name(role_));
        break;
      }
      subscribe(req, sub, out);
      break;
    }
    case MsgType::kUnsubscribe: {
      Unsubscribe req;
      if (!Unsubscribe::decode(frame.payload, req)) {
        obs.frame_errors.add();
        err_out(0, ErrCode::kBadRequest, "bad unsubscribe");
        return ConnAction::kClose;
      }
      // No reply by design: frames are processed in order, so the next
      // request/reply exchange on this connection is unambiguous.
      sub = Subscription{};
      obs::MonitorPartyObs::instance().unsubscribes.add();
      break;
    }
    default: {
      obs.frame_errors.add();
      err_out(0, ErrCode::kBadRequest, "unexpected message type");
      return ConnAction::kClose;
    }
  }
  if (sub.active) drift_tick(sub, out);
  return ConnAction::kKeep;
}

}  // namespace waves::net
