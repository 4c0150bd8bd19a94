#include "net/client.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>

#include "net/frame.hpp"
#include "obs/alloc.hpp"
#include "obs/flight.hpp"
#include "obs/net_obs.hpp"
#include "obs/recovery_obs.hpp"
#include "obs/supervise_obs.hpp"
#include "obs/trace.hpp"
#include "recovery/mirror.hpp"

namespace waves::net {

bool parse_endpoint(const std::string& s, Endpoint& out) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return false;
  }
  unsigned port = 0;
  const char* first = s.data() + colon + 1;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, port);
  if (ec != std::errc{} || ptr != last || port == 0 || port > 65535) {
    return false;
  }
  out.host = s.substr(0, colon);
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

RefereeClient::RefereeClient(std::vector<Endpoint> parties, ClientConfig cfg)
    : parties_(std::move(parties)), cfg_(cfg) {
  links_.reserve(parties_.size());
  breakers_.reserve(parties_.size());
  for (std::size_t i = 0; i < parties_.size(); ++i) {
    links_.push_back(std::make_unique<PartyLink>());
    breakers_.push_back(std::make_unique<Breaker>());
  }
}

void RefereeClient::disconnect_all() const {
  for (const auto& link : links_) {
    std::lock_guard lk(link->mu);
    link->sock.close();
  }
}

namespace {

// Expected reply frame type for a request of the given role.
MsgType reply_type_for(PartyRole role) {
  switch (role) {
    case PartyRole::kCount:
      return MsgType::kCountReply;
    case PartyRole::kDistinct:
      return MsgType::kDistinctReply;
    case PartyRole::kBasic:
    case PartyRole::kSum:
      return MsgType::kTotalReply;
    case PartyRole::kAgg:
      return MsgType::kAggReply;
  }
  return MsgType::kErr;
}

ClientConfig with_instances(ClientConfig cfg, int instances) {
  cfg.expected_instances = instances;
  return cfg;
}

}  // namespace

Fetch RefereeClient::attempt(std::size_t party, PartyRole role,
                             std::uint64_t n, obs::TraceContext ctx,
                             Deadline cap) const {
  Fetch f;
  const Endpoint& ep = parties_[party];
  PartyLink& link = *links_[party];
  // Fetches to the same party serialize here; the per-party fan-out threads
  // never contend. Held across the whole exchange so the mirror and the
  // socket stream can't interleave between two requests.
  std::lock_guard lk(link.mu);
  const Deadline dl = std::min(deadline_in(cfg_.request_deadline), cap);
  const auto& obs = obs::NetClientObs::instance();
  // Flight-recorder phase clock: each lap closes one phase. Phases are
  // disjoint by construction — every stretch of the attempt is attributed
  // to exactly one of them.
  auto phase_t = Clock::now();
  auto lap = [&phase_t] {
    const auto now = Clock::now();
    const double d = std::chrono::duration<double>(now - phase_t).count();
    phase_t = now;
    return d;
  };

  // Any transport or protocol failure leaves the byte stream unusable (a
  // late reply would desync the next request), so every failure path closes
  // the link; the next attempt reconnects.
  auto fail = [&](FetchStatus s, std::string msg) {
    link.sock.close();
    f.status = s;
    f.error = std::move(msg);
  };

  if (link.sock.valid()) {
    f.reused_connection = true;
  } else {
    bool connect_timed_out = false;
    Socket sock = tcp_connect(ep.host, ep.port, dl, &connect_timed_out);
    if (!sock.valid()) {
      f.status = connect_timed_out ? FetchStatus::kTimeout
                                   : FetchStatus::kConnectError;
      f.error = (connect_timed_out ? "connect timeout: " : "connect failed: ") +
                ep.host + ":" + std::to_string(ep.port);
      f.connect_s += lap();
      return f;
    }
    link.sock = std::move(sock);
    if (link.ever_connected) obs.reconnects.add();
    link.ever_connected = true;
  }

  auto send_msg = [&](MsgType type, const Bytes& payload) {
    if (!write_frame(link.sock, type, payload, dl)) return false;
    f.bytes_sent += kHeaderSize + payload.size();
    return true;
  };
  // Reads one frame and classifies transport failures into the Fetch.
  auto read_msg = [&](Frame& frame) {
    const ReadStatus rs = read_frame(link.sock, frame, dl);
    switch (rs) {
      case ReadStatus::kOk:
        f.bytes_received += kHeaderSize + frame.payload.size();
        return true;
      case ReadStatus::kTimeout:
        fail(FetchStatus::kTimeout, "reply deadline exceeded");
        return false;
      case ReadStatus::kClosed:
        // Peer died (or dropped an idle keep-alive link); retryable like a
        // failed connect.
        fail(FetchStatus::kConnectError, "connection closed mid-request");
        return false;
      case ReadStatus::kMalformed:
        fail(FetchStatus::kProtocolError, "malformed reply frame");
        return false;
    }
    return false;
  };

  // Per-link reused Frame: read_frame assigns into it, so steady-state
  // keep-alive rounds reuse its payload capacity instead of allocating.
  Frame& frame = link.frame;
  if (!f.reused_connection) {
    // Handshake, once per connection: Hello -> HelloAck. Confirms liveness,
    // protocol version (the frame header carries it), and the party's role
    // before the real request.
    if (!send_msg(MsgType::kHello, Hello{cfg_.client_id}.encode())) {
      fail(FetchStatus::kConnectError, "hello send failed");
      f.connect_s += lap();
      return f;
    }
    if (!read_msg(frame)) {
      f.connect_s += lap();
      return f;
    }
    HelloAck ack;
    if (frame.type != MsgType::kHelloAck ||
        !HelloAck::decode(frame.payload, ack)) {
      fail(FetchStatus::kProtocolError, "bad hello ack");
      f.connect_s += lap();
      return f;
    }
    // A generation the mirror doesn't know means the party restarted since
    // the baseline was taken: the server-side delta state died with it, so
    // drop ours and bootstrap with a full fetch. Not an error — the round
    // proceeds normally.
    link.count.resync(ack.generation);
    link.distinct.resync(ack.generation);
    link.ack = ack;
  }
  const HelloAck& ack = link.ack;
  // Report the generation only once this attempt has live evidence of it: a
  // fresh handshake, or (on a reused link) any reply — a surviving
  // connection proves the process behind it survived. A reused socket that
  // dies before answering says nothing about the party's epoch, and must
  // not trip the cross-attempt restart guard in fetch() when the reconnect
  // finds a legitimately new generation.
  if (!f.reused_connection) f.generation = ack.generation;
  if (ack.role != role) {
    fail(FetchStatus::kRemoteError,
         std::string("party serves role ") + role_name(ack.role) +
             ", wanted " + role_name(role));
    return f;
  }
  const auto expected =
      static_cast<std::uint64_t>(std::max(cfg_.expected_instances, 0));
  if (expected > 0 && ack.instances != expected) {
    fail(FetchStatus::kProtocolError,
         "party runs " + std::to_string(ack.instances) +
             " instances, wanted " + std::to_string(expected));
    f.connect_s += lap();
    return f;
  }
  f.connect_s += lap();

  SnapshotRequest req;
  req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  req.role = role;
  req.n = n;
  const bool wants_delta =
      cfg_.delta_snapshots &&
      (role == PartyRole::kCount || role == PartyRole::kDistinct);
  if (wants_delta) {
    req.delta_capable = true;
    req.since_cursor = role == PartyRole::kCount ? link.count.cursor()
                                                 : link.distinct.cursor();
  }
  // Trace context rides the request (extension tag 2): the party's
  // server-side spans join this fetch's trace.
  req.trace_id = ctx.trace_id;
  req.parent_span_id = ctx.parent_span_id;
  link.request_scratch.clear();
  req.encode_into(link.request_scratch);
  if (!send_msg(MsgType::kSnapshotRequest, link.request_scratch)) {
    fail(FetchStatus::kConnectError, "request send failed");
    f.send_s += lap();
    return f;
  }
  f.send_s += lap();
  if (!read_msg(frame)) {
    f.wait_s += lap();
    return f;
  }
  f.wait_s += lap();
  f.generation = ack.generation;

  if (frame.type == MsgType::kErr) {
    // A clean Err frame leaves the stream at a frame boundary; keep the
    // connection for whatever the caller tries next. kShutdown is not a
    // remote fault: the party is draining for a restart, so classify it
    // fast-retryable — but drop the socket, since the draining process
    // won't serve this link again.
    ErrReply err;
    if (ErrReply::decode(frame.payload, err)) {
      if (err.code == ErrCode::kShutdown) {
        f.status = FetchStatus::kShuttingDown;
        f.error = "party draining: " + err.message;
        link.sock.close();
      } else {
        f.status = FetchStatus::kRemoteError;
        f.error = "party error: " + err.message;
      }
    } else {
      f.status = FetchStatus::kRemoteError;
      f.error = "party error (undecodable)";
    }
    f.decode_s += lap();
    return f;
  }
  const bool is_delta_reply =
      wants_delta && frame.type == MsgType::kDeltaReply;
  if (frame.type != reply_type_for(role) && !is_delta_reply) {
    fail(FetchStatus::kProtocolError, "unexpected reply type");
    f.decode_s += lap();
    return f;
  }

  // A reply stamped with a different epoch than the handshake means the
  // party restarted between the two frames; its snapshot is stale.
  auto stale = [&](std::uint64_t reply_gen) {
    if (reply_gen == ack.generation) return false;
    const std::string msg = "party generation moved mid-request (" +
                            std::to_string(ack.generation) + " -> " +
                            std::to_string(reply_gen) + ")";
    fail(FetchStatus::kStaleGeneration, msg);
    f.generation = reply_gen;
    return true;
  };

  if (is_delta_reply) {
    // Per-link scratch reply: decode assigns the body in place, reusing
    // its capacity across rounds.
    DeltaReply& r = link.delta_scratch;
    if (!DeltaReply::decode(frame.payload, r) ||
        r.request_id != req.request_id || r.role != role) {
      fail(FetchStatus::kProtocolError, "bad delta reply");
      f.decode_s += lap();
      return f;
    }
    if (stale(r.generation)) {
      f.decode_s += lap();
      return f;
    }
    f.delta_reply = true;
    f.decode_s += lap();
    // The mirror enforces the cursor rules and the instance count; a
    // rejected body is a protocol error and drops the connection.
    std::string err;
    const auto fold = [&](auto& mirror, auto& snapshots) {
      const recovery::MirrorApply what = mirror.apply(
          r.base_cursor, r.cursor, r.body, ack.generation, expected, err);
      if (what == recovery::MirrorApply::kRejected) return false;
      if (what == recovery::MirrorApply::kFull) obs.delta_full.add();
      if (what == recovery::MirrorApply::kDelta) {
        obs.delta_replies.add();
        f.delta_applied = true;
      }
      // The Fetch owns its vector; the cache must survive for the next hit.
      snapshots = mirror.snapshots(n, ack.window, f.cache_hit);
      (f.cache_hit ? obs.snapshot_cache_hits : obs.snapshot_cache_misses)
          .add();
      return true;
    };
    const bool ok = role == PartyRole::kCount
                        ? fold(link.count, f.count_snapshots)
                        : fold(link.distinct, f.distinct_snapshots);
    if (!ok) {
      fail(FetchStatus::kProtocolError, std::move(err));
      f.apply_s += lap();
      return f;
    }
    f.status = FetchStatus::kOk;
    f.apply_s += lap();
    return f;
  }

  switch (role) {
    case PartyRole::kCount: {
      CountReply r;
      if (!CountReply::decode(frame.payload, r) ||
          r.request_id != req.request_id) {
        fail(FetchStatus::kProtocolError, "bad count reply");
        return f;
      }
      if (stale(r.generation)) return f;
      if (expected > 0 && r.snapshots.size() != expected) {
        fail(FetchStatus::kProtocolError,
             "count reply has " + std::to_string(r.snapshots.size()) +
                 " snapshots, wanted " + std::to_string(expected));
        return f;
      }
      f.count_snapshots = std::move(r.snapshots);
      break;
    }
    case PartyRole::kDistinct: {
      DistinctReply r;
      if (!DistinctReply::decode(frame.payload, r) ||
          r.request_id != req.request_id) {
        fail(FetchStatus::kProtocolError, "bad distinct reply");
        return f;
      }
      if (stale(r.generation)) return f;
      if (expected > 0 && r.snapshots.size() != expected) {
        fail(FetchStatus::kProtocolError,
             "distinct reply has " + std::to_string(r.snapshots.size()) +
                 " snapshots, wanted " + std::to_string(expected));
        return f;
      }
      f.distinct_snapshots = std::move(r.snapshots);
      break;
    }
    case PartyRole::kBasic:
    case PartyRole::kSum: {
      TotalReply r;
      if (!TotalReply::decode(frame.payload, r) ||
          r.request_id != req.request_id) {
        fail(FetchStatus::kProtocolError, "bad total reply");
        return f;
      }
      if (stale(r.generation)) return f;
      f.total = r;
      break;
    }
    case PartyRole::kAgg: {
      AggReply r;
      if (!AggReply::decode(frame.payload, r) ||
          r.request_id != req.request_id) {
        fail(FetchStatus::kProtocolError, "bad agg reply");
        return f;
      }
      if (stale(r.generation)) return f;
      f.agg = r;
      break;
    }
  }
  f.status = FetchStatus::kOk;
  f.decode_s += lap();
  return f;
}

bool RefereeClient::breaker_admit(std::size_t party, bool& is_probe,
                                  Fetch& fast) const {
  Breaker& br = *breakers_[party];
  std::lock_guard lk(br.mu);
  if (!br.open) return true;
  if (!br.probing &&
      Clock::now() - br.opened_at >= cfg_.breaker_cooldown) {
    // Half-open: admit exactly one trial fetch; everyone else keeps
    // failing fast until it reports back.
    br.probing = true;
    is_probe = true;
    return true;
  }
  fast.status = br.last_status;
  fast.error = "circuit open: " + br.last_error;
  return false;
}

void RefereeClient::breaker_note(std::size_t party, const Fetch& f) const {
  const auto& obs = obs::NetClientObs::instance();
  Breaker& br = *breakers_[party];
  std::lock_guard lk(br.mu);
  if (f.ok()) {
    if (br.open) obs.breaker_closes.add();
    br.open = false;
    br.probing = false;
    br.failures = 0;
    return;
  }
  br.last_status = f.status;
  br.last_error = f.error;
  if (br.open) {
    // A failed half-open probe (or a straggler that was admitted before
    // the trip): stay open and restart the cooldown.
    br.probing = false;
    br.opened_at = Clock::now();
    return;
  }
  if (++br.failures >= cfg_.breaker_threshold) {
    br.open = true;
    br.probing = false;
    br.opened_at = Clock::now();
    obs.breaker_trips.add();
  }
}

Fetch RefereeClient::fetch(std::size_t party, PartyRole role, std::uint64_t n,
                           obs::TraceContext ctx) const {
  const auto& obs = obs::NetClientObs::instance();
  obs.requests.add();
  const auto t0 = Clock::now();
  // One span per fetch: child of the caller's context (the fan-out span)
  // when given one, else of the ambient trace, else a fresh root. The
  // party's server-side spans parent under this one via the request's
  // trace extension.
  auto span = ctx ? obs::Tracer::instance().start("net.fetch", ctx)
                  : obs::Tracer::instance().start_auto("net.fetch");
  span.set("party", static_cast<double>(party));
  // Allocation delta across the whole fetch — nonzero only in binaries
  // that install tools/alloc_hook.hpp.
  const obs::AllocScope alloc_scope;

  // Circuit-breaker admission: an open endpoint fails fast with the status
  // kind that tripped it (the caller's quorum math sees the same failure,
  // just immediately) instead of paying the connect/retry budget. After the
  // cooldown exactly one probe fetch is admitted through.
  if (cfg_.breaker_enabled) {
    bool is_probe = false;
    Fetch fast;
    if (!breaker_admit(party, is_probe, fast)) {
      obs.breaker_fast_fails.add();
      fast.trace_id = span.trace_id();
      fast.total_s = std::chrono::duration<double>(Clock::now() - t0).count();
      obs.request_seconds.observe(fast.total_s);
      span.set("ok", 0.0);
      span.set("breaker_open", 1.0);
      return fast;
    }
    if (is_probe) obs.breaker_probes.add();
  }

  Fetch result;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  int attempts = 0;
  // Phase durations accumulate across attempts, like the byte counters:
  // the record describes the fetch, not just its final attempt.
  double connect_s = 0.0;
  double send_s = 0.0;
  double wait_s = 0.0;
  double decode_s = 0.0;
  double apply_s = 0.0;
  double backoff_s = 0.0;
  // Generation seen on the first attempt that completed a handshake. A
  // later attempt answering under a different epoch means the party
  // restarted mid-fetch — its recovered state replayed the feed
  // independently, so its snapshot is treated as stale rather than merged.
  std::uint64_t first_generation = 0;
  bool saw_generation = false;
  // Total budget: when set, it is a hard wall-clock ceiling on the whole
  // fetch — backoff sleeps are clamped to what remains, no attempt starts
  // past it, and every attempt's I/O deadline is capped at it.
  const bool budgeted = cfg_.total_deadline.count() > 0;
  const Deadline budget_dl =
      budgeted ? deadline_in(cfg_.total_deadline) : Deadline::max();
  // Doubling with saturation, not a shift: --attempts is user-settable and
  // a shift exponent past 30 is UB.
  auto backoff = std::min(cfg_.backoff_base, cfg_.backoff_max);
  for (int a = 1; a <= cfg_.max_attempts; ++a) {
    if (a > 1) {
      obs.retries.add();
      if (budgeted && Clock::now() >= budget_dl) {
        obs.deadline_exhausted.add();
        break;  // keep the last attempt's failure status
      }
      if (result.status == FetchStatus::kShuttingDown) {
        // Fast retry: the party said it is draining, so the replacement
        // process may already be listening — don't burn backoff on it, and
        // don't let the drain inflate later backoffs.
        obs.shutdown_retries.add();
      } else {
        auto sleep_for = backoff;
        if (budgeted) {
          const auto remaining =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  budget_dl - Clock::now());
          sleep_for = std::min(sleep_for, remaining);
        }
        const auto sleep_t0 = Clock::now();
        if (sleep_for.count() > 0) std::this_thread::sleep_for(sleep_for);
        backoff_s +=
            std::chrono::duration<double>(Clock::now() - sleep_t0).count();
        backoff = std::min(backoff * 2, cfg_.backoff_max);
      }
    }
    obs.attempts.add();
    attempts = a;
    result = attempt(party, role, n, span.context(), budget_dl);
    sent += result.bytes_sent;
    received += result.bytes_received;
    connect_s += result.connect_s;
    send_s += result.send_s;
    wait_s += result.wait_s;
    decode_s += result.decode_s;
    apply_s += result.apply_s;
    if (result.generation != 0 || result.status == FetchStatus::kOk) {
      if (saw_generation && result.generation != first_generation) {
        result.status = FetchStatus::kStaleGeneration;
        result.error = "party restarted between attempts (generation " +
                       std::to_string(first_generation) + " -> " +
                       std::to_string(result.generation) + ")";
        break;
      }
      if (!saw_generation) {
        first_generation = result.generation;
        saw_generation = true;
      }
    }
    if (result.status == FetchStatus::kTimeout) {
      obs.timeouts.add();
      continue;  // retryable
    }
    if (result.status == FetchStatus::kConnectError) {
      obs.connect_errors.add();
      continue;  // retryable
    }
    if (result.status == FetchStatus::kShuttingDown) {
      continue;  // fast-retryable (counted at the top of the next lap)
    }
    break;  // kOk, kRemoteError, kProtocolError, kStaleGeneration: terminal
  }
  if (result.status == FetchStatus::kProtocolError) obs.protocol_errors.add();
  if (result.status == FetchStatus::kStaleGeneration) {
    obs::RecoveryObs::instance().generation_mismatches.add();
  }
  if (cfg_.breaker_enabled) breaker_note(party, result);

  result.attempts = attempts;
  result.bytes_sent = sent;
  result.bytes_received = received;
  result.trace_id = span.trace_id();
  result.allocs = alloc_scope.allocs();
  result.connect_s = connect_s;
  result.send_s = send_s;
  result.wait_s = wait_s;
  result.decode_s = decode_s;
  result.apply_s = apply_s;
  result.backoff_s = backoff_s;
  result.total_s = std::chrono::duration<double>(Clock::now() - t0).count();
  obs.bytes_sent.add(sent);
  obs.bytes_received.add(received);
  obs.request_seconds.observe(result.total_s);
  span.set("ok", result.ok() ? 1.0 : 0.0);
  span.set("attempts", static_cast<double>(attempts));
  span.set("bytes_received", static_cast<double>(received));

  obs::FlightRecord rec;
  rec.trace_id = result.trace_id;
  rec.party = static_cast<std::uint32_t>(party);
  rec.role = role_name(role);
  rec.ok = result.ok();
  rec.attempts = static_cast<std::uint32_t>(attempts);
  rec.bytes = received;
  rec.allocs = result.allocs;
  rec.reused_connection = result.reused_connection;
  rec.delta_reply = result.delta_reply;
  rec.delta_applied = result.delta_applied;
  rec.cache_hit = result.cache_hit;
  rec.connect_s = connect_s;
  rec.send_s = send_s;
  rec.wait_s = wait_s;
  rec.decode_s = decode_s;
  rec.apply_s = apply_s;
  rec.backoff_s = backoff_s;
  rec.total_s = result.total_s;
  obs::FlightRecorder::instance().record(std::move(rec));
  return result;
}

std::vector<Fetch> RefereeClient::fetch_all(PartyRole role,
                                            std::uint64_t n) const {
  // Joins the calling thread's ambient trace (the referee round installs
  // one via obs::TraceScope) or roots a fresh one. The per-party fetch
  // threads have no ambient context of their own, so the fan-out span's
  // context rides into them explicitly.
  auto span = obs::Tracer::instance().start_auto("net.fanout");
  const obs::TraceContext fan_ctx = span.context();
  if (fan_ctx) {
    last_trace_id_.store(fan_ctx.trace_id, std::memory_order_relaxed);
  }
  std::vector<Fetch> results(parties_.size());
  {
    std::vector<std::jthread> threads;
    threads.reserve(parties_.size());
    for (std::size_t i = 0; i < parties_.size(); ++i) {
      threads.emplace_back([this, &results, i, role, n, fan_ctx] {
        results[i] = fetch(i, role, n, fan_ctx);
      });
    }
  }  // join
  std::size_t ok = 0;
  std::uint64_t bytes = 0;
  for (const Fetch& f : results) {
    if (f.ok()) ++ok;
    bytes += f.bytes_received;
  }
  span.set("parties", static_cast<double>(parties_.size()));
  span.set("ok", static_cast<double>(ok));
  span.set("bytes_received", static_cast<double>(bytes));
  return results;
}

template <class Party>
NetworkSource<Party>::NetworkSource(std::vector<Endpoint> parties,
                                    const typename Party::Params& params,
                                    int instances, std::uint64_t shared_seed,
                                    ClientConfig cfg)
    : client_(std::move(parties), with_instances(cfg, instances)),
      reference_(params, instances, shared_seed) {}

template <class Party>
std::size_t NetworkSource<Party>::party_count() const {
  return client_.party_count();
}

template <class Party>
int NetworkSource<Party>::instances() const {
  return reference_.instances();
}

template <class Party>
const gf2::ExpHash& NetworkSource<Party>::hash(int instance) const {
  return reference_.instance(instance).hash();
}

template <class Party>
std::vector<std::vector<typename Party::Snapshot>>
NetworkSource<Party>::collect(std::uint64_t n,
                              std::vector<std::size_t>& missing,
                              distributed::WireStats* stats,
                              distributed::CollectStats& info) {
  constexpr bool kCount = std::is_same_v<Party, distributed::CountParty>;
  std::vector<Fetch> fetches =
      client_.fetch_all(kCount ? PartyRole::kCount : PartyRole::kDistinct, n);
  std::vector<std::vector<Snapshot>> by_party(fetches.size());
  for (std::size_t i = 0; i < fetches.size(); ++i) {
    Fetch& f = fetches[i];
    std::vector<Snapshot>* snaps = nullptr;
    if constexpr (kCount) {
      snaps = &f.count_snapshots;
    } else {
      snaps = &f.distinct_snapshots;
    }
    info.bytes += f.bytes_received;
    if (!f.ok()) {
      if (f.status == FetchStatus::kProtocolError) ++info.decode_failures;
      missing.push_back(i);
      continue;
    }
    // combine_median indexes every party's vector at [0, instances);
    // a short reply must land in `missing`, never out-of-bounds there.
    if (snaps->size() != static_cast<std::size_t>(instances())) {
      ++info.decode_failures;
      missing.push_back(i);
      continue;
    }
    info.messages += snaps->size();
    if (stats != nullptr) {
      stats->add(f.bytes_received,
                 static_cast<double>(f.bytes_received) * 8.0);
    }
    by_party[i] = std::move(*snaps);
  }
  return by_party;
}

template class NetworkSource<distributed::CountParty>;
template class NetworkSource<distributed::DistinctParty>;

distributed::QueryResult total_query(const RefereeClient& client,
                                     PartyRole role, std::uint64_t n,
                                     std::uint64_t max_value) {
  auto span = obs::Tracer::instance().start(
      role == PartyRole::kSum ? "referee.total_sum_tcp"
                              : "referee.total_count_tcp");
  distributed::QueryResult r;
  if (client.party_count() == 0) {
    r.error = "total query: no parties configured";
    return r;
  }

  std::vector<Fetch> fetches = client.fetch_all(role, n);

  double sum = 0.0;
  bool all_exact = true;
  for (std::size_t i = 0; i < fetches.size(); ++i) {
    const Fetch& f = fetches[i];
    if (!f.ok()) {
      r.missing.push_back(i);
      if (r.error.empty()) r.error = f.error;
      continue;
    }
    sum += f.total.value;
    all_exact = all_exact && f.total.exact;
  }
  span.set("parties", static_cast<double>(client.party_count()));
  span.set("missing", static_cast<double>(r.missing.size()));

  if (r.missing.size() == fetches.size()) {
    r.status = distributed::QueryStatus::kFailed;
    r.error = "total query: no party answered (" + r.error + ")";
    return r;
  }
  r.estimate = core::Estimate{sum, all_exact && r.missing.empty(), n};
  if (r.missing.empty()) {
    r.status = distributed::QueryStatus::kOk;
    r.error.clear();
  } else {
    // Each unreachable party could hold up to n items of value at most
    // max_value in its window — the answer interval widens by that much.
    r.status = distributed::QueryStatus::kDegraded;
    r.error_slack = static_cast<double>(r.missing.size()) *
                    static_cast<double>(n) * static_cast<double>(max_value);
  }
  return r;
}

AggQueryResult agg_query(const RefereeClient& client, agg::AggOp op,
                         std::uint64_t n, std::uint64_t max_abs_value) {
  auto span = obs::Tracer::instance().start("referee.agg_tcp");
  AggQueryResult r;
  r.op = op;
  if (client.party_count() == 0) {
    r.error = "agg query: no parties configured";
    return r;
  }

  std::vector<Fetch> fetches = client.fetch_all(PartyRole::kAgg, n);

  // Combine exactly the way one AggWave would: SUM wraps mod 2^64, MIN/MAX
  // fold from the op identity.
  std::uint64_t sum = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  std::size_t answered = 0;
  for (std::size_t i = 0; i < fetches.size(); ++i) {
    const Fetch& f = fetches[i];
    if (!f.ok() || f.agg.op != op) {
      r.missing.push_back(i);
      if (r.error.empty()) {
        r.error = f.ok() ? std::string("party echoed op ") +
                               agg::agg_op_name(f.agg.op) + ", wanted " +
                               agg::agg_op_name(op)
                         : f.error;
      }
      continue;
    }
    ++answered;
    sum += static_cast<std::uint64_t>(f.agg.value);
    lo = std::min(lo, f.agg.value);
    hi = std::max(hi, f.agg.value);
  }
  span.set("parties", static_cast<double>(client.party_count()));
  span.set("missing", static_cast<double>(r.missing.size()));

  if (answered == 0) {
    r.status = distributed::QueryStatus::kFailed;
    r.error = "agg query: no party answered (" + r.error + ")";
    return r;
  }
  switch (op) {
    case agg::AggOp::kSum:
      r.value = static_cast<std::int64_t>(sum);
      break;
    case agg::AggOp::kMin:
      r.value = lo;
      break;
    case agg::AggOp::kMax:
      r.value = hi;
      break;
  }
  if (r.missing.empty()) {
    r.status = distributed::QueryStatus::kOk;
    r.error.clear();
  } else {
    r.status = distributed::QueryStatus::kDegraded;
    if (op == agg::AggOp::kSum) {
      r.error_slack = static_cast<double>(r.missing.size()) *
                      static_cast<double>(n) *
                      static_cast<double>(max_abs_value);
    }
  }
  return r;
}

bool scrape_metrics(const Endpoint& ep, MetricsFormat format,
                    std::uint64_t trace_filter,
                    std::chrono::milliseconds deadline, MetricsReply& out,
                    std::string& error) {
  const Deadline dl = deadline_in(deadline);
  bool connect_timed_out = false;
  Socket sock = tcp_connect(ep.host, ep.port, dl, &connect_timed_out);
  if (!sock.valid()) {
    error = (connect_timed_out ? "connect timeout: " : "connect failed: ") +
            ep.host + ":" + std::to_string(ep.port);
    return false;
  }
  MetricsRequest req;
  req.request_id = 1;
  req.format = format;
  req.trace_filter = trace_filter;
  if (!write_frame(sock, MsgType::kMetricsRequest, req.encode(), dl)) {
    error = "metrics request send failed";
    return false;
  }
  Frame frame;
  switch (read_frame(sock, frame, dl)) {
    case ReadStatus::kOk:
      break;
    case ReadStatus::kTimeout:
      error = "metrics reply deadline exceeded";
      return false;
    case ReadStatus::kClosed:
      error = "connection closed before metrics reply";
      return false;
    case ReadStatus::kMalformed:
      error = "malformed metrics reply frame";
      return false;
  }
  if (frame.type == MsgType::kErr) {
    ErrReply err;
    error = ErrReply::decode(frame.payload, err)
                ? "party error: " + err.message
                : "party error (undecodable)";
    return false;
  }
  if (frame.type != MsgType::kMetricsReply) {
    error = "unexpected reply type to metrics request";
    return false;
  }
  MetricsReply r;
  if (!MetricsReply::decode(frame.payload, r) || r.request_id != req.request_id ||
      r.format != format) {
    error = "bad metrics reply";
    return false;
  }
  out = std::move(r);
  return true;
}

bool probe_health(const Endpoint& ep, std::chrono::milliseconds deadline,
                  HealthReply& out, std::string& error) {
  const auto& obs = obs::SuperviseObs::instance();
  obs.probes.add();
  const Deadline dl = deadline_in(deadline);
  // Fail-closed mirror of scrape_metrics: anything but a well-formed
  // kHealthReply echoing our request id is a failed probe, and a failed
  // probe is indistinguishable from a dead party on purpose — the
  // supervisor restarts on either.
  auto failed = [&](std::string msg) {
    obs.probe_failures.add();
    error = std::move(msg);
    return false;
  };
  bool connect_timed_out = false;
  Socket sock = tcp_connect(ep.host, ep.port, dl, &connect_timed_out);
  if (!sock.valid()) {
    return failed((connect_timed_out ? "connect timeout: "
                                     : "connect failed: ") +
                  ep.host + ":" + std::to_string(ep.port));
  }
  HealthRequest req;
  req.request_id = 1;
  if (!write_frame(sock, MsgType::kHealthRequest, req.encode(), dl)) {
    return failed("health request send failed");
  }
  Frame frame;
  switch (read_frame(sock, frame, dl)) {
    case ReadStatus::kOk:
      break;
    case ReadStatus::kTimeout:
      return failed("health reply deadline exceeded");
    case ReadStatus::kClosed:
      return failed("connection closed before health reply");
    case ReadStatus::kMalformed:
      return failed("malformed health reply frame");
  }
  if (frame.type == MsgType::kErr) {
    ErrReply err;
    return failed(ErrReply::decode(frame.payload, err)
                      ? "party error: " + err.message
                      : "party error (undecodable)");
  }
  if (frame.type != MsgType::kHealthReply) {
    return failed("unexpected reply type to health request");
  }
  HealthReply r;
  if (!HealthReply::decode(frame.payload, r) ||
      r.request_id != req.request_id) {
    return failed("bad health reply");
  }
  out = r;
  return true;
}

}  // namespace waves::net
