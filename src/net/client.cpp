#include "net/client.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
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

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// What one reply must match: the request it answers and the handshake of
// the connection it came on.
struct ReplyExpect {
  PartyRole role = PartyRole::kCount;
  std::uint64_t n = 0;
  std::uint64_t request_id = 0;
  bool delta = false;          // the request offered a delta cursor
  std::uint64_t instances = 0;  // > 0: snapshot count must match
  const HelloAck* ack = nullptr;
};

// One reply frame -> the Fetch: decode, request-id check, stale
// generation, mirror apply and snapshot cache. `lap` closes a phase on the
// fetch's clock. False when the byte stream is no longer usable and the
// link must be dropped (a clean Err frame leaves it at a frame boundary).
template <class Lap>
bool read_reply(const Frame& frame, const ReplyExpect& want, ClientLeg& leg,
                DeltaReply& scratch, Fetch& f, Lap&& lap) {
  const auto& obs = obs::NetClientObs::instance();
  const auto fail = [&f](FetchStatus s, std::string msg) {
    f.status = s;
    f.error = std::move(msg);
    return false;
  };
  if (frame.type == MsgType::kErr) {
    // kShutdown is not a remote fault: the party is draining for a
    // restart, so classify it fast-retryable — but drop the link, since
    // the draining process won't serve it again.
    ErrReply err;
    f.decode_s += lap();
    if (!ErrReply::decode(frame.payload, err)) {
      f.status = FetchStatus::kRemoteError;
      f.error = "party error (undecodable)";
      return true;
    }
    if (err.code == ErrCode::kShutdown) {
      return fail(FetchStatus::kShuttingDown, "party draining: " + err.message);
    }
    f.status = FetchStatus::kRemoteError;
    f.error = "party error: " + err.message;
    return true;
  }
  const bool is_delta_reply =
      want.delta && frame.type == MsgType::kDeltaReply;
  if (frame.type != reply_type_for(want.role) && !is_delta_reply) {
    f.decode_s += lap();
    return fail(FetchStatus::kProtocolError, "unexpected reply type");
  }
  const std::uint64_t gen = want.ack->generation;
  // A reply stamped with a different epoch than the handshake means the
  // party restarted between the two frames; its snapshot is stale.
  const auto stale = [&](std::uint64_t reply_gen) {
    if (reply_gen == gen) return false;
    f.generation = reply_gen;
    return !fail(FetchStatus::kStaleGeneration,
                 "party generation moved mid-request (" +
                     std::to_string(gen) + " -> " + std::to_string(reply_gen) +
                     ")");
  };

  if (is_delta_reply) {
    // Per-link scratch reply: decode assigns the body in place, reusing
    // its capacity across rounds.
    DeltaReply& r = scratch;
    if (!DeltaReply::decode(frame.payload, r) ||
        r.request_id != want.request_id || r.role != want.role) {
      f.decode_s += lap();
      return fail(FetchStatus::kProtocolError, "bad delta reply");
    }
    f.decode_s += lap();
    if (stale(r.generation)) return false;
    f.delta_reply = true;
    // The mirror enforces the cursor rules and the instance count; a
    // rejected body is a protocol error and drops the connection.
    std::string err;
    const auto fold = [&](auto& mirror, auto& snapshots) {
      const recovery::MirrorApply what = mirror.apply(
          r.base_cursor, r.cursor, r.body, gen, want.instances, err);
      if (what == recovery::MirrorApply::kRejected) return false;
      if (what == recovery::MirrorApply::kFull) obs.delta_full.add();
      if (what == recovery::MirrorApply::kDelta) {
        obs.delta_replies.add();
        f.delta_applied = true;
      }
      // The Fetch owns its vector; the cache must survive for the next hit.
      snapshots = mirror.snapshots(want.n, want.ack->window, f.cache_hit);
      (f.cache_hit ? obs.snapshot_cache_hits : obs.snapshot_cache_misses)
          .add();
      return true;
    };
    const bool ok = want.role == PartyRole::kCount
                        ? fold(leg.count, f.count_snapshots)
                        : fold(leg.distinct, f.distinct_snapshots);
    f.apply_s += lap();
    if (!ok) return fail(FetchStatus::kProtocolError, std::move(err));
    f.status = FetchStatus::kOk;
    return true;
  }

  // Full replies: every role gets the same request-id and epoch checks,
  // and snapshot replies the instance count.
  const auto accept = [&](bool decoded, std::uint64_t id,
                          std::uint64_t reply_gen, const char* what) {
    f.decode_s += lap();
    if (!decoded || id != want.request_id) {
      return fail(FetchStatus::kProtocolError, std::string("bad ") + what);
    }
    if (stale(reply_gen)) return false;
    f.status = FetchStatus::kOk;
    return true;
  };
  const auto counted = [&](std::size_t snapshots, const char* what) {
    if (want.instances == 0 || snapshots == want.instances) return true;
    return fail(FetchStatus::kProtocolError,
                std::string(what) + " has " + std::to_string(snapshots) +
                    " snapshots, wanted " + std::to_string(want.instances));
  };
  switch (want.role) {
    case PartyRole::kCount: {
      CountReply r;
      const bool decoded = CountReply::decode(frame.payload, r);
      if (!accept(decoded, r.request_id, r.generation, "count reply") ||
          !counted(r.snapshots.size(), "count reply")) {
        return false;
      }
      f.count_snapshots = std::move(r.snapshots);
      return true;
    }
    case PartyRole::kDistinct: {
      DistinctReply r;
      const bool decoded = DistinctReply::decode(frame.payload, r);
      if (!accept(decoded, r.request_id, r.generation, "distinct reply") ||
          !counted(r.snapshots.size(), "distinct reply")) {
        return false;
      }
      f.distinct_snapshots = std::move(r.snapshots);
      return true;
    }
    case PartyRole::kBasic:
    case PartyRole::kSum: {
      TotalReply r;
      const bool decoded = TotalReply::decode(frame.payload, r);
      if (!accept(decoded, r.request_id, r.generation, "total reply")) {
        return false;
      }
      f.total = r;
      return true;
    }
    case PartyRole::kAgg: {
      AggReply r;
      const bool decoded = AggReply::decode(frame.payload, r);
      if (!accept(decoded, r.request_id, r.generation, "agg reply")) {
        return false;
      }
      f.agg = r;
      return true;
    }
  }
  return fail(FetchStatus::kProtocolError, "unexpected reply type");
}

// The completions one caller waits for: the loop thread counts them down.
struct Round {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t left = 0;

  void done() {
    // Notified under the lock: the waiter may destroy the round as soon
    // as it can re-take the lock.
    const std::lock_guard lk(mu);
    if (--left == 0) cv.notify_all();
  }
  void wait() {
    std::unique_lock lk(mu);
    cv.wait(lk, [this] { return left == 0; });
  }
};

// One logical fetch, owned by the calling thread until its round is done.
struct Job {
  std::size_t party = 0;
  PartyRole role = PartyRole::kCount;
  std::uint64_t n = 0;
  obs::Span span;
  Clock::time_point t0;
  Fetch* out = nullptr;
  Round* round = nullptr;
};

Job make_job(std::size_t party, PartyRole role, std::uint64_t n,
             obs::TraceContext ctx, Fetch& out, Round& round) {
  const auto t0 = Clock::now();
  // One span per fetch: child of the caller's context (the fan-out span)
  // when given one, else of the ambient trace, else a fresh root. The
  // party's server-side spans parent under this one via the request's
  // trace extension.
  Job job{party, role, n,
          ctx ? obs::Tracer::instance().start("net.fetch", ctx)
              : obs::Tracer::instance().start_auto("net.fetch"),
          t0, &out, &round};
  job.span.set("party", static_cast<double>(party));
  return job;
}

}  // namespace

// The client's loop: one ClientLeg per party, on a client-only ConnLoop.
struct RefereeClient::Core final : ConnLoop {
  struct Link;

  Core(const std::vector<Endpoint>& parties, const ClientConfig& config);
  ~Core() override { stop(); }

  /// Run `count` jobs on the loop thread; returns once all are done.
  void run(Job* jobs, std::size_t count, Round& round);

  // A client-only loop accepts nothing.
  void on_frame(const ConnPtr& /*c*/, Frame /*f*/) override {}
  void on_read(const ConnPtr& /*c*/) override {}

  const ClientConfig& cfg;
  std::vector<std::unique_ptr<Link>> links;
  std::uint64_t next_request_id = 1;
  bool running = false;
};

// One party's link and its fetch queue. Fetches to the party run one at a
// time, in arrival order, so the mirror and the byte stream never
// interleave two requests; fetches to different parties overlap on the
// one loop thread.
struct RefereeClient::Core::Link final : ClientLeg {
  enum class Phase : std::uint8_t { kIdle, kConnecting, kAwaiting };

  Link(Core& owner, LegConfig lc)
      : ClientLeg(owner, std::move(lc)), core(owner) {}

  Core& core;
  // The failure that tripped the breaker: an open breaker answers with it.
  FetchStatus last_status = FetchStatus::kConnectError;
  std::string last_error;
  // Round-to-round scratch: the encoded request and the decoded delta
  // reply keep their high-water capacities, so a steady-state keep-alive
  // fetch allocates almost nothing on the transport path (E18).
  Bytes request_scratch;
  DeltaReply delta_scratch;
  std::deque<Job*> waiting;  // admitted fetches behind the running one
  bool disconnect_when_idle = false;

  // The running fetch.
  Job* job = nullptr;
  Phase phase = Phase::kIdle;
  int attempts = 0;
  std::uint64_t attempt_serial = 0;
  bool budgeted = false;
  Deadline budget_dl{};
  Deadline attempt_dl{};
  // Generation seen on the first attempt that completed a handshake. A
  // later attempt answering under a different epoch means the party
  // restarted mid-fetch — its recovered state replayed the feed
  // independently, so its snapshot is treated as stale rather than merged.
  std::uint64_t first_generation = 0;
  bool saw_generation = false;
  std::uint64_t request_id = 0;
  bool wants_delta = false;
  std::uint64_t allocs_at_start = 0;
  std::uint64_t sent_at_start = 0;
  std::uint64_t received_at_start = 0;
  // Flight-recorder phase clock: each lap closes one phase. Laps fall at
  // handler boundaries, so time the loop spent on other parties lands in
  // this fetch's waiting phases, never in its decode or apply.
  Clock::time_point phase_t{};

  double lap() {
    const auto now = Clock::now();
    const double d = std::chrono::duration<double>(now - phase_t).count();
    phase_t = now;
    return d;
  }

  void submit(Job* j) {
    obs::NetClientObs::instance().requests.add();
    // Breaker admission: an open endpoint fails fast with the status kind
    // that tripped it (the caller's quorum math sees the same failure,
    // just immediately) instead of paying the connect/retry budget. After
    // the cooldown exactly one probe fetch is admitted through.
    if (core.cfg.breaker_enabled && admit() == Admit::kFastFail) {
      Fetch& f = *j->out;
      f.status = last_status;
      f.error = "circuit open: " + last_error;
      f.trace_id = j->span.trace_id();
      f.total_s = seconds_since(j->t0);
      obs::NetClientObs::instance().request_seconds.observe(f.total_s);
      j->span.set("ok", 0.0);
      j->span.set("breaker_open", 1.0);
      j->span.end();
      return j->round->done();
    }
    if (job != nullptr) return waiting.push_back(j);
    begin(j);
  }

  void begin(Job* j) {
    job = j;
    attempts = 0;
    saw_generation = false;
    allocs_at_start = allocs();
    sent_at_start = bytes_sent();
    received_at_start = bytes_received();
    // Total budget: when set, it is a hard wall-clock ceiling on the whole
    // fetch — backoff waits are clamped to what remains, no attempt starts
    // past it, and every attempt's I/O deadline is capped at it.
    budgeted = core.cfg.total_deadline.count() > 0;
    budget_dl = budgeted ? deadline_in(core.cfg.total_deadline)
                         : Deadline::max();
    backoff.reset();
    if (core.cfg.max_attempts < 1) return finish();
    run_attempt();
  }

  void run_attempt() {
    obs::NetClientObs::instance().attempts.add();
    ++attempts;
    ++attempt_serial;
    Fetch& f = *job->out;
    f.status = FetchStatus::kConnectError;
    f.error.clear();
    f.generation = 0;
    f.reused_connection = f.delta_reply = f.delta_applied = f.cache_hit =
        false;
    attempt_dl =
        std::min(deadline_in(core.cfg.request_deadline), budget_dl);
    phase_t = Clock::now();
    if (!ready()) {
      phase = Phase::kConnecting;
      return open(job->role, attempt_dl);
    }
    f.reused_connection = true;
    if (ack().role != job->role) {  // checked per fetch, like a handshake
      f.status = FetchStatus::kRemoteError;
      f.error = std::string("party serves role ") + role_name(ack().role) +
                ", wanted " + role_name(job->role);
      drop(f.status, f.error);
      return attempt_done();
    }
    send_request();
  }

  void on_ready(bool /*resynced*/) override {
    if (phase != Phase::kConnecting) return;
    Fetch& f = *job->out;
    // Only a fresh handshake reports the generation before the reply: a
    // reused socket that dies before answering says nothing about the
    // party's epoch, and must not trip the cross-attempt restart guard
    // when the reconnect finds a legitimately new generation.
    f.generation = ack().generation;
    f.connect_s += lap();
    send_request();
  }

  void send_request() {
    SnapshotRequest req;
    req.request_id = request_id = core.next_request_id++;
    req.role = job->role;
    req.n = job->n;
    wants_delta = core.cfg.delta_snapshots &&
                  (job->role == PartyRole::kCount ||
                   job->role == PartyRole::kDistinct);
    if (wants_delta) {
      req.delta_capable = true;
      req.since_cursor = job->role == PartyRole::kCount ? count.cursor()
                                                        : distinct.cursor();
    }
    // Trace context rides the request (extension tag 2): the party's
    // server-side spans join this fetch's trace.
    const obs::TraceContext ctx = job->span.context();
    req.trace_id = ctx.trace_id;
    req.parent_span_id = ctx.parent_span_id;
    request_scratch.clear();
    req.encode_into(request_scratch);
    phase = Phase::kAwaiting;
    expect_by(attempt_dl);
    const std::uint64_t serial = attempt_serial;
    send(MsgType::kSnapshotRequest, request_scratch);
    // A failed write closes the link inside send(), and on_down may have
    // moved this fetch on (or finished it) already.
    if (attempt_serial != serial || phase != Phase::kAwaiting) return;
    job->out->send_s += lap();
  }

  void on_message(Frame frame) override {
    if (phase != Phase::kAwaiting) {
      // Nothing was asked: the stream is out of step with the requests.
      return drop(FetchStatus::kProtocolError, "unsolicited frame");
    }
    phase = Phase::kIdle;
    Fetch& f = *job->out;
    f.wait_s += lap();
    f.generation = ack().generation;
    const ReplyExpect want{
        job->role, job->n, request_id, wants_delta,
        static_cast<std::uint64_t>(std::max(core.cfg.expected_instances, 0)),
        &ack()};
    if (!read_reply(frame, want, *this, delta_scratch, f,
                    [this] { return lap(); })) {
      drop(f.status, f.error);  // idle phase: on_down ignores it
    }
    attempt_done();
  }

  void on_down(FetchStatus status, const std::string& why) override {
    if (phase == Phase::kIdle) return;  // an idle link, or our own drop
    Fetch& f = *job->out;
    (phase == Phase::kConnecting ? f.connect_s : f.wait_s) += lap();
    phase = Phase::kIdle;
    f.status = status;
    f.error = why;
    attempt_done();
  }

  void attempt_done() {
    const auto& obs = obs::NetClientObs::instance();
    Fetch& f = *job->out;
    if (f.generation != 0 || f.ok()) {
      if (saw_generation && f.generation != first_generation) {
        f.status = FetchStatus::kStaleGeneration;
        f.error = "party restarted between attempts (generation " +
                  std::to_string(first_generation) + " -> " +
                  std::to_string(f.generation) + ")";
        return finish();
      }
      if (!saw_generation) {
        first_generation = f.generation;
        saw_generation = true;
      }
    }
    switch (f.status) {
      case FetchStatus::kTimeout:
        obs.timeouts.add();
        break;
      case FetchStatus::kConnectError:
        obs.connect_errors.add();
        break;
      case FetchStatus::kShuttingDown:
        break;
      default:  // kOk, kRemoteError, kProtocolError, kStaleGeneration
        return finish();
    }
    if (attempts >= core.cfg.max_attempts) return finish();
    obs.retries.add();
    if (budgeted && Clock::now() >= budget_dl) {
      obs.deadline_exhausted.add();
      return finish();  // keep the last attempt's failure status
    }
    if (f.status == FetchStatus::kShuttingDown) {
      // Fast retry: the party said it is draining, so the replacement
      // process may already be listening — don't burn backoff on it, and
      // don't let the drain inflate later backoffs.
      obs.shutdown_retries.add();
      return run_attempt();
    }
    auto wait = backoff.next();
    if (budgeted) {
      wait = std::min(wait,
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          budget_dl - Clock::now()));
    }
    if (wait.count() <= 0) return run_attempt();
    after(wait, [this, t0 = Clock::now()] {
      job->out->backoff_s += seconds_since(t0);
      run_attempt();
    });
  }

  void finish() {
    const auto& obs = obs::NetClientObs::instance();
    Job* const j = job;
    Fetch& f = *j->out;
    phase = Phase::kIdle;
    if (f.status == FetchStatus::kProtocolError) obs.protocol_errors.add();
    if (f.status == FetchStatus::kStaleGeneration) {
      obs::RecoveryObs::instance().generation_mismatches.add();
    }
    if (core.cfg.breaker_enabled) {
      if (!f.ok()) {
        last_status = f.status;
        last_error = f.error;
      }
      (void)note(f.ok());
    }
    f.attempts = attempts;
    f.bytes_sent = bytes_sent() - sent_at_start;
    f.bytes_received = bytes_received() - received_at_start;
    f.trace_id = j->span.trace_id();
    f.allocs = allocs() - allocs_at_start;
    f.total_s = seconds_since(j->t0);
    obs.bytes_sent.add(f.bytes_sent);
    obs.bytes_received.add(f.bytes_received);
    obs.request_seconds.observe(f.total_s);
    j->span.set("ok", f.ok() ? 1.0 : 0.0);
    j->span.set("attempts", static_cast<double>(attempts));
    j->span.set("bytes_received", static_cast<double>(f.bytes_received));

    obs::FlightRecord rec;
    rec.trace_id = f.trace_id;
    rec.party = static_cast<std::uint32_t>(j->party);
    rec.role = role_name(j->role);
    rec.ok = f.ok();
    rec.attempts = static_cast<std::uint32_t>(attempts);
    rec.bytes = f.bytes_received;
    rec.allocs = f.allocs;
    rec.reused_connection = f.reused_connection;
    rec.delta_reply = f.delta_reply;
    rec.delta_applied = f.delta_applied;
    rec.cache_hit = f.cache_hit;
    rec.connect_s = f.connect_s;
    rec.send_s = f.send_s;
    rec.wait_s = f.wait_s;
    rec.decode_s = f.decode_s;
    rec.apply_s = f.apply_s;
    rec.backoff_s = f.backoff_s;
    rec.total_s = f.total_s;
    obs::FlightRecorder::instance().record(std::move(rec));
    j->span.end();

    job = nullptr;
    if (disconnect_when_idle) {
      disconnect_when_idle = false;
      drop(FetchStatus::kConnectError, "disconnected");
    }
    Job* const next = waiting.empty() ? nullptr : waiting.front();
    if (next != nullptr) waiting.pop_front();
    j->round->done();  // the caller may free `j` from here on
    if (next != nullptr) begin(next);
  }
};

RefereeClient::Core::Core(const std::vector<Endpoint>& parties,
                          const ClientConfig& config)
    : ConnLoop(ConnPolicy{.read_deadline = config.request_deadline,
                          .write_budget = config.request_deadline}),
      cfg(config) {
  const auto& obs = obs::NetClientObs::instance();
  for (const Endpoint& ep : parties) {
    LegConfig lc;
    lc.ep = ep;
    lc.client_id = cfg.client_id;
    lc.instances =
        static_cast<std::uint64_t>(std::max(cfg.expected_instances, 0));
    lc.backoff_base = cfg.backoff_base;
    lc.backoff_max = cfg.backoff_max;
    lc.breaker_threshold = cfg.breaker_threshold;
    lc.breaker_cooldown = cfg.breaker_cooldown;
    lc.reconnects = &obs.reconnects;
    lc.breaker = {.trips = &obs.breaker_trips,
                  .fast_fails = &obs.breaker_fast_fails,
                  .probes = &obs.breaker_probes,
                  .closes = &obs.breaker_closes};
    links.push_back(std::make_unique<Link>(*this, std::move(lc)));
  }
  running = start();
}

void RefereeClient::Core::run(Job* jobs, std::size_t count, Round& round) {
  round.left = count;
  if (count == 0) return;
  if (!running) {
    for (std::size_t i = 0; i < count; ++i) {
      jobs[i].out->error = "client loop not running";
    }
    return;
  }
  loop().post([this, jobs, count] {
    for (std::size_t i = 0; i < count; ++i) {
      Link& link = *links[jobs[i].party];
      const ClientLeg::Charge charge(&link);
      link.submit(&jobs[i]);
    }
  });
  round.wait();
}

void RefereeClient::CoreDeleter::operator()(Core* core) const { delete core; }

RefereeClient::RefereeClient(std::vector<Endpoint> parties, ClientConfig cfg)
    : parties_(std::move(parties)),
      cfg_(cfg),
      core_(new Core(parties_, cfg_)) {}

RefereeClient::~RefereeClient() = default;

void RefereeClient::disconnect_all() const {
  if (!core_->running) return;
  Round round;
  round.left = 1;
  core_->loop().post([core = core_.get(), &round] {
    for (const auto& link : core->links) {
      if (link->job != nullptr) {
        link->disconnect_when_idle = true;
      } else {
        link->drop(FetchStatus::kConnectError, "disconnected");
      }
    }
    round.done();
  });
  round.wait();
}

Fetch RefereeClient::fetch(std::size_t party, PartyRole role, std::uint64_t n,
                           obs::TraceContext ctx) const {
  Fetch out;
  Round round;
  Job job = make_job(party, role, n, ctx, out, round);
  core_->run(&job, 1, round);
  return out;
}

std::vector<Fetch> RefereeClient::fetch_all(PartyRole role,
                                            std::uint64_t n) const {
  // Joins the calling thread's ambient trace (the referee round installs
  // one via obs::TraceScope) or roots a fresh one. The loop thread has no
  // ambient context of its own, so the fan-out span's context rides into
  // every per-party fetch explicitly.
  auto span = obs::Tracer::instance().start_auto("net.fanout");
  const obs::TraceContext fan_ctx = span.context();
  if (fan_ctx) {
    last_trace_id_.store(fan_ctx.trace_id, std::memory_order_relaxed);
  }
  std::vector<Fetch> results(parties_.size());
  Round round;
  std::vector<Job> jobs;
  jobs.reserve(parties_.size());
  for (std::size_t i = 0; i < parties_.size(); ++i) {
    jobs.push_back(make_job(i, role, n, fan_ctx, results[i], round));
  }
  core_->run(jobs.data(), jobs.size(), round);
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
