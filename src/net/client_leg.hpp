// ClientLeg — the one client connection machine: a persistent link from a
// referee-side process to one party, hosted on a net::ConnLoop. Both
// clients run on it: RefereeClient's request/reply fetches (net/client.cpp,
// on its own client-only loop) and MonitorHub's push subscriptions
// (monitor/hub.cpp, on the hub's watcher loop), so a process holds one
// loop thread whatever the number of parties, and no thread per query.
//
// The leg owns the decisions every client makes the same way:
//   - the nonblocking connect and the Hello -> HelloAck handshake, checked
//     for the role and (when configured) the instance count, with a new
//     party generation dropping the held mirrors (PartyMirror::resync);
//   - connect and I/O deadlines, as wheel timers that close the link;
//   - bounded doubling backoff (Backoff);
//   - one circuit breaker: `threshold` consecutive failures trip it open,
//     the cooldown is a wheel timer, and once it has passed exactly one
//     half-open probe is admitted; its outcome closes or re-opens it.
// What an owner does once the handshake lands — a request, a subscription
// — and how it schedules retries are its own; it derives and overrides
// the three connection hooks.
//
// Threading: the loop thread only. A leg outlives its loop's thread: the
// owner stops the loop before it destroys its legs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "net/conn_loop.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/alloc.hpp"
#include "obs/metrics.hpp"
#include "recovery/mirror.hpp"

namespace waves::net {

/// How one client exchange ended.
enum class FetchStatus {
  kOk,
  kTimeout,        // every attempt hit the deadline
  kConnectError,   // every attempt failed to connect
  kRemoteError,    // party answered with an Err message (terminal)
  kProtocolError,  // malformed/unexpected reply (terminal)
  // Party answered ErrCode::kShutdown: it is draining for a restart, not
  // broken. Fast-retryable (no backoff growth — the next attempt may land
  // on the recovered process) and counted separately in
  // waves_net_shutdown_retries_total, so rolling restarts don't read as
  // hard protocol errors.
  kShuttingDown,
  // The party's generation changed mid-fetch (it restarted between
  // attempts, or between handshake and reply). Its answer describes a
  // recovered replay state the round didn't ask about — stale, terminal,
  // counted in waves_recovery_generation_mismatch_total. The caller's
  // quorum rules apply: totals degrade with error_slack, union/distinct
  // fail closed.
  kStaleGeneration,
};

/// Bounded doubling backoff: next() returns the current delay and doubles
/// it, saturating at `max` (doubling, not a shift: attempt counts are
/// user-settable and a shift past 30 is UB).
class Backoff {
 public:
  Backoff(std::chrono::milliseconds base, std::chrono::milliseconds max)
      : base_(std::min(base, max)), max_(max), cur_(base_) {}
  std::chrono::milliseconds next() {
    const auto d = cur_;
    cur_ = std::min(cur_ * 2, max_);
    return d;
  }
  void reset() { cur_ = base_; }

 private:
  std::chrono::milliseconds base_;
  std::chrono::milliseconds max_;
  std::chrono::milliseconds cur_;
};

/// One owner's breaker counters (null = not counted).
struct BreakerCounters {
  const obs::Counter* trips = nullptr;
  const obs::Counter* fast_fails = nullptr;
  const obs::Counter* probes = nullptr;
  const obs::Counter* closes = nullptr;
};

struct LegConfig {
  Endpoint ep;
  std::uint64_t client_id = 0;
  // > 0: a HelloAck carrying another instance count is a protocol error.
  std::uint64_t instances = 0;
  std::chrono::milliseconds backoff_base{25};
  std::chrono::milliseconds backoff_max{400};
  int breaker_threshold = 5;
  std::chrono::milliseconds breaker_cooldown{1000};
  const obs::Counter* reconnects = nullptr;  // re-established connections
  BreakerCounters breaker;
};

class ClientLeg {
 public:
  ClientLeg(ConnLoop& loop, LegConfig cfg);
  ClientLeg(const ClientLeg&) = delete;
  ClientLeg& operator=(const ClientLeg&) = delete;

  /// Connect and handshake with a party that must serve `role`; on_ready
  /// fires once the HelloAck checks out, on_down if anything fails first
  /// or `dl` passes. No-op unless down.
  void open(PartyRole role, Deadline dl);
  /// The handshake landed and the connection is live.
  [[nodiscard]] bool ready() const noexcept { return state_ == State::kReady; }
  /// The live connection's HelloAck.
  [[nodiscard]] const HelloAck& ack() const noexcept { return ack_; }
  /// Queue one frame on the live connection and flush.
  void send(MsgType type, const Bytes& payload);
  /// If no frame arrives by `dl`, drop with kTimeout. Replaces any earlier
  /// deadline; the next frame cancels it.
  void expect_by(Deadline dl);
  /// Close the connection; on_down fires with `status` and `why`.
  void drop(FetchStatus status, std::string why);
  /// Frame bytes (header included) sent and received, over every
  /// connection this leg has held.
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return received_;
  }

  /// Breaker admission for one exchange (counts probes and fast fails).
  enum class Admit : std::uint8_t { kPass, kProbe, kFastFail };
  [[nodiscard]] Admit admit();
  /// Report one exchange's outcome to the breaker (counts trips and
  /// closes). A failure while open — a failed probe, or a straggler
  /// admitted before the trip — keeps it open and restarts the cooldown.
  enum class Verdict : std::uint8_t { kNone, kTripped, kClosed };
  Verdict note(bool ok);
  [[nodiscard]] bool breaker_open() const noexcept { return open_; }

  /// Run `fn` after `delay` on the loop (the owner's retry or reconnect
  /// timer; re-arming replaces it). `fn` is charged to this leg.
  void after(std::chrono::milliseconds delay, std::function<void()> fn);

  /// Allocations made on the loop thread while handling this leg's events
  /// and timers, the running handler's so far included (0 unless the
  /// binary installs tools/alloc_hook.hpp). Many legs share one loop
  /// thread, so each handler is bracketed and charged to the leg it ran
  /// for.
  [[nodiscard]] std::uint64_t allocs() const noexcept {
    return allocs_ + (depth_ > 0 ? obs::thread_alloc_count() - mark_ : 0);
  }

  /// Charges the allocations made while it lives to `leg` (null: nobody).
  /// Nested charges to the same leg count once.
  class Charge {
   public:
    explicit Charge(ClientLeg* leg) noexcept : leg_(leg) {
      if (leg_ != nullptr && leg_->depth_++ == 0) {
        leg_->mark_ = obs::thread_alloc_count();
      }
    }
    ~Charge() {
      if (leg_ != nullptr && --leg_->depth_ == 0) {
        leg_->allocs_ += obs::thread_alloc_count() - leg_->mark_;
      }
    }
    Charge(const Charge&) = delete;
    Charge& operator=(const Charge&) = delete;

   private:
    ClientLeg* leg_;
  };

  Backoff backoff;
  // The party's synopses as last shipped (count/distinct roles).
  recovery::CountMirror count;
  recovery::DistinctMirror distinct;

 protected:
  ~ClientLeg() = default;
  /// Handshake done; `resynced` when a new generation dropped the mirrors.
  virtual void on_ready(bool resynced) = 0;
  /// One frame on the ready connection.
  virtual void on_message(Frame f) = 0;
  /// The connection is gone (or never came up). Fires once per open().
  virtual void on_down(FetchStatus status, const std::string& why) = 0;
  /// The breaker's cooldown passed: a probe would now be admitted.
  virtual void on_cooled() {}

 private:
  friend class ConnLoop;  // delivers the connection's events
  enum class State : std::uint8_t { kDown, kConnecting, kHello, kReady };

  // ConnLoop's calls: the connect completed, one inbound frame, the
  // connection closed (connected or not).
  void on_connected(const ConnPtr& c);
  void on_frame(const ConnPtr& c, Frame f);
  void on_close(const ConnPtr& c);
  void clear_deadline();
  void arm_cooldown();
  void expire();
  [[nodiscard]] std::string where() const;

  ConnLoop& loop_;
  LegConfig cfg_;
  State state_ = State::kDown;
  PartyRole role_ = PartyRole::kCount;
  ConnPtr conn_;
  bool ever_connected_ = false;
  HelloAck ack_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  // Set by drop() (or a failed connect) before the close reports it.
  bool have_reason_ = false;
  FetchStatus reason_ = FetchStatus::kConnectError;
  std::string why_;
  Deadline deadline_at_ = Deadline::max();  // max: none
  EventLoop::TimerId deadline_ = 0;
  Deadline armed_for_{};  // when the armed deadline timer fires
  EventLoop::TimerId retry_ = 0;
  EventLoop::TimerId cooldown_ = 0;
  // Breaker state.
  int failures_ = 0;  // consecutive failures while closed
  bool open_ = false;
  bool cooled_ = false;   // open, and the cooldown has passed
  bool probing_ = false;  // the half-open probe is in flight
  // Allocation charge (see allocs()).
  std::uint64_t allocs_ = 0;
  std::uint64_t mark_ = 0;
  int depth_ = 0;
};

}  // namespace waves::net
