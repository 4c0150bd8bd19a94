// The party side of the TCP transport: PartyServer wraps one synopsis
// backend (a distributed::CountParty / DistinctParty, or the Scenario-1
// totals states below) behind a listening socket and answers framed
// Hello / SnapshotRequest messages. The `waved` daemon is a thin CLI shell
// around this class; tests and benches embed it in-process.
//
// Concurrency: one EventLoop thread multiplexes every connection, and a
// small fixed worker pool runs the synopsis work (process_frame below);
// push-drift checks are timer-wheel entries, so thousands of idle
// subscriptions cost no threads (net/conn_loop.hpp, server_loop.cpp).
// Backends are internally locked (the parties) or locked here (the totals
// states), so an ingestion thread may keep feeding while the referee
// queries — the model's "parties observe, referee asks" split.
//
// Delta shipping (count/distinct): pull replies and push subscriptions
// encode the party's state through one overloaded pair per role (encode
// from a held baseline, or encode full and refresh the baseline; see
// server.cpp). Pulls run it against the role's PullChain — serial cursor,
// "unchanged" fast path, retry cache — and pushes against the
// subscription's own baseline.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "agg/agg_wave.hpp"
#include "core/det_wave.hpp"
#include "core/sum_wave.hpp"
#include "distributed/party.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/delta_live.hpp"

namespace waves::net {

/// Scenario-1 Basic Counting backend: a DetWave plus the lock the bare core
/// class doesn't carry (parties bring their own; the totals wrappers need
/// one here to let ingestion overlap queries).
class BasicPartyState {
 public:
  BasicPartyState(std::uint64_t inv_eps, std::uint64_t window)
      : wave_(inv_eps, window), inv_eps_(inv_eps), window_(window) {}

  void observe(bool bit);
  void observe_batch(const util::PackedBitStream& bits);
  [[nodiscard]] core::Estimate query(std::uint64_t n) const;
  [[nodiscard]] std::uint64_t items() const;
  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  /// Monotone mutation counter (the wave's) — the push leg's cheap "did
  /// anything change since the last drift check" gate.
  [[nodiscard]] std::uint64_t change_cursor() const;

  [[nodiscard]] recovery::BasicPartyCheckpoint checkpoint() const;
  /// Replace the wave with the checkpointed state (parameters must match
  /// this state's construction).
  void restore(const recovery::BasicPartyCheckpoint& ck);

 private:
  mutable std::mutex mu_;
  core::DetWave wave_;
  std::uint64_t inv_eps_;
  std::uint64_t window_;
  std::uint64_t items_ = 0;
};

/// Scenario-1 Sum backend (SumWave over integer values in [0..max_value]).
class SumPartyState {
 public:
  SumPartyState(std::uint64_t inv_eps, std::uint64_t window,
                std::uint64_t max_value)
      : wave_(inv_eps, window, max_value),
        inv_eps_(inv_eps),
        window_(window),
        max_value_(max_value) {}

  void observe(std::uint64_t value);
  void observe_batch(std::span<const std::uint64_t> values);
  [[nodiscard]] core::Estimate query(std::uint64_t n) const;
  [[nodiscard]] std::uint64_t items() const;
  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  /// See BasicPartyState::change_cursor.
  [[nodiscard]] std::uint64_t change_cursor() const;

  [[nodiscard]] recovery::SumPartyCheckpoint checkpoint() const;
  /// Same contract as BasicPartyState::restore.
  void restore(const recovery::SumPartyCheckpoint& ck);

 private:
  mutable std::mutex mu_;
  core::SumWave wave_;
  std::uint64_t inv_eps_;
  std::uint64_t window_;
  std::uint64_t max_value_;
  std::uint64_t items_ = 0;
};

/// Exact-aggregate backend (agg::AggWave over signed int64 values). Same
/// locking contract as the totals states; batch ingest rides the SIMD bulk
/// path.
class AggPartyState {
 public:
  AggPartyState(agg::AggOp op, std::uint64_t window) : wave_(op, window) {}

  void observe(std::int64_t value);
  void observe_batch(std::span<const std::int64_t> values);
  [[nodiscard]] std::int64_t value() const;
  [[nodiscard]] std::uint64_t items() const;
  [[nodiscard]] std::uint64_t window() const noexcept {
    return wave_.window();
  }
  [[nodiscard]] agg::AggOp op() const noexcept { return wave_.op(); }

  [[nodiscard]] recovery::AggPartyCheckpoint checkpoint() const;
  /// Same contract as BasicPartyState::restore.
  void restore(const recovery::AggPartyCheckpoint& ck);

 private:
  mutable std::mutex mu_;
  agg::AggWave wave_;
  std::uint64_t items_ = 0;
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0: ephemeral; read back via port()
  std::uint64_t party_id = 0;
  // The daemon's epoch, advertised in HelloAck and stamped on every reply;
  // a StateStore-backed daemon bumps and persists it at startup.
  std::uint64_t generation = 0;
  // Per-connection I/O deadline: a partial frame must complete, and a
  // queued reply must drain, within this long or the connection is closed.
  std::chrono::milliseconds io_deadline{5000};
  // Answer delta-capable SnapshotRequests (count/distinct roles) with
  // kDeltaReply bodies diffed against the last checkpoint this server
  // handed out. Off, every request gets the v2 full reply — the knob the
  // loopback test and `waved --delta off` use to exercise degradation.
  bool enable_delta = true;
  // Accept kSubscribe and run eps-slack push legs (src/monitor/). Off,
  // subscriptions are rejected with kBadRequest — `waved --push off`.
  bool enable_push = true;
  // Default drift-check cadence for subscriptions that don't carry their
  // own (tag-3 check_every_ms of 0).
  std::chrono::milliseconds push_check{25};
  // Hard cap on live connections (the daemon's fd budget). Over the cap, a
  // fresh accept is answered with one ErrReply{kOverloaded} frame and
  // closed — typed, counted in waves_net_server_overload_rejected_total —
  // so a watcher stampede or a socket leak degrades loudly instead of
  // exhausting the daemon.
  std::size_t max_connections = 64;
};

/// One party daemon: serves exactly one role, determined by which backend
/// the constructor receives (backends are borrowed, not owned — the caller
/// keeps them alive and may keep feeding them).
class PartyServer {
 public:
  PartyServer(ServerConfig cfg, distributed::CountParty* party);
  PartyServer(ServerConfig cfg, distributed::DistinctParty* party);
  PartyServer(ServerConfig cfg, BasicPartyState* party);
  PartyServer(ServerConfig cfg, SumPartyState* party);
  PartyServer(ServerConfig cfg, AggPartyState* party);
  ~PartyServer();

  PartyServer(const PartyServer&) = delete;
  PartyServer& operator=(const PartyServer&) = delete;

  /// Bind + listen + start the event loop. False if the bind fails.
  [[nodiscard]] bool start();
  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] PartyRole role() const noexcept { return role_; }
  /// Stop accepting, close every connection, join the loop and its
  /// workers, close the listener. Idempotent.
  void stop();
  /// Graceful shutdown: stop accepting new connections immediately, then
  /// give in-flight exchanges up to `grace` to flush their reply before
  /// stopping the loop. Used by waved's SIGTERM drain.
  void drain(std::chrono::milliseconds grace);
  /// Record that the backend's state was just durably checkpointed; health
  /// replies report milliseconds since the most recent call (~0 = never).
  /// Called from waved's save path — safe from any thread.
  void note_checkpoint();

 private:
  // Pull-side delta state for one role: the baseline most recently
  // shipped to *any* delta-capable client (count: the live encoder's shape
  // summary, recovery/delta_live.hpp; distinct: the full checkpoint),
  // cursored by an always-bumping serial. The serial (not the party's item
  // count) is the wire cursor, so two clients interleaving requests can
  // never hold different baselines under the same cursor value — a
  // since_cursor that isn't the current serial simply falls back to a full
  // reply. Plus a retry cache: a client that timed out and retries the
  // same since_cursor would otherwise miss the (already advanced) baseline
  // and force a full resync; as long as nothing was ingested in between,
  // re-shipping the previous body verbatim is exactly equivalent.
  template <class Baseline>
  struct PullChain {
    std::mutex mu;
    std::uint64_t serial = 0;  // 0 = no baseline handed out yet
    Baseline baseline;
    bool cache_valid = false;
    std::uint64_t cached_since = 0;        // request's since_cursor
    std::uint64_t cached_items = 0;        // items_observed at encode time
    std::uint64_t cached_base_cursor = 0;  // reply fields, verbatim
    std::uint64_t cached_cursor = 0;
    Bytes cached_body;
  };

  // One connection's active push subscription (at most one; a replacing
  // kSubscribe restarts the chain). Lives in the connection's state and is
  // touched by one worker job at a time — no cross-connection sharing, so
  // the per-subscription delta baselines need no locks beyond the party's
  // own.
  struct Subscription {
    bool active = false;
    std::uint64_t request_id = 0;
    std::uint64_t n = 0;
    double slack = 1.0;  // absolute threshold, role units (see protocol.hpp)
    std::chrono::milliseconds check{25};
    std::uint64_t seq = 0;     // last pushed seq (0 = none yet)
    std::uint64_t cursor = 0;  // push-chain cursor (0 = no baseline)
    // Drift trackers: what the subscriber last saw.
    std::uint64_t pushed_items = 0;   // count/distinct
    double pushed_value = 0.0;        // basic/sum
    std::uint64_t last_change = 0;    // change_cursor at last check
    // Per-subscription delta baselines, same kinds as PullChain's.
    recovery::CountDeltaBaseline count_base;
    distributed::DistinctPartyCheckpoint distinct_base;
  };

  // Frames the loop must write for one processed request, in order; the
  // loop frames them onto the connection's nonblocking write queue.
  struct OutFrame {
    MsgType type;
    Bytes payload;
  };
  using Outbox = std::vector<OutFrame>;
  enum class ConnAction : std::uint8_t {
    kKeep,   // connection stays in request/reply (or push) mode
    kClose,  // protocol is lost or the exchange is terminal: flush + close
  };

  [[nodiscard]] HelloAck hello_ack() const;
  [[nodiscard]] HealthReply health_reply(std::uint64_t request_id) const;
  /// The transport-independent frame state machine: decode one frame,
  /// append the reply frames (if any) to `out`, update the connection's
  /// subscription. Runs the post-frame drift check. Called from pool
  /// workers — everything it touches beyond `sub`/`out` is internally
  /// locked.
  [[nodiscard]] ConnAction process_frame(const Frame& frame, Subscription& sub,
                                         Outbox& out);
  /// Drift check + conditional push; called on every drift-timer tick of a
  /// subscribed connection.
  void drift_tick(Subscription& sub, Outbox& out);
  /// Builds the role-appropriate reply (or Err) for a decoded request.
  void answer(const SnapshotRequest& req, Outbox& out);
  /// Opens `sub` for a decoded kSubscribe and builds the initial
  /// full-state push (the ack).
  void subscribe(const SubscribeRequest& req, Subscription& sub, Outbox& out);
  /// Unconditional push of the current state (initial ack, drift firing).
  void push_update(Subscription& sub, Outbox& out);
  /// Fills a delta-capable request's reply from the role's pull chain:
  /// "unchanged" echo, retry-cache replay, diff, or full fallback.
  template <class Party, class Baseline>
  void delta_answer(const Party& party, PullChain<Baseline>& st,
                    const SnapshotRequest& req, DeltaReply& r) const;

  ServerConfig cfg_;
  PartyRole role_;
  distributed::CountParty* count_ = nullptr;
  distributed::DistinctParty* distinct_ = nullptr;
  BasicPartyState* basic_ = nullptr;
  SumPartyState* sum_ = nullptr;
  AggPartyState* agg_ = nullptr;

  mutable PullChain<recovery::CountDeltaBaseline> count_pull_;
  mutable PullChain<distributed::DistinctPartyCheckpoint> distinct_pull_;

  Listener listener_;

  // Health-probe sources: process-relative steady timestamps in ns. 0 in
  // last_checkpoint_ns_ means "never checkpointed this generation".
  Clock::time_point started_ = Clock::now();
  std::atomic<std::uint64_t> last_checkpoint_ns_{0};

  // Event-loop core (server_loop.cpp); null until start() and after
  // stop(). The out-of-line deleter keeps LoopCore fully private to that
  // TU.
  struct LoopCore;
  struct LoopCoreDeleter {
    void operator()(LoopCore* core) const;
  };
  std::unique_ptr<LoopCore, LoopCoreDeleter> loop_;
};

}  // namespace waves::net
