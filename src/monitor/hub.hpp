// MonitorHub — the referee side of continuous monitoring.
//
// The hub inverts the polling referee: instead of fetching every party each
// round, it opens one push leg per party (Hello -> kSubscribe with the
// party's eps-slack share, tag 3) and keeps a recovery::PartyMirror per
// party that kPushUpdate frames edit in place — the same mirror, apply
// rules and snapshot cache RefereeClient folds its pull replies through.
// Every applied push recomputes the merged estimate *through the same
// combine code the polling referee runs* (distributed::union_count /
// distinct_count over a mirror-backed SnapshotSource, with hashes
// re-derived from the deployment seed), so a hub estimate is byte-identical
// to what a `wavecli query` against the same party states returns — the
// property the loopback test diffs.
//
// Fault model mirrors the polling client's quorum rules: a dead leg marks
// its party missing, which fails the merged estimate closed for
// count/distinct and degrades it (error_slack = missing * n * max_value)
// for basic/sum totals. Each leg is a net::ClientLeg — the client
// connection machine RefereeClient runs too — so legs reconnect with its
// bounded exponential backoff and breaker, and a HelloAck carrying a new
// generation drops the leg's mirrors, after which the subscription rebases
// on the full initial push (epoch-aware resync — the "HUB RESYNC" event
// operators grep for).
//
// Fan-out: the hub runs its own listener speaking the same three frames to
// any number of `wavecli watch` subscribers. Watcher connections carry
// EstimateUpdate bodies in kPushUpdate frames — the merged estimate, not
// checkpoints — pushed whenever the hub's revision advances, so N watchers
// cost one recompute plus N small frames per change and *zero* traffic
// while the streams are quiescent.
//
// A hub is one thread: every watcher and every party leg is a connection
// on one net::ConnLoop (net/conn_loop.hpp, hub_loop.cpp), so pushes are
// applied, the estimate recomputed and watchers fanned out on that loop
// thread, whatever t is. Only the published estimate is shared with other
// threads (estimate(), wait_revision()).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "monitor/slack.hpp"
#include "net/client_leg.hpp"
#include "net/conn_loop.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace waves::monitor {

struct HubConfig {
  std::vector<net::Endpoint> parties;
  net::PartyRole role = net::PartyRole::kCount;
  std::uint64_t n = 0;  // monitored window
  // Global staleness budget, split across parties per `split` (slack.hpp).
  double eps = 0.05;
  SlackSplit split = SlackSplit::kUniform;
  std::uint64_t max_value = 1;  // sum-role slack + degraded widening
  // Party-side drift-check cadence carried in the subscription (tag 3).
  std::chrono::milliseconds check_every{25};
  std::chrono::milliseconds io_deadline{2000};
  // Leg reconnect backoff (bounded exponential, reset on a live push).
  std::chrono::milliseconds reconnect_base{50};
  std::chrono::milliseconds reconnect_max{1000};
  // Per-leg circuit breaker (always on): five consecutive failed
  // connect/subscribe cycles trip it, an open leg stops hammering the
  // endpoint and retries one probe cycle per cooldown (the quorum math
  // already owns the missing party), a successful probe closes it. Counted
  // in the waves_monitor_hub_breaker_* families.
  std::chrono::milliseconds breaker_cooldown{1000};
  std::uint64_t client_id = 0;
  // Watcher fan-out listener; port 0 binds ephemeral (watch_port()).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t max_watchers = 64;
  // Per-watcher write budget: a watcher whose queued EstimateUpdate push
  // stays unsent (its socket full) this long is evicted with a typed
  // kOverloaded close (counted in waves_monitor_hub_watcher_evicted_total).
  // The budget is a timer on the stalled write queue, so healthy watchers'
  // fan-out never waits on a slow one.
  std::chrono::milliseconds watcher_write_budget{250};
  // Count/distinct merge parameters — must match the deployment (stored
  // coins: the hub re-derives the shared hashes from the seed, exactly
  // like NetworkCountSource).
  core::RandWave::Params count_params{};
  core::DistinctWave::Params distinct_params{};
  int instances = 0;
  std::uint64_t shared_seed = 0;
  // Operator-visible lifecycle events ("HUB RESYNC party=2 generation=7").
  // Called from the hub's loop thread, one at a time; may be empty.
  std::function<void(const std::string&)> on_event;
};

/// Published merged estimate; `revision` bumps on every recompute, so a
/// consumer can wait for change instead of polling.
struct HubEstimate {
  std::uint64_t revision = 0;
  distributed::QueryStatus status = distributed::QueryStatus::kFailed;
  double value = 0.0;
  bool exact = false;
  std::uint64_t missing = 0;
  double error_slack = 0.0;
};

class MonitorHub {
 public:
  explicit MonitorHub(HubConfig cfg);
  ~MonitorHub();

  MonitorHub(const MonitorHub&) = delete;
  MonitorHub& operator=(const MonitorHub&) = delete;

  /// Bind the watcher listener and start the loop: the party legs connect
  /// and subscribe on it. False if the bind fails.
  [[nodiscard]] bool start();
  /// Stop all legs and watchers, close the listener. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t watch_port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] const HubConfig& config() const noexcept { return cfg_; }

  /// Current merged estimate (cheap copy under the estimate lock).
  [[nodiscard]] HubEstimate estimate() const;
  /// Block until the revision exceeds `after` or `timeout` passes; returns
  /// the estimate either way.
  [[nodiscard]] HubEstimate wait_revision(
      std::uint64_t after, std::chrono::milliseconds timeout) const;

 private:
  /// One party's push leg (hub.cpp): a connection on the hub's loop whose
  /// mirrors (net::ClientLeg::count / distinct) kPushUpdate frames edit
  /// in place — the same apply rules and snapshot cache the polling client
  /// runs — plus the local total basic/sum pushes carry. Loop thread only.
  struct Leg final : net::ClientLeg {
    Leg(MonitorHub& owner, std::size_t i, net::ConnLoop& loop);
    /// One connect/subscribe cycle, unless the breaker holds the leg open
    /// (a fast fail; the cooldown comes back here with a probe).
    void next_cycle();

    MonitorHub& hub;
    std::size_t index;
    bool live = false;  // contributes to the merged estimate
    double value = 0.0;  // basic/sum local total
    bool exact = false;
    bool subscribed = false;  // this connection's kSubscribe went out
    std::uint64_t last_seq = 0;

   private:
    void on_ready(bool resynced) override;
    void on_message(net::Frame f) override;
    void on_down(net::FetchStatus status, const std::string& why) override;
    void on_cooled() override { next_cycle(); }
  };

  /// Fold one decoded push into the leg's state. False (with a diagnostic)
  /// on any cursor/codec mismatch — the leg drops and resubscribes.
  [[nodiscard]] bool apply_push(Leg& leg, const net::PushUpdate& u,
                                std::string& err);
  /// Re-derive the merged estimate from the legs and publish it.
  void recompute();
  void emit(const std::string& line);
  /// Fan the newest estimate out to the watchers (hub_loop.cpp).
  void watch_notify();

  HubConfig cfg_;
  SlackBudget budget_;
  // Hash oracles: never-fed reference parties built from the deployment
  // seed (stored coins), exactly like NetworkCountSource's.
  std::unique_ptr<distributed::CountParty> count_ref_;
  std::unique_ptr<distributed::DistinctParty> distinct_ref_;

  // The published estimate: written on the loop thread, read from any.
  mutable std::mutex est_mu_;
  mutable std::condition_variable est_cv_;
  HubEstimate est_;

  net::Listener listener_;

  // The hub's loop — watchers and party legs — live between start() and
  // stop(). Opaque here (defined in hub_loop.cpp) with a custom deleter.
  struct WatchCore;
  struct WatchCoreDeleter {
    void operator()(WatchCore* core) const;
  };
  std::unique_ptr<WatchCore, WatchCoreDeleter> watch_core_;
  // One leg per party, on the loop; destroyed after the loop stops.
  std::vector<std::unique_ptr<Leg>> parties_;
};

}  // namespace waves::monitor
