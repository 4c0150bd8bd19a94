// The referee side of the TCP transport.
//
// RefereeClient talks to a fixed set of party endpoints over persistent
// keep-alive connections: the first fetch to a party connects and
// handshakes (Hello -> HelloAck); later fetches reuse the socket and skip
// the handshake. Any socket or protocol failure drops the link — the next
// attempt reconnects (counted in waves_net_reconnects_total) — and a
// per-request deadline plus bounded exponential backoff still bound every
// round. Retries happen only on timeouts and connect failures; a party
// that *answers* with an error or garbage is terminal for the round
// (retrying can't fix a wrong-role or protocol bug). Every party link is a
// net::ClientLeg on one client-only ConnLoop the client starts in its
// constructor: a round posts one request per party to that loop thread
// and waits, so it costs the slowest party's latency, not the sum, and
// starts no thread.
//
// Fast query path (count/distinct roles, ClientConfig::delta_snapshots):
// the client keeps a recovery::PartyMirror of each party's last checkpoint
// and asks for protocol-v3 delta replies against it, so steady-state
// rounds transfer the *edit* since the previous round instead of the full
// synopsis. The mirror (recovery/mirror.hpp, shared with MonitorHub's push
// legs) owns the apply rules and the decoded-snapshot cache keyed
// (cursor, n); an "unchanged" reply is a cache hit that decodes nothing.
// A generation bump at handshake (the party restarted) silently drops the
// mirror and bootstraps with a full fetch; a server with delta disabled
// just answers v2 full replies and everything still works.
//
// NetworkSource (NetworkCountSource / NetworkDistinctSource) adapts the
// client to the referee's SnapshotSource interface: the snapshot bytes
// come off the network while the shared hashes are re-derived locally from
// the deployment seed (stored coins — the parties and the referee flipped
// them together at setup, Sec. 2). total_query() covers Scenario 1, where
// partial quorum degrades instead of failing: responders' totals still sum,
// and the missing parties' unknown contribution is bounded by
// missing * n * max_value and reported as error_slack.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "net/client_leg.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"

namespace waves::net {

/// Parses "host:port" (IPv4 literal). False on malformed input.
[[nodiscard]] bool parse_endpoint(const std::string& s, Endpoint& out);

struct ClientConfig {
  std::chrono::milliseconds request_deadline{1000};  // per attempt
  int max_attempts = 3;
  std::chrono::milliseconds backoff_base{25};
  std::chrono::milliseconds backoff_max{400};
  std::uint64_t client_id = 0;
  // When > 0, a party whose HelloAck or snapshot reply carries a different
  // instance count is a protocol error: combine_median indexes every
  // party's vector at [0, instances), so a short reply that decoded fine
  // (e.g. a daemon launched with a different --instances) must fail typed
  // here, not out-of-bounds there. Totals (Scenario 1) leave this at 0.
  int expected_instances = 0;
  // Request v3 delta snapshots for count/distinct fetches and maintain the
  // per-party mirror they apply to. Off, every fetch is a v2 full snapshot
  // (the --delta off / differential-test configuration).
  bool delta_snapshots = true;
  // Hard wall-clock ceiling on one logical fetch: attempts plus backoff
  // sleeps never exceed it. Backoffs are clamped to the remaining budget
  // and no new attempt starts once it is spent (the fetch keeps its last
  // failure status, counted in waves_net_deadline_exhausted_total). Zero
  // disables the ceiling — the legacy max_attempts * request_deadline +
  // backoff bound applies.
  std::chrono::milliseconds total_deadline{0};
  // Per-endpoint circuit breaker: `breaker_threshold` consecutive failed
  // fetches trip it open, an open endpoint fails fast (no connect, no
  // retries — the fetch returns the status kind that tripped it, so the
  // caller's quorum/error-slack math is unchanged, just immediate), and
  // after `breaker_cooldown` one half-open probe fetch is admitted: success
  // closes the breaker, failure re-opens it for another cooldown. States
  // and transitions are counted in the waves_net_breaker_* families.
  bool breaker_enabled = true;
  int breaker_threshold = 5;
  std::chrono::milliseconds breaker_cooldown{1000};
};

/// Outcome of one party fetch (after retries).
struct Fetch {
  FetchStatus status = FetchStatus::kConnectError;
  int attempts = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  // Party epoch from the last HelloAck seen (0 if none arrived).
  std::uint64_t generation = 0;
  // How the fetch was served — the knobs E18 and the delta tests assert on.
  bool reused_connection = false;  // keep-alive socket, no new handshake
  bool delta_reply = false;        // server answered under the v3 framing
  bool delta_applied = false;      // body was a diff applied to the mirror
  bool cache_hit = false;          // snapshots came from the decoded cache
  std::string error;

  // Flight-recorder facts: the trace this fetch joined, allocations the
  // loop thread made for it (its party's handlers, bracketed one by one;
  // 0 unless the binary installs tools/alloc_hook.hpp), and disjoint
  // per-phase wall-clock durations summed across attempts. total_s is
  // measured independently around the whole fetch; the phase sum tracks it
  // to within the untimed bookkeeping between phases.
  std::uint64_t trace_id = 0;
  std::uint64_t allocs = 0;
  double connect_s = 0.0;  // TCP connect + Hello/HelloAck handshake
  double send_s = 0.0;     // request encode + write
  double wait_s = 0.0;     // awaiting the reply frame (server + wire + loop)
  double decode_s = 0.0;   // reply payload -> structs
  double apply_s = 0.0;    // delta apply + snapshot materialization
  double backoff_s = 0.0;  // retry backoff waits
  double total_s = 0.0;

  // Exactly one of these is meaningful, per the request type.
  std::vector<core::RandWaveSnapshot> count_snapshots;
  std::vector<core::DistinctSnapshot> distinct_snapshots;
  TotalReply total;
  AggReply agg;

  [[nodiscard]] bool ok() const noexcept { return status == FetchStatus::kOk; }
};

class RefereeClient {
 public:
  /// Starts the client's loop thread, which holds this client's address.
  explicit RefereeClient(std::vector<Endpoint> parties,
                         ClientConfig cfg = {});
  ~RefereeClient();  // joins the loop thread
  RefereeClient(const RefereeClient&) = delete;
  RefereeClient& operator=(const RefereeClient&) = delete;

  [[nodiscard]] std::size_t party_count() const noexcept {
    return parties_.size();
  }
  [[nodiscard]] const Endpoint& endpoint(std::size_t i) const {
    return parties_[i];
  }
  [[nodiscard]] const ClientConfig& config() const noexcept { return cfg_; }

  /// Fetch from one party, synchronously, with retries. `ctx` (optional)
  /// joins the fetch — and, via the request's trace extension, the party's
  /// server-side spans — to an existing trace. Fetches to one party are
  /// served one at a time, in arrival order.
  [[nodiscard]] Fetch fetch(std::size_t party, PartyRole role, std::uint64_t n,
                            obs::TraceContext ctx = {}) const;

  /// Fan out one request per party concurrently on the client's loop
  /// thread; returns per-party results in endpoint order. Wall time is
  /// the slowest party's, bounded by max_attempts * request_deadline +
  /// backoff. The fan-out span joins the
  /// calling thread's ambient trace context (obs::TraceScope) when one is
  /// installed, else roots a fresh trace; read it back via last_trace_id().
  [[nodiscard]] std::vector<Fetch> fetch_all(PartyRole role,
                                             std::uint64_t n) const;

  /// Trace id of the most recent fetch_all round (0 before the first, or
  /// with WAVES_OBS=OFF). What `wavecli query --trace` scrapes parties for.
  [[nodiscard]] std::uint64_t last_trace_id() const noexcept {
    return last_trace_id_.load(std::memory_order_relaxed);
  }

  /// Drop every keep-alive socket (the next fetch per party reconnects).
  /// Mirrors and caches survive — they are invalidated by generation, not
  /// by connection lifetime.
  void disconnect_all() const;

 private:
  // The loop thread and the party links on it (client.cpp). Opaque here,
  // with a custom deleter, so this header needs no loop internals.
  struct Core;
  struct CoreDeleter {
    void operator()(Core* core) const;
  };

  std::vector<Endpoint> parties_;
  ClientConfig cfg_;
  std::unique_ptr<Core, CoreDeleter> core_;
  mutable std::atomic<std::uint64_t> last_trace_id_{0};
};

/// Snapshot source over TCP: Union Counting (NetworkCountSource) or
/// distinct values (NetworkDistinctSource). The hashes come from a local
/// never-fed reference party built from the same (params, instances, seed)
/// as the deployment — stored shared coins, not communication.
template <class Party>
class NetworkSource final
    : public distributed::SnapshotSource<typename Party::Snapshot> {
 public:
  using Snapshot = typename Party::Snapshot;
  NetworkSource(std::vector<Endpoint> parties,
                const typename Party::Params& params, int instances,
                std::uint64_t shared_seed, ClientConfig cfg = {});

  [[nodiscard]] std::size_t party_count() const override;
  [[nodiscard]] int instances() const override;
  [[nodiscard]] const gf2::ExpHash& hash(int instance) const override;
  [[nodiscard]] const char* transport() const override { return "tcp"; }
  std::vector<std::vector<Snapshot>> collect(
      std::uint64_t n, std::vector<std::size_t>& missing,
      distributed::WireStats* stats,
      distributed::CollectStats& info) override;

  [[nodiscard]] RefereeClient& client() noexcept { return client_; }

 private:
  RefereeClient client_;
  Party reference_;  // hash oracle; never observes items
};

extern template class NetworkSource<distributed::CountParty>;
extern template class NetworkSource<distributed::DistinctParty>;
using NetworkCountSource = NetworkSource<distributed::CountParty>;
using NetworkDistinctSource = NetworkSource<distributed::DistinctParty>;

/// Scenario-1 total over the network: sums TotalReply values across
/// parties. Full quorum -> kOk. Partial quorum -> kDegraded with
/// error_slack = missing * n * max_value (pass max_value 1 for Basic
/// Counting) — the most the unreachable parties could add. No responders
/// -> kFailed.
[[nodiscard]] distributed::QueryResult total_query(
    const RefereeClient& client, PartyRole role, std::uint64_t n,
    std::uint64_t max_value = 1);

/// Distributed exact aggregate (agg role). Keeps the int64 exact instead of
/// round-tripping through QueryResult's double estimate: sums past 2^53
/// must not round on the referee hop when every party answered exactly.
struct AggQueryResult {
  distributed::QueryStatus status = distributed::QueryStatus::kFailed;
  agg::AggOp op = agg::AggOp::kSum;
  // SUM: responders' values summed (mod 2^64, like a single AggWave fed the
  // concatenation). MIN/MAX: min/max over responders — with parties missing
  // this is only an upper (resp. lower) bound on the true answer.
  std::int64_t value = 0;
  std::vector<std::size_t> missing;  // endpoint indices with no answer
  // SUM only: |true - value| <= missing * n * max_abs_value, the analogue
  // of total_query's slack. 0 for MIN/MAX (the bound is one-sided, not an
  // interval — see `value`).
  double error_slack = 0.0;
  std::string error;

  [[nodiscard]] bool ok() const noexcept {
    return status == distributed::QueryStatus::kOk;
  }
};

/// Same quorum rule as total_query: full quorum -> kOk, partial -> kDegraded
/// (responders still combine), none -> kFailed. A party echoing a different
/// op than requested is a protocol error and counts as missing.
[[nodiscard]] AggQueryResult agg_query(const RefereeClient& client,
                                       agg::AggOp op, std::uint64_t n,
                                       std::uint64_t max_abs_value = 1);

/// One-shot remote scrape of a daemon's obs registry (kMetricsRequest).
/// Standalone — no Hello handshake, no RefereeClient: connects, asks for
/// `format` (trace_filter applies to MetricsFormat::kTrace only), validates
/// the reply (type, echoed request id and format), and fails closed on
/// anything else: error frames, truncated/hostile payloads, timeouts.
/// False on failure with a diagnostic in `error`; `out` untouched.
[[nodiscard]] bool scrape_metrics(const Endpoint& ep, MetricsFormat format,
                                  std::uint64_t trace_filter,
                                  std::chrono::milliseconds deadline,
                                  MetricsReply& out, std::string& error);

/// One-shot liveness probe of a daemon (kHealthRequest). Standalone like
/// scrape_metrics — no Hello handshake, no RefereeClient — and fail-closed:
/// any error frame, hostile payload, or timeout is a failed probe (counted
/// in waves_supervise_probe_failures_total) with a diagnostic in `error`;
/// `out` untouched. The supervisor treats a failed probe exactly like a
/// dead process.
[[nodiscard]] bool probe_health(const Endpoint& ep,
                                std::chrono::milliseconds deadline,
                                HealthReply& out, std::string& error);

}  // namespace waves::net
