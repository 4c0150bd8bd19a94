// The Referee (Sec. 2, Fig. 6, Sec. 5).
//
// When an estimate is requested, every party sends one message per
// median-estimator instance; the Referee combines each instance across
// parties (Fig. 6 steps 2-3 for Union Counting, levelwise union for
// distinct values) and returns the median over instances. Communication is
// metered into WireStats.
//
// The estimation pipeline is transport-agnostic: a SnapshotSource hands the
// Referee per-party snapshot vectors plus the shared hash, and the same
// combine/median code serves the in-process direct path, the in-process
// wire-encoded path, and the TCP path (src/net/client.hpp). Sources report
// parties that could not answer; the randomized protocols *fail closed*
// under partial quorum (a missing party's stream is simply unknown — Fig. 6
// needs every queue to form l*), yielding a typed QueryResult error rather
// than a silently wrong estimate.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/wave_common.hpp"
#include "distributed/message.hpp"
#include "distributed/party.hpp"
#include "gf2/hash.hpp"

namespace waves::distributed {

enum class QueryStatus {
  kOk,        // full quorum, paper accuracy guarantees hold
  kDegraded,  // partial quorum, answer covers responders only (Scenario 1)
  kFailed,    // no usable answer (union/distinct under partial quorum)
};

/// Outcome of one referee round, quorum-aware. `estimate` is meaningful for
/// kOk and kDegraded; kDegraded additionally widens the error: the true
/// answer lies in [estimate*(1-eps), estimate*(1+eps) + error_slack], where
/// error_slack bounds what the missing parties could contribute.
struct QueryResult {
  QueryStatus status = QueryStatus::kFailed;
  core::Estimate estimate{};
  std::vector<std::size_t> missing;  // party indices that did not answer
  double error_slack = 0.0;          // additive widening (kDegraded only)
  std::string error;                 // human-readable cause (kFailed)

  [[nodiscard]] bool ok() const noexcept {
    return status != QueryStatus::kFailed;
  }
};

/// Per-round transfer accounting a source fills during collect().
struct CollectStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t decode_failures = 0;
};

/// Supplies one referee round's snapshots: Union Counting
/// (CountSnapshotSource) or distinct values (DistinctSnapshotSource).
/// party_count and instances are fixed per deployment; collect() may fail
/// per party.
template <class SnapshotT>
class SnapshotSource {
 public:
  using Snapshot = SnapshotT;
  virtual ~SnapshotSource() = default;
  [[nodiscard]] virtual std::size_t party_count() const = 0;
  [[nodiscard]] virtual int instances() const = 0;
  /// The shared hash of instance i (identical at every party by stored
  /// coins; the referee re-derives it from the deployment seed).
  [[nodiscard]] virtual const gf2::ExpHash& hash(int instance) const = 0;
  /// Metrics label and span suffix: "direct", "wire", or "tcp".
  [[nodiscard]] virtual const char* transport() const = 0;
  /// Per-party snapshot vectors (instances() each) for a window of n items.
  /// A party that cannot answer yields an empty vector and its index in
  /// `missing`. `stats` (optional) gets per-message WireStats accounting in
  /// the source's native encoding.
  virtual std::vector<std::vector<Snapshot>> collect(
      std::uint64_t n, std::vector<std::size_t>& missing, WireStats* stats,
      CollectStats& info) = 0;
};

using CountSnapshotSource = SnapshotSource<core::RandWaveSnapshot>;
using DistinctSnapshotSource = SnapshotSource<core::DistinctSnapshot>;

/// In-process source over live parties (InProcessCountSource,
/// InProcessDistinctSource): `via_wire` routes every snapshot through the
/// byte codec (encode party-side, decode referee-side) so the real message
/// sizes are measured; round-trips are exact either way.
template <class Party>
class InProcessSource final : public SnapshotSource<typename Party::Snapshot> {
 public:
  using Snapshot = typename Party::Snapshot;
  InProcessSource(std::span<const Party* const> parties, bool via_wire);
  [[nodiscard]] std::size_t party_count() const override;
  [[nodiscard]] int instances() const override;
  [[nodiscard]] const gf2::ExpHash& hash(int instance) const override;
  [[nodiscard]] const char* transport() const override;
  std::vector<std::vector<Snapshot>> collect(
      std::uint64_t n, std::vector<std::size_t>& missing, WireStats* stats,
      CollectStats& info) override;

 private:
  std::span<const Party* const> parties_;
  bool via_wire_;
};

extern template class InProcessSource<CountParty>;
extern template class InProcessSource<DistinctParty>;
using InProcessCountSource = InProcessSource<CountParty>;
using InProcessDistinctSource = InProcessSource<DistinctParty>;

/// Union Counting / distinct values from any snapshot source. Fails closed
/// (QueryStatus::kFailed) when any party is missing. All transports produce
/// bit-identical estimates for the same snapshots.
[[nodiscard]] QueryResult union_count(CountSnapshotSource& source,
                                      std::uint64_t n,
                                      WireStats* stats = nullptr);
[[nodiscard]] QueryResult distinct_count(
    DistinctSnapshotSource& source, std::uint64_t n,
    WireStats* stats = nullptr,
    const std::function<bool(std::uint64_t)>& predicate = {});

/// Union Counting over the positionwise OR of the parties' streams
/// (Scenario 3), window of n <= N items. All parties must have observed
/// the same number of items.
[[nodiscard]] core::Estimate union_count(
    std::span<const CountParty* const> parties, std::uint64_t n,
    WireStats* stats = nullptr);

/// Distinct values in the window of the union of the parties' streams.
/// `predicate` (optional) restricts to values satisfying it.
[[nodiscard]] core::Estimate distinct_count(
    std::span<const DistinctParty* const> parties, std::uint64_t n,
    WireStats* stats = nullptr,
    const std::function<bool(std::uint64_t)>& predicate = {});

/// Same protocols, but every message actually traverses the wire format
/// (distributed/wire.hpp): snapshots are varint/delta encoded party-side
/// and decoded referee-side; `stats` (when set) records the real encoded
/// sizes. Estimates are bit-identical to the direct variants.
[[nodiscard]] core::Estimate union_count_wire(
    std::span<const CountParty* const> parties, std::uint64_t n,
    WireStats* stats = nullptr);

[[nodiscard]] core::Estimate distinct_count_wire(
    std::span<const DistinctParty* const> parties, std::uint64_t n,
    WireStats* stats = nullptr,
    const std::function<bool(std::uint64_t)>& predicate = {});

}  // namespace waves::distributed
