// Parties of the distributed-streams model (Sec. 3.4 / Sec. 4.1).
//
// A party observes only its own stream and keeps one synopsis instance per
// median-estimator repetition. All parties of a deployment are constructed
// with the same shared seed, so their hash functions coincide (stored
// coins); they exchange nothing until the Referee requests snapshots.
// Parties are internally locked so a Referee may query while the ingestion
// thread is feeding.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/distinct_wave.hpp"
#include "core/median_estimator.hpp"
#include "core/rand_wave.hpp"
#include "gf2/gf2.hpp"
#include "gf2/shared_randomness.hpp"
#include "obs/metrics.hpp"
#include "util/packed_bits.hpp"

namespace waves::distributed {

/// Full queryable state of a party: per-instance wave checkpoints plus the
/// stream cursor (items consumed from the party's deterministic feed). The
/// cursor lets a restarted daemon resume ingestion differentially — replay
/// items [cursor, end) of the same stream and the party is behaviorally
/// identical to one that never crashed.
struct CountPartyCheckpoint {
  std::uint64_t cursor = 0;
  std::vector<core::RandWaveCheckpoint> waves;  // one per instance
};

struct DistinctPartyCheckpoint {
  std::uint64_t cursor = 0;
  std::vector<core::DistinctWaveCheckpoint> waves;
};

/// Scenario-3 party for Union Counting (randomized waves).
class CountParty {
 public:
  using Params = core::RandWave::Params;
  using Snapshot = core::RandWaveSnapshot;

  CountParty(const core::RandWave::Params& params, int instances,
             std::uint64_t shared_seed);

  void observe(bool bit);

  /// Observe `count` bits packed 64 per word, LSB first, under a single
  /// lock acquisition with one obs flush at the end. State-identical to
  /// `count` observe() calls. Large batches hold the lock for their whole
  /// duration — feed via bounded chunks (see ingest_driver) when a Referee
  /// must interleave queries.
  void observe_words(std::span<const std::uint64_t> words,
                     std::uint64_t count);
  void observe_batch(const util::PackedBitStream& bits) {
    observe_words(bits.words(), bits.size());
  }

  /// Per-instance snapshots for a window of n items.
  [[nodiscard]] std::vector<core::RandWaveSnapshot> snapshots(
      std::uint64_t n) const;

  [[nodiscard]] int instances() const noexcept {
    return static_cast<int>(waves_.size());
  }
  [[nodiscard]] const core::RandWave& instance(int i) const {
    return waves_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint64_t items_observed() const noexcept;
  [[nodiscard]] std::uint64_t space_bits() const noexcept;
  /// Stable metrics identity: value of the `party` label on this party's
  /// waves_party_* series.
  [[nodiscard]] int obs_id() const noexcept { return obs_.id(); }

  /// Capture every instance plus the stream cursor (cheap: the whole party
  /// is O(instances * (1/eps) log^2 N) bits — the point of the paper).
  [[nodiscard]] CountPartyCheckpoint checkpoint() const;

  /// Load into a freshly constructed party (same params, instances, and
  /// shared seed — the coins replay identically). Precondition: no items
  /// observed yet and ck.waves.size() == instances().
  void restore(const CountPartyCheckpoint& ck);

  /// Run `fn(std::span<const core::RandWave>)` under the party lock. The
  /// O(change) delta encoder reads ring contents in place instead of paying
  /// a full checkpoint copy per request. `fn` must not retain references
  /// past the call and must not re-enter the party.
  template <class Fn>
  auto visit_locked(Fn&& fn) const {
    std::lock_guard lk(mu_);
    return fn(std::span<const core::RandWave>(waves_.data(), waves_.size()));
  }

 private:
  [[nodiscard]] std::uint64_t space_bits_locked() const noexcept;

  gf2::Field field_;
  mutable std::mutex mu_;
  std::vector<core::RandWave> waves_;
  obs::PartyObs obs_{"count"};
};

/// Distinct-values party (Sec. 5).
class DistinctParty {
 public:
  using Params = core::DistinctWave::Params;
  using Snapshot = core::DistinctSnapshot;

  DistinctParty(const core::DistinctWave::Params& params, int instances,
                std::uint64_t shared_seed);

  void observe(std::uint64_t value);

  /// Observe a run of values under a single lock acquisition with one obs
  /// flush at the end. State-identical to per-value observe() calls.
  void observe_batch(std::span<const std::uint64_t> values);

  [[nodiscard]] std::vector<core::DistinctSnapshot> snapshots(
      std::uint64_t n) const;

  [[nodiscard]] int instances() const noexcept {
    return static_cast<int>(waves_.size());
  }
  [[nodiscard]] const core::DistinctWave& instance(int i) const {
    return waves_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint64_t items_observed() const noexcept;
  [[nodiscard]] std::uint64_t space_bits() const noexcept;
  [[nodiscard]] int obs_id() const noexcept { return obs_.id(); }

  [[nodiscard]] DistinctPartyCheckpoint checkpoint() const;
  /// Same contract as CountParty::restore.
  void restore(const DistinctPartyCheckpoint& ck);

 private:
  [[nodiscard]] std::uint64_t space_bits_locked() const noexcept;

  gf2::Field field_;
  mutable std::mutex mu_;
  std::vector<core::DistinctWave> waves_;
  obs::PartyObs obs_{"distinct"};
};

}  // namespace waves::distributed
