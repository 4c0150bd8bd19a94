// The distinct-values wave (Sec. 5, Theorem 6).
//
// Adapts the randomized wave: samples are (position, value) pairs; the
// shared hash is applied to the *value* (coordinated sampling across
// parties — the same value is sampled at the same levels everywhere); a
// value's stored position is its most recent occurrence, refreshed on every
// re-arrival (expected O(1) work, since a value lives in an expected < 2
// levels, located via a per-level value->node hash map). Level l keeps the
// c/eps^2 values with the most recent positions. The Referee computes the
// levelwise union and scales by 2^l*. The stored sample is a uniform sample
// of the distinct values in the window, so predicate queries (Sec. 5,
// "Handling Predicates") are answered by filtering the union before
// scaling.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/wave_common.hpp"
#include "gf2/gf2.hpp"
#include "gf2/hash.hpp"
#include "gf2/shared_randomness.hpp"
#include "obs/metrics.hpp"

namespace waves::core {

/// Party-to-Referee message: chosen level and that level's (value, latest
/// position) sample, oldest-position first.
struct DistinctSnapshot {
  int level = 0;
  std::uint64_t stream_len = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items;  // (value, pos)
};

class DistinctWave {
 public:
  struct Params {
    double eps = 0.1;
    std::uint64_t window = 0;     // maximum window size N (items)
    std::uint64_t max_value = 0;  // R: values lie in [0..R]
    std::uint64_t c = 36;
    /// Upper bound on the distinct count any queried (union) window can
    /// reach; sets the number of levels. Default (0) uses `window` — pass
    /// t * window when t parties will be unioned.
    std::uint64_t universe_hint = 0;
  };

  /// All parties must share `coins` seed and draw order.
  DistinctWave(const Params& params, const gf2::Field& field,
               gf2::SharedRandomness& coins);

  /// Dimension the hash field must have for these Params (values need
  /// ceil(log2(R+1)) bits; levels need log2 of the window universe).
  [[nodiscard]] static int field_dimension(const Params& params);

  /// Process one value. O(1) expected.
  void update(std::uint64_t value);

  /// Process a run of values. Sample-state identical to calling update() on
  /// each in order (the mutation counter advances once per batch, like the
  /// bit waves' update_words). Distinct ingest is hash- and pointer-bound,
  /// so the batch win is amortized bookkeeping — one party-lock
  /// acquisition, one cursor bump, bulk obs counters — not vectorization.
  void update_batch(std::span<const std::uint64_t> values);

  [[nodiscard]] DistinctSnapshot snapshot(std::uint64_t n) const;

  /// Convenience single-party estimate.
  [[nodiscard]] Estimate estimate(std::uint64_t n) const;

  [[nodiscard]] std::uint64_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::uint64_t window() const noexcept { return params_.window; }
  [[nodiscard]] int top_level() const noexcept { return d_; }

  /// Monotone mutation counter (see DetWave::change_cursor).
  [[nodiscard]] std::uint64_t change_cursor() const noexcept {
    return change_cursor_;
  }
  [[nodiscard]] const gf2::ExpHash& hash() const noexcept { return hash_; }
  [[nodiscard]] std::size_t queue_capacity() const noexcept { return cap_; }
  [[nodiscard]] std::uint64_t space_bits() const noexcept;

  /// Capture the full state (hash seeds excluded: restore with
  /// identically-seeded SharedRandomness).
  [[nodiscard]] DistinctWaveCheckpoint checkpoint() const;

  /// Load into a freshly constructed wave with matching Params and coins.
  void restore(const DistinctWaveCheckpoint& ck);

 private:
  struct Node {
    std::uint64_t value;
    std::uint64_t pos;
  };
  struct Level {
    std::list<Node> recency;  // front = oldest position, back = newest
    std::unordered_map<std::uint64_t, std::list<Node>::iterator> index;
    std::uint64_t evicted_bound = 0;  // largest capacity-evicted position
  };

  // The field may be wider than the level count (values can need more
  // bits than the universe, see field_dimension()), so hash levels above
  // d_ collapse into the top level.
  [[nodiscard]] int level_of_value(std::uint64_t v) const noexcept {
    const int l = hash_.level(v);
    return l > d_ ? d_ : l;
  }
  void drop_expired(Level& lv) const;
  void update_one(std::uint64_t value);

  Params params_;
  int d_;  // top level
  std::size_t cap_;
  gf2::ExpHash hash_;
  std::uint64_t pos_ = 0;
  std::uint64_t change_cursor_ = 0;
  mutable std::vector<Level> levels_;  // expired fronts swept lazily
  obs::WaveIngestObs obs_{"distinct"};
};

/// Snapshot computed from a checkpoint — bit-identical to what
/// `DistinctWave::snapshot(n)` would return for a wave in the checkpointed
/// state. `checkpoint()` does not sweep lazily-expired fronts, so this
/// applies the same expiry rule (`pos + window <= ck.pos`) both when picking
/// the level and when emitting items.
[[nodiscard]] DistinctSnapshot snapshot_from_checkpoint(
    const DistinctWaveCheckpoint& ck, std::uint64_t n, std::uint64_t window);

/// Same result written into `out`, reusing its items capacity (see
/// rand_wave.hpp's counterpart).
void snapshot_from_checkpoint_into(const DistinctWaveCheckpoint& ck,
                                   std::uint64_t n, std::uint64_t window,
                                   DistinctSnapshot& out);

/// Referee half: levelwise union scaled by 2^l*. `predicate`, when set,
/// restricts the count to values satisfying it (selectivity-alpha queries
/// need queues of size c/(alpha eps^2); see extensions/predicate_sample).
[[nodiscard]] Estimate referee_distinct_count(
    std::span<const DistinctSnapshot> snapshots, std::uint64_t n,
    const gf2::ExpHash& hash,
    const std::function<bool(std::uint64_t)>& predicate = {});

}  // namespace waves::core
