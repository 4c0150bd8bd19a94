// The randomized wave for Union Counting (Sec. 4, Theorem 5).
//
// Each 1-bit at position p is selected into levels 0..h(p), where h is the
// shared pairwise-independent exponential hash (gf2::ExpHash) — the same at
// every party, so the same position is sampled identically everywhere
// ("positionwise coordination"). Level l keeps the c/eps^2 most recently
// selected positions in a circular queue. A query for window [s, pos] takes,
// per party, the smallest level l_j whose queue still covers the window
// (range semantics tracked via the largest capacity-evicted position); the
// Referee forms l* = max_j l_j, re-filters every queue to positions >= s
// with h(p) >= l*, unions them, and scales by 2^l*. Lemma 2/3: the result
// is within eps of the union count with probability > 2/3, independent of
// the number of parties; the median of O(log 1/delta) independent instances
// gives the (eps, delta) scheme (core/median_estimator).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/wave_common.hpp"
#include "gf2/gf2.hpp"
#include "gf2/hash.hpp"
#include "gf2/shared_randomness.hpp"
#include "obs/metrics.hpp"
#include "util/packed_bits.hpp"
#include "util/ring_buffer.hpp"

namespace waves::core {

/// What a party sends the Referee for one instance: its chosen level and
/// that level's full queue (oldest first), plus its stream length.
struct RandWaveSnapshot {
  int level = 0;
  std::uint64_t stream_len = 0;
  std::vector<std::uint64_t> positions;
};

class RandWave {
 public:
  struct Params {
    double eps = 0.1;          // target relative error
    std::uint64_t window = 0;  // maximum window size N
    std::uint64_t c = 36;      // Lemma 2 constant; queues hold ceil(c/eps^2)
  };

  /// All parties of one instance must construct from SharedRandomness
  /// objects seeded identically and at the same draw offset.
  RandWave(const Params& params, const gf2::Field& field,
           gf2::SharedRandomness& coins);

  /// Process one stream bit. O(1) expected (a position lands in an expected
  /// < 2 levels; expiring its mirror costs the same in expectation).
  void update(bool bit);

  /// Process `count` bits packed 64 per word, LSB first. Bit-exact with
  /// `count` update() calls (same queues, same eviction bounds); the hash
  /// is evaluated only for 1-bit positions — zero runs cost nothing until
  /// the per-batch expiry sweep.
  void update_words(std::span<const std::uint64_t> words, std::uint64_t count);
  void update_batch(const util::PackedBitStream& bits) {
    update_words(bits.words(), bits.size());
  }

  /// Party-side half of a query for a window of n <= N items.
  [[nodiscard]] RandWaveSnapshot snapshot(std::uint64_t n) const;

  /// Convenience single-party estimate (snapshot + referee locally).
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

  /// Live read access to the per-level rings, for the O(change) delta
  /// encoder (recovery/delta_live). Rings only drop at the tail and append
  /// at the head, so a past checkpoint's surviving entries are always a
  /// prefix of from_oldest order — that invariant is what the encoder
  /// diffs against without copying the queues.
  [[nodiscard]] std::size_t level_count() const noexcept {
    return queues_.size();
  }
  [[nodiscard]] const util::RingBuffer<std::uint64_t>& level_queue(
      std::size_t l) const noexcept {
    return queues_[l];
  }
  [[nodiscard]] std::uint64_t evicted_bound(std::size_t l) const noexcept {
    return evicted_bound_[l];
  }

  /// Theorem 5 accounting: (d+1) queues of cap positions at log N' bits
  /// each, plus the two hash seeds and two counters.
  [[nodiscard]] std::uint64_t space_bits() const noexcept;

  /// Capture the full state (checkpoint.hpp). The hash seeds are not part
  /// of the checkpoint: restore with identically-seeded SharedRandomness.
  [[nodiscard]] RandWaveCheckpoint checkpoint() const;

  /// Load a checkpoint into a freshly constructed wave (same Params, same
  /// coins seed/draw order). Precondition: no items observed yet.
  void restore(const RandWaveCheckpoint& ck);

 private:
  Params params_;
  int d_;               // log2 N'
  std::size_t cap_;
  gf2::ExpHash hash_;
  std::uint64_t pos_ = 0;
  std::uint64_t change_cursor_ = 0;
  std::vector<util::RingBuffer<std::uint64_t>> queues_;   // levels 0..d
  std::vector<std::uint64_t> evicted_bound_;              // per level
  obs::WaveIngestObs obs_{"rand"};
};

/// Party-side snapshot computed from a checkpoint instead of a live wave —
/// bit-identical to what `RandWave::snapshot(n)` would return for a wave in
/// the checkpointed state. Lets a referee that mirrors party checkpoints
/// (the delta query path) answer without rebuilding wave objects.
[[nodiscard]] RandWaveSnapshot snapshot_from_checkpoint(
    const RandWaveCheckpoint& ck, std::uint64_t n);

/// Same result written into `out`, reusing its positions capacity — the
/// steady-state form for callers that rebuild snapshots every round (the
/// referee's decoded-snapshot cache).
void snapshot_from_checkpoint_into(const RandWaveCheckpoint& ck,
                                   std::uint64_t n, RandWaveSnapshot& out);

/// Referee half of the protocol (Fig. 6 steps 2-3): snapshots from t
/// parties with equal stream lengths, window of n items, and the shared
/// hash. Returns 2^l* * |union of filtered queues|.
[[nodiscard]] Estimate referee_union_count(
    std::span<const RandWaveSnapshot> snapshots, std::uint64_t n,
    const gf2::ExpHash& hash);

}  // namespace waves::core
