// PartyMirror — the referee's copy of one party's count or distinct
// synopsis, rebuilt from shipped state (the referee combines per-party
// synopses, Sec. 3.4 and 4; the shared hashes come from stored coins, the
// synopsis state from the wire).
//
// Every transport that ships DeltaReply-shaped bodies folds them through
// this one class — RefereeClient's pull replies and MonitorHub's push
// chain — so a polled and a pushed answer come from the same apply rules
// and the same snapshot derivation:
//
//   - a full body (base_cursor == 0) rebases the mirror;
//   - a diff body against the cursor the mirror holds applies through
//     apply_delta_into into scratch, then swaps, so the retired baseline's
//     vectors become the next apply's capacity;
//   - an empty "unchanged" body must echo the cursor the mirror holds;
//   - anything else is rejected, and a rejected apply leaves the held
//     state intact.
//
// Derived per-instance snapshots are cached in place, keyed (cursor, n).
// The mirror keeps no counters: apply() and snapshots() report what
// happened and each caller counts it in its own metric families.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/delta.hpp"

namespace waves::recovery {

/// What one PartyMirror::apply did.
enum class MirrorApply : std::uint8_t {
  kRejected,   // cursor mismatch, undecodable body or wrong instance count
  kUnchanged,  // empty body echoing the held cursor: nothing decoded
  kFull,       // self-contained body rebased the mirror
  kDelta,      // diff body applied to the held baseline
};

// One wave checkpoint -> its snapshot for a window of n items, in place.
// `window` is the distinct role's W; the count role does not need it.
inline void snapshot_into(const core::RandWaveCheckpoint& ck, std::uint64_t n,
                          std::uint64_t /*window*/,
                          core::RandWaveSnapshot& out) {
  core::snapshot_from_checkpoint_into(ck, n, out);
}
inline void snapshot_into(const core::DistinctWaveCheckpoint& ck,
                          std::uint64_t n, std::uint64_t window,
                          core::DistinctSnapshot& out) {
  core::snapshot_from_checkpoint_into(ck, n, window, out);
}

template <class Checkpoint, class SnapshotT>
class PartyMirror {
 public:
  using Snapshot = SnapshotT;

  /// Fold one shipped body (the sender's base_cursor, cursor and body) into
  /// the mirror, which then belongs to `generation`. `instances` > 0
  /// requires the resulting state to carry exactly that many instances:
  /// the combine indexes every party's snapshots at [0, instances). On
  /// kRejected, `err` says why and the held state is untouched.
  [[nodiscard]] MirrorApply apply(std::uint64_t base_cursor,
                                  std::uint64_t cursor, const Bytes& body,
                                  std::uint64_t generation,
                                  std::size_t instances, std::string& err) {
    if (cursor == 0) {
      err = "body carries cursor 0";
      return MirrorApply::kRejected;
    }
    if (body.empty()) {
      if (cursor_ == 0 || base_cursor != cursor_ || cursor != cursor_) {
        err = "empty body without a matching cursor";
        return MirrorApply::kRejected;
      }
      return MirrorApply::kUnchanged;
    }
    MirrorApply kind = MirrorApply::kFull;
    if (base_cursor == 0) {
      if (!decode(body, scratch_)) {
        err = "undecodable full body";
        return MirrorApply::kRejected;
      }
    } else if (cursor_ != 0 && base_cursor == cursor_) {
      // On failure scratch is garbage but unread; base stays the mirror.
      if (!apply_delta_into(base_, body, scratch_)) {
        err = "undecodable delta body";
        return MirrorApply::kRejected;
      }
      kind = MirrorApply::kDelta;
    } else {
      err = "delta against a cursor this mirror does not hold";
      return MirrorApply::kRejected;
    }
    if (instances > 0 && scratch_.waves.size() != instances) {
      err = "body carries " + std::to_string(scratch_.waves.size()) +
            " instances, wanted " + std::to_string(instances);
      return MirrorApply::kRejected;
    }
    std::swap(base_, scratch_);
    cursor_ = cursor;
    generation_ = generation;
    cache_valid_ = false;
    return kind;
  }

  /// Per-instance snapshots of the held state for a window of n items.
  /// `hit` reports whether they came from the cache (neither the cursor
  /// nor n moved since the last call); otherwise the cache is rebuilt in
  /// place, each entry keeping its buffer capacity from the previous round.
  [[nodiscard]] const std::vector<Snapshot>& snapshots(std::uint64_t n,
                                                       std::uint64_t window,
                                                       bool& hit) {
    hit = cache_valid_ && cache_cursor_ == cursor_ && cache_n_ == n;
    if (hit) return cache_;
    cache_.resize(base_.waves.size());
    for (std::size_t i = 0; i < base_.waves.size(); ++i) {
      snapshot_into(base_.waves[i], n, window, cache_[i]);
    }
    cache_valid_ = true;
    cache_cursor_ = cursor_;
    cache_n_ = n;
    return cache_;
  }

  /// A party generation the mirror does not belong to means the party
  /// restarted and the sender's baselines died with it: drop the held
  /// state so the next body must be a full one. True when it dropped any.
  bool resync(std::uint64_t generation) {
    if (cursor_ == 0 || generation == generation_) return false;
    *this = PartyMirror{};
    return true;
  }

  /// Sender cursor of the held state; 0 = no baseline.
  [[nodiscard]] std::uint64_t cursor() const noexcept { return cursor_; }
  [[nodiscard]] const Checkpoint& base() const noexcept { return base_; }

 private:
  std::uint64_t cursor_ = 0;
  std::uint64_t generation_ = 0;
  Checkpoint base_;
  Checkpoint scratch_;  // apply destination, swapped with base_ on success
  bool cache_valid_ = false;
  std::uint64_t cache_cursor_ = 0;
  std::uint64_t cache_n_ = 0;
  std::vector<Snapshot> cache_;
};

using CountMirror =
    PartyMirror<distributed::CountPartyCheckpoint, core::RandWaveSnapshot>;
using DistinctMirror =
    PartyMirror<distributed::DistinctPartyCheckpoint, core::DistinctSnapshot>;

}  // namespace waves::recovery
