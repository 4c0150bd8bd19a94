#include "core/rand_wave.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "util/bitops.hpp"
#include "util/simd.hpp"

namespace waves::core {

namespace {

/// Drop q's expired prefix (oldest-first positions <= pexp) and return how
/// many were dropped. Positions ascend oldest->newest, so the expired run
/// is a prefix; the ring exposes it as at most two contiguous segments,
/// each scanned with one vector call.
std::size_t drop_expired(util::RingBuffer<std::uint64_t>& q,
                         std::uint64_t pexp) {
  std::size_t dropped = 0;
  for (;;) {
    const std::span<const std::uint64_t> seg = q.tail_segment();
    if (seg.empty()) break;
    const std::size_t k =
        util::simd::expired_prefix(seg.data(), seg.size(), pexp);
    q.pop_tail_n(k);
    dropped += k;
    if (k < seg.size()) break;
  }
  return dropped;
}

std::size_t queue_cap(double eps, std::uint64_t c) {
  assert(eps > 0.0 && eps < 1.0);
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(c) / (eps * eps)));
}

[[maybe_unused]] int dim_for_window(std::uint64_t window) {
  const std::uint64_t np = util::next_pow2_at_least(window < 1 ? 2 : 2 * window);
  return util::floor_log2(np);
}

}  // namespace

RandWave::RandWave(const Params& params, const gf2::Field& field,
                   gf2::SharedRandomness& coins)
    : params_(params),
      d_(field.dimension()),
      cap_(queue_cap(params.eps, params.c)),
      hash_(coins.draw_hash(field)) {
  assert(params.window >= 1);
  assert(field.dimension() == dim_for_window(params.window) &&
         "field dimension must be log2 of the smallest power of two >= 2N");
  queues_.reserve(static_cast<std::size_t>(d_) + 1);
  for (int l = 0; l <= d_; ++l) {
    queues_.emplace_back(cap_);
  }
  evicted_bound_.assign(static_cast<std::size_t>(d_) + 1, 0);
}

void RandWave::update(bool bit) {
  ++change_cursor_;
  ++pos_;
  // Fig. 6 step 2: eagerly drop the expiring position from the levels it
  // occupied (expected < 2 of them). Older expired stragglers at those
  // levels are swept too.
  if (pos_ > params_.window) {
    const std::uint64_t pexp = pos_ - params_.window;  // now outside
    const int hl = hash_.level(pexp);
    for (int l = 0; l <= hl; ++l) {
      auto& q = queues_[static_cast<std::size_t>(l)];
      while (!q.empty() && q.tail() <= pexp) {
        q.pop_tail();
        obs_.on_expiry();
      }
    }
  }
  if (!bit) return;
  // Step 3: select into levels 0..h(pos).
  const int hl = hash_.level(pos_);
  obs_.on_promotion(static_cast<std::uint64_t>(hl) + 1);
  for (int l = 0; l <= hl; ++l) {
    auto& q = queues_[static_cast<std::size_t>(l)];
    if (auto evicted = q.push_head(pos_)) {
      obs_.on_eviction();
      auto& b = evicted_bound_[static_cast<std::size_t>(l)];
      if (*evicted > b) b = *evicted;
    }
  }
}

void RandWave::update_words(std::span<const std::uint64_t> words,
                            std::uint64_t count) {
  assert(count <= words.size() * 64);
  ++change_cursor_;
  // Bit-exactness with the per-bit path hinges on one invariant of update():
  // after processing position p, no queue holds a position <= p - N (each
  // expired position q is swept at levels 0..h(q) — exactly where it was
  // stored — on the update at p = q + N). So a queue's live contents are
  // fully determined by (inserts so far, current position). The batch path
  // reproduces that state by cleaning a level's expired tail right before
  // each insert touching it — making capacity-eviction decisions (and the
  // evicted bounds) identical — and sweeping all levels once at batch end.
  std::uint64_t promotions = 0, expiries = 0, evictions = 0;
  std::size_t wi = 0;
  std::uint64_t remaining = count;
  while (remaining > 0) {
    // Zero bits only advance the cursor (their expiries are covered by the
    // next insert's cleanup or the batch-end sweep): swallow whole-word
    // zero runs with one vector scan.
    if (remaining >= 64) {
      const std::size_t zw =
          util::simd::zero_prefix_words(words.data() + wi, remaining / 64);
      wi += zw;
      pos_ += zw * 64;
      remaining -= zw * 64;
      if (remaining == 0) break;
    }
    const int valid = remaining < 64 ? static_cast<int>(remaining) : 64;
    const std::uint64_t w = words[wi] & util::low_bits_mask(valid);
    const std::uint64_t base = pos_;
    // Bit b of the word is position base + 1 + b; the hash levels of a
    // word's set bits come word-sliced (ExpHash::for_each_level).
    hash_.for_each_level(base + 1, w, [&](int b, int hl) {
      pos_ = base + static_cast<std::uint64_t>(b) + 1;
      const std::uint64_t pexp =
          pos_ > params_.window ? pos_ - params_.window : 0;
      promotions += static_cast<std::uint64_t>(hl) + 1;
      for (int l = 0; l <= hl; ++l) {
        auto& q = queues_[static_cast<std::size_t>(l)];
        expiries += drop_expired(q, pexp);
        if (auto evicted = q.push_head(pos_)) {
          ++evictions;
          auto& bound = evicted_bound_[static_cast<std::size_t>(l)];
          if (*evicted > bound) bound = *evicted;
        }
      }
    });
    pos_ = base + static_cast<std::uint64_t>(valid);
    remaining -= static_cast<std::uint64_t>(valid);
    ++wi;
  }
  if (pos_ > params_.window) {
    const std::uint64_t pexp = pos_ - params_.window;
    for (auto& q : queues_) expiries += drop_expired(q, pexp);
  }
  obs_.on_promotion(promotions);
  obs_.on_expiry(expiries);
  obs_.on_eviction(evictions);
}

RandWaveSnapshot RandWave::snapshot(std::uint64_t n) const {
  assert(n >= 1 && n <= params_.window);
  const std::uint64_t s = pos_ > n ? pos_ - n + 1 : 1;
  // Smallest level whose queue range still covers [s, pos]: nothing >= s
  // was capacity-evicted from it.
  int lj = d_;
  for (int l = 0; l <= d_; ++l) {
    if (evicted_bound_[static_cast<std::size_t>(l)] < s) {
      lj = l;
      break;
    }
  }
  RandWaveSnapshot out;
  out.level = lj;
  out.stream_len = pos_;
  const auto& q = queues_[static_cast<std::size_t>(lj)];
  out.positions.reserve(q.size());
  q.for_each_oldest_first(
      [&out](std::uint64_t p) { out.positions.push_back(p); });
  obs_.flush(pos_);
  obs_.observe_snapshot_size(out.positions.size());
  return out;
}

Estimate RandWave::estimate(std::uint64_t n) const {
  const RandWaveSnapshot snap[1] = {snapshot(n)};
  return referee_union_count(snap, n, hash_);
}

void snapshot_from_checkpoint_into(const RandWaveCheckpoint& ck,
                                   std::uint64_t n, RandWaveSnapshot& out) {
  assert(!ck.queues.empty() && ck.queues.size() == ck.evicted_bounds.size());
  const std::uint64_t s = ck.pos > n ? ck.pos - n + 1 : 1;
  const int top = static_cast<int>(ck.queues.size()) - 1;
  int lj = top;
  for (int l = 0; l <= top; ++l) {
    if (ck.evicted_bounds[static_cast<std::size_t>(l)] < s) {
      lj = l;
      break;
    }
  }
  out.level = lj;
  out.stream_len = ck.pos;
  // Copy-assign reuses out.positions' capacity across rounds.
  out.positions = ck.queues[static_cast<std::size_t>(lj)];
}

RandWaveSnapshot snapshot_from_checkpoint(const RandWaveCheckpoint& ck,
                                          std::uint64_t n) {
  RandWaveSnapshot out;
  snapshot_from_checkpoint_into(ck, n, out);
  return out;
}

std::uint64_t RandWave::space_bits() const noexcept {
  const auto pos_bits = static_cast<std::uint64_t>(d_);
  const auto nlevels = static_cast<std::uint64_t>(d_) + 1;
  return nlevels * cap_ * pos_bits  // queue contents
         + nlevels * pos_bits       // evicted bounds
         + 2 * pos_bits             // pos counter + window
         + 2 * pos_bits;            // stored coins q, r
}

RandWaveCheckpoint RandWave::checkpoint() const {
  RandWaveCheckpoint ck;
  ck.pos = pos_;
  ck.queues.resize(queues_.size());
  for (std::size_t l = 0; l < queues_.size(); ++l) {
    ck.queues[l].reserve(queues_[l].size());
    queues_[l].for_each_oldest_first(
        [&ck, l](std::uint64_t p) { ck.queues[l].push_back(p); });
  }
  ck.evicted_bounds = evicted_bound_;
  return ck;
}

void RandWave::restore(const RandWaveCheckpoint& ck) {
  assert(pos_ == 0 && "restore only into a fresh wave");
  assert(ck.queues.size() == queues_.size());
  pos_ = ck.pos;
  for (std::size_t l = 0; l < queues_.size(); ++l) {
    queues_[l].clear();
    for (std::uint64_t p : ck.queues[l]) queues_[l].push_head(p);
  }
  evicted_bound_ = ck.evicted_bounds;
  ++change_cursor_;
}

Estimate referee_union_count(std::span<const RandWaveSnapshot> snapshots,
                             std::uint64_t n, const gf2::ExpHash& hash) {
  assert(!snapshots.empty());
  const std::uint64_t pos = snapshots.front().stream_len;
  for (const auto& s : snapshots) {
    assert(s.stream_len == pos && "positionwise union needs aligned streams");
    (void)s;
  }
  const std::uint64_t s = pos > n ? pos - n + 1 : 1;

  int lstar = 0;
  for (const auto& snap : snapshots) lstar = std::max(lstar, snap.level);

  std::unordered_set<std::uint64_t> uni;
  for (const auto& snap : snapshots) {
    for (std::uint64_t p : snap.positions) {
      if (p >= s && hash.level(p) >= lstar) uni.insert(p);
    }
  }
  return Estimate{std::ldexp(static_cast<double>(uni.size()), lstar), false,
                  n};
}

}  // namespace waves::core
