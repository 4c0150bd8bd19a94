#include "recovery/delta.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "recovery/checkpoint.hpp"

namespace waves::recovery {

namespace {

using distributed::get_varint;
using distributed::put_varint;

constexpr std::size_t kReserveCap = 64;
constexpr std::uint64_t kFlagFull = 1;

// Survivors are encoded as (skip, keep) runs over the baseline list; what
// the runs never reach is dropped, and the appended suffix follows.
struct Run {
  std::uint64_t skip = 0;
  std::uint64_t keep = 0;
};

// Express `now` as (subsequence of base) + (appended suffix), where
// `is_append` marks elements that cannot have existed at baseline time
// (positions beyond the baseline's). Returns false when `now`
// does not have that shape — the caller then falls back to a full encode.
template <typename T, typename IsAppend>
bool build_runs(const std::vector<T>& base, const std::vector<T>& now,
                IsAppend&& is_append, std::vector<Run>& runs,
                std::size_t& append_from) {
  std::size_t k = 0;
  while (k < now.size() && !is_append(now[k])) ++k;
  append_from = k;
  for (std::size_t j = k; j < now.size(); ++j) {
    if (!is_append(now[j])) return false;
  }
  runs.clear();
  std::size_t i = 0, j = 0;
  while (j < k) {
    Run run;
    while (i < base.size() && !(base[i] == now[j])) {
      ++i;
      ++run.skip;
    }
    if (i == base.size()) return false;
    while (j < k && i < base.size() && base[i] == now[j]) {
      ++i;
      ++j;
      ++run.keep;
    }
    runs.push_back(run);
  }
  return true;
}

void put_runs(Bytes& out, const std::vector<Run>& runs) {
  put_varint(out, runs.size());
  for (const Run& r : runs) {
    put_varint(out, r.skip);
    put_varint(out, r.keep);
  }
}

template <typename T>
bool apply_runs(const Bytes& in, std::size_t& at, const std::vector<T>& base,
                std::vector<T>& out) {
  std::uint64_t nruns = 0;
  if (!get_varint(in, at, nruns) || nruns > in.size() - at) return false;
  std::size_t i = 0;
  for (std::uint64_t r = 0; r < nruns; ++r) {
    std::uint64_t skip = 0, keep = 0;
    if (!get_varint(in, at, skip) || !get_varint(in, at, keep)) return false;
    if (skip > base.size() - i) return false;
    i += skip;
    if (keep > base.size() - i) return false;
    out.insert(out.end(), base.begin() + static_cast<std::ptrdiff_t>(i),
               base.begin() + static_cast<std::ptrdiff_t>(i + keep));
    i += keep;
  }
  return true;
}

// -- Rand: per-level queues, front-drop + back-append -----------------------
// Queue positions ascend (oldest first) and only ever leave from the front
// (capacity eviction / expiry) or arrive at the back, so each level's edit
// is one drop count plus the appended positions; evicted bounds are
// monotone, delta-encoded so an untouched level costs one zero byte.

bool diff_rand(Bytes& out, const core::RandWaveCheckpoint& base,
               const core::RandWaveCheckpoint& now) {
  if (now.queues.size() != base.queues.size() ||
      now.evicted_bounds.size() != base.evicted_bounds.size() ||
      now.queues.size() != now.evicted_bounds.size()) {
    return false;
  }
  put_varint(out, now.pos);
  put_varint(out, now.queues.size());
  for (std::size_t l = 0; l < now.queues.size(); ++l) {
    const std::vector<std::uint64_t>& oq = base.queues[l];
    const std::vector<std::uint64_t>& nq = now.queues[l];
    std::size_t k = 0;  // survivors: positions already present at baseline
    while (k < nq.size() && nq[k] <= base.pos) ++k;
    if (k > oq.size()) return false;
    const std::size_t drop = oq.size() - k;
    for (std::size_t i = 0; i < k; ++i) {
      if (oq[drop + i] != nq[i]) return false;
    }
    put_varint(out, drop);
    put_varint(out, nq.size() - k);
    std::uint64_t prev = k > 0 ? nq[k - 1] : 0;
    for (std::size_t j = k; j < nq.size(); ++j) {
      if (nq[j] < prev) return false;
      put_varint(out, nq[j] - prev);
      prev = nq[j];
    }
    if (now.evicted_bounds[l] < base.evicted_bounds[l]) return false;
    put_varint(out, now.evicted_bounds[l] - base.evicted_bounds[l]);
  }
  return true;
}

// Builds into `out` in place, reassigning its per-level vectors so their
// capacity survives across rounds (PartyMirror's ping-pong scratch). `out`
// is unspecified on failure and must not alias `base` — both hold at every
// call site (fresh locals, or PartyMirror's distinct base/scratch members).
bool apply_rand(const Bytes& in, std::size_t& at,
                const core::RandWaveCheckpoint& base,
                core::RandWaveCheckpoint& out) {
  std::uint64_t nq = 0;
  if (!get_varint(in, at, out.pos) || !get_varint(in, at, nq) ||
      nq != base.queues.size() || nq != base.evicted_bounds.size()) {
    return false;
  }
  out.queues.resize(nq);
  out.evicted_bounds.resize(nq);
  for (std::size_t l = 0; l < nq; ++l) {
    std::uint64_t drop = 0, appends = 0;
    if (!get_varint(in, at, drop) || drop > base.queues[l].size() ||
        !get_varint(in, at, appends) || appends > in.size() - at) {
      return false;
    }
    std::vector<std::uint64_t>& q = out.queues[l];
    q.assign(base.queues[l].begin() + static_cast<std::ptrdiff_t>(drop),
             base.queues[l].end());
    q.reserve(q.size() + std::min<std::size_t>(appends, kReserveCap));
    std::uint64_t prev = q.empty() ? 0 : q.back();
    for (std::uint64_t j = 0; j < appends; ++j) {
      std::uint64_t d = 0;
      if (!get_varint(in, at, d)) return false;
      prev += d;
      q.push_back(prev);
    }
    std::uint64_t dbound = 0;
    if (!get_varint(in, at, dbound)) return false;
    out.evicted_bounds[l] = base.evicted_bounds[l] + dbound;
  }
  return true;
}

// -- Distinct: per-level (value, pos) lists ---------------------------------
// Re-arrivals remove a value from the middle of its level and append it
// with a fresh position, so survivors are a general subsequence (runs), not
// just a suffix; appended items all carry positions beyond the baseline's.

bool diff_distinct(Bytes& out, const core::DistinctWaveCheckpoint& base,
                   const core::DistinctWaveCheckpoint& now) {
  if (now.levels.size() != base.levels.size() ||
      now.evicted_bounds.size() != base.evicted_bounds.size() ||
      now.levels.size() != now.evicted_bounds.size()) {
    return false;
  }
  put_varint(out, now.pos);
  put_varint(out, now.levels.size());
  std::vector<Run> runs;
  for (std::size_t l = 0; l < now.levels.size(); ++l) {
    std::size_t append_from = 0;
    if (!build_runs(
            base.levels[l], now.levels[l],
            [&base](const std::pair<std::uint64_t, std::uint64_t>& item) {
              return item.second > base.pos;
            },
            runs, append_from)) {
      return false;
    }
    put_runs(out, runs);
    put_varint(out, now.levels[l].size() - append_from);
    std::uint64_t prev =
        append_from > 0 ? now.levels[l][append_from - 1].second : 0;
    for (std::size_t j = append_from; j < now.levels[l].size(); ++j) {
      const auto& [value, p] = now.levels[l][j];
      if (p < prev) return false;
      put_varint(out, value);
      put_varint(out, p - prev);
      prev = p;
    }
    if (now.evicted_bounds[l] < base.evicted_bounds[l]) return false;
    put_varint(out, now.evicted_bounds[l] - base.evicted_bounds[l]);
  }
  return true;
}

// In-place like apply_rand: `out` unspecified on failure, must not alias
// `base`, per-level vectors keep their capacity across rounds.
bool apply_distinct(const Bytes& in, std::size_t& at,
                    const core::DistinctWaveCheckpoint& base,
                    core::DistinctWaveCheckpoint& out) {
  std::uint64_t nl = 0;
  if (!get_varint(in, at, out.pos) || !get_varint(in, at, nl) ||
      nl != base.levels.size() || nl != base.evicted_bounds.size()) {
    return false;
  }
  out.levels.resize(nl);
  out.evicted_bounds.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& level =
        out.levels[l];
    level.clear();  // apply_runs appends
    if (!apply_runs(in, at, base.levels[l], level)) return false;
    std::uint64_t appends = 0;
    if (!get_varint(in, at, appends) || appends > in.size() - at) return false;
    level.reserve(level.size() + std::min<std::size_t>(appends, kReserveCap));
    std::uint64_t prev = level.empty() ? 0 : level.back().second;
    for (std::uint64_t j = 0; j < appends; ++j) {
      std::uint64_t v = 0, d = 0;
      if (!get_varint(in, at, v) || !get_varint(in, at, d)) return false;
      prev += d;
      level.emplace_back(v, prev);
    }
    std::uint64_t dbound = 0;
    if (!get_varint(in, at, dbound)) return false;
    out.evicted_bounds[l] = base.evicted_bounds[l] + dbound;
  }
  return true;
}

// -- Checked wrapper --------------------------------------------------------
// Diff, re-apply the diff, and keep it only if the round trip reproduces
// `now` exactly and beats the full encoding — otherwise ship the full form.
// Bit-exactness of apply_delta(base, encode_delta(base, now)) == now is
// therefore guaranteed for every input, not just well-behaved ones.

template <typename Ck, typename DiffFn, typename ApplyFn>
void put_delta_checked(Bytes& out, const Ck& base, const Ck& now, DiffFn diff,
                       ApplyFn apply) {
  Bytes body;
  bool ok = diff(body, base, now);
  if (ok) {
    Ck check;
    std::size_t at = 0;
    ok = apply(body, at, base, check) && at == body.size() && check == now;
  }
  Bytes full;
  put_checkpoint(full, now);
  if (!ok || body.size() >= full.size()) {
    put_varint(out, kFlagFull);
    out.insert(out.end(), full.begin(), full.end());
  } else {
    put_varint(out, 0);
    out.insert(out.end(), body.begin(), body.end());
  }
}

template <typename Ck, typename ApplyFn>
bool get_delta_impl(const Bytes& in, std::size_t& at, const Ck& base, Ck& out,
                    ApplyFn apply) {
  std::uint64_t flags = 0;
  if (!get_varint(in, at, flags) || flags > kFlagFull) return false;
  if (flags & kFlagFull) return get_checkpoint(in, at, out);
  return apply(in, at, base, out);
}

}  // namespace

void put_delta(Bytes& out, const core::RandWaveCheckpoint& base,
               const core::RandWaveCheckpoint& now) {
  put_delta_checked(out, base, now, diff_rand, apply_rand);
}

void put_delta(Bytes& out, const core::DistinctWaveCheckpoint& base,
               const core::DistinctWaveCheckpoint& now) {
  put_delta_checked(out, base, now, diff_distinct, apply_distinct);
}

bool get_delta(const Bytes& in, std::size_t& at,
               const core::RandWaveCheckpoint& base,
               core::RandWaveCheckpoint& out) {
  return get_delta_impl(in, at, base, out, apply_rand);
}

bool get_delta(const Bytes& in, std::size_t& at,
               const core::DistinctWaveCheckpoint& base,
               core::DistinctWaveCheckpoint& out) {
  return get_delta_impl(in, at, base, out, apply_distinct);
}

// -- Party-level ------------------------------------------------------------

namespace {

template <typename PartyCk>
Bytes encode_party_delta(const PartyCk& base, const PartyCk& now) {
  using WaveCk = typename std::decay_t<decltype(now.waves)>::value_type;
  const WaveCk empty{};
  Bytes out;
  put_varint(out, now.cursor);
  put_varint(out, now.waves.size());
  for (std::size_t i = 0; i < now.waves.size(); ++i) {
    const WaveCk& b = i < base.waves.size() ? base.waves[i] : empty;
    put_delta(out, b, now.waves[i]);
  }
  return out;
}

// Decodes straight into `out`, reusing its wave slots (and their nested
// vectors, via the in-place wave appliers) so a steady-state round touches
// the allocator only when a level genuinely outgrows its capacity. `out`
// is unspecified on failure and must not alias `base`. The wave count is
// attacker-controlled, so never resize() up to it — shrink to it, then
// grow one decoded wave at a time (truncated input fails fast).
template <typename PartyCk>
bool apply_party_delta_into(const PartyCk& base, const Bytes& in,
                            PartyCk& out) {
  using WaveCk = typename std::decay_t<decltype(out.waves)>::value_type;
  const WaveCk empty{};
  std::size_t at = 0;
  std::uint64_t count = 0;
  if (!get_varint(in, at, out.cursor) || !get_varint(in, at, count) ||
      count > in.size() - at) {
    return false;
  }
  if (count < out.waves.size()) out.waves.resize(count);
  out.waves.reserve(std::min<std::size_t>(count, kReserveCap));
  for (std::uint64_t i = 0; i < count; ++i) {
    const WaveCk& b = i < base.waves.size() ? base.waves[i] : empty;
    if (i < out.waves.size()) {
      if (!get_delta(in, at, b, out.waves[i])) return false;
    } else {
      WaveCk w;
      if (!get_delta(in, at, b, w)) return false;
      out.waves.push_back(std::move(w));
    }
  }
  if (at != in.size()) return false;
  return true;
}

// All-or-nothing wrapper: decode into a fresh checkpoint so `out` stays
// untouched when the body is rejected.
template <typename PartyCk>
bool apply_party_delta(const PartyCk& base, const Bytes& in, PartyCk& out) {
  PartyCk ck;
  if (!apply_party_delta_into(base, in, ck)) return false;
  out = std::move(ck);
  return true;
}

}  // namespace

Bytes encode_delta(const distributed::CountPartyCheckpoint& base,
                   const distributed::CountPartyCheckpoint& now) {
  return encode_party_delta(base, now);
}

Bytes encode_delta(const distributed::DistinctPartyCheckpoint& base,
                   const distributed::DistinctPartyCheckpoint& now) {
  return encode_party_delta(base, now);
}

bool apply_delta(const distributed::CountPartyCheckpoint& base,
                 const Bytes& in, distributed::CountPartyCheckpoint& out) {
  return apply_party_delta(base, in, out);
}

bool apply_delta(const distributed::DistinctPartyCheckpoint& base,
                 const Bytes& in, distributed::DistinctPartyCheckpoint& out) {
  return apply_party_delta(base, in, out);
}

bool apply_delta_into(const distributed::CountPartyCheckpoint& base,
                      const Bytes& in,
                      distributed::CountPartyCheckpoint& out) {
  return apply_party_delta_into(base, in, out);
}

bool apply_delta_into(const distributed::DistinctPartyCheckpoint& base,
                      const Bytes& in,
                      distributed::DistinctPartyCheckpoint& out) {
  return apply_party_delta_into(base, in, out);
}

}  // namespace waves::recovery
