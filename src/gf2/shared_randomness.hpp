// Stored-coins randomness shared by all parties (Sec. 2, Sec. 4.1).
//
// The distributed-streams algorithms assume every party stores the same
// random string *before* observing any stream item. SharedRandomness is
// that string: a deterministic stream of 64-bit words derived from one
// seed. Constructing every party's synopsis from SharedRandomness objects
// with the same seed yields identical hash functions at every party —
// the "positionwise coordination" of the randomized wave. The bits drawn
// are charged to each party's space accounting (seed_bits_consumed()).
#pragma once

#include <cstdint>

#include "gf2/gf2.hpp"
#include "gf2/hash.hpp"

namespace waves::gf2 {

/// SplitMix64 — a tiny, well-mixed 64-bit PRNG (public-domain algorithm,
/// implemented from its recurrence). Used only to expand the shared seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

class SharedRandomness {
 public:
  explicit SharedRandomness(std::uint64_t seed) noexcept : rng_(seed) {}

  /// Next shared 64-bit word.
  std::uint64_t draw_word() noexcept {
    bits_ += 64;
    return rng_.next();
  }

  /// Draw the (q, r) pair for one hash instance over `field`. Consecutive
  /// calls yield the independent instances used by the median estimator;
  /// parties sharing a seed and call order share hash functions. Builds the
  /// hash's byte tables, so it may throw std::bad_alloc.
  ExpHash draw_hash(const Field& field) {
    const std::uint64_t q = draw_word();
    const std::uint64_t r = draw_word();
    return ExpHash(field, q, r);
  }

  /// Stored random bits consumed so far (charged to per-party space).
  [[nodiscard]] std::uint64_t seed_bits_consumed() const noexcept {
    return bits_;
  }

 private:
  SplitMix64 rng_;
  std::uint64_t bits_ = 0;
};

}  // namespace waves::gf2
