// The exponential level hash of Sec. 4.1.
//
// h(p) is computed by mapping p through the pairwise-independent affine
// function x = q*p + r over GF(2^d) and returning the number of leading
// zeros of x within d bits: h(p) = d - floor(log2 x) - 1, and h(p) = d when
// x = 0. Consequences used by the algorithms:
//   Pr[h(p) = l]  = 2^-(l+1)  for l < d,     Pr[h(p) = d] = 2^-d,
//   Pr[h(p) >= l] = 2^-l,
// and for distinct p1, p2 the pair (h(p1), h(p2)) is independent.
// Every party is constructed with the *same* (q, r) — the stored-coins
// coordination that makes positionwise union sampling possible.
//
// Evaluation is by table, not by Field::mul. The map p -> q*(p mod 2^d) is
// GF(2)-linear, so q*p is the XOR of one product per byte of p: ExpHash
// holds ceil(d/8) tables of 256 entries, T_k[b] = q*((b << 8k) mod 2^d),
// and value(p) = r ^ T_0[p_0] ^ T_1[p_1] ^ ... The tables are built from
// the d basis products q*x^i (d Field::mul calls per hash) and are shared,
// immutable, by every copy of the hash: 2 KiB per byte of d, 6 KiB at
// d = 21. They are derived from the stored coins (q, r), so they are not
// charged to the Theorem 5 space accounting. Field::mul stays the
// reference: tests/hash_test.cpp checks value() and level() against it
// for every d in [1, 64].
#pragma once

#include <bit>
#include <cstdint>
#include <memory>

#include "gf2/gf2.hpp"

namespace waves::gf2 {

class ExpHash {
 public:
  /// Builds the byte tables (allocates; may throw std::bad_alloc).
  ExpHash(const Field& field, std::uint64_t q, std::uint64_t r);

  /// q*p + r over GF(2^d); only the low d bits of p participate.
  [[nodiscard]] std::uint64_t value(std::uint64_t p) const noexcept {
    const std::uint64_t* t = tables_.get();
    std::uint64_t x = r_;
    for (int k = 0; k < bytes_; ++k, p >>= 8, t += 256) x ^= t[p & 0xff];
    return x;
  }

  /// Level of a hash value x = value(p): d - floor(log2 x) - 1, or d when
  /// x = 0 (countl_zero(0) is 64).
  [[nodiscard]] int level_of_value(std::uint64_t x) const noexcept {
    return std::countl_zero(x) - (64 - d_);
  }

  /// Level of input p (only the low d bits of p participate): in [0, d].
  [[nodiscard]] int level(std::uint64_t p) const noexcept {
    return level_of_value(value(p));
  }

  /// Word-sliced levels for packed-bit ingest: calls f(b, level(first + b))
  /// for every set bit b of `word`, in ascending order of b. Every position
  /// first + b lies in the 64-aligned block B = first & ~63 or in B + 64,
  /// and p = B' ^ j with j < 64 for its block B', so by linearity
  /// value(p) = value(B') ^ T_0[j]. That is two value() calls per word and
  /// one lookup per set bit. Exact for every d, including d < 6: masking p
  /// to d bits is linear too, and T_0 is built over j mod 2^d.
  template <class F>
  void for_each_level(std::uint64_t first, std::uint64_t word, F&& f) const {
    const std::uint64_t block = first & ~std::uint64_t{63};
    const std::uint64_t v[2] = {value(block), value(block + 64)};
    const std::uint64_t* t0 = tables_.get();
    const std::uint64_t off = first & 63;
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      const std::uint64_t k = off + static_cast<std::uint64_t>(b);
      f(b, level_of_value(v[k >> 6] ^ t0[k & 63]));
    }
  }

  [[nodiscard]] int dimension() const noexcept { return d_; }
  [[nodiscard]] std::uint64_t q() const noexcept { return q_; }
  [[nodiscard]] std::uint64_t r() const noexcept { return r_; }

  /// Resident bytes of the shared byte tables (8 * 256 * ceil(d/8)).
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return static_cast<std::size_t>(bytes_) * 256 * sizeof(std::uint64_t);
  }

 private:
  std::shared_ptr<const std::uint64_t[]> tables_;  // bytes_ x 256, T_k rows
  std::uint64_t q_;
  std::uint64_t r_;
  int d_;
  int bytes_;  // ceil(d/8)
};

}  // namespace waves::gf2
