#include "gf2/hash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "gf2/shared_randomness.hpp"
#include "util/bitops.hpp"

namespace waves::gf2 {
namespace {

TEST(ExpHash, RangeIsZeroToD) {
  const Field f(10);
  SharedRandomness coins(1);
  const ExpHash h = coins.draw_hash(f);
  for (std::uint64_t p = 0; p < 1024; ++p) {
    const int l = h.level(p);
    ASSERT_GE(l, 0);
    ASSERT_LE(l, 10);
  }
}

TEST(ExpHash, ExactLevelHistogramOverFullDomain) {
  // Over the whole domain, x = q*p + r is a bijection of GF(2^d) when
  // q != 0, so the level histogram is *exactly* geometric: 2^(d-1-l)
  // values at level l < d and one value at level d.
  const int d = 12;
  const Field f(d);
  SharedRandomness coins(7);  // draws q, r; q == 0 has prob 2^-12, retry
  ExpHash h = coins.draw_hash(f);
  while (h.q() == 0) h = coins.draw_hash(f);

  std::vector<std::uint64_t> hist(static_cast<std::size_t>(d) + 1, 0);
  for (std::uint64_t p = 0; p < (std::uint64_t{1} << d); ++p) {
    ++hist[static_cast<std::size_t>(h.level(p))];
  }
  for (int l = 0; l < d; ++l) {
    EXPECT_EQ(hist[static_cast<std::size_t>(l)],
              std::uint64_t{1} << (d - 1 - l))
        << "level " << l;
  }
  EXPECT_EQ(hist[static_cast<std::size_t>(d)], 1u);
}

TEST(ExpHash, SharedSeedGivesIdenticalHashes) {
  const Field f(16);
  SharedRandomness a(42), b(42);
  const ExpHash ha = a.draw_hash(f);
  const ExpHash hb = b.draw_hash(f);
  EXPECT_EQ(ha.q(), hb.q());
  EXPECT_EQ(ha.r(), hb.r());
  for (std::uint64_t p = 0; p < 5000; ++p) {
    ASSERT_EQ(ha.level(p), hb.level(p));
  }
}

TEST(ExpHash, DifferentInstancesDiffer) {
  const Field f(16);
  SharedRandomness coins(42);
  const ExpHash h1 = coins.draw_hash(f);
  const ExpHash h2 = coins.draw_hash(f);
  int diff = 0;
  for (std::uint64_t p = 0; p < 1000; ++p) {
    if (h1.level(p) != h2.level(p)) ++diff;
  }
  EXPECT_GT(diff, 100);
}

TEST(ExpHash, PairwiseIndependenceEmpirical) {
  // For fixed distinct p1, p2, over random (q, r) the pair (h(p1) >= 1,
  // h(p2) >= 1) must behave like independent coins of bias 1/2:
  // Pr[both] ~ 1/4.
  const Field f(14);
  int both = 0, first = 0, second = 0;
  const int trials = 20000;
  SharedRandomness coins(123);
  for (int t = 0; t < trials; ++t) {
    const ExpHash h = coins.draw_hash(f);
    const bool a = h.level(17) >= 1;
    const bool b = h.level(90) >= 1;
    both += (a && b) ? 1 : 0;
    first += a ? 1 : 0;
    second += b ? 1 : 0;
  }
  const double pa = static_cast<double>(first) / trials;
  const double pb = static_cast<double>(second) / trials;
  const double pab = static_cast<double>(both) / trials;
  EXPECT_NEAR(pa, 0.5, 0.02);
  EXPECT_NEAR(pb, 0.5, 0.02);
  EXPECT_NEAR(pab, pa * pb, 0.02);
}

// ---------------------------------------------- Field::mul oracle --
//
// ExpHash evaluates h(p) through byte tables; these tests pin it to the
// definition, x = q*p + r computed with Field::mul, for every d in [1, 64].

std::uint64_t oracle_value(const Field& f, std::uint64_t q, std::uint64_t r,
                           std::uint64_t p) {
  const std::uint64_t m = f.order_mask();
  return f.add(f.mul(q & m, p & m), r & m);
}

int oracle_level(const Field& f, std::uint64_t x) {
  const int d = f.dimension();
  return x == 0 ? d : d - util::msb_index(x) - 1;
}

// Asserts value(p) and level(p) equal the oracle's.
void expect_oracle(const Field& f, const ExpHash& h, std::uint64_t p) {
  const std::uint64_t x = oracle_value(f, h.q(), h.r(), p);
  ASSERT_EQ(h.value(p), x) << "d=" << f.dimension() << " p=" << p;
  ASSERT_EQ(h.level(p), oracle_level(f, x))
      << "d=" << f.dimension() << " p=" << p;
}

TEST(ExpHash, TablesMatchFieldMulOracleForEveryDimension) {
  SplitMix64 rng(2024);
  for (int d = 1; d <= 64; ++d) {
    const Field f(d);
    for (int inst = 0; inst < 8; ++inst) {
      const std::uint64_t q = rng.next();
      const std::uint64_t r = rng.next();
      const ExpHash h(f, q, r);
      ASSERT_EQ(h.q(), q & f.order_mask());
      ASSERT_EQ(h.r(), r & f.order_mask());
      for (int i = 0; i < 256; ++i) {
        expect_oracle(f, h, rng.next() & f.order_mask());
      }
    }
  }
}

TEST(ExpHash, BitsAboveDimensionAreIgnored) {
  SplitMix64 rng(77);
  for (int d = 1; d <= 64; ++d) {
    const Field f(d);
    const ExpHash h(f, rng.next(), rng.next());
    for (int i = 0; i < 256; ++i) {
      const std::uint64_t p = rng.next() | ~f.order_mask();
      expect_oracle(f, h, p);
      ASSERT_EQ(h.value(p), h.value(p & f.order_mask())) << "d=" << d;
    }
  }
}

TEST(ExpHash, DomainEndpointsMatchOracle) {
  SplitMix64 rng(5);
  for (int d = 1; d <= 64; ++d) {
    const Field f(d);
    for (int inst = 0; inst < 8; ++inst) {
      const ExpHash h(f, rng.next(), rng.next());
      expect_oracle(f, h, 0);
      expect_oracle(f, h, f.order_mask());
    }
  }
}

TEST(ExpHash, ZeroCoinsGiveTopLevelEverywhere) {
  SplitMix64 rng(6);
  for (int d = 1; d <= 64; ++d) {
    const Field f(d);
    const ExpHash h(f, 0, 0);
    for (const std::uint64_t p : {std::uint64_t{0}, f.order_mask(), rng.next(),
                                  rng.next(), ~std::uint64_t{0}}) {
      ASSERT_EQ(h.value(p), 0u) << "d=" << d;
      ASSERT_EQ(h.level(p), d) << "d=" << d;
      expect_oracle(f, h, p);
    }
  }
}

TEST(ExpHash, WordSlicedLevelsMatchPerPosition) {
  // for_each_level(first, word) must report level(first + b) for exactly
  // the set bits b of word, in ascending order, at every offset of first
  // within its 64-aligned block (d < 6 included: narrower than a word).
  SplitMix64 rng(31);
  for (int d = 1; d <= 64; ++d) {
    const Field f(d);
    const ExpHash h(f, rng.next(), rng.next());
    for (std::uint64_t off = 0; off < 64; ++off) {
      const std::uint64_t first = (rng.next() & ~std::uint64_t{63}) + off;
      const std::uint64_t word = rng.next() | 1 | (std::uint64_t{1} << 63);
      std::uint64_t seen = 0;
      int last = -1;
      h.for_each_level(first, word, [&](int b, int level) {
        ASSERT_GT(b, last);
        last = b;
        seen |= std::uint64_t{1} << b;
        const std::uint64_t p = first + static_cast<std::uint64_t>(b);
        ASSERT_EQ(level, oracle_level(f, oracle_value(f, h.q(), h.r(), p)))
            << "d=" << d << " first=" << first << " b=" << b;
      });
      ASSERT_EQ(seen, word) << "d=" << d << " off=" << off;
    }
  }
}

TEST(ExpHash, TablesAreCeilDOver8Rows) {
  // 256 entries of 8 bytes per byte of d: 6 KiB at d = 21.
  EXPECT_EQ(ExpHash(Field(21), 3, 4).table_bytes(), 6144u);
  EXPECT_EQ(ExpHash(Field(1), 3, 4).table_bytes(), 2048u);
  EXPECT_EQ(ExpHash(Field(64), 3, 4).table_bytes(), 16384u);
}

TEST(SharedRandomness, BitAccounting) {
  SharedRandomness coins(5);
  EXPECT_EQ(coins.seed_bits_consumed(), 0u);
  const Field f(8);
  (void)coins.draw_hash(f);
  EXPECT_EQ(coins.seed_bits_consumed(), 128u);  // q and r
}

TEST(SplitMix, Deterministic) {
  SplitMix64 a(9), b(9);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace waves::gf2
