// The batch ingest path (PackedBitStream + update_words/update_batch +
// Party::observe_*) must be BIT-EXACT equivalent to the per-bit path:
// same pos/rank, same level contents, same discarded bookkeeping, same
// estimates — for every wave type, across random streams split into
// random (deliberately word-unaligned) batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/basic_wave.hpp"
#include "core/det_wave.hpp"
#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "core/sum_wave.hpp"
#include "core/ts_wave.hpp"
#include "distributed/party.hpp"
#include "gf2/shared_randomness.hpp"
#include "stream/generators.hpp"
#include "util/bitops.hpp"
#include "util/packed_bits.hpp"

namespace waves {
namespace {

// ---------------------------------------------------------------- unit --

TEST(PackedBitStream, AppendAndReadRoundTrip) {
  util::PackedBitStream p;
  EXPECT_TRUE(p.empty());
  std::vector<bool> ref;
  gf2::SplitMix64 rng(1);
  for (int i = 0; i < 300; ++i) {
    const bool b = (rng.next() & 1) != 0;
    p.append(b);
    ref.push_back(b);
  }
  ASSERT_EQ(p.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(p.bit(i), ref[i]) << "bit " << i;
  }
  EXPECT_EQ(p.to_bools(), ref);
  std::uint64_t ones = 0;
  for (const bool b : ref) ones += b ? 1 : 0;
  EXPECT_EQ(p.ones(), ones);
}

TEST(PackedBitStream, AppendWordIsLsbFirst) {
  util::PackedBitStream p;
  p.append_word(0b1011, 4);  // stream order: 1,1,0,1
  ASSERT_EQ(p.size(), 4u);
  EXPECT_TRUE(p.bit(0));
  EXPECT_TRUE(p.bit(1));
  EXPECT_FALSE(p.bit(2));
  EXPECT_TRUE(p.bit(3));
  p.append_word(~std::uint64_t{0});
  ASSERT_EQ(p.size(), 68u);
  EXPECT_EQ(p.ones(), 67u);
}

TEST(PackedBitStream, AppendZerosAndClear) {
  util::PackedBitStream p;
  p.append(true);
  p.append_zeros(130);
  p.append(true);
  ASSERT_EQ(p.size(), 132u);
  EXPECT_EQ(p.ones(), 2u);
  EXPECT_TRUE(p.bit(0));
  EXPECT_TRUE(p.bit(131));
  for (std::uint64_t i = 1; i < 131; ++i) ASSERT_FALSE(p.bit(i));
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.words().size(), 0u);
}

TEST(PackedBitStream, FromBoolsToBoolsRoundTrip) {
  gf2::SplitMix64 rng(2);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{1000}}) {
    std::vector<bool> ref(n);
    for (std::size_t i = 0; i < n; ++i) ref[i] = (rng.next() & 1) != 0;
    const auto p = util::PackedBitStream::from_bools(ref);
    ASSERT_EQ(p.size(), n);
    EXPECT_EQ(p.to_bools(), ref);
    // Bits past size() in the last word must be zero (the words() contract
    // the waves' tail-masking relies on).
    if (n % 64 != 0 && !p.words().empty()) {
      EXPECT_EQ(p.words().back() &
                    ~util::low_bits_mask(static_cast<int>(n % 64)),
                0u);
    }
  }
}

TEST(PackedBitStream, PackStreamsPacksEach) {
  const std::vector<std::vector<bool>> streams = {
      {true, false, true}, {}, {false, false, true, true}};
  const auto packed = util::pack_streams(streams);
  ASSERT_EQ(packed.size(), streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    EXPECT_EQ(packed[i].to_bools(), streams[i]);
  }
}

TEST(TakePackedMatchesTake, SameSeedSameBits) {
  stream::BernoulliBits a(0.3, 99), b(0.3, 99);
  const auto bools = stream::take(a, 777);
  const auto packed = stream::take_packed(b, 777);
  EXPECT_EQ(packed.to_bools(), bools);
  EXPECT_EQ(stream::exact_ones_in_window(packed, 300),
            stream::exact_ones_in_window(bools, 300));
  EXPECT_EQ(stream::exact_ones_in_window(packed, 10000),
            stream::exact_ones_in_window(bools, 10000));
}

// -------------------------------------------------------- differential --

std::vector<bool> random_bits(std::size_t n, double density,
                              std::uint64_t seed) {
  stream::BernoulliBits gen(density, seed);
  return stream::take(gen, n);
}

// Splits `bits` into random-length batches (word-unaligned on purpose),
// feeding the reference per-bit and the subject per-batch; calls check()
// after every batch.
template <class PerBit, class PerBatch, class Check>
void run_split(const std::vector<bool>& bits, std::uint64_t seed,
               PerBit per_bit, PerBatch per_batch, Check check) {
  gf2::SplitMix64 rng(seed);
  std::size_t i = 0;
  while (i < bits.size()) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next() % 200, bits.size() - i);
    util::PackedBitStream batch;
    for (std::size_t k = i; k < i + len; ++k) {
      per_bit(bits[k]);
      batch.append(bits[k]);
    }
    per_batch(batch);
    i += len;
    check();
  }
}

constexpr double kDensities[] = {0.01, 0.2, 0.7};

TEST(BatchIngest, BasicWaveBitExact) {
  for (const double density : kDensities) {
    const std::uint64_t window = 512;
    core::BasicWave ref(8, window), bat(8, window);
    const auto bits =
        random_bits(4000, density, 7 + static_cast<std::uint64_t>(density * 100));
    run_split(
        bits, 11, [&](bool b) { ref.update(b); },
        [&](const util::PackedBitStream& p) { bat.update_batch(p); },
        [&] {
          ASSERT_EQ(ref.pos(), bat.pos());
          ASSERT_EQ(ref.rank(), bat.rank());
          for (int l = 0; l < ref.levels(); ++l) {
            ASSERT_EQ(ref.level_contents(l), bat.level_contents(l))
                << "level " << l << " pos " << ref.pos();
          }
          for (const std::uint64_t n : {std::uint64_t{1}, window / 3, window}) {
            ASSERT_DOUBLE_EQ(ref.query(n).value, bat.query(n).value);
          }
        });
  }
}

TEST(BatchIngest, DetWaveBitExact) {
  for (const bool weak : {false, true}) {
    for (const double density : kDensities) {
      const std::uint64_t window = 300;
      core::DetWave ref(6, window, weak), bat(6, window, weak);
      const auto bits = random_bits(
          4000, density, 13 + static_cast<std::uint64_t>(density * 100));
      run_split(
          bits, 17, [&](bool b) { ref.update(b); },
          [&](const util::PackedBitStream& p) { bat.update_batch(p); },
          [&] {
            ASSERT_EQ(ref.pos(), bat.pos());
            ASSERT_EQ(ref.rank(), bat.rank());
            ASSERT_EQ(ref.largest_discarded_rank(),
                      bat.largest_discarded_rank());
            ASSERT_EQ(ref.entries(), bat.entries()) << "pos " << ref.pos();
            for (const std::uint64_t n :
                 {std::uint64_t{1}, window / 3, window}) {
              ASSERT_DOUBLE_EQ(ref.query(n).value, bat.query(n).value);
            }
          });
    }
  }
}

TEST(BatchIngest, DetWaveMixedPathsCompose) {
  // Interleave the three ingest paths on one wave; a pure per-bit wave is
  // the oracle.
  const std::uint64_t window = 200;
  core::DetWave ref(5, window), mix(5, window);
  gf2::SplitMix64 rng(23);
  const auto bits = random_bits(6000, 0.3, 31);
  std::size_t i = 0;
  while (i < bits.size()) {
    const std::uint64_t mode = rng.next() % 3;
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next() % 150, bits.size() - i);
    for (std::size_t k = i; k < i + len; ++k) ref.update(bits[k]);
    if (mode == 0) {
      for (std::size_t k = i; k < i + len; ++k) mix.update(bits[k]);
    } else if (mode == 1 &&
               std::none_of(bits.begin() + static_cast<std::ptrdiff_t>(i),
                            bits.begin() + static_cast<std::ptrdiff_t>(i + len),
                            [](bool b) { return b; })) {
      mix.skip_zeros(len);
    } else {
      util::PackedBitStream p;
      for (std::size_t k = i; k < i + len; ++k) p.append(bits[k]);
      mix.update_batch(p);
    }
    i += len;
    ASSERT_EQ(ref.pos(), mix.pos());
    ASSERT_EQ(ref.rank(), mix.rank());
    ASSERT_EQ(ref.largest_discarded_rank(), mix.largest_discarded_rank());
    ASSERT_EQ(ref.entries(), mix.entries());
  }
}

TEST(BatchIngest, SumWaveBitExact) {
  for (const double density : kDensities) {
    const std::uint64_t window = 300;
    core::SumWave ref(6, window, 1), bat(6, window, 1);
    const auto bits = random_bits(
        4000, density, 19 + static_cast<std::uint64_t>(density * 100));
    run_split(
        bits, 29, [&](bool b) { ref.update(b ? 1 : 0); },
        [&](const util::PackedBitStream& p) { bat.update_batch(p); },
        [&] {
          ASSERT_EQ(ref.pos(), bat.pos());
          ASSERT_EQ(ref.total(), bat.total());
          ASSERT_EQ(ref.largest_discarded_partial(),
                    bat.largest_discarded_partial());
          for (const std::uint64_t n : {std::uint64_t{1}, window / 3, window}) {
            ASSERT_DOUBLE_EQ(ref.query(n).value, bat.query(n).value);
          }
        });
  }
}

TEST(BatchIngest, TsWaveBitExact) {
  for (const double density : kDensities) {
    const std::uint64_t window = 300;
    core::TsWave ref(6, window, 2 * window), bat(6, window, 2 * window);
    const auto bits = random_bits(
        4000, density, 37 + static_cast<std::uint64_t>(density * 100));
    run_split(
        bits, 41,
        [&](bool b) { ref.update(ref.current_position() + 1, b); },
        [&](const util::PackedBitStream& p) { bat.update_batch(p); },
        [&] {
          ASSERT_EQ(ref.current_position(), bat.current_position());
          ASSERT_EQ(ref.rank(), bat.rank());
          ASSERT_EQ(ref.largest_discarded_rank(),
                    bat.largest_discarded_rank());
          for (const std::uint64_t n : {std::uint64_t{1}, window / 3, window}) {
            ASSERT_DOUBLE_EQ(ref.query(n).value, bat.query(n).value);
          }
        });
  }
}

TEST(BatchIngest, RandWaveBitExact) {
  for (const double density : kDensities) {
    const std::uint64_t window = 400;
    const gf2::Field f(
        util::floor_log2(util::next_pow2_at_least(2 * window)));
    gf2::SharedRandomness coins_a(77), coins_b(77);
    const core::RandWave::Params params{.eps = 0.3, .window = window, .c = 8};
    core::RandWave ref(params, f, coins_a), bat(params, f, coins_b);
    const auto bits = random_bits(
        4000, density, 43 + static_cast<std::uint64_t>(density * 100));
    run_split(
        bits, 47, [&](bool b) { ref.update(b); },
        [&](const util::PackedBitStream& p) { bat.update_batch(p); },
        [&] {
          const auto ca = ref.checkpoint();
          const auto cb = bat.checkpoint();
          ASSERT_EQ(ca.pos, cb.pos);
          ASSERT_EQ(ca.queues, cb.queues) << "pos " << ca.pos;
          ASSERT_EQ(ca.evicted_bounds, cb.evicted_bounds);
          for (const std::uint64_t n : {std::uint64_t{1}, window / 3, window}) {
            ASSERT_DOUBLE_EQ(ref.estimate(n).value, bat.estimate(n).value);
          }
        });
  }
}

TEST(BatchIngest, RandWaveWordSlicedEveryDimensionAndOffset) {
  // Windows 1, 2, 4, ..., 64 give d = 1..7 (d < 6: a field narrower than a
  // word) and 2^20 gives d = 21. Batch lengths are 1 mod 64, so batch k
  // starts at offset k mod 64 and each batch straddles 64-aligned blocks.
  for (const std::uint64_t window :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{4}, std::uint64_t{8},
        std::uint64_t{16}, std::uint64_t{32}, std::uint64_t{64},
        std::uint64_t{1} << 20}) {
    const int d = util::floor_log2(util::next_pow2_at_least(2 * window));
    const gf2::Field f(d);
    gf2::SharedRandomness coins_a(91), coins_b(91);
    const core::RandWave::Params params{.eps = 0.3, .window = window, .c = 8};
    core::RandWave ref(params, f, coins_a), bat(params, f, coins_b);
    const auto bits =
        random_bits(64 * 130, 0.6, 53 + static_cast<std::uint64_t>(d));
    std::uint64_t offsets_seen = 0;
    std::size_t i = 0;
    for (int k = 0; i < bits.size(); ++k) {
      offsets_seen |= std::uint64_t{1} << (i % 64);
      const std::size_t len =
          std::min<std::size_t>(k % 2 == 0 ? 65 : 193, bits.size() - i);
      util::PackedBitStream batch;
      for (std::size_t j = i; j < i + len; ++j) {
        ref.update(bits[j]);
        batch.append(bits[j]);
      }
      bat.update_batch(batch);
      i += len;
      const auto ca = ref.checkpoint();
      const auto cb = bat.checkpoint();
      ASSERT_EQ(ca.pos, cb.pos) << "d=" << d;
      ASSERT_EQ(ca.queues, cb.queues) << "d=" << d << " pos " << ca.pos;
      ASSERT_EQ(ca.evicted_bounds, cb.evicted_bounds) << "d=" << d;
    }
    EXPECT_EQ(offsets_seen, ~std::uint64_t{0}) << "d=" << d;
  }
}

TEST(BatchIngest, DistinctWaveBatchEquivalent) {
  const std::uint64_t window = 256;
  const core::DistinctWave::Params params{
      .eps = 0.3, .window = window, .max_value = 1023, .c = 8};
  const gf2::Field f(core::DistinctWave::field_dimension(params));
  gf2::SharedRandomness coins_a(5), coins_b(5);
  core::DistinctWave ref(params, f, coins_a), bat(params, f, coins_b);
  gf2::SplitMix64 rng(53);
  std::vector<std::uint64_t> values(3000);
  for (auto& v : values) v = rng.next() % 1024;
  std::size_t i = 0;
  while (i < values.size()) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next() % 100, values.size() - i);
    for (std::size_t k = i; k < i + len; ++k) ref.update(values[k]);
    bat.update_batch(std::span<const std::uint64_t>(values).subspan(i, len));
    i += len;
    const auto ca = ref.checkpoint();
    const auto cb = bat.checkpoint();
    ASSERT_EQ(ca.pos, cb.pos);
    ASSERT_EQ(ca.levels, cb.levels);
    ASSERT_EQ(ca.evicted_bounds, cb.evicted_bounds);
    ASSERT_DOUBLE_EQ(ref.estimate(window).value, bat.estimate(window).value);
  }
}

// ------------------------------------------------------------- parties --

TEST(BatchIngest, CountPartyObserveWordsMatchesObserve) {
  const std::uint64_t window = 512;
  const core::RandWave::Params params{.eps = 0.3, .window = window, .c = 8};
  distributed::CountParty ref(params, 3, 123), bat(params, 3, 123);
  const auto bits = random_bits(5000, 0.25, 61);
  const auto packed = util::PackedBitStream::from_bools(bits);
  for (const bool b : bits) ref.observe(b);
  // Feed the packed words in word-aligned chunks with an unaligned total —
  // exactly the shape parallel_feed produces.
  const auto words = packed.words();
  const std::uint64_t chunk = 17 * 64;
  for (std::uint64_t off = 0; off < packed.size(); off += chunk) {
    const std::uint64_t nbits = std::min(chunk, packed.size() - off);
    bat.observe_words(words.subspan(off / 64, (nbits + 63) / 64), nbits);
  }
  ASSERT_EQ(ref.items_observed(), bat.items_observed());
  for (const std::uint64_t n : {std::uint64_t{1}, window / 2, window}) {
    const auto sa = ref.snapshots(n);
    const auto sb = bat.snapshots(n);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t j = 0; j < sa.size(); ++j) {
      EXPECT_EQ(sa[j].level, sb[j].level);
      EXPECT_EQ(sa[j].stream_len, sb[j].stream_len);
      EXPECT_EQ(sa[j].positions, sb[j].positions);
    }
  }
}

TEST(BatchIngest, DistinctPartyObserveBatchMatchesObserve) {
  const std::uint64_t window = 256;
  const core::DistinctWave::Params params{
      .eps = 0.3, .window = window, .max_value = 511, .c = 8};
  distributed::DistinctParty ref(params, 3, 321), bat(params, 3, 321);
  gf2::SplitMix64 rng(67);
  std::vector<std::uint64_t> values(3000);
  for (auto& v : values) v = rng.next() % 512;
  for (const std::uint64_t v : values) ref.observe(v);
  const std::span<const std::uint64_t> vals(values);
  for (std::size_t off = 0; off < values.size(); off += 700) {
    bat.observe_batch(vals.subspan(off, std::min<std::size_t>(
                                            700, values.size() - off)));
  }
  ASSERT_EQ(ref.items_observed(), bat.items_observed());
  const auto sa = ref.snapshots(window);
  const auto sb = bat.snapshots(window);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t j = 0; j < sa.size(); ++j) {
    EXPECT_EQ(sa[j].level, sb[j].level);
    EXPECT_EQ(sa[j].stream_len, sb[j].stream_len);
    EXPECT_EQ(sa[j].items, sb[j].items);
  }
}

}  // namespace
}  // namespace waves
