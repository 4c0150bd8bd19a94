// Fast-query-path tests: wave/party delta codec round-trips (the
// unconditional apply(base, encode(base, now)) == now guarantee), hostile
// input rejection, change_cursor monotonicity, snapshot_from_checkpoint
// equivalence, and live differential runs pinning the v3 delta client
// against the v2 full client — including the cursor-stale, delta-disabled,
// and restart (generation bump) fallback legs. Suite names start with
// RecoveryDelta / NetDelta so the TSan CI leg's -R "...|Net|Recovery"
// regex picks them up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/basic_wave.hpp"
#include "core/checkpoint.hpp"
#include "core/det_wave.hpp"
#include "core/distinct_wave.hpp"
#include "core/rand_wave.hpp"
#include "core/sum_wave.hpp"
#include "core/ts_sum_wave.hpp"
#include "core/ts_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "gf2/gf2.hpp"
#include "gf2/shared_randomness.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/net_obs.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/delta.hpp"
#include "recovery/delta_live.hpp"
#include "recovery/mirror.hpp"
#include "stream/generators.hpp"
#include "stream/splitters.hpp"
#include "stream/value_streams.hpp"
#include "util/bitops.hpp"
#include "util/packed_bits.hpp"

namespace waves::recovery {
namespace {

using distributed::Bytes;
using distributed::put_varint;

// -- wave-level delta round-trips ------------------------------------------
// Shared shape: ingest, checkpoint a baseline, ingest more (several stage
// sizes, including zero — the unchanged case — and enough to expire the
// whole baseline), and require get_delta(base) to reproduce the new
// checkpoint exactly at every stage.

template <class Checkpoint, class Ingest, class MakeCk>
void roundtrip_stages(Ingest&& ingest, MakeCk&& make_ck) {
  Checkpoint base = make_ck();
  for (const int stage : {0, 1, 7, 250, 5000}) {
    ingest(stage);
    const Checkpoint now = make_ck();
    Bytes buf;
    put_delta(buf, base, now);
    Checkpoint out;
    std::size_t at = 0;
    ASSERT_TRUE(get_delta(buf, at, base, out)) << stage;
    EXPECT_EQ(at, buf.size()) << stage;
    EXPECT_EQ(out, now) << stage;
    base = now;
  }
}

// A RandWave plus its feed, for the wave-level tests below.
struct RandFixture {
  static constexpr std::uint64_t kWindow = 256;
  explicit RandFixture(std::uint64_t seed)
      : field(util::floor_log2(util::next_pow2_at_least(2 * kWindow))),
        coins(99),
        wave({.eps = 0.3, .window = kWindow, .c = 8}, field, coins),
        gen(0.5, seed) {}
  void ingest(int k) {
    for (int i = 0; i < k; ++i) wave.update(gen.next());
  }
  gf2::Field field;
  gf2::SharedRandomness coins;
  core::RandWave wave;
  stream::BernoulliBits gen;
};

TEST(RecoveryDelta, RandWaveRoundTrip) {
  RandFixture r(3);
  r.ingest(1500);
  roundtrip_stages<core::RandWaveCheckpoint>([&](int k) { r.ingest(k); },
                                             [&] { return r.wave.checkpoint(); });
}

TEST(RecoveryDelta, DistinctWaveRoundTrip) {
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 5000,
                               .c = 8};
  const gf2::Field f(core::DistinctWave::field_dimension(p));
  gf2::SharedRandomness coins(7);
  core::DistinctWave w(p, f, coins);
  stream::UniformValues gen(0, 5000, 13);
  for (int i = 0; i < 1000; ++i) w.update(gen.next());
  roundtrip_stages<core::DistinctWaveCheckpoint>(
      [&](int k) {
        for (int i = 0; i < k; ++i) w.update(gen.next());
      },
      [&] { return w.checkpoint(); });
}

TEST(RecoveryDelta, FullFormLegDecodesAgainstAnyBaseline) {
  // A body whose flags select "full" must decode regardless of what
  // baseline the decoder holds — this is the self-check fallback's escape
  // hatch, so it has to work even against a garbage baseline.
  RandFixture a(41), b(43);
  a.ingest(1500);
  b.ingest(300);
  const auto now = a.wave.checkpoint();
  Bytes buf;
  put_varint(buf, 1);  // kFlagFull
  put_checkpoint(buf, now);
  core::RandWaveCheckpoint out;
  std::size_t at = 0;
  ASSERT_TRUE(get_delta(buf, at, b.wave.checkpoint(), out));
  EXPECT_EQ(at, buf.size());
  EXPECT_EQ(out, now);
}

TEST(RecoveryDelta, UnchangedStateGivesTinyDelta) {
  RandFixture r(5);
  r.ingest(1500);
  const auto ck = r.wave.checkpoint();

  Bytes full;
  put_checkpoint(full, ck);
  Bytes delta;
  put_delta(delta, ck, ck);
  EXPECT_LT(delta.size(), full.size());

  core::RandWaveCheckpoint out;
  std::size_t at = 0;
  ASSERT_TRUE(get_delta(delta, at, ck, out));
  EXPECT_EQ(out, ck);
}

// -- party-level deltas ----------------------------------------------------

void expect_same(const distributed::CountPartyCheckpoint& a,
                 const distributed::CountPartyCheckpoint& b) {
  EXPECT_EQ(a.cursor, b.cursor);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (std::size_t i = 0; i < a.waves.size(); ++i) {
    EXPECT_EQ(a.waves[i], b.waves[i]) << i;
  }
}

void expect_same(const distributed::DistinctPartyCheckpoint& a,
                 const distributed::DistinctPartyCheckpoint& b) {
  EXPECT_EQ(a.cursor, b.cursor);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (std::size_t i = 0; i < a.waves.size(); ++i) {
    EXPECT_EQ(a.waves[i], b.waves[i]) << i;
  }
}

TEST(RecoveryDelta, CountPartyRoundTripAndHostileInput) {
  distributed::CountParty party({.eps = 0.3, .window = 128, .c = 8}, 3, 42);
  stream::BernoulliBits bits(0.3, 5);
  for (int i = 0; i < 500; ++i) party.observe(bits.next());
  const auto base = party.checkpoint();
  for (int i = 0; i < 90; ++i) party.observe(bits.next());
  const auto now = party.checkpoint();

  const Bytes delta = encode_delta(base, now);
  distributed::CountPartyCheckpoint out;
  ASSERT_TRUE(apply_delta(base, delta, out));
  expect_same(out, now);

  // A baseline with a different instance count forces the full form — the
  // delta must still reproduce `now` exactly.
  distributed::CountParty other({.eps = 0.3, .window = 128, .c = 8}, 2, 42);
  const auto short_base = other.checkpoint();
  const Bytes forced = encode_delta(short_base, now);
  distributed::CountPartyCheckpoint out2;
  ASSERT_TRUE(apply_delta(short_base, forced, out2));
  expect_same(out2, now);

  // Trailing garbage: rejected, out untouched.
  Bytes garbage = delta;
  garbage.push_back(0x01);
  distributed::CountPartyCheckpoint sentinel;
  sentinel.cursor = 999;
  EXPECT_FALSE(apply_delta(base, garbage, sentinel));
  EXPECT_EQ(sentinel.cursor, 999u);

  // Every strict prefix: rejected.
  for (std::size_t cut = 0; cut < delta.size(); ++cut) {
    const Bytes prefix(delta.begin(),
                       delta.begin() + static_cast<std::ptrdiff_t>(cut));
    distributed::CountPartyCheckpoint o;
    EXPECT_FALSE(apply_delta(base, prefix, o)) << cut;
  }

  // Random byte fuzz must never crash and must fail or fully parse.
  gf2::SplitMix64 rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes noise(rng.next() % 60);
    for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next());
    distributed::CountPartyCheckpoint o;
    (void)apply_delta(base, noise, o);
  }
}

TEST(RecoveryDelta, DistinctPartyRoundTrip) {
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 4096,
                               .c = 8};
  distributed::DistinctParty party(p, 3, 7);
  stream::UniformValues gen(0, 4096, 19);
  for (int i = 0; i < 800; ++i) party.observe(gen.next());
  auto base = party.checkpoint();
  // Several rounds, including an unchanged one.
  for (const int chunk : {0, 40, 300, 0, 2000}) {
    for (int i = 0; i < chunk; ++i) party.observe(gen.next());
    const auto now = party.checkpoint();
    distributed::DistinctPartyCheckpoint out;
    ASSERT_TRUE(apply_delta(base, encode_delta(base, now), out)) << chunk;
    expect_same(out, now);
    base = now;
  }
}

TEST(RecoveryDelta, ApplyIntoReusesDirtyDestination) {
  // apply_delta_into's contract: any prior contents of `out` — stale wave
  // counts, stale queue lengths — are fully overwritten on success. The
  // client ping-pongs two checkpoints through it, so each call's `out` is
  // the round-before-last's state, not a fresh object.
  distributed::CountParty party({.eps = 0.3, .window = 128, .c = 8}, 3, 42);
  stream::BernoulliBits bits(0.3, 5);
  for (int i = 0; i < 500; ++i) party.observe(bits.next());
  auto base = party.checkpoint();

  distributed::CountPartyCheckpoint slots[2];
  slots[0] = base;  // anything: gets overwritten below
  slots[1].cursor = 12345;
  int cur = 0;
  for (const int chunk : {70, 0, 40, 900, 5}) {
    for (int i = 0; i < chunk; ++i) party.observe(bits.next());
    const auto now = party.checkpoint();
    distributed::CountPartyCheckpoint& out = slots[cur ^ 1];
    ASSERT_TRUE(apply_delta_into(base, encode_delta(base, now), out))
        << chunk;
    expect_same(out, now);
    base = now;
    cur ^= 1;
  }

  // Wrapper and _into agree on success...
  for (int i = 0; i < 30; ++i) party.observe(bits.next());
  const auto now = party.checkpoint();
  const Bytes delta = encode_delta(base, now);
  distributed::CountPartyCheckpoint a, b;
  ASSERT_TRUE(apply_delta(base, delta, a));
  ASSERT_TRUE(apply_delta_into(base, delta, b));
  expect_same(a, b);

  // ...and _into rejects the same hostile inputs (out is unspecified after
  // a failure, so only the verdict is asserted).
  Bytes garbage = delta;
  garbage.push_back(0x01);
  distributed::CountPartyCheckpoint scratch;
  EXPECT_FALSE(apply_delta_into(base, garbage, scratch));
  for (std::size_t cut = 0; cut < delta.size(); ++cut) {
    const Bytes prefix(delta.begin(),
                       delta.begin() + static_cast<std::ptrdiff_t>(cut));
    distributed::CountPartyCheckpoint o;
    EXPECT_FALSE(apply_delta_into(base, prefix, o)) << cut;
  }
  gf2::SplitMix64 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes noise(rng.next() % 60);
    for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next());
    distributed::CountPartyCheckpoint o;
    (void)apply_delta_into(base, noise, o);
  }
}

TEST(RecoveryDelta, DistinctApplyIntoPingPong) {
  core::DistinctWave::Params p{.eps = 0.4, .window = 200, .max_value = 4096,
                               .c = 8};
  distributed::DistinctParty party(p, 3, 7);
  stream::UniformValues gen(0, 4096, 19);
  for (int i = 0; i < 800; ++i) party.observe(gen.next());
  auto base = party.checkpoint();

  distributed::DistinctPartyCheckpoint slots[2];
  int cur = 0;
  for (const int chunk : {40, 0, 300, 0, 2000}) {
    for (int i = 0; i < chunk; ++i) party.observe(gen.next());
    const auto now = party.checkpoint();
    distributed::DistinctPartyCheckpoint& out = slots[cur ^ 1];
    ASSERT_TRUE(apply_delta_into(base, encode_delta(base, now), out))
        << chunk;
    expect_same(out, now);
    base = now;
    cur ^= 1;
  }
}

TEST(RecoveryDelta, SteadyStateDeltaIsSmallerThanFull) {
  // The property E18 measures, at unit scale: after a big backlog, a small
  // round's delta must undercut re-sending the full synopsis by a wide
  // margin (the ISSUE's acceptance bar is 5x at the system level).
  distributed::CountParty party({.eps = 0.1, .window = 4096, .c = 36}, 5, 3);
  stream::BernoulliBits bits(0.3, 9);
  for (int i = 0; i < 20000; ++i) party.observe(bits.next());
  const auto base = party.checkpoint();
  for (int i = 0; i < 64; ++i) party.observe(bits.next());
  const auto now = party.checkpoint();

  const Bytes delta = encode_delta(base, now);
  const Bytes full = encode(now);
  EXPECT_LT(delta.size() * 5, full.size())
      << "delta " << delta.size() << " vs full " << full.size();
}

// -- the referee-side party mirror -----------------------------------------
// recovery/mirror.hpp: the one routine every transport folds its
// DeltaReply-shaped bodies through (RefereeClient pulls, MonitorHub pushes).

struct MirrorFixture {
  static constexpr std::uint64_t kWindow = 256;
  MirrorFixture() : party({.eps = 0.3, .window = kWindow, .c = 8}, 3, 42) {
    ingest(900);
  }
  void ingest(int k) {
    for (int i = 0; i < k; ++i) party.observe(bits.next());
  }
  distributed::CountParty party;
  stream::BernoulliBits bits{0.3, 11};
};

void expect_same(const std::vector<core::RandWaveSnapshot>& a,
                 const std::vector<core::RandWaveSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].level, b[i].level) << i;
    EXPECT_EQ(a[i].stream_len, b[i].stream_len) << i;
    EXPECT_EQ(a[i].positions, b[i].positions) << i;
  }
}

TEST(RecoveryDelta, MirrorUnchangedEchoMustMatchHeldCursor) {
  MirrorFixture f;
  CountMirror m;
  std::string err;
  // Nothing held: an "unchanged" echo has nothing to refer to.
  EXPECT_EQ(m.apply(1, 1, Bytes{}, 1, 3, err), MirrorApply::kRejected);
  ASSERT_EQ(m.apply(0, 5, encode(f.party.checkpoint()), 1, 3, err),
            MirrorApply::kFull)
      << err;
  // An echo naming any other cursor, in either field, is rejected.
  EXPECT_EQ(m.apply(4, 4, Bytes{}, 1, 3, err), MirrorApply::kRejected);
  EXPECT_EQ(m.apply(5, 6, Bytes{}, 1, 3, err), MirrorApply::kRejected);
  EXPECT_EQ(m.apply(6, 5, Bytes{}, 1, 3, err), MirrorApply::kRejected);
  EXPECT_EQ(m.cursor(), 5u);
  EXPECT_EQ(m.apply(5, 5, Bytes{}, 1, 3, err), MirrorApply::kUnchanged);
  EXPECT_EQ(m.cursor(), 5u);
  expect_same(m.base(), f.party.checkpoint());
}

TEST(RecoveryDelta, MirrorRejectsDeltaAgainstCursorItDoesNotHold) {
  MirrorFixture f;
  const auto base = f.party.checkpoint();
  f.ingest(60);
  const Bytes delta = encode_delta(base, f.party.checkpoint());
  CountMirror m;
  std::string err;
  // Nothing held: a diff has no baseline to apply to.
  EXPECT_EQ(m.apply(5, 6, delta, 1, 3, err), MirrorApply::kRejected);
  EXPECT_EQ(m.cursor(), 0u);
  ASSERT_EQ(m.apply(0, 5, encode(base), 1, 3, err), MirrorApply::kFull);
  // A diff against a cursor other than the held one is rejected, even
  // though its bytes would decode against the held state.
  EXPECT_EQ(m.apply(4, 6, delta, 1, 3, err), MirrorApply::kRejected);
  EXPECT_EQ(m.cursor(), 5u);
  expect_same(m.base(), base);
  ASSERT_EQ(m.apply(5, 6, delta, 1, 3, err), MirrorApply::kDelta) << err;
  expect_same(m.base(), f.party.checkpoint());
}

TEST(RecoveryDelta, MirrorFailedApplyLeavesBaseUsable) {
  MirrorFixture f;
  const auto base = f.party.checkpoint();
  CountMirror m;
  std::string err;
  ASSERT_EQ(m.apply(0, 1, encode(base), 1, 3, err), MirrorApply::kFull);
  f.ingest(80);
  const Bytes delta = encode_delta(base, f.party.checkpoint());

  // Undecodable bodies against the held cursor, and an undecodable full
  // body, are rejected; each one dirties the mirror's scratch.
  Bytes garbage = delta;
  garbage.push_back(0x01);
  const Bytes truncated(delta.begin(), delta.end() - 1);
  EXPECT_EQ(m.apply(1, 2, garbage, 1, 3, err), MirrorApply::kRejected);
  EXPECT_EQ(m.apply(1, 2, truncated, 1, 3, err), MirrorApply::kRejected);
  EXPECT_EQ(m.apply(0, 2, Bytes{0xFF}, 1, 3, err), MirrorApply::kRejected);
  EXPECT_EQ(m.cursor(), 1u);
  expect_same(m.base(), base);

  // The base is still the one the sender diffed against: the next valid
  // delta applies and reproduces the party's checkpoint.
  ASSERT_EQ(m.apply(1, 2, delta, 1, 3, err), MirrorApply::kDelta) << err;
  expect_same(m.base(), f.party.checkpoint());
}

TEST(RecoveryDelta, MirrorSnapshotCacheKeyedOnCursorAndN) {
  MirrorFixture f;
  CountMirror m;
  std::string err;
  ASSERT_EQ(m.apply(0, 1, encode(f.party.checkpoint()), 1, 3, err),
            MirrorApply::kFull);
  bool hit = true;
  expect_same(m.snapshots(MirrorFixture::kWindow, 0, hit),
              f.party.snapshots(MirrorFixture::kWindow));
  EXPECT_FALSE(hit);
  (void)m.snapshots(MirrorFixture::kWindow, 0, hit);
  EXPECT_TRUE(hit);
  // An "unchanged" echo keeps the cache.
  ASSERT_EQ(m.apply(1, 1, Bytes{}, 1, 3, err), MirrorApply::kUnchanged);
  (void)m.snapshots(MirrorFixture::kWindow, 0, hit);
  EXPECT_TRUE(hit);

  // Another n rebuilds (and matches the live party), then hits.
  expect_same(m.snapshots(100, 0, hit), f.party.snapshots(100));
  EXPECT_FALSE(hit);
  (void)m.snapshots(100, 0, hit);
  EXPECT_TRUE(hit);

  // A delta moves the cursor: rebuild at the same n.
  const auto base = f.party.checkpoint();
  f.ingest(50);
  ASSERT_EQ(m.apply(1, 2, encode_delta(base, f.party.checkpoint()), 1, 3, err),
            MirrorApply::kDelta);
  expect_same(m.snapshots(100, 0, hit), f.party.snapshots(100));
  EXPECT_FALSE(hit);

  // Same generation keeps everything; a new one drops the mirror.
  EXPECT_FALSE(m.resync(1));
  EXPECT_EQ(m.cursor(), 2u);
  EXPECT_TRUE(m.resync(2));
  EXPECT_EQ(m.cursor(), 0u);
}

TEST(RecoveryDelta, MirrorRejectsInstanceCountMismatch) {
  MirrorFixture f;  // three instances
  CountMirror m;
  std::string err;
  EXPECT_EQ(m.apply(0, 1, encode(f.party.checkpoint()), 1, 4, err),
            MirrorApply::kRejected);
  EXPECT_EQ(m.cursor(), 0u);
  ASSERT_EQ(m.apply(0, 1, encode(f.party.checkpoint()), 1, 3, err),
            MirrorApply::kFull);

  // A rebase carrying another instance count is rejected and the held
  // state survives it.
  distributed::CountParty other({.eps = 0.3, .window = MirrorFixture::kWindow,
                                 .c = 8},
                                2, 42);
  EXPECT_EQ(m.apply(0, 2, encode(other.checkpoint()), 1, 3, err),
            MirrorApply::kRejected);
  EXPECT_NE(err.find("instances"), std::string::npos) << err;
  EXPECT_EQ(m.cursor(), 1u);
  expect_same(m.base(), f.party.checkpoint());
}

// -- live O(change) count-delta encoder ------------------------------------
// delta_live.hpp: the server-side encoder that diffs the live rings
// against a shape summary instead of copying a full checkpoint. Its
// contract is apply_delta(prev_full_ck, live_body) == party.checkpoint()
// at every stage — the client can't tell it apart from the two-checkpoint
// encoder.

TEST(RecoveryDeltaLive, LiveBodyAppliesToPriorCheckpointExactly) {
  distributed::CountParty party({.eps = 0.2, .window = 1024, .c = 16}, 4, 21);
  stream::BernoulliBits bits(0.35, 13);
  for (int i = 0; i < 5000; ++i) party.observe(bits.next());

  distributed::CountPartyCheckpoint held = party.checkpoint();
  CountDeltaBaseline baseline;
  baseline_from_checkpoint(held, baseline);
  EXPECT_TRUE(baseline.valid);
  EXPECT_EQ(baseline.cursor, held.cursor);

  // Stages include zero (unchanged), small increments, and one large
  // enough to expire the entire baseline from every level.
  for (const int stage : {0, 1, 32, 500, 8000}) {
    for (int i = 0; i < stage; ++i) party.observe(bits.next());
    Bytes body;
    ASSERT_TRUE(encode_delta_live(party, baseline, body)) << stage;
    distributed::CountPartyCheckpoint out;
    ASSERT_TRUE(apply_delta(held, body, out)) << stage;
    const distributed::CountPartyCheckpoint now = party.checkpoint();
    expect_same(out, now);
    EXPECT_EQ(baseline.cursor, now.cursor) << stage;
    held = now;
    if (stage <= 32) {
      // O(change): a small round's body must stay far below the full form.
      EXPECT_LT(body.size() * 5, encode(now).size()) << stage;
    }
  }
}

TEST(RecoveryDeltaLive, InvalidOrMismatchedBaselineRefusesAndRestoresOut) {
  distributed::CountParty party({.eps = 0.3, .window = 256, .c = 8}, 3, 5);
  stream::BernoulliBits bits(0.3, 17);
  for (int i = 0; i < 800; ++i) party.observe(bits.next());

  Bytes body = {0xAB, 0xCD};  // pre-existing bytes must survive a refusal
  CountDeltaBaseline never_set;
  EXPECT_FALSE(encode_delta_live(party, never_set, body));
  EXPECT_EQ(body, (Bytes{0xAB, 0xCD}));

  // Instance-count mismatch: a baseline captured from a different fleet
  // shape must refuse rather than emit a wrong-shaped diff.
  distributed::CountParty other({.eps = 0.3, .window = 256, .c = 8}, 2, 5);
  CountDeltaBaseline wrong;
  baseline_from_checkpoint(other.checkpoint(), wrong);
  EXPECT_FALSE(encode_delta_live(party, wrong, body));
  EXPECT_EQ(body, (Bytes{0xAB, 0xCD}));
}

TEST(RecoveryDeltaLive, BaselineAdvancesOnlyOnSuccess) {
  distributed::CountParty party({.eps = 0.3, .window = 512, .c = 8}, 3, 33);
  stream::BernoulliBits bits(0.4, 29);
  for (int i = 0; i < 2000; ++i) party.observe(bits.next());
  const auto held = party.checkpoint();
  CountDeltaBaseline baseline;
  baseline_from_checkpoint(held, baseline);
  const std::uint64_t cursor0 = baseline.cursor;

  for (int i = 0; i < 100; ++i) party.observe(bits.next());
  Bytes body;
  ASSERT_TRUE(encode_delta_live(party, baseline, body));
  EXPECT_EQ(baseline.cursor, cursor0 + 100);

  // Re-encoding against the advanced baseline still applies — but only on
  // top of the state the previous body produced, which is the server
  // protocol's invariant (serial must match).
  distributed::CountPartyCheckpoint mid;
  ASSERT_TRUE(apply_delta(held, body, mid));
  for (int i = 0; i < 50; ++i) party.observe(bits.next());
  Bytes body2;
  ASSERT_TRUE(encode_delta_live(party, baseline, body2));
  distributed::CountPartyCheckpoint out;
  ASSERT_TRUE(apply_delta(mid, body2, out));
  expect_same(out, party.checkpoint());
}

}  // namespace
}  // namespace waves::recovery

namespace waves::net {
namespace {

// -- change_cursor / snapshot_from_checkpoint ------------------------------

TEST(NetDeltaCore, ChangeCursorIsMonotoneAcrossAllWaves) {
  const auto check = [](auto& wave, auto&& mutate) {
    std::uint64_t last = wave.change_cursor();
    for (int i = 0; i < 200; ++i) {
      mutate(i);
      const std::uint64_t cur = wave.change_cursor();
      ASSERT_GE(cur, last) << i;
      last = cur;
    }
    EXPECT_GT(last, 0u);  // 200 mutations must have moved the cursor
  };

  core::BasicWave basic(4, 64);
  check(basic, [&](int i) { basic.update(i % 3 != 0); });
  core::DetWave det(4, 64);
  check(det, [&](int i) { det.update(i % 2 == 0); });
  core::SumWave sum(4, 64, 50);
  check(sum, [&](int i) { sum.update(static_cast<std::uint64_t>(i) % 50); });
  core::TsWave ts(4, 128, 128);
  std::uint64_t pos = 0;
  check(ts, [&](int i) { ts.update(++pos, i % 2 == 0); });
  core::TsSumWave tss(4, 128, 128, 50);
  std::uint64_t pos2 = 0;
  check(tss, [&](int i) {
    tss.update(++pos2, static_cast<std::uint64_t>(i) % 50);
  });

  const std::uint64_t window = 128;
  const gf2::Field f(util::floor_log2(util::next_pow2_at_least(2 * window)));
  gf2::SharedRandomness coins(11);
  core::RandWave rand({.eps = 0.3, .window = window, .c = 8}, f, coins);
  check(rand, [&](int i) { rand.update(i % 2 == 0); });

  core::DistinctWave::Params dp{.eps = 0.4, .window = 128, .max_value = 1024,
                                .c = 8};
  const gf2::Field df(core::DistinctWave::field_dimension(dp));
  gf2::SharedRandomness dcoins(12);
  core::DistinctWave distinct(dp, df, dcoins);
  check(distinct, [&](int i) {
    distinct.update(static_cast<std::uint64_t>(i * 37) % 1024);
  });
}

TEST(NetDeltaCore, SnapshotFromCheckpointMatchesLiveSnapshot) {
  const std::uint64_t window = 256;
  const gf2::Field f(util::floor_log2(util::next_pow2_at_least(2 * window)));
  gf2::SharedRandomness coins(21);
  core::RandWave rand({.eps = 0.3, .window = window, .c = 8}, f, coins);
  stream::BernoulliBits bits(0.4, 31);
  for (int i = 0; i < 3000; ++i) rand.update(bits.next());
  const auto rck = rand.checkpoint();
  for (const std::uint64_t n : {std::uint64_t{1}, window / 3, window}) {
    const auto live = rand.snapshot(n);
    const auto from_ck = core::snapshot_from_checkpoint(rck, n);
    EXPECT_EQ(from_ck.level, live.level) << n;
    EXPECT_EQ(from_ck.stream_len, live.stream_len) << n;
    EXPECT_EQ(from_ck.positions, live.positions) << n;
  }

  core::DistinctWave::Params dp{.eps = 0.4, .window = 200, .max_value = 4096,
                                .c = 8};
  const gf2::Field df(core::DistinctWave::field_dimension(dp));
  gf2::SharedRandomness dcoins(22);
  core::DistinctWave distinct(dp, df, dcoins);
  stream::UniformValues vals(0, 4096, 33);
  for (int i = 0; i < 2500; ++i) distinct.update(vals.next());
  const auto dck = distinct.checkpoint();
  for (const std::uint64_t n : {std::uint64_t{1}, dp.window / 2, dp.window}) {
    const auto live = distinct.snapshot(n);
    const auto from_ck = core::snapshot_from_checkpoint(dck, n, dp.window);
    EXPECT_EQ(from_ck.level, live.level) << n;
    EXPECT_EQ(from_ck.stream_len, live.stream_len) << n;
    EXPECT_EQ(from_ck.items, live.items) << n;
  }
}

// -- live differential: delta client vs full client ------------------------

constexpr double kEps = 0.25;
constexpr std::uint64_t kWindow = 1024;
constexpr int kInstances = 3;
constexpr std::uint64_t kSeed = 77;
constexpr int kParties = 4;

core::RandWave::Params count_params() {
  return {.eps = kEps, .window = kWindow, .c = 36};
}

core::DistinctWave::Params distinct_params() {
  return {.eps = kEps,
          .window = kWindow,
          .max_value = 1u << 12,
          .c = 36,
          .universe_hint = kWindow * kParties};
}

ClientConfig delta_cfg(bool on) {
  ClientConfig cfg;
  cfg.delta_snapshots = on;
  return cfg;
}

void expect_same_snapshots(const std::vector<core::RandWaveSnapshot>& a,
                           const std::vector<core::RandWaveSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].level, b[i].level) << i;
    EXPECT_EQ(a[i].stream_len, b[i].stream_len) << i;
    EXPECT_EQ(a[i].positions, b[i].positions) << i;
  }
}

void expect_same_snapshots(const std::vector<core::DistinctSnapshot>& a,
                           const std::vector<core::DistinctSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].level, b[i].level) << i;
    EXPECT_EQ(a[i].stream_len, b[i].stream_len) << i;
    EXPECT_EQ(a[i].items, b[i].items) << i;
  }
}

TEST(NetDelta, CountDeltaClientMatchesFullClientBitForBit) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const std::vector<Endpoint> eps{{"127.0.0.1", server.port()}};
  const RefereeClient delta(eps, delta_cfg(true));
  const RefereeClient full(eps, delta_cfg(false));

  stream::BernoulliBits bits(0.3, 8);
  std::uint64_t less_received = 0;
  for (int round = 0; round < 6; ++round) {
    // Rounds 0..3 ingest between queries; rounds 4 and 5 are quiescent.
    const int chunk = round < 4 ? (round == 0 ? 3000 : 150) : 0;
    for (int i = 0; i < chunk; ++i) party.observe(bits.next());

    const Fetch fd = delta.fetch(0, PartyRole::kCount, kWindow);
    const Fetch ff = full.fetch(0, PartyRole::kCount, kWindow);
    ASSERT_TRUE(fd.ok()) << round << " " << fd.error;
    ASSERT_TRUE(ff.ok()) << round << " " << ff.error;
    expect_same_snapshots(fd.count_snapshots, ff.count_snapshots);

    EXPECT_TRUE(fd.delta_reply) << round;
    EXPECT_FALSE(ff.delta_reply) << round;
    EXPECT_EQ(fd.reused_connection, round > 0) << round;
    // Round 0 bootstraps with a full body; later ingesting rounds apply a
    // diff; quiescent rounds are served from the decoded-snapshot cache.
    EXPECT_EQ(fd.delta_applied, round >= 1 && round < 4) << round;
    EXPECT_EQ(fd.cache_hit, round >= 4) << round;
    if (round >= 1 && round < 4) {
      EXPECT_LT(fd.bytes_received, ff.bytes_received) << round;
      less_received += 1;
    }
  }
  EXPECT_EQ(less_received, 3u);
}

TEST(NetDelta, DistinctDeltaClientMatchesFullClientBitForBit) {
  distributed::DistinctParty party(distinct_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const std::vector<Endpoint> eps{{"127.0.0.1", server.port()}};
  const RefereeClient delta(eps, delta_cfg(true));
  const RefereeClient full(eps, delta_cfg(false));

  stream::ZipfValues gen(1u << 12, 1.2, 9);
  for (int round = 0; round < 4; ++round) {
    const int chunk = round == 0 ? 2500 : (round < 3 ? 120 : 0);
    for (int i = 0; i < chunk; ++i) party.observe(gen.next());

    const Fetch fd = delta.fetch(0, PartyRole::kDistinct, kWindow);
    const Fetch ff = full.fetch(0, PartyRole::kDistinct, kWindow);
    ASSERT_TRUE(fd.ok()) << round << " " << fd.error;
    ASSERT_TRUE(ff.ok()) << round << " " << ff.error;
    expect_same_snapshots(fd.distinct_snapshots, ff.distinct_snapshots);
    EXPECT_EQ(fd.delta_applied, round == 1 || round == 2) << round;
    EXPECT_EQ(fd.cache_hit, round == 3) << round;
  }
}

TEST(NetDelta, EndToEndUnionCountMatchesInProcessReferee) {
  // The whole fast path at once: a multi-round networked union count over
  // delta snapshots must equal the in-process referee over the same
  // parties, every round, while the parties keep ingesting.
  stream::BernoulliBits base_gen(0.2, 5);
  const auto base = stream::take(base_gen, 9000);
  const auto streams = stream::correlated_streams(base, kParties, 0.05, 6);

  std::vector<std::unique_ptr<distributed::CountParty>> owners;
  std::vector<const distributed::CountParty*> query;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  for (int j = 0; j < kParties; ++j) {
    owners.push_back(std::make_unique<distributed::CountParty>(
        count_params(), kInstances, kSeed));
    query.push_back(owners.back().get());
    servers.push_back(
        std::make_unique<PartyServer>(ServerConfig{}, owners.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }

  NetworkCountSource source(endpoints, count_params(), kInstances, kSeed);
  for (int round = 0; round < 3; ++round) {
    // Feed each party the next third of its stream, then query both ways.
    for (int j = 0; j < kParties; ++j) {
      const auto& s = streams[static_cast<std::size_t>(j)];
      const std::size_t lo = s.size() * static_cast<std::size_t>(round) / 3;
      const std::size_t hi =
          s.size() * static_cast<std::size_t>(round + 1) / 3;
      for (std::size_t i = lo; i < hi; ++i) owners[static_cast<std::size_t>(
          j)]->observe(s[i]);
    }
    const core::Estimate direct = distributed::union_count(query, kWindow);
    const distributed::QueryResult tcp =
        distributed::union_count(source, kWindow);
    ASSERT_EQ(tcp.status, distributed::QueryStatus::kOk) << round;
    EXPECT_EQ(tcp.estimate.value, direct.value) << round;  // bit-identical
  }
}

TEST(NetDelta, StaleCursorFallsBackToFullAndStaysCorrect) {
  // Two delta clients interleave against one server: each fetch bumps the
  // server's cursor, so the other client's since_cursor is always stale.
  // Every reply must degrade to a correct full snapshot, never garbage.
  distributed::CountParty party(count_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const std::vector<Endpoint> eps{{"127.0.0.1", server.port()}};
  const RefereeClient a(eps, delta_cfg(true));
  const RefereeClient b(eps, delta_cfg(true));
  const RefereeClient full(eps, delta_cfg(false));

  stream::BernoulliBits bits(0.3, 44);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 400; ++i) party.observe(bits.next());
    const Fetch fa = a.fetch(0, PartyRole::kCount, kWindow);
    const Fetch fb = b.fetch(0, PartyRole::kCount, kWindow);
    const Fetch ff = full.fetch(0, PartyRole::kCount, kWindow);
    ASSERT_TRUE(fa.ok()) << fa.error;
    ASSERT_TRUE(fb.ok()) << fb.error;
    ASSERT_TRUE(ff.ok()) << ff.error;
    // b's fetch invalidated a's cursor (and vice versa): after round 0
    // every reply is a full-body fallback, yet still bit-correct.
    if (round > 0) {
      EXPECT_FALSE(fa.delta_applied) << round;
      EXPECT_FALSE(fb.delta_applied) << round;
    }
    expect_same_snapshots(fa.count_snapshots, ff.count_snapshots);
    expect_same_snapshots(fb.count_snapshots, ff.count_snapshots);
  }
}

TEST(NetDelta, DeltaDisabledServerStillServesDeltaClients) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  stream::BernoulliBits bits(0.3, 51);
  for (int i = 0; i < 2000; ++i) party.observe(bits.next());
  ServerConfig cfg;
  cfg.enable_delta = false;
  PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());
  const std::vector<Endpoint> eps{{"127.0.0.1", server.port()}};
  const RefereeClient delta(eps, delta_cfg(true));
  const RefereeClient full(eps, delta_cfg(false));

  for (int round = 0; round < 2; ++round) {
    const Fetch fd = delta.fetch(0, PartyRole::kCount, kWindow);
    const Fetch ff = full.fetch(0, PartyRole::kCount, kWindow);
    ASSERT_TRUE(fd.ok()) << fd.error;
    ASSERT_TRUE(ff.ok()) << ff.error;
    EXPECT_FALSE(fd.delta_reply) << round;  // server answered v2
    EXPECT_EQ(fd.reused_connection, round > 0) << round;
    expect_same_snapshots(fd.count_snapshots, ff.count_snapshots);
  }
}

TEST(NetDelta, RestartDropsMirrorAndRecoversWithFullFetch) {
  // A server restart bumps the generation. The client must notice at the
  // next handshake, silently discard its mirror and cache, and bootstrap
  // from the new daemon's full snapshot — a reconnect, not an error.
  distributed::CountParty party(count_params(), kInstances, kSeed);
  stream::BernoulliBits bits(0.3, 60);
  for (int i = 0; i < 1500; ++i) party.observe(bits.next());

  ServerConfig cfg;
  cfg.generation = 1;
  auto server = std::make_unique<PartyServer>(cfg, &party);
  ASSERT_TRUE(server->start());
  const std::uint16_t port = server->port();
  const std::vector<Endpoint> eps{{"127.0.0.1", port}};
  const RefereeClient delta(eps, delta_cfg(true));

#if WAVES_OBS_ENABLED
  const std::uint64_t reconnects_before =
      obs::NetClientObs::instance().reconnects.value();
#endif

  Fetch f = delta.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  for (int i = 0; i < 200; ++i) party.observe(bits.next());
  f = delta.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  EXPECT_TRUE(f.delta_applied);
  EXPECT_EQ(f.generation, 1u);

  // "Crash": the daemon comes back on the same port, one epoch later, with
  // a recovered party that replayed a bit further.
  server.reset();
  for (int i = 0; i < 300; ++i) party.observe(bits.next());
  cfg.generation = 2;
  cfg.port = port;
  PartyServer reborn(cfg, &party);
  ASSERT_TRUE(reborn.start());

  f = delta.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  EXPECT_EQ(f.generation, 2u);
  EXPECT_FALSE(f.reused_connection);  // the old socket died with the server
  EXPECT_FALSE(f.delta_applied);      // mirror dropped: full bootstrap
  EXPECT_FALSE(f.cache_hit);

  const RefereeClient full(eps, delta_cfg(false));
  const Fetch ff = full.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(ff.ok()) << ff.error;
  expect_same_snapshots(f.count_snapshots, ff.count_snapshots);

  // And the delta path resumes against the new generation.
  for (int i = 0; i < 100; ++i) party.observe(bits.next());
  f = delta.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  EXPECT_TRUE(f.reused_connection);
  EXPECT_TRUE(f.delta_applied);

#if WAVES_OBS_ENABLED
  EXPECT_GE(obs::NetClientObs::instance().reconnects.value(),
            reconnects_before + 1);
#endif
}

// A client whose delta reply was lost (timeout, reconnect) retries the
// same since_cursor. With nothing ingested in between, the party re-ships
// the identical body from its retry cache instead of a full resync, and
// the body still applies to the mirror the client kept.
template <class Mirror, class Party, class Ingest>
void expect_retry_reships_identical_body(Party& party, PartyRole role,
                                         Ingest&& ingest) {
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const auto dl = [] {
    return deadline_in(std::chrono::milliseconds(2000));
  };
  Socket sock = tcp_connect("127.0.0.1", server.port(), dl());
  ASSERT_TRUE(sock.valid());
  Frame frame;
  ASSERT_TRUE(write_frame(sock, MsgType::kHello, Hello{1}.encode(), dl()));
  ASSERT_EQ(read_frame(sock, frame, dl()), ReadStatus::kOk);
  ASSERT_EQ(frame.type, MsgType::kHelloAck);

  std::uint64_t next_id = 1;
  const auto ask = [&](std::uint64_t since, DeltaReply& r) {
    SnapshotRequest req;
    req.request_id = next_id++;
    req.role = role;
    req.n = kWindow;
    req.delta_capable = true;
    req.since_cursor = since;
    ASSERT_TRUE(write_frame(sock, MsgType::kSnapshotRequest, req.encode(),
                            dl()));
    ASSERT_EQ(read_frame(sock, frame, dl()), ReadStatus::kOk);
    ASSERT_EQ(frame.type, MsgType::kDeltaReply);
    ASSERT_TRUE(DeltaReply::decode(frame.payload, r));
    ASSERT_EQ(r.request_id, req.request_id);
  };

  Mirror mirror;
  std::string err;
  DeltaReply boot;
  ask(0, boot);
  ASSERT_EQ(boot.base_cursor, 0u);
  ASSERT_EQ(mirror.apply(boot.base_cursor, boot.cursor, boot.body, 0,
                         kInstances, err),
            recovery::MirrorApply::kFull)
      << err;

  ingest();
  DeltaReply lost;
  ask(boot.cursor, lost);
  EXPECT_EQ(lost.base_cursor, boot.cursor);
  EXPECT_FALSE(lost.body.empty());

  DeltaReply retried;
  ask(boot.cursor, retried);
  EXPECT_EQ(retried.base_cursor, lost.base_cursor);
  EXPECT_EQ(retried.cursor, lost.cursor);
  EXPECT_EQ(retried.body, lost.body);

  ASSERT_EQ(mirror.apply(retried.base_cursor, retried.cursor, retried.body,
                         0, kInstances, err),
            recovery::MirrorApply::kDelta)
      << err;
  EXPECT_EQ(recovery::encode(mirror.base()),
            recovery::encode(party.checkpoint()));
}

TEST(NetDelta, CountRetryOfSameCursorReshipsIdenticalBody) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  stream::BernoulliBits bits(0.3, 81);
  for (int i = 0; i < 3000; ++i) party.observe(bits.next());
  expect_retry_reships_identical_body<recovery::CountMirror>(
      party, PartyRole::kCount,
      [&] {
        for (int i = 0; i < 150; ++i) party.observe(bits.next());
      });
}

TEST(NetDelta, DistinctRetryOfSameCursorReshipsIdenticalBody) {
  distributed::DistinctParty party(distinct_params(), kInstances, kSeed);
  stream::ZipfValues gen(1u << 12, 1.2, 82);
  for (int i = 0; i < 2500; ++i) party.observe(gen.next());
  expect_retry_reships_identical_body<recovery::DistinctMirror>(
      party, PartyRole::kDistinct,
      [&] {
        for (int i = 0; i < 120; ++i) party.observe(gen.next());
      });
}

TEST(NetDelta, DisconnectAllKeepsMirrorsAcrossReconnect) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  stream::BernoulliBits bits(0.3, 71);
  for (int i = 0; i < 1500; ++i) party.observe(bits.next());
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const RefereeClient client({{"127.0.0.1", server.port()}},
                             delta_cfg(true));

  Fetch f = client.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  client.disconnect_all();
  for (int i = 0; i < 150; ++i) party.observe(bits.next());
  f = client.fetch(0, PartyRole::kCount, kWindow);
  ASSERT_TRUE(f.ok()) << f.error;
  EXPECT_FALSE(f.reused_connection);  // socket was dropped on purpose...
  EXPECT_TRUE(f.delta_applied);       // ...but the mirror survived
}

}  // namespace
}  // namespace waves::net
