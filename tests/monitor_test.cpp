// Continuous-monitoring tests: eps-slack budget math, the three push
// frames (round-trip, hostile-extension, no-partial-output), live push
// subscriptions against PartyServer (drift gating, delta chains,
// unsubscribe, typed rejections, the connection cap), and MonitorHub
// end-to-end (parity with the polling referee, quorum rules on a dead
// leg, generation resync, the leg breaker, stop latency, watcher
// fan-out). Suite names start with
// Monitor so the TSan CI leg (-R "...|Monitor") picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "gf2/shared_randomness.hpp"
#include "listeners.hpp"
#include "monitor/hub.hpp"
#include "monitor/slack.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/monitor_obs.hpp"
#include "obs/net_obs.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/delta.hpp"
#include "stream/generators.hpp"
#include "stream/splitters.hpp"
#include "stream/value_streams.hpp"
#include "util/packed_bits.hpp"

namespace waves::monitor {
namespace {

using distributed::Bytes;
using distributed::get_fixed64;
using distributed::get_varint;
using distributed::put_fixed64;
using distributed::put_varint;

net::Deadline soon() { return net::deadline_in(std::chrono::milliseconds(2000)); }
net::Deadline shortly() {
  return net::deadline_in(std::chrono::milliseconds(250));
}

constexpr double kEps = 0.25;
constexpr std::uint64_t kWindow = 1024;
constexpr int kInstances = 3;
constexpr std::uint64_t kSeed = 77;
constexpr int kParties = 2;
constexpr std::uint64_t kItems = 4000;

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

std::vector<util::PackedBitStream> test_bit_streams() {
  stream::BernoulliBits base_gen(0.3, 5);
  const auto base = stream::take(base_gen, kItems);
  return util::pack_streams(
      stream::correlated_streams(base, kParties, 0.05, 6));
}

/// Per-party value streams for the distinct role, values in [0..max_value].
std::vector<std::vector<std::uint64_t>> test_value_streams() {
  std::vector<std::vector<std::uint64_t>> out;
  for (int j = 0; j < kParties; ++j) {
    stream::UniformValues gen(0, distinct_params().max_value,
                              500 + static_cast<std::uint64_t>(j));
    out.push_back(stream::take(gen, kItems));
  }
  return out;
}

/// Connect + Hello handshake + kSubscribe; the caller reads the pushes.
net::Socket open_subscription(std::uint16_t port, net::PartyRole role,
                              std::uint64_t n, double slack,
                              std::uint64_t check_ms = 5) {
  net::Socket sock = net::tcp_connect("127.0.0.1", port, soon());
  EXPECT_TRUE(sock.valid());
  EXPECT_TRUE(net::write_frame(sock, net::MsgType::kHello,
                               net::Hello{1}.encode(), soon()));
  net::Frame f;
  EXPECT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
  EXPECT_EQ(f.type, net::MsgType::kHelloAck);

  net::SubscribeRequest req{1, role, n};
  req.has_slack = true;
  req.slack = slack;
  req.check_every_ms = check_ms;
  EXPECT_TRUE(net::write_frame(sock, net::MsgType::kSubscribe, req.encode(),
                               soon()));
  return sock;
}

/// Read one kPushUpdate frame and decode its party->hub body.
[[nodiscard]] bool read_push(net::Socket& sock, net::PushUpdate& out,
                             net::Deadline dl) {
  net::Frame f;
  if (net::read_frame(sock, f, dl) != net::ReadStatus::kOk) return false;
  if (f.type != net::MsgType::kPushUpdate) return false;
  return net::PushUpdate::decode(f.payload, out);
}

// ---------------------------------------------------------------------------
// SlackBudget math.

TEST(MonitorSlack, UniformShareSumsToEps) {
  const SlackBudget b{0.1, 4, SlackSplit::kUniform};
  EXPECT_DOUBLE_EQ(b.share(), 0.025);
  EXPECT_DOUBLE_EQ(b.share() * 4, b.eps);
  // Count/basic threshold: share * n.
  EXPECT_DOUBLE_EQ(b.threshold(net::PartyRole::kCount, 1000, 1), 25.0);
  EXPECT_DOUBLE_EQ(b.threshold(net::PartyRole::kBasic, 1000, 1), 25.0);
  // Sum threshold scales by max_value.
  EXPECT_DOUBLE_EQ(b.threshold(net::PartyRole::kSum, 1000, 10), 250.0);
}

TEST(MonitorSlack, BoostedShareIsSqrtTLarger) {
  const SlackBudget uniform{0.1, 16, SlackSplit::kUniform};
  const SlackBudget boosted{0.1, 16, SlackSplit::kBoosted};
  // eps / sqrt(16) = 4x the uniform eps / 16 share.
  EXPECT_DOUBLE_EQ(boosted.share(), 0.025);
  EXPECT_DOUBLE_EQ(boosted.share(), 4.0 * uniform.share());
  EXPECT_DOUBLE_EQ(boosted.threshold(net::PartyRole::kCount, 1000, 1), 25.0);
}

TEST(MonitorSlack, ThresholdNeverBelowOne) {
  // A degenerate budget must still push on change, not on every item
  // fraction — the floor keeps the party from flooding.
  const SlackBudget b{1e-9, 1000, SlackSplit::kUniform};
  EXPECT_DOUBLE_EQ(b.threshold(net::PartyRole::kCount, 8, 1), 1.0);
  EXPECT_DOUBLE_EQ(b.threshold(net::PartyRole::kSum, 8, 100), 1.0);
}

TEST(MonitorSlack, SplitNamesRoundTrip) {
  for (const SlackSplit s : {SlackSplit::kUniform, SlackSplit::kBoosted}) {
    SlackSplit out{};
    ASSERT_TRUE(slack_split_from_name(slack_split_name(s), out));
    EXPECT_EQ(out, s);
  }
  SlackSplit out = SlackSplit::kBoosted;  // sentinel
  EXPECT_FALSE(slack_split_from_name("fibonacci", out));
  EXPECT_EQ(out, SlackSplit::kBoosted);
}

// ---------------------------------------------------------------------------
// Protocol codecs.

TEST(MonitorProtocol, SubscribeRequestRoundTrip) {
  {  // fixed fields only
    net::SubscribeRequest in{7, net::PartyRole::kCount, 2048};
    net::SubscribeRequest out;
    ASSERT_TRUE(net::SubscribeRequest::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 7u);
    EXPECT_EQ(out.role, net::PartyRole::kCount);
    EXPECT_EQ(out.n, 2048u);
    EXPECT_FALSE(out.has_slack);
    EXPECT_FALSE(out.delta_capable);
  }
  {  // tag 3 alone, double crosses bit-exactly
    net::SubscribeRequest in{9, net::PartyRole::kSum, 512};
    in.has_slack = true;
    in.slack = 12.3456789;
    in.check_every_ms = 40;
    net::SubscribeRequest out;
    ASSERT_TRUE(net::SubscribeRequest::decode(in.encode(), out));
    ASSERT_TRUE(out.has_slack);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.slack),
              std::bit_cast<std::uint64_t>(in.slack));
    EXPECT_EQ(out.check_every_ms, 40u);
  }
  {  // all three tags interleaved in canonical order
    net::SubscribeRequest in{11, net::PartyRole::kDistinct, 1024};
    in.delta_capable = true;
    in.since_cursor = 33;
    in.trace_id = 0xFEED;
    in.parent_span_id = 4;
    in.has_slack = true;
    in.slack = 64.0;
    in.check_every_ms = 0;
    net::SubscribeRequest out;
    ASSERT_TRUE(net::SubscribeRequest::decode(in.encode(), out));
    EXPECT_TRUE(out.delta_capable);
    EXPECT_EQ(out.since_cursor, 33u);
    EXPECT_EQ(out.trace_id, 0xFEEDu);
    EXPECT_EQ(out.parent_span_id, 4u);
    ASSERT_TRUE(out.has_slack);
    EXPECT_DOUBLE_EQ(out.slack, 64.0);
    EXPECT_EQ(out.check_every_ms, 0u);
  }
}

TEST(MonitorProtocol, PushUpdateAndUnsubscribeRoundTrip) {
  net::PushUpdate in;
  in.request_id = 3;
  in.seq = 17;
  in.generation = 2;
  in.role = net::PartyRole::kDistinct;
  in.items_observed = 999;
  in.base_cursor = 5;
  in.cursor = 6;
  in.body = {0xDE, 0xAD, 0xBE, 0xEF};
  net::PushUpdate out;
  ASSERT_TRUE(net::PushUpdate::decode(in.encode(), out));
  EXPECT_EQ(out.seq, 17u);
  EXPECT_EQ(out.generation, 2u);
  EXPECT_EQ(out.role, net::PartyRole::kDistinct);
  EXPECT_EQ(out.items_observed, 999u);
  EXPECT_EQ(out.base_cursor, 5u);
  EXPECT_EQ(out.cursor, 6u);
  EXPECT_EQ(out.body, in.body);

  // seq 0 never crosses the wire (chains start at 1).
  in.seq = 0;
  EXPECT_FALSE(net::PushUpdate::decode(in.encode(), out));

  net::Unsubscribe uin{42};
  net::Unsubscribe uout;
  ASSERT_TRUE(net::Unsubscribe::decode(uin.encode(), uout));
  EXPECT_EQ(uout.request_id, 42u);
}

TEST(MonitorProtocol, EstimateUpdateRoundTripAndValidation) {
  for (const int s : {1, 2, 3}) {
    const auto status = static_cast<std::uint8_t>(s);
    net::EstimateUpdate in;
    in.seq = 4;
    in.round = 12;
    in.status = status;
    in.value = 1234.5625;
    in.exact = (status == 1);
    in.n = 4096;
    in.missing = (status == 2) ? 1 : 0;
    in.error_slack = (status == 2) ? 4096.0 : 0.0;
    net::EstimateUpdate out;
    ASSERT_TRUE(net::EstimateUpdate::decode(in.encode(), out));
    EXPECT_EQ(out.seq, 4u);
    EXPECT_EQ(out.round, 12u);
    EXPECT_EQ(out.status, status);
    EXPECT_EQ(out.value, 1234.5625);  // bit pattern crossed exactly
    EXPECT_EQ(out.exact, in.exact);
    EXPECT_EQ(out.missing, in.missing);
    EXPECT_EQ(out.error_slack, in.error_slack);
  }
  net::EstimateUpdate bad;
  bad.seq = 0;  // chains start at 1
  bad.status = 1;
  net::EstimateUpdate out;
  EXPECT_FALSE(net::EstimateUpdate::decode(bad.encode(), out));
  bad.seq = 1;
  bad.status = 0;  // below the QueryStatus range
  EXPECT_FALSE(net::EstimateUpdate::decode(bad.encode(), out));
  bad.status = 4;  // above it
  EXPECT_FALSE(net::EstimateUpdate::decode(bad.encode(), out));
}

TEST(MonitorProtocol, SubscribeHostileExtensionsRejected) {
  // Fixed fields of a valid subscribe, built by hand so each case can
  // append a non-canonical extension sequence.
  const auto fixed = [] {
    Bytes b;
    put_varint(b, 1);  // request_id
    put_varint(b, static_cast<std::uint64_t>(net::PartyRole::kCount));
    put_varint(b, 64);  // n
    return b;
  };
  const auto put_slack = [](Bytes& b, double slack, std::uint64_t check) {
    put_varint(b, 3);
    put_fixed64(b, std::bit_cast<std::uint64_t>(slack));
    put_varint(b, check);
  };
  const auto rejected = [](const Bytes& enc) {
    net::SubscribeRequest out{99, net::PartyRole::kSum, 99};  // sentinel
    out.has_slack = true;
    out.slack = -1.0;
    EXPECT_FALSE(net::SubscribeRequest::decode(enc, out));
    EXPECT_EQ(out.request_id, 99u);  // untouched
    EXPECT_EQ(out.slack, -1.0);
  };
  {  // duplicate tag 3
    Bytes b = fixed();
    put_slack(b, 8.0, 5);
    put_slack(b, 9.0, 5);
    rejected(b);
  }
  {  // decreasing tag order: 3 then 1
    Bytes b = fixed();
    put_slack(b, 8.0, 5);
    put_varint(b, 1);
    put_varint(b, 31);
    rejected(b);
  }
  {  // tag 3 interleaved out of order with tags 1 and 2: 1, 3, 2
    Bytes b = fixed();
    put_varint(b, 1);
    put_varint(b, 31);
    put_slack(b, 8.0, 5);
    put_varint(b, 2);
    put_varint(b, 42);
    put_varint(b, 7);
    rejected(b);
  }
  {  // unknown tag 4 after a valid tag 3
    Bytes b = fixed();
    put_slack(b, 8.0, 5);
    put_varint(b, 4);
    put_varint(b, 0);
    rejected(b);
  }
  {  // truncated tag 3: slack bits cut mid-fixed64
    Bytes b = fixed();
    put_varint(b, 3);
    put_fixed64(b, std::bit_cast<std::uint64_t>(8.0));
    b.resize(b.size() - 3);
    rejected(b);
  }
  {  // truncated tag 3: check_every varint missing entirely
    Bytes b = fixed();
    put_varint(b, 3);
    put_fixed64(b, std::bit_cast<std::uint64_t>(8.0));
    rejected(b);
  }
  {  // bare tag 3 with no payload
    Bytes b = fixed();
    put_varint(b, 3);
    rejected(b);
  }
  // Slack value domain: must be finite and > 0.
  for (const double bad :
       {0.0, -4.0, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    Bytes b = fixed();
    put_slack(b, bad, 5);
    rejected(b);
  }
}

TEST(MonitorProtocol, SnapshotRequestRejectsSlackTag) {
  // Tag 3 is subscribe-only: a one-shot snapshot has no drift budget, so a
  // SnapshotRequest carrying one is hostile, not forward-compatible.
  Bytes b;
  put_varint(b, 1);  // request_id
  put_varint(b, static_cast<std::uint64_t>(net::PartyRole::kCount));
  put_varint(b, 64);  // n
  put_varint(b, 3);
  put_fixed64(b, std::bit_cast<std::uint64_t>(8.0));
  put_varint(b, 5);
  net::SnapshotRequest out{99, net::PartyRole::kSum, 99};  // sentinel
  EXPECT_FALSE(net::SnapshotRequest::decode(b, out));
  EXPECT_EQ(out.request_id, 99u);
}

TEST(MonitorProtocol, TruncationAndFuzzNoPartialOutput) {
  {  // every strict prefix of a fully-extended subscribe either fails
     // untouched or lands exactly on an extension-block boundary — those
     // prefixes are legal shorter messages (fewer trailing extensions),
     // never a half-parsed tag.
    net::SubscribeRequest whole{5, net::PartyRole::kCount, 256};
    whole.delta_capable = true;
    whole.since_cursor = 9;
    net::SubscribeRequest with_tag2 = whole;
    with_tag2.trace_id = 77;
    with_tag2.parent_span_id = 3;
    net::SubscribeRequest with_tag3 = with_tag2;
    with_tag3.has_slack = true;
    with_tag3.slack = 16.0;
    with_tag3.check_every_ms = 10;
    const std::size_t boundary_fixed =
        net::SubscribeRequest{5, net::PartyRole::kCount, 256}.encode().size();
    const std::size_t boundary_tag1 = whole.encode().size();
    const std::size_t boundary_tag2 = with_tag2.encode().size();
    const Bytes enc = with_tag3.encode();
    for (std::size_t cut = 0; cut < enc.size(); ++cut) {
      const Bytes prefix(enc.begin(),
                         enc.begin() + static_cast<std::ptrdiff_t>(cut));
      net::SubscribeRequest out{99, net::PartyRole::kSum, 99};  // sentinel
      if (cut == boundary_fixed || cut == boundary_tag1 ||
          cut == boundary_tag2) {
        EXPECT_TRUE(net::SubscribeRequest::decode(prefix, out));
        EXPECT_EQ(out.request_id, 5u);
        EXPECT_FALSE(out.has_slack);
        continue;
      }
      EXPECT_FALSE(net::SubscribeRequest::decode(prefix, out));
      EXPECT_EQ(out.request_id, 99u);
    }
  }
  {  // same for EstimateUpdate
    net::EstimateUpdate whole;
    whole.seq = 2;
    whole.round = 8;
    whole.status = 2;
    whole.value = 3.5;
    whole.n = 128;
    whole.missing = 1;
    whole.error_slack = 128.0;
    const Bytes enc = whole.encode();
    for (std::size_t cut = 0; cut < enc.size(); ++cut) {
      const Bytes prefix(enc.begin(),
                         enc.begin() + static_cast<std::ptrdiff_t>(cut));
      net::EstimateUpdate out;
      out.seq = 99;
      EXPECT_FALSE(net::EstimateUpdate::decode(prefix, out));
      EXPECT_EQ(out.seq, 99u);
    }
  }
  // Byte fuzz: decode must fail or fully parse, never crash.
  gf2::SplitMix64 rng(8080);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes noise(rng.next() % 48);
    for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next());
    net::SubscribeRequest sub;
    (void)net::SubscribeRequest::decode(noise, sub);
    net::PushUpdate push;
    (void)net::PushUpdate::decode(noise, push);
    net::Unsubscribe unsub;
    (void)net::Unsubscribe::decode(noise, unsub);
    net::EstimateUpdate est;
    (void)net::EstimateUpdate::decode(noise, est);
  }
}

TEST(MonitorProtocol, OverloadedErrCodeRoundTrip) {
  net::ErrReply in{13, net::ErrCode::kOverloaded, "connection limit"};
  net::ErrReply out;
  ASSERT_TRUE(net::ErrReply::decode(in.encode(), out));
  EXPECT_EQ(out.code, net::ErrCode::kOverloaded);

  // One past the enum is rejected (codes are validated, not truncated).
  Bytes b;
  put_varint(b, 13);
  put_varint(b, 6);
  put_varint(b, 0);  // empty message
  net::ErrReply sentinel{7, net::ErrCode::kWrongRole, "x"};
  EXPECT_FALSE(net::ErrReply::decode(b, sentinel));
  EXPECT_EQ(sentinel.request_id, 7u);
}

// ---------------------------------------------------------------------------
// Live push subscriptions against PartyServer.

// Shared body of the push-chain tests: the ack is a self-contained full
// body of the party's checkpoint, and the first drift push is a delta
// against it that reproduces the new checkpoint byte-for-byte.
template <class Party, class Streams>
void expect_push_chain_full_then_delta(Party& party, net::PartyRole role,
                                       const Streams& streams) {
  using Checkpoint = decltype(party.checkpoint());
  party.observe_batch(streams[0]);
  net::PartyServer server(net::ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  net::Socket sock = open_subscription(server.port(), role, kWindow, 50);

  // The ack: seq 1, self-contained full body that decodes to exactly the
  // party's current checkpoint.
  net::PushUpdate first;
  ASSERT_TRUE(read_push(sock, first, soon()));
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.base_cursor, 0u);
  EXPECT_NE(first.cursor, 0u);
  EXPECT_EQ(first.role, role);
  EXPECT_EQ(first.items_observed, party.items_observed());
  Checkpoint base;
  ASSERT_TRUE(recovery::decode(first.body, base));
  EXPECT_EQ(recovery::encode(base), recovery::encode(party.checkpoint()));

  // Drift past the slack: the next push is a delta against the ack's
  // cursor, and applying it reproduces the new checkpoint byte-for-byte.
  party.observe_batch(streams[1]);
  net::PushUpdate second;
  ASSERT_TRUE(read_push(sock, second, soon()));
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(second.base_cursor, first.cursor);
  EXPECT_NE(second.cursor, first.cursor);
  Checkpoint applied;
  ASSERT_TRUE(recovery::apply_delta_into(base, second.body, applied));
  EXPECT_EQ(recovery::encode(applied), recovery::encode(party.checkpoint()));
}

TEST(MonitorPush, CountChainFullThenDeltaMatchesCheckpoints) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  expect_push_chain_full_then_delta(party, net::PartyRole::kCount,
                                    test_bit_streams());
}

TEST(MonitorPush, DistinctChainFullThenDeltaMatchesCheckpoints) {
  distributed::DistinctParty party(distinct_params(), kInstances, kSeed);
  expect_push_chain_full_then_delta(party, net::PartyRole::kDistinct,
                                    test_value_streams());
}

TEST(MonitorPush, QuiescentAndSubSlackDriftStaySilent) {
  const auto streams = test_bit_streams();
  distributed::CountParty party(count_params(), kInstances, kSeed);
  party.observe_batch(streams[0]);
  net::PartyServer server(net::ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

#if WAVES_OBS_ENABLED
  const auto& obs = obs::MonitorPartyObs::instance();
  const std::uint64_t checks_before = obs.push_checks.value();
#endif

  net::Socket sock =
      open_subscription(server.port(), net::PartyRole::kCount, kWindow, 100);
  net::PushUpdate ack;
  ASSERT_TRUE(read_push(sock, ack, soon()));

  // Nothing ingested: no pushes, only silent drift checks.
  net::Frame f;
  EXPECT_EQ(net::read_frame(sock, f, shortly()), net::ReadStatus::kTimeout);

  // Below-slack drift (40 items against a slack of 100): still silent.
  for (int i = 0; i < 40; ++i) party.observe(true);
  EXPECT_EQ(net::read_frame(sock, f, shortly()), net::ReadStatus::kTimeout);

  // Crossing the slack finally pushes.
  for (int i = 0; i < 70; ++i) party.observe(true);
  net::PushUpdate drifted;
  ASSERT_TRUE(read_push(sock, drifted, soon()));
  EXPECT_EQ(drifted.seq, 2u);

#if WAVES_OBS_ENABLED
  // The quiet stretches did run drift checks — the gate was the slack.
  EXPECT_GT(obs.push_checks.value(), checks_before);
#endif
}

TEST(MonitorPush, UnsubscribeStopsPushesConnectionStaysUsable) {
  const auto streams = test_bit_streams();
  distributed::CountParty party(count_params(), kInstances, kSeed);
  party.observe_batch(streams[0]);
  net::PartyServer server(net::ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  net::Socket sock =
      open_subscription(server.port(), net::PartyRole::kCount, kWindow, 10);
  net::PushUpdate ack;
  ASSERT_TRUE(read_push(sock, ack, soon()));

  ASSERT_TRUE(net::write_frame(sock, net::MsgType::kUnsubscribe,
                               net::Unsubscribe{1}.encode(), soon()));
  // Give the server a beat to process the unsubscribe, then drift hard:
  // no push may arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  party.observe_batch(streams[1]);
  net::Frame f;
  EXPECT_EQ(net::read_frame(sock, f, shortly()), net::ReadStatus::kTimeout);

  // The connection still answers plain polling requests.
  net::SnapshotRequest req{9, net::PartyRole::kCount, kWindow};
  ASSERT_TRUE(net::write_frame(sock, net::MsgType::kSnapshotRequest,
                               req.encode(), soon()));
  ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
  EXPECT_EQ(f.type, net::MsgType::kCountReply);
}

TEST(MonitorPush, BasicTotalPushCarriesBitExactEstimate) {
  const auto streams = test_bit_streams();
  net::BasicPartyState party(4, kWindow);
  party.observe_batch(streams[0]);
  net::PartyServer server(net::ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  net::Socket sock =
      open_subscription(server.port(), net::PartyRole::kBasic, kWindow, 8.0);
  net::PushUpdate ack;
  ASSERT_TRUE(read_push(sock, ack, soon()));
  EXPECT_EQ(ack.seq, 1u);
  EXPECT_EQ(ack.role, net::PartyRole::kBasic);

  std::size_t at = 0;
  std::uint64_t value_bits = 0;
  std::uint64_t exact = 0;
  ASSERT_TRUE(get_fixed64(ack.body, at, value_bits));
  ASSERT_TRUE(get_varint(ack.body, at, exact));
  EXPECT_EQ(at, ack.body.size());
  const core::Estimate direct = party.query(kWindow);
  EXPECT_EQ(std::bit_cast<double>(value_bits), direct.value);
  EXPECT_EQ(exact != 0, direct.exact);
}

TEST(MonitorPush, TypedRejectionsKeepTheConnection) {
  const auto streams = test_bit_streams();
  {  // push disabled by config
    distributed::CountParty party(count_params(), kInstances, kSeed);
    party.observe_batch(streams[0]);
    net::ServerConfig cfg;
    cfg.enable_push = false;
    net::PartyServer server(cfg, &party);
    ASSERT_TRUE(server.start());
    net::Socket sock =
        open_subscription(server.port(), net::PartyRole::kCount, kWindow, 8);
    net::Frame f;
    ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
    ASSERT_EQ(f.type, net::MsgType::kErr);
    net::ErrReply err;
    ASSERT_TRUE(net::ErrReply::decode(f.payload, err));
    EXPECT_EQ(err.code, net::ErrCode::kBadRequest);
    // Polling still works on the same connection — the fallback path.
    net::SnapshotRequest req{2, net::PartyRole::kCount, kWindow};
    ASSERT_TRUE(net::write_frame(sock, net::MsgType::kSnapshotRequest,
                                 req.encode(), soon()));
    ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
    EXPECT_EQ(f.type, net::MsgType::kCountReply);
  }
  {  // role mismatch
    distributed::CountParty party(count_params(), kInstances, kSeed);
    net::PartyServer server(net::ServerConfig{}, &party);
    ASSERT_TRUE(server.start());
    net::Socket sock = open_subscription(server.port(),
                                         net::PartyRole::kDistinct, kWindow, 8);
    net::Frame f;
    ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
    ASSERT_EQ(f.type, net::MsgType::kErr);
    net::ErrReply err;
    ASSERT_TRUE(net::ErrReply::decode(f.payload, err));
    EXPECT_EQ(err.code, net::ErrCode::kWrongRole);
  }
  {  // agg parties are exact and unmonitorable by the eps-slack model
    net::AggPartyState party(agg::AggOp::kMax, kWindow);
    net::PartyServer server(net::ServerConfig{}, &party);
    ASSERT_TRUE(server.start());
    net::Socket sock =
        open_subscription(server.port(), net::PartyRole::kAgg, kWindow, 8);
    net::Frame f;
    ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
    ASSERT_EQ(f.type, net::MsgType::kErr);
    net::ErrReply err;
    ASSERT_TRUE(net::ErrReply::decode(f.payload, err));
    EXPECT_EQ(err.code, net::ErrCode::kBadRequest);
  }
}

TEST(MonitorConnCap, OverCapConnectionsGetTypedOverloadReject) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  net::ServerConfig cfg;
  cfg.max_connections = 1;
  net::PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());

#if WAVES_OBS_ENABLED
  const auto& obs = obs::NetServerObs::instance();
  const std::uint64_t rejected_before = obs.overload_rejected.value();
#endif

  // First connection occupies the only slot (handshake proves it's live).
  net::Socket first = net::tcp_connect("127.0.0.1", server.port(), soon());
  ASSERT_TRUE(first.valid());
  ASSERT_TRUE(net::write_frame(first, net::MsgType::kHello,
                               net::Hello{1}.encode(), soon()));
  net::Frame f;
  ASSERT_EQ(net::read_frame(first, f, soon()), net::ReadStatus::kOk);
  ASSERT_EQ(f.type, net::MsgType::kHelloAck);

  // Second connection: one typed kOverloaded frame, then close.
  net::Socket second = net::tcp_connect("127.0.0.1", server.port(), soon());
  ASSERT_TRUE(second.valid());
  ASSERT_EQ(net::read_frame(second, f, soon()), net::ReadStatus::kOk);
  ASSERT_EQ(f.type, net::MsgType::kErr);
  net::ErrReply err;
  ASSERT_TRUE(net::ErrReply::decode(f.payload, err));
  EXPECT_EQ(err.code, net::ErrCode::kOverloaded);
  EXPECT_EQ(net::read_frame(second, f, soon()), net::ReadStatus::kClosed);

#if WAVES_OBS_ENABLED
  EXPECT_GT(obs.overload_rejected.value(), rejected_before);
#endif

  // Freeing the slot re-admits new connections.
  first.close();
  for (int attempt = 0;; ++attempt) {
    net::Socket third = net::tcp_connect("127.0.0.1", server.port(), soon());
    ASSERT_TRUE(third.valid());
    ASSERT_TRUE(net::write_frame(third, net::MsgType::kHello,
                                 net::Hello{2}.encode(), soon()));
    ASSERT_EQ(net::read_frame(third, f, soon()), net::ReadStatus::kOk);
    if (f.type == net::MsgType::kHelloAck) break;
    // The reaper may lag the close by an accept cycle; bounded retries.
    ASSERT_LT(attempt, 50);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// ---------------------------------------------------------------------------
// MonitorHub end-to-end.

HubConfig hub_config(const std::vector<net::Endpoint>& endpoints,
                     net::PartyRole role) {
  HubConfig cfg;
  cfg.parties = endpoints;
  cfg.role = role;
  cfg.n = kWindow;
  cfg.eps = 0.05;
  cfg.split = SlackSplit::kUniform;
  cfg.check_every = std::chrono::milliseconds(5);
  cfg.reconnect_base = std::chrono::milliseconds(10);
  cfg.reconnect_max = std::chrono::milliseconds(100);
  cfg.count_params = count_params();
  cfg.distinct_params = distinct_params();
  cfg.instances = kInstances;
  cfg.shared_seed = kSeed;
  return cfg;
}

/// Wait until the hub's estimate satisfies `pred` or the deadline passes.
template <class Pred>
HubEstimate wait_until(const MonitorHub& hub, Pred pred,
                       std::chrono::milliseconds budget =
                           std::chrono::milliseconds(5000)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  HubEstimate est = hub.estimate();
  while (!pred(est) && std::chrono::steady_clock::now() < give_up) {
    est = hub.wait_revision(est.revision, std::chrono::milliseconds(50));
  }
  return est;
}

// Shared body of the hub parity tests: with every leg live the pushed
// estimate is bit-identical to `direct` (the in-process referee over the
// same party states, through the same combine), it follows the parties as
// they drift, and it fails closed when a leg dies.
template <class Party, class Params, class Streams, class Direct>
void expect_hub_parity_then_fail_closed(net::PartyRole role,
                                        const Params& params,
                                        const Streams& streams,
                                        Direct&& direct) {
  std::vector<std::unique_ptr<Party>> owners;
  std::vector<const Party*> query;
  std::vector<std::unique_ptr<net::PartyServer>> servers;
  std::vector<net::Endpoint> endpoints;
  for (int j = 0; j < kParties; ++j) {
    owners.push_back(std::make_unique<Party>(params, kInstances, kSeed));
    owners.back()->observe_batch(streams[static_cast<std::size_t>(j)]);
    query.push_back(owners.back().get());
    servers.push_back(std::make_unique<net::PartyServer>(net::ServerConfig{},
                                                         owners.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }

  MonitorHub hub(hub_config(endpoints, role));
  ASSERT_TRUE(hub.start());

  // All legs up: the pushed estimate is bit-identical to a poll of the
  // same party states through the same combine.
  const core::Estimate before = direct(query);
  HubEstimate est = wait_until(hub, [&](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kOk &&
           e.value == before.value;
  });
  ASSERT_EQ(est.status, distributed::QueryStatus::kOk);
  EXPECT_EQ(est.value, before.value);
  EXPECT_EQ(est.missing, 0u);

  // Drift every party past its slack (the hub merges only aligned mirrors,
  // so all parties must advance together): the hub converges to the new
  // truth without any polling.
  for (int j = 0; j < kParties; ++j) {
    owners[static_cast<std::size_t>(j)]->observe_batch(
        streams[static_cast<std::size_t>((j + 1) % kParties)]);
  }
  const core::Estimate moved = direct(query);
  est = wait_until(hub, [&](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kOk &&
           e.value == moved.value;
  });
  EXPECT_EQ(est.value, moved.value);

  // The randomized roles fail closed when a leg dies (quorum rule).
  servers[1]->stop();
  est = wait_until(hub, [](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kFailed;
  });
  ASSERT_EQ(est.status, distributed::QueryStatus::kFailed);
  EXPECT_EQ(est.missing, 1u);

  hub.stop();
}

TEST(MonitorHub, CountParityWithPollingRefereeThenFailClosed) {
  expect_hub_parity_then_fail_closed<distributed::CountParty>(
      net::PartyRole::kCount, count_params(), test_bit_streams(),
      [](const std::vector<const distributed::CountParty*>& parties) {
        return distributed::union_count(parties, kWindow);
      });
}

TEST(MonitorHub, DistinctParityWithPollingRefereeThenFailClosed) {
  expect_hub_parity_then_fail_closed<distributed::DistinctParty>(
      net::PartyRole::kDistinct, distinct_params(), test_value_streams(),
      [](const std::vector<const distributed::DistinctParty*>& parties) {
        return distributed::distinct_count(parties, kWindow);
      });
}

TEST(MonitorHub, SumDegradesWithWidenedErrorOnDeadLeg) {
  constexpr std::uint64_t kMaxValue = 100;
  std::vector<std::unique_ptr<net::SumPartyState>> states;
  std::vector<std::unique_ptr<net::PartyServer>> servers;
  std::vector<net::Endpoint> endpoints;
  for (int j = 0; j < kParties; ++j) {
    states.push_back(
        std::make_unique<net::SumPartyState>(4, kWindow, kMaxValue));
    stream::UniformValues gen(0, kMaxValue,
                              300 + static_cast<std::uint64_t>(j));
    const auto values = stream::take(gen, kItems);
    states.back()->observe_batch(values);
    servers.push_back(std::make_unique<net::PartyServer>(net::ServerConfig{},
                                                         states.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }

  HubConfig cfg = hub_config(endpoints, net::PartyRole::kSum);
  cfg.max_value = kMaxValue;
  MonitorHub hub(cfg);
  ASSERT_TRUE(hub.start());

  const double expected =
      states[0]->query(kWindow).value + states[1]->query(kWindow).value;
  HubEstimate est = wait_until(hub, [&](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kOk &&
           e.value == expected;
  });
  EXPECT_EQ(est.value, expected);

  // Totals degrade instead of failing: remaining legs still sum, with the
  // missing party's worst case added to the error budget.
  servers[1]->stop();
  est = wait_until(hub, [](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kDegraded;
  });
  ASSERT_EQ(est.status, distributed::QueryStatus::kDegraded);
  EXPECT_EQ(est.value, states[0]->query(kWindow).value);
  EXPECT_EQ(est.missing, 1u);
  EXPECT_EQ(est.error_slack, static_cast<double>(kWindow * kMaxValue));

  hub.stop();
}

TEST(MonitorHub, GenerationBumpForcesResyncToParity) {
  const auto streams = test_bit_streams();
  distributed::CountParty party(count_params(), kInstances, kSeed);
  party.observe_batch(streams[0]);

  net::ServerConfig scfg;
  scfg.generation = 1;
  auto server = std::make_unique<net::PartyServer>(scfg, &party);
  ASSERT_TRUE(server->start());
  const std::uint16_t port = server->port();

  std::mutex events_mu;
  std::vector<std::string> events;
  HubConfig cfg = hub_config({{"127.0.0.1", port}}, net::PartyRole::kCount);
  cfg.on_event = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(events_mu);
    events.push_back(line);
  };
  MonitorHub hub(cfg);
  ASSERT_TRUE(hub.start());

  std::vector<const distributed::CountParty*> query{&party};
  const core::Estimate before = distributed::union_count(query, kWindow);
  HubEstimate est = wait_until(hub, [&](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kOk &&
           e.value == before.value;
  });
  EXPECT_EQ(est.value, before.value);

  // Simulated daemon restart: same party state and port, bumped epoch.
  // The hub must notice the stale generation, drop its mirror, and rebase
  // on the full initial push (kept bit-identical to polling throughout).
  server->stop();
  server.reset();
  party.observe_batch(streams[1]);
  scfg.generation = 2;
  scfg.port = port;
  server = std::make_unique<net::PartyServer>(scfg, &party);
  ASSERT_TRUE(server->start());

  const core::Estimate after = distributed::union_count(query, kWindow);
  est = wait_until(hub, [&](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kOk &&
           e.value == after.value;
  });
  ASSERT_EQ(est.status, distributed::QueryStatus::kOk);
  EXPECT_EQ(est.value, after.value);

  {
    const std::lock_guard<std::mutex> lock(events_mu);
    bool saw_resync = false;
    for (const auto& line : events) {
      if (line.find("HUB RESYNC party=0 generation=2") != std::string::npos) {
        saw_resync = true;
      }
    }
    EXPECT_TRUE(saw_resync);
  }

  hub.stop();
}

/// The hub's operator events, collected from whichever thread emits them.
class EventLog {
 public:
  std::function<void(const std::string&)> sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    };
  }
  [[nodiscard]] bool saw(const std::string& needle) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& line : lines_) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }
  /// Waits up to `budget` for a line containing `needle`.
  [[nodiscard]] bool wait_for(const std::string& needle,
                              std::chrono::milliseconds budget) {
    const auto give_up = std::chrono::steady_clock::now() + budget;
    while (!saw(needle)) {
      if (std::chrono::steady_clock::now() >= give_up) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

TEST(MonitorHub, LegBreakerTripsProbesOncePerCooldownThenCloses) {
  // A loopback port with nothing behind it: every connect is refused.
  std::uint16_t port = 0;
  {
    net::Listener probe;
    ASSERT_TRUE(probe.listen_on("127.0.0.1", 0));
    port = probe.port();
  }
  constexpr auto kCooldown = std::chrono::milliseconds(150);
  EventLog log;
  HubConfig cfg = hub_config({{"127.0.0.1", port}}, net::PartyRole::kCount);
  cfg.breaker_cooldown = kCooldown;
  cfg.on_event = log.sink();

#if WAVES_OBS_ENABLED
  const auto& mobs = obs::MonitorHubObs::instance();
  const std::uint64_t trips_before = mobs.breaker_trips.value();
  const std::uint64_t closes_before = mobs.breaker_closes.value();
#endif

  const auto t0 = std::chrono::steady_clock::now();
  MonitorHub hub(cfg);
  ASSERT_TRUE(hub.start());

  // Five failed cycles trip it; between them the leg backs off 10, 20, 40
  // and 80 ms (reconnect_base 10 ms, doubling), so the trip cannot come
  // before ~150 ms unless it fired on fewer cycles.
  ASSERT_TRUE(log.wait_for("HUB BREAKER OPEN party=0",
                           std::chrono::milliseconds(3000)));
  const auto opened = std::chrono::steady_clock::now();
  EXPECT_GE(opened - t0, std::chrono::milliseconds(140));
  EXPECT_EQ(hub.estimate().status, distributed::QueryStatus::kFailed);

#if WAVES_OBS_ENABLED
  EXPECT_EQ(mobs.breaker_trips.value(), trips_before + 1);
  // Open, the leg probes the dead endpoint at most once per cooldown, and
  // each failed probe keeps it open rather than tripping it again.
  const auto probe_t0 = std::chrono::steady_clock::now();
  const std::uint64_t probes_before = mobs.breaker_probes.value();
  std::this_thread::sleep_for(4 * kCooldown);
  const std::uint64_t probed = mobs.breaker_probes.value() - probes_before;
  const auto window = std::chrono::steady_clock::now() - probe_t0;
  EXPECT_GE(probed, 1u);
  EXPECT_LE(probed, static_cast<std::uint64_t>(window / kCooldown) + 1);
  EXPECT_EQ(mobs.breaker_trips.value(), trips_before + 1);
#else
  std::this_thread::sleep_for(4 * kCooldown);
#endif
  EXPECT_FALSE(log.saw("HUB BREAKER CLOSED"));

  // The party comes up on that port: the next probe subscribes and the
  // estimate recovers to parity with polling. The successful cycle closes
  // the breaker — reported by the time that cycle ends, here by the party
  // going away again.
  const auto streams = test_bit_streams();
  distributed::CountParty party(count_params(), kInstances, kSeed);
  party.observe_batch(streams[0]);
  net::ServerConfig scfg;
  scfg.port = port;
  auto server = std::make_unique<net::PartyServer>(scfg, &party);
  ASSERT_TRUE(server->start());

  std::vector<const distributed::CountParty*> query{&party};
  const core::Estimate direct = distributed::union_count(query, kWindow);
  const HubEstimate est = wait_until(hub, [&](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kOk &&
           e.value == direct.value;
  });
  EXPECT_EQ(est.status, distributed::QueryStatus::kOk);
  EXPECT_EQ(est.value, direct.value);
  server.reset();
  ASSERT_TRUE(log.wait_for("HUB BREAKER CLOSED party=0",
                           std::chrono::milliseconds(3000)));
#if WAVES_OBS_ENABLED
  EXPECT_EQ(mobs.breaker_closes.value(), closes_before + 1);
#endif

  hub.stop();
}

TEST(MonitorHub, StopReturnsPromptlyAgainstSilentParty) {
  using std::chrono::milliseconds;
  const auto timed_stop = [](MonitorHub& hub) {
    const auto t0 = std::chrono::steady_clock::now();
    hub.stop();
    return std::chrono::steady_clock::now() - t0;
  };

  {  // A party that never accepts: the connect lands in the listen
     // backlog and the Hello goes unanswered until io_deadline (2 s).
    net::Listener silent;
    ASSERT_TRUE(silent.listen_on("127.0.0.1", 0));
    MonitorHub hub(
        hub_config({{"127.0.0.1", silent.port()}}, net::PartyRole::kCount));
    ASSERT_TRUE(hub.start());
    std::this_thread::sleep_for(milliseconds(100));  // leg mid-handshake
    EXPECT_LT(timed_stop(hub), milliseconds(100));
  }

  {  // A party that takes the subscription, then stalls mid-frame: half a
     // header, and silence until the leg's read deadline.
    net::Listener stuck;
    ASSERT_TRUE(stuck.listen_on("127.0.0.1", 0));
    std::atomic<bool> stalled{false};
    std::jthread party([&](const std::stop_token& st) {
      net::Socket sock = stuck.accept_one(soon());
      net::Frame f;
      if (!sock.valid() ||
          net::read_frame(sock, f, soon()) != net::ReadStatus::kOk) {
        return;
      }
      net::HelloAck ack;
      ack.role = net::PartyRole::kCount;
      ack.instances = kInstances;
      ack.window = kWindow;
      ack.generation = 1;
      if (!net::write_frame(sock, net::MsgType::kHelloAck, ack.encode(),
                            soon()) ||
          net::read_frame(sock, f, soon()) != net::ReadStatus::kOk ||
          f.type != net::MsgType::kSubscribe) {
        return;
      }
      const auto header = net::put_header(net::MsgType::kPushUpdate, 64);
      if (!sock.send_all(header.data(), 5, soon())) return;
      stalled = true;
      while (!st.stop_requested()) {
        std::this_thread::sleep_for(milliseconds(5));
      }
    });
    MonitorHub hub(
        hub_config({{"127.0.0.1", stuck.port()}}, net::PartyRole::kCount));
    ASSERT_TRUE(hub.start());
    const auto give_up = std::chrono::steady_clock::now() + milliseconds(2000);
    while (!stalled && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(milliseconds(2));
    }
    ASSERT_TRUE(stalled);
    std::this_thread::sleep_for(milliseconds(50));  // the leg reads them
    EXPECT_LT(timed_stop(hub), milliseconds(100));
  }
}

TEST(MonitorWatch, WatcherGetsAckThenRevisionDrivenUpdates) {
  const auto streams = test_bit_streams();
  distributed::CountParty party(count_params(), kInstances, kSeed);
  party.observe_batch(streams[0]);
  net::PartyServer server(net::ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  MonitorHub hub(
      hub_config({{"127.0.0.1", server.port()}}, net::PartyRole::kCount));
  ASSERT_TRUE(hub.start());

  std::vector<const distributed::CountParty*> query{&party};
  const core::Estimate before = distributed::union_count(query, kWindow);
  (void)wait_until(hub, [&](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kOk &&
           e.value == before.value;
  });

  // Watcher handshake: Hello, then subscribe with the hub's role/window.
  net::Socket sock = net::tcp_connect("127.0.0.1", hub.watch_port(), soon());
  ASSERT_TRUE(sock.valid());
  ASSERT_TRUE(net::write_frame(sock, net::MsgType::kHello,
                               net::Hello{5}.encode(), soon()));
  net::Frame f;
  ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
  ASSERT_EQ(f.type, net::MsgType::kHelloAck);

  // A wrong-role subscribe gets a typed error and keeps the connection.
  net::SubscribeRequest wrong{1, net::PartyRole::kSum, kWindow};
  ASSERT_TRUE(net::write_frame(sock, net::MsgType::kSubscribe, wrong.encode(),
                               soon()));
  ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
  ASSERT_EQ(f.type, net::MsgType::kErr);
  net::ErrReply err;
  ASSERT_TRUE(net::ErrReply::decode(f.payload, err));
  EXPECT_EQ(err.code, net::ErrCode::kWrongRole);

  net::SubscribeRequest req{2, net::PartyRole::kCount, kWindow};
  ASSERT_TRUE(net::write_frame(sock, net::MsgType::kSubscribe, req.encode(),
                               soon()));
  ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
  ASSERT_EQ(f.type, net::MsgType::kPushUpdate);
  net::EstimateUpdate ack;
  ASSERT_TRUE(net::EstimateUpdate::decode(f.payload, ack));
  EXPECT_EQ(ack.seq, 1u);
  EXPECT_EQ(ack.status, 1u);
  EXPECT_EQ(ack.value, before.value);
  EXPECT_EQ(ack.n, kWindow);

  // Drift the party: an update must arrive carrying the new merged value,
  // with strictly increasing seq.
  party.observe_batch(streams[1]);
  const core::Estimate after = distributed::union_count(query, kWindow);
  std::uint64_t last_seq = ack.seq;
  net::EstimateUpdate got;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
    ASSERT_EQ(f.type, net::MsgType::kPushUpdate);
    ASSERT_TRUE(net::EstimateUpdate::decode(f.payload, got));
    EXPECT_EQ(got.seq, last_seq + 1);
    last_seq = got.seq;
    if (got.status == 1 && got.value == after.value) break;
  }

  hub.stop();
}

TEST(MonitorWatch, WatcherCapRejectsWithTypedOverload) {
  const auto streams = test_bit_streams();
  distributed::CountParty party(count_params(), kInstances, kSeed);
  party.observe_batch(streams[0]);
  net::PartyServer server(net::ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  HubConfig cfg =
      hub_config({{"127.0.0.1", server.port()}}, net::PartyRole::kCount);
  cfg.max_watchers = 0;
  MonitorHub hub(cfg);
  ASSERT_TRUE(hub.start());

#if WAVES_OBS_ENABLED
  const auto& obs = obs::MonitorHubObs::instance();
  const std::uint64_t rejected_before = obs.watcher_rejected.value();
#endif

  net::Socket sock = net::tcp_connect("127.0.0.1", hub.watch_port(), soon());
  ASSERT_TRUE(sock.valid());
  net::Frame f;
  ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
  ASSERT_EQ(f.type, net::MsgType::kErr);
  net::ErrReply err;
  ASSERT_TRUE(net::ErrReply::decode(f.payload, err));
  EXPECT_EQ(err.code, net::ErrCode::kOverloaded);
  EXPECT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kClosed);

#if WAVES_OBS_ENABLED
  EXPECT_GT(obs.watcher_rejected.value(), rejected_before);
#endif

  hub.stop();
}

/// Hello + subscribe on an already-connected watcher socket.
void watcher_subscribe(net::Socket& sock, net::PartyRole role) {
  ASSERT_TRUE(net::write_frame(sock, net::MsgType::kHello,
                               net::Hello{9}.encode(), soon()));
  net::Frame f;
  ASSERT_EQ(net::read_frame(sock, f, soon()), net::ReadStatus::kOk);
  ASSERT_EQ(f.type, net::MsgType::kHelloAck);
  const net::SubscribeRequest req{1, role, kWindow};
  ASSERT_TRUE(net::write_frame(sock, net::MsgType::kSubscribe, req.encode(),
                               soon()));
}

TEST(MonitorWatch, SlowWatcherEvictedHealthyWatcherUnaffected) {
  constexpr std::uint64_t kMaxValue = 100;
  net::SumPartyState state(4, kWindow, kMaxValue);
  state.observe_batch(std::vector<std::uint64_t>(kWindow, kMaxValue));
  net::PartyServer server(net::ServerConfig{}, &state);
  ASSERT_TRUE(server.start());

  HubConfig cfg =
      hub_config({{"127.0.0.1", server.port()}}, net::PartyRole::kSum);
  cfg.max_value = kMaxValue;
  cfg.watcher_write_budget = std::chrono::milliseconds(50);
  MonitorHub hub(cfg);
  ASSERT_TRUE(hub.start());
  ASSERT_NO_FATAL_FAILURE(
      net::edge::shrink_listener_send_buffer(hub.watch_port()));
  (void)wait_until(hub, [](const HubEstimate& e) {
    return e.status == distributed::QueryStatus::kOk;
  });

  // The slow watcher subscribes and then never reads a byte.
  net::Socket slow = net::edge::connect_tiny_rcvbuf(hub.watch_port());
  watcher_subscribe(slow, net::PartyRole::kSum);
  // The healthy watcher keeps draining its pushes throughout.
  net::Socket healthy = net::tcp_connect("127.0.0.1", hub.watch_port(), soon());
  ASSERT_TRUE(healthy.valid());
  watcher_subscribe(healthy, net::PartyRole::kSum);

#if WAVES_OBS_ENABLED
  const auto& obs = obs::MonitorHubObs::instance();
  const std::uint64_t evicted_before = obs.watcher_evicted.value();
#endif

  // Feeder: swing the window sum between ~0 and ~window*max_value so every
  // party-side drift check crosses the slack threshold and pushes, driving
  // a steady stream of watcher updates.
  std::jthread feeder([&state, kMaxValue](const std::stop_token& st) {
    const std::vector<std::uint64_t> zeros(kWindow, 0);
    const std::vector<std::uint64_t> highs(kWindow, kMaxValue);
    bool high = false;
    while (!st.stop_requested()) {
      state.observe_batch(high ? highs : zeros);
      high = !high;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Read the healthy watcher until the eviction is visible (counter when
  // obs is compiled in; otherwise a generous update count — the slow
  // watcher's few-KB pipe overflows after a few dozen pushes).
  int healthy_updates = 0;
  net::Frame f;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    ASSERT_EQ(net::read_frame(healthy, f, soon()), net::ReadStatus::kOk);
    ASSERT_EQ(f.type, net::MsgType::kPushUpdate);
    net::EstimateUpdate up;
    ASSERT_TRUE(net::EstimateUpdate::decode(f.payload, up));
    ++healthy_updates;
#if WAVES_OBS_ENABLED
    if (obs.watcher_evicted.value() > evicted_before) break;
#else
    if (healthy_updates >= 400) break;
#endif
  }
  EXPECT_GT(healthy_updates, 0);

  // Draining the slow socket now must terminate: buffered pushes, then the
  // hub's close (typed kOverloaded when the err frame still fit). If the
  // watcher had not been evicted, its serving thread would still be
  // feeding the socket and this loop would keep reading pushes forever.
  bool closed = false;
  bool typed_overload = false;
  for (int i = 0; i < 500 && !closed; ++i) {
    const net::ReadStatus rs = net::read_frame(slow, f, shortly());
    if (rs != net::ReadStatus::kOk) {
      // Eviction closes at a frame boundary or just closes: a malformed
      // header here would be an Err spliced into a half-sent push.
      EXPECT_NE(rs, net::ReadStatus::kMalformed);
      closed = true;
      break;
    }
    if (f.type == net::MsgType::kPushUpdate) {
      net::EstimateUpdate up;
      ASSERT_TRUE(net::EstimateUpdate::decode(f.payload, up));
    } else {
      ASSERT_EQ(f.type, net::MsgType::kErr);
      net::ErrReply err;
      ASSERT_TRUE(net::ErrReply::decode(f.payload, err));
      EXPECT_EQ(err.code, net::ErrCode::kOverloaded);
      typed_overload = true;
    }
  }
  EXPECT_TRUE(closed || typed_overload);

  // The healthy watcher is still subscribed and still receiving.
  ASSERT_EQ(net::read_frame(healthy, f, soon()), net::ReadStatus::kOk);
  EXPECT_EQ(f.type, net::MsgType::kPushUpdate);

  feeder.request_stop();
  feeder.join();
  hub.stop();
}

}  // namespace
}  // namespace waves::monitor
