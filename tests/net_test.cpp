// TCP transport tests: frame/protocol codecs (round-trip, fuzz,
// no-partial-output), live PartyServer behavior against malformed peers,
// loopback parity with the in-process referee, and partial-quorum
// semantics. Everything runs on 127.0.0.1 with ephemeral ports; test names
// start with Net so the TSan CI leg (-R "...|Net") picks them up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "gf2/shared_randomness.hpp"
#include "listeners.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/net_obs.hpp"
#include "obs/trace.hpp"
#include "stream/generators.hpp"
#include "stream/splitters.hpp"
#include "stream/value_streams.hpp"
#include "util/packed_bits.hpp"

namespace waves::net {
namespace {

Deadline soon() { return deadline_in(std::chrono::milliseconds(2000)); }

/// Loopback socket pair via a throwaway listener.
struct Pair {
  Listener listener;
  Socket client;
  Socket server;
};

Pair make_pair_() {
  Pair p;
  EXPECT_TRUE(p.listener.listen_on("127.0.0.1", 0));
  p.client = tcp_connect("127.0.0.1", p.listener.port(), soon());
  EXPECT_TRUE(p.client.valid());
  p.server = p.listener.accept_one(soon());
  EXPECT_TRUE(p.server.valid());
  return p;
}

TEST(NetFrame, HeaderRoundTrip) {
  for (const MsgType t :
       {MsgType::kHello, MsgType::kHelloAck, MsgType::kSnapshotRequest,
        MsgType::kCountReply, MsgType::kDistinctReply, MsgType::kTotalReply,
        MsgType::kErr}) {
    const auto h = put_header(t, 12345);
    MsgType type{};
    std::uint32_t len = 0;
    ASSERT_TRUE(parse_header(h.data(), type, len));
    EXPECT_EQ(type, t);
    EXPECT_EQ(len, 12345u);
  }
}

TEST(NetFrame, HeaderRejectsCorruption) {
  const auto good = put_header(MsgType::kHello, 10);
  MsgType type{};
  std::uint32_t len = 0;

  auto bad = good;
  bad[0] = 'X';  // magic
  EXPECT_FALSE(parse_header(bad.data(), type, len));

  bad = good;
  bad[4] = kProtocolVersion + 1;  // version
  EXPECT_FALSE(parse_header(bad.data(), type, len));

  bad = good;
  bad[5] = 0;  // type below range
  EXPECT_FALSE(parse_header(bad.data(), type, len));
  bad[5] = 99;  // type above range
  EXPECT_FALSE(parse_header(bad.data(), type, len));

  // Oversized payload length.
  bad = put_header(MsgType::kHello, kMaxPayload);
  EXPECT_TRUE(parse_header(bad.data(), type, len));
  bad[6] = 0xFF;
  bad[7] = 0xFF;
  bad[8] = 0xFF;
  bad[9] = 0xFF;
  EXPECT_FALSE(parse_header(bad.data(), type, len));
}

TEST(NetFrame, SocketRoundTrip) {
  Pair p = make_pair_();
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  ASSERT_TRUE(write_frame(p.client, MsgType::kSnapshotRequest, payload,
                          soon()));
  Frame f;
  ASSERT_EQ(read_frame(p.server, f, soon()), ReadStatus::kOk);
  EXPECT_EQ(f.type, MsgType::kSnapshotRequest);
  EXPECT_EQ(f.payload, payload);

  // Empty payload frames work too.
  ASSERT_TRUE(write_frame(p.server, MsgType::kErr, {}, soon()));
  ASSERT_EQ(read_frame(p.client, f, soon()), ReadStatus::kOk);
  EXPECT_EQ(f.type, MsgType::kErr);
  EXPECT_TRUE(f.payload.empty());
}

TEST(NetFrame, TruncatedFramesNeverYieldPartialOutput) {
  // Send every strict prefix of a valid frame, then close. The reader must
  // report kClosed (peer died mid-frame) and leave `out` untouched.
  std::vector<std::uint8_t> whole;
  const std::vector<std::uint8_t> payload{9, 8, 7, 6};
  const auto h = put_header(MsgType::kHello, 4);
  whole.insert(whole.end(), h.begin(), h.end());
  whole.insert(whole.end(), payload.begin(), payload.end());

  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    Pair p = make_pair_();
    ASSERT_TRUE(p.client.send_all(whole.data(), cut, soon()));
    p.client.close();
    Frame f;
    f.type = MsgType::kTotalReply;  // sentinel
    f.payload = {0xAB};
    EXPECT_EQ(read_frame(p.server, f, soon()), ReadStatus::kClosed);
    EXPECT_EQ(f.type, MsgType::kTotalReply);
    EXPECT_EQ(f.payload, std::vector<std::uint8_t>{0xAB});
  }
}

TEST(NetFrame, MalformedHeaderDetectedBeforePayload) {
  Pair p = make_pair_();
  std::uint8_t junk[kHeaderSize];
  std::memset(junk, 0x5A, sizeof junk);
  ASSERT_TRUE(p.client.send_all(junk, sizeof junk, soon()));
  Frame f;
  EXPECT_EQ(read_frame(p.server, f, soon()), ReadStatus::kMalformed);
}

TEST(NetProtocol, StructsRoundTrip) {
  {
    Hello in{42};
    Hello out;
    ASSERT_TRUE(Hello::decode(in.encode(), out));
    EXPECT_EQ(out.client_id, 42u);
  }
  {
    HelloAck in{PartyRole::kDistinct, 3, 5, 4096, 123456};
    HelloAck out;
    ASSERT_TRUE(HelloAck::decode(in.encode(), out));
    EXPECT_EQ(out.role, PartyRole::kDistinct);
    EXPECT_EQ(out.party_id, 3u);
    EXPECT_EQ(out.instances, 5u);
    EXPECT_EQ(out.window, 4096u);
    EXPECT_EQ(out.items_observed, 123456u);
  }
  {
    SnapshotRequest in{7, PartyRole::kSum, 2048};
    SnapshotRequest out;
    ASSERT_TRUE(SnapshotRequest::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 7u);
    EXPECT_EQ(out.role, PartyRole::kSum);
    EXPECT_EQ(out.n, 2048u);
  }
  {
    CountReply in;
    in.request_id = 9;
    in.snapshots.resize(2);
    in.snapshots[0].level = 3;
    in.snapshots[0].stream_len = 500;
    in.snapshots[0].positions = {400, 410, 499};
    in.snapshots[1].level = 1;
    in.snapshots[1].stream_len = 500;
    CountReply out;
    ASSERT_TRUE(CountReply::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 9u);
    ASSERT_EQ(out.snapshots.size(), 2u);
    EXPECT_EQ(out.snapshots[0].positions, in.snapshots[0].positions);
    EXPECT_EQ(out.snapshots[1].level, 1);
  }
  {
    TotalReply in{11, 3, 1234.5625, true, 9999};
    TotalReply out;
    ASSERT_TRUE(TotalReply::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 11u);
    EXPECT_EQ(out.generation, 3u);
    EXPECT_EQ(out.value, 1234.5625);  // bit pattern crossed exactly
    EXPECT_TRUE(out.exact);
    EXPECT_EQ(out.items_observed, 9999u);
  }
  {
    ErrReply in{13, ErrCode::kWrongRole, "nope"};
    ErrReply out;
    ASSERT_TRUE(ErrReply::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 13u);
    EXPECT_EQ(out.code, ErrCode::kWrongRole);
    EXPECT_EQ(out.message, "nope");
  }
}

TEST(NetProtocol, TruncationAndGarbageRejectedNoPartialOutput) {
  HelloAck ack{PartyRole::kCount, 1, 3, 1024, 777};
  const Bytes enc = ack.encode();
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    const Bytes prefix(enc.begin(),
                       enc.begin() + static_cast<std::ptrdiff_t>(cut));
    HelloAck out{PartyRole::kSum, 99, 99, 99, 99};  // sentinel
    EXPECT_FALSE(HelloAck::decode(prefix, out));
    EXPECT_EQ(out.party_id, 99u);  // untouched
  }
  Bytes garbage = enc;
  garbage.push_back(0x01);
  HelloAck out;
  EXPECT_FALSE(HelloAck::decode(garbage, out));

  // Random byte fuzz must never crash and must fail or fully parse.
  gf2::SplitMix64 rng(2024);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes noise(rng.next() % 40);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
    SnapshotRequest req;
    (void)SnapshotRequest::decode(noise, req);
    TotalReply total;
    (void)TotalReply::decode(noise, total);
    ErrReply err;
    (void)ErrReply::decode(noise, err);
    CountReply count;
    (void)CountReply::decode(noise, count);
    DistinctReply distinct;
    (void)DistinctReply::decode(noise, distinct);
  }
}

TEST(NetProtocol, SnapshotRequestExtensionsRoundTrip) {
  {  // v2 form: no extension blocks at all
    SnapshotRequest in{7, PartyRole::kSum, 2048};
    SnapshotRequest out;
    ASSERT_TRUE(SnapshotRequest::decode(in.encode(), out));
    EXPECT_FALSE(out.delta_capable);
    EXPECT_EQ(out.trace_id, 0u);
  }
  {  // tag 1 alone (the original v3 delta form)
    SnapshotRequest in{7, PartyRole::kCount, 2048};
    in.delta_capable = true;
    in.since_cursor = 31;
    SnapshotRequest out;
    ASSERT_TRUE(SnapshotRequest::decode(in.encode(), out));
    EXPECT_TRUE(out.delta_capable);
    EXPECT_EQ(out.since_cursor, 31u);
    EXPECT_EQ(out.trace_id, 0u);
  }
  {  // tag 2 alone: trace context without delta
    SnapshotRequest in{9, PartyRole::kCount, 512};
    in.trace_id = 0xDEADBEEF;
    in.parent_span_id = 5;
    SnapshotRequest out;
    ASSERT_TRUE(SnapshotRequest::decode(in.encode(), out));
    EXPECT_FALSE(out.delta_capable);
    EXPECT_EQ(out.trace_id, 0xDEADBEEFu);
    EXPECT_EQ(out.parent_span_id, 5u);
  }
  {  // both tags together
    SnapshotRequest in{11, PartyRole::kDistinct, 1024};
    in.delta_capable = true;
    in.since_cursor = 0;  // delta framing, bootstrap cursor
    in.trace_id = 42;
    in.parent_span_id = 7;
    SnapshotRequest out;
    ASSERT_TRUE(SnapshotRequest::decode(in.encode(), out));
    EXPECT_TRUE(out.delta_capable);
    EXPECT_EQ(out.since_cursor, 0u);
    EXPECT_EQ(out.trace_id, 42u);
    EXPECT_EQ(out.parent_span_id, 7u);
  }
}

TEST(NetProtocol, SnapshotRequestHostileExtensionsRejected) {
  using distributed::put_varint;
  // Fixed fields of a valid request, built by hand so each case can append
  // a non-canonical extension sequence.
  const auto fixed = [] {
    Bytes b;
    put_varint(b, 1);  // request_id
    put_varint(b, static_cast<std::uint64_t>(PartyRole::kCount));
    put_varint(b, 64);  // n
    return b;
  };
  const auto rejected = [](const Bytes& enc) {
    SnapshotRequest out{99, PartyRole::kSum, 99};  // sentinel
    EXPECT_FALSE(SnapshotRequest::decode(enc, out));
    EXPECT_EQ(out.request_id, 99u);  // untouched
  };
  {  // duplicate tag 1
    Bytes b = fixed();
    put_varint(b, 1);
    put_varint(b, 5);
    put_varint(b, 1);
    put_varint(b, 6);
    rejected(b);
  }
  {  // decreasing tag order: 2 then 1
    Bytes b = fixed();
    put_varint(b, 2);
    put_varint(b, 42);  // trace id
    put_varint(b, 7);   // parent span
    put_varint(b, 1);
    put_varint(b, 5);
    rejected(b);
  }
  {  // unknown tag
    Bytes b = fixed();
    put_varint(b, 3);
    put_varint(b, 0);
    rejected(b);
  }
  {  // zero trace id under tag 2 (the "no trace" value is never sent)
    Bytes b = fixed();
    put_varint(b, 2);
    put_varint(b, 0);
    put_varint(b, 7);
    rejected(b);
  }
  {  // truncated tag-2 block: trace id present, parent span missing
    Bytes b = fixed();
    put_varint(b, 2);
    put_varint(b, 42);
    rejected(b);
  }
  {  // bare tag with no payload
    Bytes b = fixed();
    put_varint(b, 1);
    rejected(b);
  }
}

TEST(NetProtocol, MetricsStructsRoundTrip) {
  {
    MetricsRequest in{21, MetricsFormat::kJson, 0};
    MetricsRequest out;
    ASSERT_TRUE(MetricsRequest::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 21u);
    EXPECT_EQ(out.format, MetricsFormat::kJson);
    EXPECT_EQ(out.trace_filter, 0u);
  }
  {  // trace scrape narrowed to one trace id
    MetricsRequest in{22, MetricsFormat::kTrace, 0xFEED};
    MetricsRequest out;
    ASSERT_TRUE(MetricsRequest::decode(in.encode(), out));
    EXPECT_EQ(out.format, MetricsFormat::kTrace);
    EXPECT_EQ(out.trace_filter, 0xFEEDu);
  }
  {
    MetricsReply in{31, 4, MetricsFormat::kProm,
                    "# TYPE waves_up gauge\nwaves_up 1\n"};
    MetricsReply out;
    ASSERT_TRUE(MetricsReply::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 31u);
    EXPECT_EQ(out.generation, 4u);
    EXPECT_EQ(out.format, MetricsFormat::kProm);
    EXPECT_EQ(out.text, in.text);
  }
  {  // empty exporter output is legal
    MetricsReply in{32, 0, MetricsFormat::kJson, ""};
    MetricsReply out;
    ASSERT_TRUE(MetricsReply::decode(in.encode(), out));
    EXPECT_TRUE(out.text.empty());
  }
}

TEST(NetProtocol, MetricsStructsRejectHostileInput) {
  using distributed::put_varint;
  {  // invalid format enum
    Bytes b;
    put_varint(b, 1);
    put_varint(b, 99);
    put_varint(b, 0);
    MetricsRequest out{7, MetricsFormat::kProm, 7};
    EXPECT_FALSE(MetricsRequest::decode(b, out));
    EXPECT_EQ(out.request_id, 7u);
  }
  {  // reply whose text length overruns the payload
    Bytes b;
    put_varint(b, 1);   // request_id
    put_varint(b, 0);   // generation
    put_varint(b, 1);   // kProm
    put_varint(b, 50);  // length > remaining bytes
    b.push_back('x');
    MetricsReply out;
    out.text = "sentinel";
    EXPECT_FALSE(MetricsReply::decode(b, out));
    EXPECT_EQ(out.text, "sentinel");
  }
  {  // every strict prefix of a valid reply fails, output untouched
    const MetricsReply whole{5, 2, MetricsFormat::kJson, "{\"a\":1}"};
    const Bytes enc = whole.encode();
    for (std::size_t cut = 0; cut < enc.size(); ++cut) {
      const Bytes prefix(enc.begin(),
                         enc.begin() + static_cast<std::ptrdiff_t>(cut));
      MetricsReply out;
      out.request_id = 123;
      EXPECT_FALSE(MetricsReply::decode(prefix, out));
      EXPECT_EQ(out.request_id, 123u);
    }
  }
  {  // trailing garbage after a valid reply
    Bytes enc = MetricsReply{5, 2, MetricsFormat::kProm, "hi"}.encode();
    enc.push_back(0x00);
    MetricsReply out;
    EXPECT_FALSE(MetricsReply::decode(enc, out));
  }
  // Byte fuzz: decode must fail or fully parse, never crash.
  gf2::SplitMix64 rng(4242);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes noise(rng.next() % 48);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
    MetricsRequest req;
    (void)MetricsRequest::decode(noise, req);
    MetricsReply rep;
    (void)MetricsReply::decode(noise, rep);
  }
}

TEST(NetProtocol, HealthStructsRoundTrip) {
  {
    HealthRequest in{17};
    HealthRequest out;
    ASSERT_TRUE(HealthRequest::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 17u);
  }
  {
    HealthReply in;
    in.request_id = 9;
    in.role = PartyRole::kSum;
    in.party_id = 3;
    in.generation = 12;
    in.items_observed = 40000;
    in.checkpoint_age_ms = 1500;
    in.uptime_ms = 987654;
    HealthReply out;
    ASSERT_TRUE(HealthReply::decode(in.encode(), out));
    EXPECT_EQ(out.request_id, 9u);
    EXPECT_EQ(out.role, PartyRole::kSum);
    EXPECT_EQ(out.party_id, 3u);
    EXPECT_EQ(out.generation, 12u);
    EXPECT_EQ(out.items_observed, 40000u);
    EXPECT_EQ(out.checkpoint_age_ms, 1500u);
    EXPECT_EQ(out.uptime_ms, 987654u);
  }
  {  // never-checkpointed sentinel survives the varint round trip
    HealthReply in;
    in.role = PartyRole::kCount;
    in.checkpoint_age_ms = ~0ull;
    HealthReply out;
    ASSERT_TRUE(HealthReply::decode(in.encode(), out));
    EXPECT_EQ(out.checkpoint_age_ms, ~0ull);
  }
}

TEST(NetProtocol, HealthStructsRejectHostileInput) {
  using distributed::put_varint;
  {  // invalid role enum
    Bytes b;
    put_varint(b, 1);    // request_id
    put_varint(b, 99);   // role: not a PartyRole
    put_varint(b, 0);    // party_id
    put_varint(b, 0);    // generation
    put_varint(b, 0);    // items
    put_varint(b, 0);    // checkpoint age
    put_varint(b, 0);    // uptime
    HealthReply out;
    out.request_id = 7;
    EXPECT_FALSE(HealthReply::decode(b, out));
    EXPECT_EQ(out.request_id, 7u);  // all-or-nothing: output untouched
  }
  {  // every strict prefix of a valid reply fails, output untouched
    HealthReply whole;
    whole.request_id = 5;
    whole.role = PartyRole::kDistinct;
    whole.party_id = 2;
    whole.generation = 8;
    whole.items_observed = 123456;
    whole.checkpoint_age_ms = 250;
    whole.uptime_ms = 99999;
    const Bytes enc = whole.encode();
    for (std::size_t cut = 0; cut < enc.size(); ++cut) {
      const Bytes prefix(enc.begin(),
                         enc.begin() + static_cast<std::ptrdiff_t>(cut));
      HealthReply out;
      out.request_id = 123;
      EXPECT_FALSE(HealthReply::decode(prefix, out));
      EXPECT_EQ(out.request_id, 123u);
    }
  }
  {  // trailing garbage after a valid request / reply
    Bytes enc = HealthRequest{3}.encode();
    enc.push_back(0x00);
    HealthRequest out;
    EXPECT_FALSE(HealthRequest::decode(enc, out));
    HealthReply whole;
    whole.role = PartyRole::kBasic;
    Bytes enc2 = whole.encode();
    enc2.push_back(0x01);
    HealthReply out2;
    EXPECT_FALSE(HealthReply::decode(enc2, out2));
  }
  // Byte fuzz: decode must fail or fully parse, never crash.
  gf2::SplitMix64 rng(4242);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes noise(rng.next() % 48);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
    HealthRequest req;
    (void)HealthRequest::decode(noise, req);
    HealthReply rep;
    (void)HealthReply::decode(noise, rep);
  }
}

// ---------------------------------------------------------------------------
// Live-server tests.

constexpr double kEps = 0.25;
constexpr std::uint64_t kWindow = 1024;
constexpr int kInstances = 3;
constexpr std::uint64_t kSeed = 77;
constexpr int kParties = 4;
constexpr std::uint64_t kItems = 6000;

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
  stream::BernoulliBits base_gen(0.2, 5);
  const auto base = stream::take(base_gen, kItems);
  return util::pack_streams(
      stream::correlated_streams(base, kParties, 0.05, 6));
}

TEST(NetServer, MalformedFrameGetsTypedErrorThenClose) {
  // A hostile/broken peer sends garbage: the listener — a party server or
  // a hub's watcher port — must answer with a typed Err frame and drop the
  // connection, never hang or crash.
  for (const edge::ListenerKind kind : edge::kBothListeners) {
    SCOPED_TRACE(edge::listener_name(kind));
    const edge::EdgeListener listener(kind, std::chrono::milliseconds(2000));
    ASSERT_TRUE(listener.ok());

    Socket sock = tcp_connect("127.0.0.1", listener.port(), soon());
    ASSERT_TRUE(sock.valid());
    std::uint8_t junk[32];
    std::memset(junk, 0x77, sizeof junk);
    ASSERT_TRUE(sock.send_all(junk, sizeof junk, soon()));
    Frame f;
    ASSERT_EQ(read_frame(sock, f, soon()), ReadStatus::kOk);
    EXPECT_EQ(f.type, MsgType::kErr);
    ErrReply err;
    ASSERT_TRUE(ErrReply::decode(f.payload, err));
    EXPECT_EQ(err.code, ErrCode::kBadRequest);
    // Connection is closed after the error.
    EXPECT_EQ(read_frame(sock, f, soon()), ReadStatus::kClosed);

    // The listener still answers a healthy client afterwards.
    Socket healthy = tcp_connect("127.0.0.1", listener.port(), soon());
    ASSERT_TRUE(healthy.valid());
    EXPECT_TRUE(listener.healthy_exchange(healthy, 1));
  }
}

TEST(NetServer, WrongRoleRequestGetsTypedError) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  RefereeClient client({{"127.0.0.1", server.port()}});
  const Fetch fetch = client.fetch(0, PartyRole::kDistinct, kWindow);
  EXPECT_EQ(fetch.status, FetchStatus::kRemoteError);
  EXPECT_EQ(fetch.attempts, 1);  // terminal: no retry can fix a wrong role
}

TEST(NetLoopback, CountParityWithInProcessReferee) {
  const auto streams = test_bit_streams();
  std::vector<std::unique_ptr<distributed::CountParty>> owners;
  std::vector<const distributed::CountParty*> query;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  for (int j = 0; j < kParties; ++j) {
    owners.push_back(std::make_unique<distributed::CountParty>(
        count_params(), kInstances, kSeed));
    owners.back()->observe_batch(streams[static_cast<std::size_t>(j)]);
    query.push_back(owners.back().get());
    servers.push_back(std::make_unique<PartyServer>(ServerConfig{},
                                                    owners.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }

  const core::Estimate direct = distributed::union_count(query, kWindow);

  NetworkCountSource source(endpoints, count_params(), kInstances, kSeed);
  distributed::WireStats stats;
  const distributed::QueryResult tcp =
      distributed::union_count(source, kWindow, &stats);

  ASSERT_EQ(tcp.status, distributed::QueryStatus::kOk);
  EXPECT_EQ(tcp.estimate.value, direct.value);  // bit-identical
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(kParties));
  EXPECT_GT(stats.bytes, 0u);

  // Sub-window queries agree too.
  const core::Estimate direct_half =
      distributed::union_count(query, kWindow / 2);
  const distributed::QueryResult tcp_half =
      distributed::union_count(source, kWindow / 2);
  ASSERT_EQ(tcp_half.status, distributed::QueryStatus::kOk);
  EXPECT_EQ(tcp_half.estimate.value, direct_half.value);
}

TEST(NetLoopback, DistinctParityWithInProcessReferee) {
  std::vector<std::unique_ptr<distributed::DistinctParty>> owners;
  std::vector<const distributed::DistinctParty*> query;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  for (int j = 0; j < kParties; ++j) {
    owners.push_back(std::make_unique<distributed::DistinctParty>(
        distinct_params(), kInstances, kSeed));
    stream::ZipfValues gen(1u << 12, 1.2,
                           100 + static_cast<std::uint64_t>(j));
    owners.back()->observe_batch(stream::take(gen, kItems));
    query.push_back(owners.back().get());
    servers.push_back(std::make_unique<PartyServer>(ServerConfig{},
                                                    owners.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }

  const core::Estimate direct = distributed::distinct_count(query, kWindow);

  NetworkDistinctSource source(endpoints, distinct_params(), kInstances,
                               kSeed);
  const distributed::QueryResult tcp =
      distributed::distinct_count(source, kWindow);

  ASSERT_EQ(tcp.status, distributed::QueryStatus::kOk);
  EXPECT_EQ(tcp.estimate.value, direct.value);
}

TEST(NetLoopback, TotalsParityAndConcurrentFanout) {
  // Scenario 1 over TCP: four sum parties; the referee's total must equal
  // the sum of the parties' own window estimates, bit for bit.
  constexpr std::uint64_t kMaxValue = 200;
  std::vector<std::unique_ptr<SumPartyState>> states;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  double expected = 0.0;
  for (int j = 0; j < kParties; ++j) {
    states.push_back(std::make_unique<SumPartyState>(4, kWindow, kMaxValue));
    stream::UniformValues gen(0, kMaxValue,
                              300 + static_cast<std::uint64_t>(j));
    const auto values = stream::take(gen, kItems);
    states.back()->observe_batch(values);
    expected += states.back()->query(kWindow).value;
    servers.push_back(std::make_unique<PartyServer>(ServerConfig{},
                                                    states.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }

  const RefereeClient client(endpoints);
  const distributed::QueryResult r =
      total_query(client, PartyRole::kSum, kWindow, kMaxValue);
  ASSERT_EQ(r.status, distributed::QueryStatus::kOk);
  EXPECT_EQ(r.estimate.value, expected);
  EXPECT_TRUE(r.missing.empty());
  EXPECT_EQ(r.error_slack, 0.0);
}

TEST(NetQuorum, UnionFailsClosedWhenPartyUnreachable) {
  const auto streams = test_bit_streams();
  std::vector<std::unique_ptr<distributed::CountParty>> owners;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  for (int j = 0; j < kParties - 1; ++j) {
    owners.push_back(std::make_unique<distributed::CountParty>(
        count_params(), kInstances, kSeed));
    owners.back()->observe_batch(streams[static_cast<std::size_t>(j)]);
    servers.push_back(std::make_unique<PartyServer>(ServerConfig{},
                                                    owners.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  // Fourth party is down: grab a port that refuses connections by binding
  // and immediately closing a listener.
  std::uint16_t dead_port = 0;
  {
    Listener l;
    ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
    dead_port = l.port();
  }
  endpoints.push_back({"127.0.0.1", dead_port});

  ClientConfig cfg;
  cfg.request_deadline = std::chrono::milliseconds(150);
  cfg.max_attempts = 2;
  cfg.backoff_base = std::chrono::milliseconds(5);
  NetworkCountSource source(endpoints, count_params(), kInstances, kSeed,
                            cfg);

  const auto t0 = std::chrono::steady_clock::now();
  const distributed::QueryResult r =
      distributed::union_count(source, kWindow);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(r.status, distributed::QueryStatus::kFailed);
  ASSERT_EQ(r.missing.size(), 1u);
  EXPECT_EQ(r.missing[0], static_cast<std::size_t>(kParties - 1));
  EXPECT_NE(r.error.find("fails closed"), std::string::npos);
  // Bounded: attempts * deadline + backoff, with slack. Never a hang.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(NetQuorum, InstanceCountMismatchFailsClosed) {
  // A daemon launched with a different --instances than the referee's
  // answers with a shorter (still well-formed) snapshot vector. That must
  // surface as a typed protocol error and a fail-closed query — never as
  // out-of-bounds indexing inside the median combine.
  const auto streams = test_bit_streams();
  distributed::CountParty party(count_params(), kInstances, kSeed);
  party.observe_batch(streams[0]);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  std::vector<Endpoint> endpoints{{"127.0.0.1", server.port()}};

  NetworkCountSource source(endpoints, count_params(), kInstances + 2,
                            kSeed);
  const distributed::QueryResult r =
      distributed::union_count(source, kWindow);
  EXPECT_EQ(r.status, distributed::QueryStatus::kFailed);
  ASSERT_EQ(r.missing.size(), 1u);
  EXPECT_NE(r.error.find("fails closed"), std::string::npos);

  const Fetch fetch = source.client().fetch(0, PartyRole::kCount, kWindow);
  EXPECT_EQ(fetch.status, FetchStatus::kProtocolError);
  EXPECT_EQ(fetch.attempts, 1);  // terminal: retrying can't change config
}

TEST(NetQuorum, TotalsDegradeWithWidenedError) {
  std::vector<std::unique_ptr<BasicPartyState>> states;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  const auto streams = test_bit_streams();
  double responders_sum = 0.0;
  for (int j = 0; j < kParties - 1; ++j) {
    states.push_back(std::make_unique<BasicPartyState>(4, kWindow));
    states.back()->observe_batch(streams[static_cast<std::size_t>(j)]);
    responders_sum += states.back()->query(kWindow).value;
    servers.push_back(std::make_unique<PartyServer>(ServerConfig{},
                                                    states.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  std::uint16_t dead_port = 0;
  {
    Listener l;
    ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
    dead_port = l.port();
  }
  endpoints.push_back({"127.0.0.1", dead_port});

  ClientConfig cfg;
  cfg.request_deadline = std::chrono::milliseconds(150);
  cfg.max_attempts = 2;
  cfg.backoff_base = std::chrono::milliseconds(5);
  const RefereeClient client(endpoints, cfg);

#if WAVES_OBS_ENABLED
  const auto& cobs = obs::NetClientObs::instance();
  const std::uint64_t retries_before = cobs.retries.value();
  const std::uint64_t conn_errors_before = cobs.connect_errors.value();
#endif

  const distributed::QueryResult r =
      total_query(client, PartyRole::kBasic, kWindow);

  ASSERT_EQ(r.status, distributed::QueryStatus::kDegraded);
  EXPECT_EQ(r.estimate.value, responders_sum);
  ASSERT_EQ(r.missing.size(), 1u);
  EXPECT_EQ(r.missing[0], static_cast<std::size_t>(kParties - 1));
  // One missing party, Basic Counting: slack = 1 * n * 1.
  EXPECT_EQ(r.error_slack, static_cast<double>(kWindow));

#if WAVES_OBS_ENABLED
  // The failed party cost at least one retry and one connect error, and
  // both are visible in the metrics registry.
  EXPECT_GT(cobs.retries.value(), retries_before);
  EXPECT_GT(cobs.connect_errors.value(), conn_errors_before);
#endif
}

TEST(NetClient, SilentServerHitsDeadlineNotHang) {
  // A listener that accepts but never replies: every attempt must end at
  // the deadline and the fetch must report timeout, not block forever.
  Listener l;
  ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
  std::jthread sink([&l](const std::stop_token& st) {
    std::vector<Socket> held;
    while (!st.stop_requested()) {
      Socket s = l.accept_one(deadline_in(std::chrono::milliseconds(50)));
      if (s.valid()) held.push_back(std::move(s));
    }
  });

  ClientConfig cfg;
  cfg.request_deadline = std::chrono::milliseconds(100);
  cfg.max_attempts = 2;
  cfg.backoff_base = std::chrono::milliseconds(5);
  RefereeClient client({{"127.0.0.1", l.port()}}, cfg);

#if WAVES_OBS_ENABLED
  const auto& cobs = obs::NetClientObs::instance();
  const std::uint64_t timeouts_before = cobs.timeouts.value();
#endif

  const auto t0 = std::chrono::steady_clock::now();
  const Fetch f = client.fetch(0, PartyRole::kCount, kWindow);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(f.status, FetchStatus::kTimeout);
  EXPECT_EQ(f.attempts, 2);
  EXPECT_GE(elapsed, std::chrono::milliseconds(200));  // both deadlines
  EXPECT_LT(elapsed, std::chrono::seconds(3));

#if WAVES_OBS_ENABLED
  EXPECT_GE(cobs.timeouts.value(), timeouts_before + 2);
#endif
}

TEST(NetMetrics, ScrapeLiveServer) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  const Endpoint ep{"127.0.0.1", server.port()};
  const auto deadline = std::chrono::milliseconds(2000);

  // A scrape-only connection: no Hello handshake, first frame is the
  // metrics request.
  MetricsReply prom;
  std::string err;
  ASSERT_TRUE(scrape_metrics(ep, MetricsFormat::kProm, 0, deadline, prom,
                             err))
      << err;
  EXPECT_EQ(prom.format, MetricsFormat::kProm);
  EXPECT_FALSE(prom.text.empty());  // OBS=OFF still serves the stub text

  MetricsReply json;
  ASSERT_TRUE(scrape_metrics(ep, MetricsFormat::kJson, 0, deadline, json,
                             err))
      << err;
  EXPECT_EQ(json.format, MetricsFormat::kJson);
  EXPECT_NE(json.text, prom.text);

#if WAVES_OBS_ENABLED
  // Query traffic is visible in a subsequent scrape.
  RefereeClient client({ep});
  ASSERT_TRUE(client.fetch(0, PartyRole::kCount, kWindow).ok());
  MetricsReply after;
  ASSERT_TRUE(scrape_metrics(ep, MetricsFormat::kProm, 0, deadline, after,
                             err))
      << err;
  EXPECT_NE(after.text.find("waves_net_server_requests_total"),
            std::string::npos);
#endif

  // Dead endpoint: fails closed, diagnostics set, output untouched.
  std::uint16_t dead_port = 0;
  {
    Listener l;
    ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
    dead_port = l.port();
  }
  MetricsReply out;
  out.request_id = 77;
  err.clear();
  EXPECT_FALSE(scrape_metrics({"127.0.0.1", dead_port},
                              MetricsFormat::kProm, 0,
                              std::chrono::milliseconds(300), out, err));
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_FALSE(err.empty());
}

TEST(NetMetrics, HostileMetricsReplyFailsClosed) {
  const auto deadline = std::chrono::milliseconds(2000);
  // A server that answers the scrape with garbage under a well-formed
  // kMetricsReply frame header.
  {
    Listener l;
    ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
    std::jthread evil([&l, deadline] {
      Socket s = l.accept_one(deadline_in(deadline));
      if (!s.valid()) return;
      Frame f;
      if (read_frame(s, f, deadline_in(deadline)) != ReadStatus::kOk) return;
      (void)write_frame(s, MsgType::kMetricsReply, {0xFF, 0xFF, 0xFF},
                        deadline_in(deadline));
    });
    MetricsReply out;
    out.request_id = 77;
    std::string err;
    EXPECT_FALSE(scrape_metrics({"127.0.0.1", l.port()},
                                MetricsFormat::kProm, 0, deadline, out,
                                err));
    EXPECT_EQ(out.request_id, 77u);
    EXPECT_FALSE(err.empty());
  }
  // A server that echoes a well-formed reply with the wrong format: the
  // client asked for Prometheus text and must not accept anything else.
  {
    Listener l;
    ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
    std::jthread evil([&l, deadline] {
      Socket s = l.accept_one(deadline_in(deadline));
      if (!s.valid()) return;
      Frame f;
      if (read_frame(s, f, deadline_in(deadline)) != ReadStatus::kOk) return;
      MetricsRequest req;
      if (!MetricsRequest::decode(f.payload, req)) return;
      const MetricsReply lie{req.request_id, 1, MetricsFormat::kJson, "{}"};
      (void)write_frame(s, MsgType::kMetricsReply, lie.encode(),
                        deadline_in(deadline));
    });
    MetricsReply out;
    std::string err;
    EXPECT_FALSE(scrape_metrics({"127.0.0.1", l.port()},
                                MetricsFormat::kProm, 0, deadline, out,
                                err));
    EXPECT_FALSE(err.empty());
  }
}

#if WAVES_OBS_ENABLED
// The server's handling span records at scope exit, *after* the reply
// frame is written — so the client can see the reply a beat before the
// span lands in the log. Poll briefly instead of asserting immediately.
std::vector<obs::SpanRecord> await_trace_spans(std::uint64_t trace,
                                               const char* name,
                                               int want) {
  for (int i = 0; i < 200; ++i) {
    const auto spans = obs::Tracer::instance().for_trace(trace);
    int got = 0;
    for (const auto& s : spans)
      if (s.name == name) ++got;
    if (got >= want) return spans;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return obs::Tracer::instance().for_trace(trace);
}

TEST(NetTrace, RequestCarriesTraceAcrossTheWire) {
  // Client and server share this process, so both sides' spans land in the
  // same tracer — the wire crossing is still real: the server only learns
  // the trace id from the SnapshotRequest's tag-2 extension.
  distributed::CountParty party(count_params(), kInstances, kSeed);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  RefereeClient client({{"127.0.0.1", server.port()}});

  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  const std::uint64_t trace = tracer.new_trace_id();
  ASSERT_NE(trace, 0u);
  const Fetch f =
      client.fetch(0, PartyRole::kCount, kWindow, obs::TraceContext{trace, 0});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.trace_id, trace);

  std::uint64_t fetch_id = 0;
  bool answer_seen = false;
  const auto spans = await_trace_spans(trace, "party.answer", 1);
  for (const auto& s : spans)
    if (s.name == "net.fetch") fetch_id = s.id;
  ASSERT_NE(fetch_id, 0u);
  for (const auto& s : spans) {
    if (s.name == "party.answer") {
      answer_seen = true;
      EXPECT_EQ(s.parent_id, fetch_id);  // server span hangs under the fetch
    }
  }
  EXPECT_TRUE(answer_seen);

  // A format=trace scrape narrowed to this trace returns exactly its spans.
  MetricsReply r;
  std::string err;
  ASSERT_TRUE(scrape_metrics({"127.0.0.1", server.port()},
                             MetricsFormat::kTrace, trace,
                             std::chrono::milliseconds(2000), r, err))
      << err;
  EXPECT_NE(r.text.find("party.answer"), std::string::npos);
  EXPECT_NE(r.text.find("net.fetch"), std::string::npos);

  MetricsReply none;
  ASSERT_TRUE(scrape_metrics({"127.0.0.1", server.port()},
                             MetricsFormat::kTrace, trace ^ 0x1,
                             std::chrono::milliseconds(2000), none, err))
      << err;
  EXPECT_EQ(none.text.find("party.answer"), std::string::npos);
}

TEST(NetTrace, FanoutStitchesOnePerQueryTrace) {
  // One fetch_all over several parties: every per-party fetch span and
  // every server answer span must share a single trace id.
  const auto streams = test_bit_streams();
  std::vector<std::unique_ptr<distributed::CountParty>> owners;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  for (int j = 0; j < kParties; ++j) {
    owners.push_back(std::make_unique<distributed::CountParty>(
        count_params(), kInstances, kSeed));
    owners.back()->observe_batch(streams[static_cast<std::size_t>(j)]);
    servers.push_back(std::make_unique<PartyServer>(ServerConfig{},
                                                    owners.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  RefereeClient client(endpoints);

  obs::Tracer::instance().clear();
  const auto fetches = client.fetch_all(PartyRole::kCount, kWindow);
  ASSERT_EQ(fetches.size(), static_cast<std::size_t>(kParties));
  const std::uint64_t trace = client.last_trace_id();
  ASSERT_NE(trace, 0u);
  for (const auto& f : fetches) {
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f.trace_id, trace);
  }
  const auto spans = await_trace_spans(trace, "party.answer", kParties);
  int fetch_spans = 0, answer_spans = 0, fanout_spans = 0;
  for (const auto& s : spans) {
    if (s.name == "net.fetch") ++fetch_spans;
    if (s.name == "party.answer") ++answer_spans;
    if (s.name == "net.fanout") ++fanout_spans;
  }
  EXPECT_EQ(fetch_spans, kParties);
  EXPECT_EQ(answer_spans, kParties);
  EXPECT_EQ(fanout_spans, 1);
}
#endif  // WAVES_OBS_ENABLED

TEST(NetClient, ParseEndpoint) {
  Endpoint ep;
  ASSERT_TRUE(parse_endpoint("127.0.0.1:8080", ep));
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 8080);
  EXPECT_FALSE(parse_endpoint("127.0.0.1", ep));
  EXPECT_FALSE(parse_endpoint(":8080", ep));
  EXPECT_FALSE(parse_endpoint("127.0.0.1:", ep));
  EXPECT_FALSE(parse_endpoint("127.0.0.1:0", ep));
  EXPECT_FALSE(parse_endpoint("127.0.0.1:99999", ep));
  EXPECT_FALSE(parse_endpoint("127.0.0.1:12ab", ep));
}

TEST(NetServer, HealthProbeReportsIdentityAndCheckpointAge) {
  distributed::CountParty party(count_params(), kInstances, kSeed);
  const auto streams = test_bit_streams();
  party.observe_batch(streams[0]);

  ServerConfig scfg;
  scfg.party_id = 7;
  scfg.generation = 3;
  PartyServer server(scfg, &party);
  ASSERT_TRUE(server.start());
  const Endpoint ep{"127.0.0.1", server.port()};
  const auto deadline = std::chrono::milliseconds(2000);

  HealthReply hr;
  std::string error;
  ASSERT_TRUE(probe_health(ep, deadline, hr, error)) << error;
  EXPECT_EQ(hr.role, PartyRole::kCount);
  EXPECT_EQ(hr.party_id, 7u);
  EXPECT_EQ(hr.generation, 3u);
  EXPECT_EQ(hr.items_observed, party.items_observed());
  // Never checkpointed: the age carries the explicit sentinel, not zero —
  // a supervisor must not mistake "no durability" for "fresh checkpoint".
  EXPECT_EQ(hr.checkpoint_age_ms, ~0ull);

  // A durable save marks the age; it restarts from (near) zero.
  server.note_checkpoint();
  HealthReply after;
  ASSERT_TRUE(probe_health(ep, deadline, after, error)) << error;
  EXPECT_LT(after.checkpoint_age_ms, 2000u);
  EXPECT_GE(after.uptime_ms, hr.uptime_ms);

  // Fail-closed probe: a dead endpoint reports failure, output untouched.
  server.stop();
  HealthReply untouched;
  untouched.party_id = 42;
  EXPECT_FALSE(probe_health(ep, std::chrono::milliseconds(250), untouched,
                            error));
  EXPECT_EQ(untouched.party_id, 42u);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace waves::net
