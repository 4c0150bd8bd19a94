// Event-loop core tests: EventLoop timers/fds/post (both backends — epoll
// and the poll(2) fallback), the WorkerPool, the served replies checked
// byte-for-byte against the in-process party they answer for, a live
// session, and the connection layer's deadlines: slow loris (against the
// party server and the hub's watcher port), write stall, and the
// frame-boundary typed close. Suite names start with NetLoop/NetConnLoop
// so the TSan CI leg's -R "...|Net" regex picks every test up.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "distributed/party.hpp"
#include "listeners.hpp"
#include "loadgen.hpp"
#include "monitor/hub.hpp"
#include "net/client.hpp"
#include "net/conn_loop.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace waves::net {
namespace {

using namespace std::chrono_literals;
using edge::connect_tiny_rcvbuf;
using edge::EdgeListener;
using edge::kBothListeners;
using edge::listener_name;
using edge::ListenerKind;
using edge::shrink_listener_send_buffer;

Deadline soon() { return deadline_in(std::chrono::milliseconds(2000)); }

core::RandWave::Params params() {
  return {.eps = 0.2, .window = 1024, .c = 36};
}

// ---------------------------------------------------------------------------
// EventLoop — parameterized over the backend (true = epoll, false = poll).

class NetLoopBackend : public ::testing::TestWithParam<bool> {};

TEST_P(NetLoopBackend, BackendSelectionHonored) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  // Forcing poll must actually select poll; preferring epoll may still
  // fall back where epoll is unavailable, so only the forced case is exact.
  if (!GetParam()) {
    EXPECT_FALSE(loop.using_epoll());
  }
}

TEST_P(NetLoopBackend, PostMarshalsClosuresFromOtherThreads) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  std::atomic<int> ran{0};
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  std::vector<std::jthread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        loop.post([&ran] { ran.fetch_add(1); });
      }
    });
  }
  posters.clear();  // join posters
  const auto give_up = Clock::now() + 2s;
  while (ran.load() < 200 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ran.load(), 200);
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, TimerFiresOnceNearItsDelay) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  std::atomic<int> fires{0};
  const auto t0 = Clock::now();
  std::atomic<std::int64_t> fired_after_ms{-1};
  loop.post([&] {
    (void)loop.arm_timer(20ms, [&] {
      fires.fetch_add(1);
      fired_after_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - t0)
                               .count());
    });
  });
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  const auto give_up = Clock::now() + 2s;
  while (fires.load() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(50ms);  // would catch a double fire
  EXPECT_EQ(fires.load(), 1);
  // One-shot, roughly on time: no earlier than the delay minus one tick.
  EXPECT_GE(fired_after_ms.load(),
            20 - EventLoop::kTimerTick.count());
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, CancelledTimerNeverFires) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  std::atomic<int> fires{0};
  std::atomic<bool> cancelled{false};
  loop.post([&] {
    const EventLoop::TimerId id =
        loop.arm_timer(30ms, [&] { fires.fetch_add(1); });
    loop.cancel_timer(id);
    cancelled.store(true);
  });
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  const auto give_up = Clock::now() + 2s;
  while (!cancelled.load() && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fires.load(), 0);
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, MultiLapTimerRidesTheRoundsCounter) {
  // kTimerTick * kTimerSlots is the wheel's one-lap horizon (~1s); a delay
  // past it must carry a rounds counter and still fire.
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  const auto horizon = EventLoop::kTimerTick * EventLoop::kTimerSlots;
  std::atomic<int> fires{0};
  const auto t0 = Clock::now();
  std::atomic<std::int64_t> fired_after_ms{-1};
  loop.post([&] {
    (void)loop.arm_timer(horizon + 100ms, [&] {
      fires.fetch_add(1);
      fired_after_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - t0)
                               .count());
    });
  });
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  const auto give_up = Clock::now() + horizon + 3s;
  while (fires.load() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(fires.load(), 1);
  EXPECT_GE(fired_after_ms.load(),
            std::chrono::duration_cast<std::chrono::milliseconds>(horizon)
                .count());
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, OverdueTimerClampsToZeroInsteadOfBlocking) {
  // Regression: when the loop thread falls behind (a handler runs past a
  // timer's due time), the next-timeout computation used to wrap negative
  // under unsigned duration arithmetic — and epoll_wait treats a negative
  // timeout as "block forever", freezing every timer until the next fd
  // event. The overdue slot must clamp to 0 and fire immediately.
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  std::atomic<int> fires{0};
  loop.post([&] {
    (void)loop.arm_timer(10ms, [&] { fires.fetch_add(1); });
    // Stall the loop thread well past the due time before it ever gets to
    // compute a poll timeout for that timer.
    std::this_thread::sleep_for(120ms);
  });
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  const auto t0 = Clock::now();
  const auto give_up = t0 + 5s;
  while (fires.load() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fires.load(), 1);
  // Generous bound: the stall is 120ms; anything near the 5s give-up means
  // the loop blocked on a wrapped timeout. No fd traffic arrives in this
  // test, so only the (fixed) timeout math can wake the loop.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - t0)
                .count(),
            2000);
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, FdReadinessDispatchesHandler) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  Listener listener;
  ASSERT_TRUE(listener.listen_on("127.0.0.1", 0));
  Socket client = tcp_connect("127.0.0.1", listener.port(), soon());
  ASSERT_TRUE(client.valid());
  Socket server = listener.accept_one(soon());
  ASSERT_TRUE(server.valid());

  std::atomic<int> reads{0};
  char buf[16];
  const int sfd = server.fd();
  // Loop thread not running yet, so registration from here is safe.
  ASSERT_TRUE(loop.add_fd(sfd, /*read=*/true, /*write=*/false,
                          [&, sfd](std::uint32_t events) {
                            if ((events & EventLoop::kReadable) == 0) return;
                            while (::recv(sfd, buf, sizeof buf, 0) > 0) {
                            }
                            reads.fetch_add(1);
                          }));
  EXPECT_EQ(loop.fd_count(), 1u);
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });

  ASSERT_TRUE(client.send_all("x", 1, soon()));
  const auto give_up = Clock::now() + 2s;
  while (reads.load() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(reads.load(), 1);
  runner.request_stop();
  loop.wake();
}

INSTANTIATE_TEST_SUITE_P(Backends, NetLoopBackend, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return std::string(p.param ? "epoll" : "poll");
                         });

// ---------------------------------------------------------------------------
// WorkerPool

TEST(NetLoopPool, RunsEveryJobAcrossWorkers) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  const auto give_up = Clock::now() + 5s;
  while (ran.load() < 200 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ran.load(), 200);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(NetLoopPool, DefaultWorkerCountIsBoundedSmall) {
  const std::size_t n = default_worker_count();
  EXPECT_GE(n, 2u);
  EXPECT_LE(n, 8u);
}

// ---------------------------------------------------------------------------
// Differential: the served replies against the in-process oracle.

struct RawConn {
  Socket sock;

  [[nodiscard]] static RawConn open(std::uint16_t port) {
    RawConn c;
    c.sock = tcp_connect("127.0.0.1", port, soon());
    EXPECT_TRUE(c.sock.valid());
    return c;
  }

  Frame exchange(MsgType type, const Bytes& payload) {
    EXPECT_TRUE(write_frame(sock, type, payload, soon()));
    Frame f;
    EXPECT_EQ(read_frame(sock, f, soon()), ReadStatus::kOk);
    return f;
  }
};

void expect_snapshots_eq(const std::vector<core::RandWaveSnapshot>& got,
                         const std::vector<core::RandWaveSnapshot>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].level, want[k].level) << "instance " << k;
    EXPECT_EQ(got[k].stream_len, want[k].stream_len) << "instance " << k;
    EXPECT_EQ(got[k].positions, want[k].positions) << "instance " << k;
  }
}

TEST(NetLoopDifferential, RepliesMatchInProcessParty) {
  // The party is quiescent, so every reply is taken at the same cursor as
  // the in-process snapshot it is compared with.
  distributed::CountParty party(params(), 3, 21);
  for (int i = 0; i < 3000; ++i) party.observe((i % 3) == 0);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());
  RawConn c = RawConn::open(server.port());

  // Handshake: the ack describes this party.
  Hello hello;
  hello.client_id = 42;
  const Frame ack = c.exchange(MsgType::kHello, hello.encode());
  ASSERT_EQ(ack.type, MsgType::kHelloAck);
  HelloAck decoded_ack;
  ASSERT_TRUE(HelloAck::decode(ack.payload, decoded_ack));
  EXPECT_EQ(decoded_ack.role, PartyRole::kCount);
  EXPECT_EQ(decoded_ack.instances, 3u);
  EXPECT_EQ(decoded_ack.window, 1024u);
  EXPECT_EQ(decoded_ack.items_observed, party.items_observed());

  // Full snapshot reply: the decoded snapshots are the party's own, and
  // the bytes are exactly the encoding of the in-process reply.
  SnapshotRequest req;
  req.request_id = 7;
  req.role = PartyRole::kCount;
  req.n = 1024;
  const Frame rep = c.exchange(MsgType::kSnapshotRequest, req.encode());
  ASSERT_EQ(rep.type, MsgType::kCountReply);
  CountReply decoded;
  ASSERT_TRUE(CountReply::decode(rep.payload, decoded));
  EXPECT_EQ(decoded.request_id, 7u);
  const std::vector<core::RandWaveSnapshot> want = party.snapshots(req.n);
  expect_snapshots_eq(decoded.snapshots, want);
  CountReply oracle;
  oracle.request_id = 7;
  oracle.snapshots = want;
  EXPECT_EQ(rep.payload, oracle.encode());

  // Typed error path: wrong role gets kWrongRole for this request id...
  req.request_id = 8;
  req.role = PartyRole::kDistinct;
  const Frame err = c.exchange(MsgType::kSnapshotRequest, req.encode());
  ASSERT_EQ(err.type, MsgType::kErr);
  ErrReply decoded_err;
  ASSERT_TRUE(ErrReply::decode(err.payload, decoded_err));
  EXPECT_EQ(decoded_err.request_id, 8u);
  EXPECT_EQ(decoded_err.code, ErrCode::kWrongRole);

  // ...and the connection stays usable: the next query still matches the
  // in-process party.
  req.request_id = 9;
  req.role = PartyRole::kCount;
  const Frame again = c.exchange(MsgType::kSnapshotRequest, req.encode());
  ASSERT_EQ(again.type, MsgType::kCountReply);
  oracle.request_id = 9;
  EXPECT_EQ(again.payload, oracle.encode());
}

// Live-server session: handshake, query, subscribe ack, unsubscribe.
TEST(NetLoopServer, HelloQuerySubscribeAllServe) {
  distributed::CountParty party(params(), 3, 5);
  for (int i = 0; i < 2000; ++i) party.observe(i % 2 == 0);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  RawConn c = RawConn::open(server.port());
  Hello hello;
  const Frame ack = c.exchange(MsgType::kHello, hello.encode());
  ASSERT_EQ(ack.type, MsgType::kHelloAck);
  HelloAck decoded;
  ASSERT_TRUE(HelloAck::decode(ack.payload, decoded));
  EXPECT_EQ(decoded.role, PartyRole::kCount);
  EXPECT_EQ(decoded.window, 1024u);

  SnapshotRequest req;
  req.request_id = 1;
  req.role = PartyRole::kCount;
  req.n = 1024;
  const Frame rep = c.exchange(MsgType::kSnapshotRequest, req.encode());
  EXPECT_EQ(rep.type, MsgType::kCountReply);

  SubscribeRequest sub;
  sub.request_id = 2;
  sub.role = PartyRole::kCount;
  sub.n = 1024;
  sub.has_slack = true;
  sub.slack = 1e18;  // never drifts: only the initial ack push arrives
  sub.check_every_ms = 50;
  const Frame push = c.exchange(MsgType::kSubscribe, sub.encode());
  EXPECT_EQ(push.type, MsgType::kPushUpdate);

  Unsubscribe unsub;
  unsub.request_id = 3;
  ASSERT_TRUE(write_frame(c.sock, MsgType::kUnsubscribe, unsub.encode(),
                          soon()));
  // Back in request/reply mode.
  req.request_id = 4;
  const Frame rep2 = c.exchange(MsgType::kSnapshotRequest, req.encode());
  EXPECT_EQ(rep2.type, MsgType::kCountReply);
}

// ---------------------------------------------------------------------------
// Slow loris: the connection layer must expire stalled partial frames via
// the deadline wheel without stalling any other session — on the party
// server and on the hub's watcher port alike.

TEST(NetLoopSlowLoris, StalledPartialHeaderExpiresOthersUnaffected) {
  for (const ListenerKind kind : kBothListeners) {
    SCOPED_TRACE(listener_name(kind));
    const EdgeListener listener(kind, std::chrono::milliseconds(200));
    ASSERT_TRUE(listener.ok());

    // The attacker: three header bytes, then silence.
    Socket loris = tcp_connect("127.0.0.1", listener.port(), soon());
    ASSERT_TRUE(loris.valid());
    const auto header = put_header(MsgType::kHello, 0);
    ASSERT_TRUE(loris.send_all(header.data(), 3, soon()));

    // Healthy sessions keep being served the whole time the loris stalls.
    Socket healthy = tcp_connect("127.0.0.1", listener.port(), soon());
    ASSERT_TRUE(healthy.valid());
    const auto until = Clock::now() + 600ms;
    int served = 0;
    while (Clock::now() < until) {
      ASSERT_TRUE(listener.healthy_exchange(
          healthy, static_cast<std::uint64_t>(served + 1)));
      ++served;
      std::this_thread::sleep_for(10ms);
    }
    EXPECT_GT(served, 10);

    // By now the loris is far past io_deadline: the listener must have
    // closed it (EOF on our side), not left the connection parked forever.
    char byte = 0;
    EXPECT_EQ(loris.recv_exact(&byte, 1, soon()), IoResult::kClosed);
  }
}

TEST(NetLoopSlowLoris, StalledPayloadExpiresToo) {
  for (const ListenerKind kind : kBothListeners) {
    SCOPED_TRACE(listener_name(kind));
    const EdgeListener listener(kind, std::chrono::milliseconds(150));
    ASSERT_TRUE(listener.ok());

    // Full header promising 100 payload bytes; send only 10 and stall.
    Socket loris = tcp_connect("127.0.0.1", listener.port(), soon());
    ASSERT_TRUE(loris.valid());
    const auto header = put_header(MsgType::kHello, 100);
    ASSERT_TRUE(loris.send_all(header.data(), header.size(), soon()));
    const char partial[10] = {};
    ASSERT_TRUE(loris.send_all(partial, sizeof partial, soon()));

    char byte = 0;
    EXPECT_EQ(loris.recv_exact(&byte, 1, soon()), IoResult::kClosed);
  }
}

// ---------------------------------------------------------------------------
// Write stall: a peer that pipelines requests and never reads is closed
// once its reply queue stays stalled past io_deadline, while another
// session keeps being served.

TEST(NetLoopServer, WriteStalledPeerClosedOthersUnaffected) {
  const EdgeListener listener(ListenerKind::kPartyServer,
                              std::chrono::milliseconds(200));
  ASSERT_TRUE(listener.ok());
  ASSERT_NO_FATAL_FAILURE(shrink_listener_send_buffer(listener.port()));

  Socket stalled = connect_tiny_rcvbuf(listener.port());
  ASSERT_TRUE(stalled.valid());
  SnapshotRequest req;
  req.role = PartyRole::kCount;
  req.n = EdgeListener::kWindow;
  constexpr int kPipelined = 2000;  // ~MBs of replies against a few KB
  Bytes burst;
  for (int i = 0; i < kPipelined; ++i) {
    req.request_id = static_cast<std::uint64_t>(i + 1);
    const Bytes payload = req.encode();
    const auto header = put_header(MsgType::kSnapshotRequest,
                                   static_cast<std::uint32_t>(payload.size()));
    burst.insert(burst.end(), header.begin(), header.end());
    burst.insert(burst.end(), payload.begin(), payload.end());
  }
  ASSERT_TRUE(stalled.send_all(burst.data(), burst.size(), soon()));

  // The healthy session is served throughout, well past io_deadline.
  Socket healthy = tcp_connect("127.0.0.1", listener.port(), soon());
  ASSERT_TRUE(healthy.valid());
  const auto until = Clock::now() + 600ms;
  int served = 0;
  while (Clock::now() < until) {
    ASSERT_TRUE(listener.healthy_exchange(
        healthy, static_cast<std::uint64_t>(served + 1)));
    ++served;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(served, 10);

  // Reading now drains what the kernel already held and then hits EOF:
  // the server gave up on the stalled queue instead of answering all
  // kPipelined requests (or holding the connection open forever).
  int replies = 0;
  ReadStatus rs = ReadStatus::kOk;
  Frame f;
  while ((rs = read_frame(stalled, f, soon())) == ReadStatus::kOk) {
    EXPECT_EQ(f.type, MsgType::kCountReply);
    ++replies;
  }
  EXPECT_EQ(rs, ReadStatus::kClosed);
  EXPECT_LT(replies, kPipelined);
}

// ---------------------------------------------------------------------------
// Typed close at frame boundaries only: a peer that reads part of a frame
// and stops is evicted without a single foreign byte spliced into the
// half-sent frame — everything it receives is a prefix of the whole frames
// queued for it, followed by EOF. The test holds the loop thread while the
// peer empties the socket, so the eviction runs with a frame half sent
// *and* send-buffer room free: exactly when a stray Err would land.
//
// EvictingLoop answers Hello with `payloads` as kPushUpdate frames; any
// later frame queues one more that overflows the byte cap, and the stall
// evicts with a typed close — the hub's overflow path.
struct EvictingLoop final : ConnLoop {
  EvictingLoop(Listener& l, const ConnPolicy& p, std::vector<Bytes> frames)
      : ConnLoop(l, p), payloads(std::move(frames)) {}
  ~EvictingLoop() override { stop(); }

  void on_frame(const ConnPtr& c, Frame f) override {
    if (f.type == MsgType::kHello) {
      for (const Bytes& p : payloads) send(c, MsgType::kPushUpdate, p);
    } else {
      send(c, MsgType::kPushUpdate, Bytes(2 * payloads.front().size(), 9));
    }
  }
  void on_read(const ConnPtr& c) override { flush(c); }
  void on_stall(const ConnPtr& c) override {
    stalls.fetch_add(1);
    close_typed(c, ErrReply{0, ErrCode::kOverloaded, "evicted"});
  }

  std::vector<Bytes> payloads;
  std::atomic<int> stalls{0};
};

TEST(NetConnLoop, StallCloseNeverSplicesIntoAHalfSentFrame) {
  Listener listener;
  ASSERT_TRUE(listener.listen_on("127.0.0.1", 0));
  int one = 1;  // accepted sockets inherit the kernel's floor
  ASSERT_EQ(::setsockopt(listener.fd(), SOL_SOCKET, SO_SNDBUF, &one,
                         sizeof one),
            0);

  // Three big frames, each payload a distinct byte value: far more than
  // the kernel buffers, so the first is mid-send when the peer stops.
  constexpr std::size_t kPayload = std::size_t{256} << 10;
  Bytes expected;
  std::vector<Bytes> payloads;
  for (std::uint8_t k = 1; k <= 3; ++k) {
    payloads.emplace_back(kPayload, k);
    const auto header = put_header(MsgType::kPushUpdate,
                                   static_cast<std::uint32_t>(kPayload));
    expected.insert(expected.end(), header.begin(), header.end());
    expected.insert(expected.end(), payloads.back().begin(),
                    payloads.back().end());
  }

  std::atomic<bool> held{false};  // outlive the loop that reads them
  std::atomic<bool> release{false};
  ConnPolicy policy;
  policy.max_queue_bytes = 4 * kPayload;
  EvictingLoop conns(listener, policy, payloads);
  ASSERT_TRUE(conns.start());

  Socket peer = connect_tiny_rcvbuf(listener.port());
  ASSERT_TRUE(peer.valid());
  ASSERT_TRUE(write_frame(peer, MsgType::kHello, Hello{1}.encode(), soon()));
  Bytes got(100);  // part of the first frame
  ASSERT_EQ(peer.recv_exact(got.data(), got.size(), soon()), IoResult::kOk);

  // Hold the loop thread; meanwhile empty the socket (the server's send
  // buffer drains into ours) and send the evicting frame.
  conns.loop().post([&] {
    held.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
  });
  conns.loop().wake();
  while (!held.load()) std::this_thread::sleep_for(1ms);
  std::uint8_t buf[4096];
  for (int idle = 0; idle < 20;) {  // ~20 ms without new bytes
    const ssize_t n = ::recv(peer.fd(), buf, sizeof buf, 0);
    if (n > 0) {
      got.insert(got.end(), buf, buf + n);
      idle = 0;
    } else {
      ++idle;
      std::this_thread::sleep_for(1ms);
    }
  }
  const bool sent =
      write_frame(peer, MsgType::kUnsubscribe, Bytes{0}, soon());
  std::this_thread::sleep_for(20ms);
  release.store(true);
  ASSERT_TRUE(sent);

  const auto give_up = Clock::now() + 2s;
  while (conns.live() > 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(conns.stalls.load(), 1);
  ASSERT_EQ(conns.live(), 0u);

  while (true) {  // drain to EOF
    ASSERT_TRUE(peer.wait_readable(soon()));
    const ssize_t n = ::recv(peer.fd(), buf, sizeof buf, 0);
    if (n == 0) break;
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
    ASSERT_GT(n, 0);
    got.insert(got.end(), buf, buf + n);
  }
  ASSERT_LT(got.size(), kHeaderSize + kPayload);  // evicted mid-frame
  EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
      << "bytes after the half-sent frame's prefix are not its own";
  conns.stop();
}


// ---------------------------------------------------------------------------
// Thread budget (Threads: in /proc/self/status): both clients run on one
// loop thread, so a hub holds one thread whatever t is and a referee round
// starts none.

constexpr int kBudgetParties = 4;

TEST(NetLoopThreads, HubHoldsOneLoopThreadWhateverT) {
  std::vector<std::unique_ptr<BasicPartyState>> states;
  std::vector<std::unique_ptr<PartyServer>> servers;
  std::vector<Endpoint> endpoints;
  for (int j = 0; j < kBudgetParties; ++j) {
    states.push_back(std::make_unique<BasicPartyState>(4, 1024));
    for (int i = 0; i < 2000; ++i) states.back()->observe(i % 3 == 0);
    servers.push_back(
        std::make_unique<PartyServer>(ServerConfig{}, states.back().get()));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  const std::uint64_t before = tools::resident_threads();
  ASSERT_GT(before, 0u);

  monitor::HubConfig cfg;
  cfg.parties = endpoints;
  cfg.role = PartyRole::kBasic;
  cfg.n = 1024;
  monitor::MonitorHub hub(cfg);
  ASSERT_TRUE(hub.start());
  // Every leg subscribed: the merged total needs all four.
  const auto give_up = Clock::now() + 5s;
  monitor::HubEstimate est = hub.estimate();
  while (est.status != distributed::QueryStatus::kOk &&
         Clock::now() < give_up) {
    est = hub.wait_revision(est.revision, 50ms);
  }
  ASSERT_EQ(est.status, distributed::QueryStatus::kOk);
  EXPECT_EQ(tools::resident_threads(), before + 1);
  hub.stop();
}

TEST(NetLoopThreads, FetchAllStartsNoThread) {
  // Four fake parties served by one thread: each handshakes and takes its
  // request, and none answers until all four requests are in — then the
  // fake samples the process's threads, with the whole fan-out in flight.
  std::vector<Listener> listeners(kBudgetParties);
  std::vector<Endpoint> endpoints;
  for (Listener& l : listeners) {
    ASSERT_TRUE(l.listen_on("127.0.0.1", 0));
    endpoints.push_back({"127.0.0.1", l.port()});
  }
  ClientConfig ccfg;
  ccfg.breaker_enabled = false;
  const RefereeClient client(endpoints, ccfg);  // starts its loop thread

  std::atomic<std::uint64_t> in_flight{0};
  std::jthread parties([&listeners, &in_flight] {
    std::vector<Socket> socks;
    std::vector<std::uint64_t> ids;
    for (Listener& l : listeners) {
      Socket s = l.accept_one(soon());
      Frame f;
      if (read_frame(s, f, soon()) != ReadStatus::kOk) return;
      HelloAck ack;
      ack.role = PartyRole::kBasic;
      ack.window = 1024;
      ack.generation = 1;
      SnapshotRequest req;
      if (!write_frame(s, MsgType::kHelloAck, ack.encode(), soon()) ||
          read_frame(s, f, soon()) != ReadStatus::kOk ||
          !SnapshotRequest::decode(f.payload, req)) {
        return;
      }
      socks.push_back(std::move(s));
      ids.push_back(req.request_id);
    }
    in_flight = tools::resident_threads();
    for (std::size_t j = 0; j < socks.size(); ++j) {
      TotalReply rep;
      rep.request_id = ids[j];
      rep.generation = 1;
      rep.value = static_cast<double>(j);
      rep.exact = true;
      (void)write_frame(socks[j], MsgType::kTotalReply, rep.encode(), soon());
    }
  });
  const std::uint64_t before = tools::resident_threads();  // parties included

  const std::vector<Fetch> results = client.fetch_all(PartyRole::kBasic, 1024);
  parties.join();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kBudgetParties));
  for (std::size_t j = 0; j < results.size(); ++j) {
    EXPECT_TRUE(results[j].ok()) << results[j].error;
    EXPECT_EQ(results[j].total.value, static_cast<double>(j));
  }
  EXPECT_GT(before, 0u);
  EXPECT_EQ(in_flight.load(), before);
}

}  // namespace
}  // namespace waves::net
