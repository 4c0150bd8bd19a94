// Event-loop core tests: EventLoop timers/fds/post (both backends — epoll
// and the poll(2) fallback), the WorkerPool, the served replies checked
// byte-for-byte against the in-process party they answer for, a live
// session, and the slow-loris deadline behavior. Suite names start with
// NetLoop so the TSan CI leg's -R "...|Net" regex picks every test up.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "distributed/party.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace waves::net {
namespace {

using namespace std::chrono_literals;

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
// Slow loris: the loop must expire stalled partial frames via the
// deadline wheel without stalling any other session.

TEST(NetLoopSlowLoris, StalledPartialHeaderExpiresOthersUnaffected) {
  distributed::CountParty party(params(), 3, 9);
  for (int i = 0; i < 1000; ++i) party.observe(true);
  ServerConfig cfg;
  cfg.io_deadline = std::chrono::milliseconds(200);
  PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());

  // The attacker: three header bytes, then silence.
  Socket loris = tcp_connect("127.0.0.1", server.port(), soon());
  ASSERT_TRUE(loris.valid());
  const auto header = put_header(MsgType::kHello, 0);
  ASSERT_TRUE(loris.send_all(header.data(), 3, soon()));

  // Healthy sessions keep being served the whole time the loris stalls.
  RawConn healthy = RawConn::open(server.port());
  Hello hello;
  EXPECT_EQ(healthy.exchange(MsgType::kHello, hello.encode()).type,
            MsgType::kHelloAck);
  SnapshotRequest req;
  req.role = PartyRole::kCount;
  req.n = 1024;
  const auto until = Clock::now() + 600ms;
  int served = 0;
  while (Clock::now() < until) {
    req.request_id = static_cast<std::uint64_t>(served + 1);
    ASSERT_EQ(healthy.exchange(MsgType::kSnapshotRequest, req.encode()).type,
              MsgType::kCountReply);
    ++served;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(served, 10);

  // By now the loris is far past io_deadline: the server must have closed
  // it (EOF on our side), not left the connection parked forever.
  char byte = 0;
  const IoResult r = loris.recv_exact(&byte, 1, soon());
  EXPECT_EQ(r, IoResult::kClosed);
}

TEST(NetLoopSlowLoris, StalledPayloadExpiresToo) {
  distributed::CountParty party(params(), 3, 9);
  ServerConfig cfg;
  cfg.io_deadline = std::chrono::milliseconds(150);
  PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());

  // Full header promising 100 payload bytes; send only 10 and stall.
  Socket loris = tcp_connect("127.0.0.1", server.port(), soon());
  ASSERT_TRUE(loris.valid());
  const auto header = put_header(MsgType::kHello, 100);
  ASSERT_TRUE(loris.send_all(header.data(), header.size(), soon()));
  const char partial[10] = {};
  ASSERT_TRUE(loris.send_all(partial, sizeof partial, soon()));

  char byte = 0;
  EXPECT_EQ(loris.recv_exact(&byte, 1, soon()), IoResult::kClosed);
}

}  // namespace
}  // namespace waves::net
