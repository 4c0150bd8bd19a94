// E22 — connection scale of the event-loop serving core.
//
// Two claims under test, one per phase:
//
//   query   With hundreds of open connections driven by a bounded worker
//           pool (tools/loadgen.hpp), the loop thread plus a small worker
//           pool sustains the query load on a bounded, connection-count-
//           independent number of threads.
//   idle    Thousands of push subscriptions that never push cost an fd, a
//           state machine, and a timer-wheel slot each — not a thread.
//           Resident thread count and RSS-per-subscription make the cost
//           visible; the core is asked to *hold* kIdleSubs (2048) live
//           subscriptions.
//
// Parity: after the query load, one union_count round over the real
// NetworkCountSource must be bit-identical to union_count over the same
// party in-process (parity=1 in every row) — the served answers are the
// in-process referee's answers.
//
// JSON lines:
//   e22_net_scale {phase, conns, opened, qps, p50_us, p99_us, errors,
//                  threads, rss_per_conn_bytes, parity}
//
// `--smoke` shrinks connection counts and request totals for CI. The
// process raises RLIMIT_NOFILE to its hard limit up front; connection
// goals are clamped to what the limit leaves after client+server fds
// (each connection costs two — both ends live here).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "stream/generators.hpp"

namespace waves {
namespace {

constexpr std::uint64_t kWindow = 4096;
constexpr int kInstances = 3;
constexpr std::uint64_t kSeed = 11;

core::RandWave::Params params() {
  return {.eps = 0.2, .window = kWindow, .c = 36};
}

struct PhaseRow {
  const char* phase = "";
  std::size_t conns = 0;   // goal
  std::size_t opened = 0;  // actually handshaken and held
  tools::LoadStats load;
  std::uint64_t threads = 0;
  double rss_per_conn = 0.0;
  int parity = 0;  // served union_count == in-process union_count
};

void emit_row(const PhaseRow& r) {
  bench::JsonLine("e22_net_scale")
      .field("phase", r.phase)
      .field("conns", static_cast<std::uint64_t>(r.conns))
      .field("opened", static_cast<std::uint64_t>(r.opened))
      .field("qps", r.load.qps)
      .field("p50_us", r.load.p50_us)
      .field("p99_us", r.load.p99_us)
      .field("errors", r.load.errors)
      .field("threads", r.threads)
      .field("rss_per_conn_bytes", r.rss_per_conn)
      .field("parity", static_cast<std::uint64_t>(r.parity))
      .emit();
  bench::row_line({r.phase, bench::fmt_u(r.opened),
                   bench::fmt(r.load.qps, 0), bench::fmt(r.load.p99_us, 0),
                   bench::fmt_u(r.threads), bench::fmt(r.rss_per_conn, 0),
                   r.parity == 1 ? "1" : "0"});
}

std::size_t fd_budget() {
  struct rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &rl);
  }
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  return static_cast<std::size_t>(rl.rlim_cur);
}

/// Run both phases against one server; `parity` is set on every row.
void e22(bool smoke) {
  const std::uint64_t backlog = 2 * kWindow;
  const std::size_t query_conns = smoke ? 64 : 512;
  const std::uint64_t requests = smoke ? 2000 : 20000;
  std::size_t idle_subs = smoke ? 256 : 2048;

  // Each held connection costs two fds in this process (client + server
  // end); leave slack for the party sockets, the listener, and stdio.
  const std::size_t budget = fd_budget();
  const std::size_t max_conns = budget > 512 ? (budget - 256) / 2 : 64;
  idle_subs = std::min(idle_subs, max_conns);

  distributed::CountParty party(params(), kInstances, kSeed);
  stream::BernoulliBits gen(0.4, 3);
  for (std::uint64_t i = 0; i < backlog; ++i) party.observe(gen.next());

  net::ServerConfig cfg;
  cfg.max_connections = query_conns + idle_subs + 16;
  net::PartyServer server(cfg, &party);
  if (!server.start()) {
    std::fprintf(stderr, "e22: server start failed\n");
    std::exit(1);
  }
  const std::string host = "127.0.0.1";
  const auto deadline = std::chrono::milliseconds(10000);

  // -- query phase ---------------------------------------------------------
  PhaseRow q;
  q.phase = "query";
  q.conns = query_conns;
  {
    auto conns = tools::open_conns(host, server.port(), query_conns,
                                   deadline);
    q.opened = conns.size();
    q.load = tools::query_load(conns, net::PartyRole::kCount, kWindow,
                               /*workers=*/8, requests, deadline);
    q.threads = tools::resident_threads();
  }

  // Parity round over the real referee path, while the server is still up,
  // against the in-process referee over the same (quiescent) party.
  int parity = 0;
  {
    net::NetworkCountSource src({{host, server.port()}}, params(),
                                kInstances, kSeed);
    const distributed::QueryResult served =
        distributed::union_count(src, kWindow);
    const distributed::CountParty* local[] = {&party};
    const core::Estimate oracle = distributed::union_count(local, kWindow);
    parity = served.status == distributed::QueryStatus::kOk &&
                     served.estimate.value == oracle.value
                 ? 1
                 : 0;
  }

  // -- idle-subscription phase --------------------------------------------
  PhaseRow idle;
  idle.phase = "idle";
  idle.conns = idle_subs;
  {
    const std::uint64_t rss0 = tools::resident_bytes();
    auto conns = tools::open_conns(host, server.port(), idle_subs, deadline);
    // Infinite slack + slow cadence: the subscriptions are pure standing
    // state, no drift push ever fires during the hold.
    const std::size_t subbed = tools::subscribe_idle(
        conns, net::PartyRole::kCount, kWindow, /*slack=*/1e18,
        /*check_every_ms=*/250, deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    idle.opened = subbed;
    idle.threads = tools::resident_threads();
    const std::uint64_t rss1 = tools::resident_bytes();
    if (subbed > 0) {
      idle.rss_per_conn = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                          static_cast<double>(subbed);
    }
  }
  server.stop();

  for (PhaseRow* r : {&q, &idle}) {
    r->parity = parity;
    emit_row(*r);
  }
}

}  // namespace
}  // namespace waves

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  waves::bench::header("E22: connection scale — event-loop serving core");
  waves::bench::row_line({"phase", "opened", "qps", "p99_us", "threads",
                          "rss/conn", "parity"});
  waves::e22(smoke);
  return 0;
}
