// chaos_soak — deterministic chaos harness for a supervised waved fleet.
//
//   chaos_soak --seed S --duration SEC --waved PATH
//              [--parties T] [--items M] [--window N] [--eps E]
//              [--instances K] [--shared-seed S3] [--base-port P]
//              [--state-root DIR] [--faults SPEC|off]
//
// One process plays every role the paper's deployment story involves:
// it spawns T count-role waved daemons under a Supervisor (fixed ports,
// durable --state-dir each), runs a MonitorHub over them, and polls them
// with a breaker-enabled NetworkCountSource — then injects a seeded
// schedule of chaos while continuously asserting the invariants that make
// the system "chaos-hardened":
//
//   1. Any full-quorum poll answer is bit-identical to the in-process
//      oracle (same feed, same params, same seed — the synopsis is
//      deterministic state, so recovery/restart must never change it).
//   2. A hub estimate with kOk status stays within the global staleness
//      budget eps * n of the oracle.
//   3. A poll round never overruns its composed deadline budget:
//      parties * total_deadline plus scheduling slop (the breaker and the
//      total_deadline clamp are what make this hold with dead parties).
//   4. After the chaos window closes, the fleet returns to all-healthy,
//      a settled poll equals the oracle exactly, and the hub re-converges.
//
// The chaos schedule is a pure function of (--seed, --duration): the run
// is a fixed duration / 200 ms ticks, and each tick draws one action from
// splitmix64 — kill -9 a party, SIGSTOP it (the supervisor's probe misses
// must SIGKILL + restart it), corrupt a byte of its checkpoint.bin (the
// CRC envelope must reject it on the next restore), or nothing. A
// per-party cooldown of 15 ticks (each tick sleeps 200 ms, so at least
// 3 s) keeps the schedule below the supervisor's crash-loop threshold, so
// a PASS also certifies crash-loop detection did not misfire. The
// "CHAOS SCHEDULE" line prints the admitted actions, which replay exactly
// from the same seed and duration; the delivered counts beside them can
// fall short when a party is mid-restart (no pid to signal, no checkpoint
// yet), and the supervisor's own `reason=unresponsive` restarts depend on
// probe timing, so neither of those replays exactly. Client-side
// WAVES_FAULTS-style corruption is armed in-process (--faults), so the
// poll and hub legs also see a hostile network.
//
// Prints FLEET/CHAOS lines, then "CHAOS SOAK PASS seed=S" and exits 0
// iff zero invariant violations; any violation prints a CHAOS VIOLATION
// line and flips the exit to 1.
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "feed_config.hpp"
#include "gf2/shared_randomness.hpp"
#include "monitor/hub.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "supervise/supervisor.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::uint64_t seed = 1;
  double duration = 20.0;
  std::string waved;
  int parties = 3;
  std::uint64_t items = 6000;
  std::uint64_t window = 1024;
  double eps = 0.1;
  int instances = 3;
  std::uint64_t shared_seed = 1;
  std::uint16_t base_port = 0;  // 0: derive from --seed
  std::string state_root;       // empty: derive from --seed under /tmp
  std::string faults = "default";
};

int usage() {
  std::fprintf(stderr,
               "usage: chaos_soak --seed S --duration SEC --waved PATH\n"
               "                  [--parties T] [--items M] [--window N]\n"
               "                  [--eps E] [--instances K] "
               "[--shared-seed S3]\n"
               "                  [--base-port P] [--state-root DIR]\n"
               "                  [--faults SPEC|off]\n");
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--duration") {
      o.duration = std::atof(val);
    } else if (flag == "--waved") {
      o.waved = val;
    } else if (flag == "--parties") {
      o.parties = std::atoi(val);
    } else if (flag == "--items") {
      o.items = std::strtoull(val, nullptr, 10);
    } else if (flag == "--window") {
      o.window = std::strtoull(val, nullptr, 10);
    } else if (flag == "--eps") {
      o.eps = std::atof(val);
    } else if (flag == "--instances") {
      o.instances = std::atoi(val);
    } else if (flag == "--shared-seed") {
      o.shared_seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--base-port") {
      o.base_port =
          static_cast<std::uint16_t>(std::strtoul(val, nullptr, 10));
    } else if (flag == "--state-root") {
      o.state_root = val;
    } else if (flag == "--faults") {
      o.faults = val;
    } else {
      return std::nullopt;
    }
  }
  if (o.waved.empty() || o.duration <= 0.0 || o.parties < 2 ||
      o.parties > 16 || o.eps <= 0.0 || o.eps >= 1.0 || o.window < 1 ||
      o.instances < 1) {
    return std::nullopt;
  }
  return o;
}

// One chaos draw per tick; each tick ends with a 200 ms sleep.
constexpr auto kTick = std::chrono::milliseconds(200);
// Ticks a party rests after an admitted action: >= 3 s of sleeps alone.
constexpr int kCooldownTicks = 15;

struct ChaosStats {
  // Admitted by the schedule: a pure function of (seed, duration).
  int admitted_kills = 0;
  int admitted_stalls = 0;
  int admitted_corruptions = 0;
  // Delivered: the signal or the corruption actually landed.
  int kills = 0;
  int stalls = 0;
  int corruptions = 0;
  int queries = 0;
  int ok = 0;
  int failed = 0;
  int hub_checks = 0;
  int violations = 0;
};

void violation(ChaosStats& st, const std::string& what) {
  ++st.violations;
  std::printf("CHAOS VIOLATION %s\n", what.c_str());
  std::fflush(stdout);
}

/// Flip one byte of the party's sealed checkpoint; the CRC envelope must
/// reject it on the next restore (WAVED CHECKPOINT REJECTED + replay).
bool corrupt_checkpoint(const std::string& dir, std::uint64_t r) {
  const std::string path = dir + "/checkpoint.bin";
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return false;
  }
  const long off = static_cast<long>(r % static_cast<std::uint64_t>(size));
  std::fseek(f, off, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, off, SEEK_SET);
  std::fputc((c ^ 0x5a) & 0xff, f);
  std::fclose(f);
  return true;
}

void print_event(const waves::supervise::FleetEvent& ev) {
  using Kind = waves::supervise::FleetEvent::Kind;
  switch (ev.kind) {
    case Kind::kStarted:
      std::printf("FLEET STARTED party=%d pid=%ld %s\n", ev.party, ev.pid,
                  ev.detail.c_str());
      break;
    case Kind::kRestarted:
      std::printf("FLEET RESTARTED party=%d pid=%ld restarts=%d %s\n",
                  ev.party, ev.pid, ev.restarts, ev.detail.c_str());
      break;
    case Kind::kCrashLoop:
      std::printf("FLEET CRASHLOOP party=%d restarts=%d %s\n", ev.party,
                  ev.restarts, ev.detail.c_str());
      break;
    case Kind::kDrained:
      std::printf("FLEET DRAINED %s\n", ev.detail.c_str());
      break;
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts) return usage();
  const Options& o = *opts;
  using namespace waves;

  // ---- Oracle: the exact in-process answer every settled poll must hit.
  tools::FeedSpec feed;
  feed.parties = o.parties;
  feed.items = o.items;
  const auto params = tools::count_params(o.eps, o.window);
  const auto streams = tools::bit_streams(feed);
  std::vector<std::unique_ptr<distributed::CountParty>> owners;
  std::vector<const distributed::CountParty*> oracle_ps;
  for (int j = 0; j < o.parties; ++j) {
    owners.push_back(std::make_unique<distributed::CountParty>(
        params, o.instances, o.shared_seed));
    owners.back()->observe_batch(streams[static_cast<std::size_t>(j)]);
    oracle_ps.push_back(owners.back().get());
  }
  distributed::InProcessCountSource oracle_src(oracle_ps, /*via_wire=*/true);
  const distributed::QueryResult oracle =
      distributed::union_count(oracle_src, o.window);
  if (oracle.status != distributed::QueryStatus::kOk) {
    std::fprintf(stderr, "chaos_soak: oracle query failed\n");
    return 1;
  }
  std::printf("CHAOS ORACLE value=%.17g window=%llu\n", oracle.estimate.value,
              static_cast<unsigned long long>(o.window));

  // ---- Fleet under supervision.
  const std::uint16_t base_port =
      o.base_port != 0
          ? o.base_port
          : static_cast<std::uint16_t>(20000 + (o.seed * 97) % 30000);
  const std::string root =
      !o.state_root.empty()
          ? o.state_root
          : "/tmp/waves-chaos-" + std::to_string(o.seed);
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  supervise::FleetSpec spec;
  spec.waved_path = o.waved;
  for (int j = 0; j < o.parties; ++j) {
    supervise::PartySpec p;
    p.party_id = j;
    p.role = "count";
    p.port = static_cast<std::uint16_t>(base_port + j);
    p.state_dir = root + "/p" + std::to_string(j);
    std::filesystem::create_directories(p.state_dir, ec);
    const auto arg = [&p](const char* k, const std::string& v) {
      p.extra_args.emplace_back(k);
      p.extra_args.push_back(v);
    };
    arg("--parties", std::to_string(o.parties));
    arg("--items", std::to_string(o.items));
    arg("--window", std::to_string(o.window));
    arg("--eps", std::to_string(o.eps));
    arg("--instances", std::to_string(o.instances));
    arg("--seed", std::to_string(o.shared_seed));
    spec.parties.push_back(std::move(p));
  }

  supervise::SupervisorConfig scfg;
  scfg.probe_every = std::chrono::milliseconds(100);
  scfg.probe_deadline = std::chrono::milliseconds(500);
  scfg.probe_failures = 3;
  scfg.restart_backoff_base = std::chrono::milliseconds(100);
  scfg.restart_backoff_max = std::chrono::milliseconds(1000);
  scfg.crashloop_restarts = 6;
  scfg.crashloop_window = std::chrono::milliseconds(10000);
  scfg.on_event = print_event;
  supervise::Supervisor sup(std::move(spec), std::move(scfg));
  if (!sup.start()) {
    std::fprintf(stderr, "chaos_soak: fleet start failed: %s\n",
                 sup.error().c_str());
    return 1;
  }
  if (!sup.wait_all_healthy(std::chrono::seconds(60))) {
    std::fprintf(stderr, "chaos_soak: fleet never became healthy\n");
    sup.stop();
    return 1;
  }

  std::vector<net::Endpoint> endpoints;
  for (int j = 0; j < o.parties; ++j) {
    endpoints.push_back(
        {"127.0.0.1", static_cast<std::uint16_t>(base_port + j)});
  }

  // ---- Continuous-monitoring hub over the same fleet.
  monitor::HubConfig hcfg;
  hcfg.parties = endpoints;
  hcfg.role = net::PartyRole::kCount;
  hcfg.n = o.window;
  hcfg.eps = o.eps;
  hcfg.check_every = std::chrono::milliseconds(25);
  hcfg.io_deadline = std::chrono::milliseconds(1000);
  hcfg.reconnect_base = std::chrono::milliseconds(50);
  hcfg.reconnect_max = std::chrono::milliseconds(500);
  hcfg.breaker_cooldown = std::chrono::milliseconds(500);
  hcfg.count_params = params;
  hcfg.instances = o.instances;
  hcfg.shared_seed = o.shared_seed;
  hcfg.on_event = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };
  monitor::MonitorHub hub(std::move(hcfg));
  if (!hub.start()) {
    std::fprintf(stderr, "chaos_soak: hub start failed\n");
    sup.stop();
    return 1;
  }

  // ---- Breaker-enabled polling referee with a hard per-fetch budget.
  net::ClientConfig ccfg;
  ccfg.request_deadline = std::chrono::milliseconds(250);
  ccfg.max_attempts = 3;
  ccfg.total_deadline = std::chrono::milliseconds(1500);
  ccfg.breaker_threshold = 3;
  ccfg.breaker_cooldown = std::chrono::milliseconds(500);
  net::NetworkCountSource poll(endpoints, params, o.instances,
                               o.shared_seed, ccfg);

  // Client-side hostile network (our process only: poll + hub legs; the
  // daemons keep a clean kernel view, their chaos is signals + disk).
  if (o.faults != "off") {
    const std::string spec_str =
        o.faults == "default"
            ? "seed=" + std::to_string(o.seed) +
                  ",drop=0.03,corrupt=0.02,truncate=0.01"
            : o.faults;
    if (!net::arm_faults(spec_str.c_str())) {
      std::fprintf(stderr, "chaos_soak: bad --faults spec\n");
      hub.stop();
      sup.stop();
      return 2;
    }
  }

  // ---- Seeded chaos schedule.
  gf2::SplitMix64 rng(o.seed);
  ChaosStats st;
  std::vector<int> cooled(static_cast<std::size_t>(o.parties),
                          -kCooldownTicks);
  std::vector<long> stalled;
  const double query_budget_s =
      static_cast<double>(o.parties) *
          std::chrono::duration<double>(ccfg.total_deadline).count() +
      1.0;  // scheduling + merge slop
  const double eps_budget = o.eps * static_cast<double>(o.window);
  const int ticks = static_cast<int>(
      o.duration * 1000.0 / static_cast<double>(kTick.count()));

  for (int tick = 0; tick < ticks; ++tick) {
    // One chaos draw. The rng is consumed identically whether or not the
    // action fires, and the cooldown counts ticks, not wall time, so what
    // the schedule admits is a pure function of the seed and the duration.
    const std::uint64_t action = rng.next() % 8;
    const auto target = static_cast<std::size_t>(
        rng.next() % static_cast<std::uint64_t>(o.parties));
    const std::uint64_t detail = rng.next();
    const bool cool = tick - cooled[target] >= kCooldownTicks;
    if (cool && action <= 2) cooled[target] = tick;
    if (cool && action == 0) {
      ++st.admitted_kills;
      const long pid = sup.pid_of(target);
      if (pid > 0 && ::kill(static_cast<pid_t>(pid), SIGKILL) == 0) {
        ++st.kills;
        std::printf("CHAOS KILL party=%zu pid=%ld\n", target, pid);
      }
    } else if (cool && action == 1) {
      ++st.admitted_stalls;
      const long pid = sup.pid_of(target);
      if (pid > 0 && ::kill(static_cast<pid_t>(pid), SIGSTOP) == 0) {
        ++st.stalls;
        stalled.push_back(pid);
        std::printf("CHAOS STALL party=%zu pid=%ld\n", target, pid);
      }
    } else if (cool && action == 2) {
      ++st.admitted_corruptions;
      if (corrupt_checkpoint(root + "/p" + std::to_string(target), detail)) {
        ++st.corruptions;
        std::printf("CHAOS CORRUPT party=%zu\n", target);
      }
    }
    std::fflush(stdout);

    // One poll round under the budget, checked against the oracle.
    const auto q0 = Clock::now();
    const distributed::QueryResult r =
        distributed::union_count(poll, o.window);
    const double q_s = std::chrono::duration<double>(Clock::now() - q0).count();
    ++st.queries;
    if (q_s > query_budget_s) {
      violation(st, "query overran deadline budget: " + std::to_string(q_s) +
                        "s > " + std::to_string(query_budget_s) + "s");
    }
    if (r.status == distributed::QueryStatus::kOk) {
      ++st.ok;
      if (r.estimate.value != oracle.estimate.value) {
        violation(st, "full-quorum answer " +
                          std::to_string(r.estimate.value) +
                          " != oracle " +
                          std::to_string(oracle.estimate.value));
      }
    } else {
      ++st.failed;  // count fails closed with any party missing: legal
    }

    // Hub staleness against the global eps budget.
    const monitor::HubEstimate est = hub.estimate();
    if (est.status == distributed::QueryStatus::kOk) {
      ++st.hub_checks;
      if (std::abs(est.value - oracle.estimate.value) > eps_budget) {
        violation(st, "hub estimate " + std::to_string(est.value) +
                          " drifted past eps*n of oracle " +
                          std::to_string(oracle.estimate.value));
      }
    }
    std::this_thread::sleep_for(kTick);
  }

  // ---- Drain the chaos: wake stalled processes, settle, re-verify.
  (void)net::arm_faults("");
  for (const long pid : stalled) ::kill(static_cast<pid_t>(pid), SIGCONT);
  if (!sup.wait_all_healthy(std::chrono::seconds(30))) {
    violation(st, "fleet not all-healthy after chaos drained");
  }

  // Settled poll must be exact; transient restarts may still be landing,
  // so retry inside a bounded window before calling it a violation.
  {
    bool settled = false;
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < give_up) {
      const distributed::QueryResult r =
          distributed::union_count(poll, o.window);
      ++st.queries;
      if (r.status == distributed::QueryStatus::kOk) {
        ++st.ok;
        if (r.estimate.value == oracle.estimate.value) {
          settled = true;
          break;
        }
        violation(st, "settled answer " + std::to_string(r.estimate.value) +
                          " != oracle " +
                          std::to_string(oracle.estimate.value));
        break;
      }
      ++st.failed;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    if (!settled && st.violations == 0) {
      violation(st, "no settled full-quorum answer after drain");
    }
  }
  {
    bool converged = false;
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    monitor::HubEstimate est = hub.estimate();
    while (Clock::now() < give_up) {
      if (est.status == distributed::QueryStatus::kOk &&
          std::abs(est.value - oracle.estimate.value) <= eps_budget) {
        converged = true;
        break;
      }
      est = hub.wait_revision(est.revision, std::chrono::milliseconds(200));
    }
    if (!converged) violation(st, "hub never re-converged after drain");
  }

  hub.stop();
  sup.stop();

  std::printf(
      "CHAOS SCHEDULE seed=%llu ticks=%d kills=%d stalls=%d corruptions=%d\n",
      static_cast<unsigned long long>(o.seed), ticks, st.admitted_kills,
      st.admitted_stalls, st.admitted_corruptions);
  std::printf(
      "CHAOS SOAK kills=%d stalls=%d corruptions=%d queries=%d ok=%d "
      "failed=%d hub_checks=%d violations=%d\n",
      st.kills, st.stalls, st.corruptions, st.queries, st.ok, st.failed,
      st.hub_checks, st.violations);
  if (st.violations == 0) {
    std::printf("CHAOS SOAK PASS seed=%llu\n",
                static_cast<unsigned long long>(o.seed));
    return 0;
  }
  std::printf("CHAOS SOAK FAIL seed=%llu violations=%d\n",
              static_cast<unsigned long long>(o.seed), st.violations);
  return 1;
}
