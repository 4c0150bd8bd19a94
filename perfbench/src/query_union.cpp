// query_union — closed-loop referee queries over loopback TCP.
//
// Four union-counting parties (RandWave, eps = 0.2, c = 36, 5 instances,
// N = 2^16) hold a 2N backlog of Bernoulli(0.5) bits and are served by
// PartyServer on loopback. One referee thread runs
// union_count(NetworkCountSource, N) with the default delta client (one
// keep-alive connection per party). Between queries, untimed, it feeds 32
// items per party. The fetch fan-out, delta apply and the referee combine
// dominate; ingest is negligible.
//
// The whole workload (servers, fetch threads, combine workers) runs pinned
// to one CPU, so op_p50_ms is a query's CPU path on one core. Unpinned, each
// query wakes about a dozen threads across the vCPUs, and its latency tracks
// how the host schedules them: run medians on a shared 4-vCPU host spread
// by 40% of their value between runs of the same code.
//
// Correctness: every answer must be bit-identical to the in-process
// union_count over the same parties, checked after the timed call.
#include <sched.h>

#include <bit>
#include <memory>
#include <span>
#include <vector>

// Process-wide counting operator new/delete feeding obs::alloc_count().
#include "alloc_hook.hpp"
#include "common.hpp"
#include "core/rand_wave.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/alloc.hpp"
#include "obs/flight.hpp"

namespace perfbench {

namespace {

constexpr int kParties = 4;
constexpr int kInstances = 5;
constexpr std::uint64_t kWindow = 1 << 16;
constexpr std::uint64_t kBacklog = 2 * kWindow;
constexpr std::uint64_t kBetween = 32;     // items per party between queries
constexpr std::uint64_t kBlock = 1 << 20;  // generated items per party
constexpr int kSetups = 11;

using waves::distributed::CountParty;
using waves::distributed::QueryResult;
using waves::distributed::QueryStatus;

const waves::core::RandWave::Params kParams{
    .eps = 0.2, .window = kWindow, .c = 36};

// Pins the calling thread, and every thread it starts while pinned, to the
// lowest CPU it may run on; restores the previous mask when destroyed.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~PinToOneCpu() {
    if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  [[nodiscard]] bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// Times collect() from outside (the bench's view of the net layer) and,
// when armed for a traced query, records its span.
class TimedSource final : public waves::distributed::CountSnapshotSource {
 public:
  explicit TimedSource(waves::distributed::CountSnapshotSource& inner)
      : inner_(inner) {}

  [[nodiscard]] std::size_t party_count() const override {
    return inner_.party_count();
  }
  [[nodiscard]] int instances() const override { return inner_.instances(); }
  [[nodiscard]] const waves::gf2::ExpHash& hash(int instance) const override {
    return inner_.hash(instance);
  }
  [[nodiscard]] const char* transport() const override {
    return inner_.transport();
  }
  std::vector<std::vector<waves::core::RandWaveSnapshot>> collect(
      std::uint64_t n, std::vector<std::size_t>& missing,
      waves::distributed::WireStats* stats,
      waves::distributed::CollectStats& info) override {
    collect_start_ns = now_ns();
    const std::int64_t id =
        log_ != nullptr ? log_->open("net.collect", qid_, parent_) : -1;
    auto out = inner_.collect(n, missing, stats, info);
    if (log_ != nullptr) log_->close(id);
    collect_span = id;
    collect_ns = now_ns() - collect_start_ns;
    return out;
  }

  // Traced queries pass their log; untraced ones pass nullptr.
  void arm(SpanLog* log, std::uint64_t qid, std::int64_t parent) {
    log_ = log;
    qid_ = qid;
    parent_ = parent;
  }

  std::int64_t collect_start_ns = 0;
  std::int64_t collect_ns = 0;
  std::int64_t collect_span = -1;

 private:
  waves::distributed::CountSnapshotSource& inner_;
  SpanLog* log_ = nullptr;
  std::uint64_t qid_ = 0;
  std::int64_t parent_ = -1;
};

// Members are destroyed bottom-up: client first, then servers, then the
// parties the servers point at.
struct Deployment {
  std::vector<std::unique_ptr<CountParty>> parties;
  std::vector<const CountParty*> views;
  std::vector<std::unique_ptr<waves::net::PartyServer>> servers;
  std::unique_ptr<waves::net::NetworkCountSource> source;
  std::uint64_t cursor = 0;  // items fed to every party
};

void feed_between(Deployment& d,
                  const std::vector<waves::util::PackedBitStream>& inputs,
                  bool traced, SpanLog& log, std::uint64_t qid, Result& r) {
  const std::uint64_t at = d.cursor % kBlock;  // kBlock % kBetween == 0
  for (int j = 0; j < kParties; ++j) {
    const auto words = inputs[static_cast<std::size_t>(j)].words();
    const std::uint64_t w = (words[at / 64] >> (at % 64)) &
                            ((std::uint64_t{1} << kBetween) - 1);
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(log, "distributed.observe_words", qid);
      d.parties[static_cast<std::size_t>(j)]->observe_words(
          std::span<const std::uint64_t>(&w, 1), kBetween);
    }
    const double ms = ns_to_ms(now_ns() - t0);
    if (traced) {
      r.layer_samples["distributed.observe_words_ns_per_item"].push_back(
          ms * 1e6 / static_cast<double>(kBetween));
      r.layer_samples["distributed.observe_us"].push_back(ms * 1e3);
    } else {
      r.ingest_late_ms.push_back(ms);  // closed loop: due when called
      r.ingest_items += static_cast<double>(kBetween);
      r.ingest_busy_s += ms * 1e-3;
    }
  }
  d.cursor += kBetween;
}

std::unique_ptr<Deployment> set_up(
    const std::vector<waves::util::PackedBitStream>& inputs,
    std::uint64_t shared_seed, Result& r) {
  auto d = std::make_unique<Deployment>();
  std::vector<waves::net::Endpoint> endpoints;
  for (int j = 0; j < kParties; ++j) {
    d->parties.push_back(
        std::make_unique<CountParty>(kParams, kInstances, shared_seed));
    d->views.push_back(d->parties.back().get());
    d->servers.push_back(std::make_unique<waves::net::PartyServer>(
        waves::net::ServerConfig{}, d->parties.back().get()));
    if (!d->servers.back()->start()) {
      r.fail("party server failed to start");
      return nullptr;
    }
    endpoints.push_back({"127.0.0.1", d->servers.back()->port()});
  }
  for (int j = 0; j < kParties; ++j) {
    d->parties[static_cast<std::size_t>(j)]->observe_words(
        inputs[static_cast<std::size_t>(j)].words().subspan(0, kBacklog / 64),
        kBacklog);
  }
  d->cursor = kBacklog;
  d->source = std::make_unique<waves::net::NetworkCountSource>(
      endpoints, kParams, kInstances, shared_seed);
  // Warm client: connections, handshakes and the delta mirror's one-time
  // full fetch happen here, not in the first timed query.
  const QueryResult warm = waves::distributed::union_count(*d->source, kWindow);
  if (warm.status != QueryStatus::kOk) {
    r.fail("warm-up query failed: " + warm.error);
    return nullptr;
  }
  return d;
}

// Bare referee combine over the snapshots the traced query collected,
// taken again in-process from the quiescent parties after the query (so the
// copy is not timed): referee_union_count per instance, summed; also counts
// the hash calls it makes (one per position inside the window).
void measure_referee(const Deployment& d, const TimedSource& src, Result& r) {
  std::vector<std::vector<waves::core::RandWaveSnapshot>> saved;
  for (const CountParty* p : d.views) saved.push_back(p->snapshots(kWindow));
  double ms = 0.0;
  double calls = 0.0;
  for (int i = 0; i < src.instances(); ++i) {
    std::vector<waves::core::RandWaveSnapshot> inst;
    for (auto& party : saved) {
      inst.push_back(std::move(party[static_cast<std::size_t>(i)]));
    }
    const std::uint64_t pos = inst.front().stream_len;
    const std::uint64_t s = pos > kWindow ? pos - kWindow + 1 : 1;
    for (const auto& snap : inst) {
      for (const std::uint64_t p : snap.positions) calls += p >= s ? 1.0 : 0.0;
    }
    const std::int64_t t0 = now_ns();
    (void)waves::core::referee_union_count(inst, kWindow, src.hash(i));
    ms += ns_to_ms(now_ns() - t0);
  }
  r.layer_samples["core.referee_union_count_ms"].push_back(ms);
  r.layer_samples["gf2.level_calls_per_query"].push_back(calls);
}

void run_phase(Deployment& d,
               const std::vector<waves::util::PackedBitStream>& inputs,
               double seconds, bool traced, SpanLog& log, std::uint64_t& qid,
               Result& r) {
  log.enable(traced);
  TimedSource src(*d.source);
  auto& flight = waves::obs::FlightRecorder::instance();
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end) {
    ++qid;
    feed_between(d, inputs, traced, log, qid, r);
    if (traced) flight.clear();
    const std::uint64_t allocs0 = waves::obs::alloc_count();
    const std::int64_t t0 = now_ns();
    std::int64_t uc_ns = 0;
    QueryResult q;
    {
      ScopedSpan root(log, "query", qid);
      ScopedSpan uc(log, "distributed.union_count", qid, root.id());
      src.arm(traced ? &log : nullptr, qid, uc.id());
      const std::int64_t u0 = now_ns();
      q = waves::distributed::union_count(src, kWindow);
      uc_ns = now_ns() - u0;
    }
    const std::int64_t wall_ns = now_ns() - t0;
    const double allocs =
        static_cast<double>(waves::obs::alloc_count() - allocs0);
    const double ms = ns_to_ms(wall_ns);
    if (traced) {
      r.traced_op_ms.push_back(ms);
      double slowest = 0.0;
      double bytes = 0.0;
      record_fetches(log, qid, src.collect_span, src.collect_start_ns, r,
                     slowest, bytes);
      auto& ls = r.layer_samples;
      ls["net.collect_ms"].push_back(slowest);
      ls["distributed.union_count_ms"].push_back(ns_to_ms(uc_ns));
      ls["distributed.combine_ms"].push_back(ns_to_ms(uc_ns - src.collect_ns));
      ls["obs.allocs_per_query"].push_back(allocs);
      ls["distributed.wire_bytes_per_query"].push_back(bytes);
      measure_referee(d, src, r);
    } else {
      r.op_ms.push_back(ms);
      r.op_count += 1.0;
      r.op_seconds += ms * 1e-3;
    }
    // Correctness, outside the timed call: bit-identical to the in-process
    // referee over the same (now quiescent) parties.
    ++r.attempted;
    const waves::core::Estimate direct =
        waves::distributed::union_count(d.views, kWindow);
    if (q.status != QueryStatus::kOk) {
      r.fail("query " + std::to_string(qid) + " failed: " + q.error);
    } else if (std::bit_cast<std::uint64_t>(q.estimate.value) !=
               std::bit_cast<std::uint64_t>(direct.value)) {
      r.fail("query " + std::to_string(qid) + " differs from in-process: " +
             std::to_string(q.estimate.value) + " vs " +
             std::to_string(direct.value));
    }
  }
}

}  // namespace

void run_query_union(const Options& opt, Result& r) {
  // Declared first so it outlives the deployment and its threads.
  const PinToOneCpu pin;
  if (!pin.pinned()) {
    r.fail("could not pin the workload to one CPU");
    return;
  }
  const std::uint64_t shared_seed = derive_seed(opt.seed, 100);
  std::vector<waves::util::PackedBitStream> inputs;
  for (int j = 0; j < kParties; ++j) {
    inputs.push_back(bernoulli_bits(
        0.5, derive_seed(opt.seed, static_cast<std::uint64_t>(j)), kBlock));
  }
  r.rates["parties"] = kParties;
  r.rates["window"] = static_cast<double>(kWindow);
  r.rates["backlog_items"] = static_cast<double>(kBacklog);
  r.rates["items_between_queries"] = static_cast<double>(kBetween);
  r.rates["density"] = 0.5;
  r.rates["cpus"] = 1;

  std::unique_ptr<Deployment> d;
  for (int s = 0; s < kSetups; ++s) {
    d.reset();
    const auto t0 = Clock::now();
    d = set_up(inputs, shared_seed, r);
    if (!d) return;
    r.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  SpanLog log;
  std::uint64_t qid = 0;
  const double untraced = opt.trace ? opt.seconds / 2 : opt.seconds;
  run_phase(*d, inputs, untraced, false, log, qid, r);
  if (opt.trace) {
    run_phase(*d, inputs, opt.seconds / 2, true, log, qid, r);
    double bits = 0.0;
    for (const auto& p : d->parties) {
      bits += static_cast<double>(p->space_bits());
    }
    r.layer["core.space_bits_per_party"] = bits / kParties;
    measure_core_layers(r, inputs[0], kWindow, 1 << 20, shared_seed);
    r.span_logs.push_back(std::move(log));
  }
}

}  // namespace perfbench
