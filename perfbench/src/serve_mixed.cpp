// serve_mixed — open-loop writes beside reads, with push monitoring.
//
// Four basic-counting parties (DetWave, eps = 0.05, N = 2^20) are served by
// PartyServer on loopback. A feeder thread ingests 4096-item chunks into
// every party on a fixed schedule (kChunksPerSecond per party); each
// party's bits cycle through 500 ms at density 0.05 then 500 ms at 0.25, so
// in-window counts drift and the push legs fire. A query thread issues
// total_query at a fixed rate, timing each from its due time. One
// MonitorHub holds push legs to all four parties. No hash and no referee
// combine run here: party-lock contention between ingest and queries, the
// epoll server and the hub push path are what vary.
//
// Correctness: each total must lie within the Theorem-1 eps bound of the
// exact in-window count, summed over parties, where each party's exact
// count ranges over the feed cursors that bracket the query.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "monitor/hub.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/alloc.hpp"
#include "obs/flight.hpp"

namespace perfbench {

namespace {

constexpr int kParties = 4;
constexpr std::uint64_t kInvEps = 20;  // eps = 0.05
constexpr double kEps = 1.0 / kInvEps;
constexpr std::uint64_t kWindow = 1 << 20;
constexpr std::uint64_t kChunk = 4096;  // items per observe_batch call
constexpr std::uint64_t kWindowChunks = kWindow / kChunk;
constexpr std::uint64_t kChunksPerSecond = 192;  // per party: 768 Ki items/s
constexpr std::uint64_t kPhaseChunks = kChunksPerSecond / 2;  // 500 ms
constexpr std::uint64_t kCycleChunks = 2 * kPhaseChunks;
constexpr double kQueriesPerSecond = 200.0;
constexpr int kSetups = 31;

using waves::distributed::QueryStatus;

// One party's input: a cycle of chunks (low-density phase, then high) and
// the popcount of each, from which exact in-window counts follow.
struct PartyInput {
  std::vector<waves::util::PackedBitStream> chunks;
  std::vector<std::uint64_t> ones;

  [[nodiscard]] const waves::util::PackedBitStream& chunk(
      std::uint64_t g) const {
    return chunks[g % kCycleChunks];
  }
  // Exact ones among the last N items after `g` chunks (g >= N / kChunk).
  [[nodiscard]] std::uint64_t exact(std::uint64_t g) const {
    std::uint64_t sum = 0;
    for (std::uint64_t i = g - kWindowChunks; i < g; ++i) {
      sum += ones[i % kCycleChunks];
    }
    return sum;
  }
};

struct Deployment {
  std::vector<std::unique_ptr<waves::net::BasicPartyState>> parties;
  std::vector<std::unique_ptr<waves::net::PartyServer>> servers;
  std::vector<waves::net::Endpoint> endpoints;
  std::unique_ptr<waves::net::RefereeClient> client;
  std::unique_ptr<waves::monitor::MonitorHub> hub;
  std::uint64_t fed = 0;  // chunks fed to every party (backlog included)
};

std::unique_ptr<waves::monitor::MonitorHub> start_hub(const Deployment& d) {
  waves::monitor::HubConfig cfg;
  cfg.parties = d.endpoints;
  cfg.role = waves::net::PartyRole::kBasic;
  cfg.n = kWindow;
  cfg.eps = kEps;
  cfg.split = waves::monitor::SlackSplit::kUniform;
  auto hub = std::make_unique<waves::monitor::MonitorHub>(cfg);
  if (!hub->start()) return nullptr;
  return hub;
}

// Waits until the hub's estimate equals the parties' current total (all
// initial subscription acks applied). Ingest must be paused.
bool hub_settled(const Deployment& d) {
  double total = 0.0;
  for (const auto& p : d.parties) total += p->query(kWindow).value;
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  auto est = d.hub->estimate();
  while ((est.status != QueryStatus::kOk || est.value != total) &&
         Clock::now() < give_up) {
    est = d.hub->wait_revision(est.revision, std::chrono::milliseconds(50));
  }
  return est.status == QueryStatus::kOk && est.value == total;
}

std::unique_ptr<Deployment> set_up(const std::vector<PartyInput>& inputs,
                                   Result& r) {
  auto d = std::make_unique<Deployment>();
  for (int j = 0; j < kParties; ++j) {
    d->parties.push_back(
        std::make_unique<waves::net::BasicPartyState>(kInvEps, kWindow));
    waves::net::ServerConfig cfg;
    cfg.party_id = static_cast<std::uint64_t>(j);
    d->servers.push_back(std::make_unique<waves::net::PartyServer>(
        cfg, d->parties.back().get()));
    if (!d->servers.back()->start()) {
      r.fail("party server failed to start");
      return nullptr;
    }
    d->endpoints.push_back({"127.0.0.1", d->servers.back()->port()});
  }
  for (; d->fed < kWindowChunks; ++d->fed) {
    for (int j = 0; j < kParties; ++j) {
      d->parties[static_cast<std::size_t>(j)]->observe_batch(
          inputs[static_cast<std::size_t>(j)].chunk(d->fed));
    }
  }
  d->client = std::make_unique<waves::net::RefereeClient>(d->endpoints);
  const auto warm = waves::net::total_query(*d->client,
                                            waves::net::PartyRole::kBasic,
                                            kWindow);
  if (warm.status != QueryStatus::kOk) {
    r.fail("warm-up query failed: " + warm.error);
    return nullptr;
  }
  d->hub = start_hub(*d);
  if (!d->hub || !hub_settled(*d)) {
    r.fail("monitor hub did not reach the parties' total");
    return nullptr;
  }
  return d;
}

// A query's answer plus the per-party feed cursors that bracket it.
struct Answer {
  double value = 0.0;
  std::uint64_t before[kParties] = {};
  std::uint64_t after[kParties] = {};
};

// Push-lag raw data of the traced phase: every party's estimate after each
// chunk, and every hub revision, both timestamped.
struct PushTrace {
  std::vector<double> t_ms[kParties];
  std::vector<double> value[kParties];
  std::vector<std::pair<double, double>> revisions;  // (t_ms, hub value)
  double m0[kParties] = {};
  double h0 = 0.0;
};

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string push_json(const PushTrace& p, double slack) {
  std::string s = "{\"slack\":" + num(slack) +
                  ",\"h0\":" + num(p.h0) + ",\"m0\":[";
  for (int j = 0; j < kParties; ++j) {
    s += (j ? "," : "") + num(p.m0[j]);
  }
  s += "],\"parties\":[";
  for (int j = 0; j < kParties; ++j) {
    s += j ? ",{\"t\":[" : "{\"t\":[";
    for (std::size_t i = 0; i < p.t_ms[j].size(); ++i) {
      s += (i ? "," : "") + num(p.t_ms[j][i]);
    }
    s += "],\"v\":[";
    for (std::size_t i = 0; i < p.value[j].size(); ++i) {
      s += (i ? "," : "") + num(p.value[j][i]);
    }
    s += "]}";
  }
  s += "],\"revisions\":[";
  for (std::size_t i = 0; i < p.revisions.size(); ++i) {
    s += (i ? ",[" : "[") + num(p.revisions[i].first) + "," +
         num(p.revisions[i].second) + "]";
  }
  return s + "]}";
}

class Phase {
 public:
  Phase(Deployment& d, const std::vector<PartyInput>& inputs, bool traced,
        Result& r)
      : d_(d), inputs_(inputs), traced_(traced), r_(r) {
    for (auto& f : fed_) f.store(d.fed, std::memory_order_relaxed);
  }

  void run(double seconds) {
    start_ = Clock::now();
    end_ = at(seconds);
    if (traced_) {
      const auto est = d_.hub->estimate();
      push_.h0 = est.value;
      last_revision_ = est.revision;
      for (int j = 0; j < kParties; ++j) {
        push_.m0[j] =
            d_.parties[static_cast<std::size_t>(j)]->query(kWindow).value;
      }
    }
    {
      std::jthread feeder([this] { feed(); });
      std::jthread querier([this] { query(); });
      std::jthread watcher;
      if (traced_) watcher = std::jthread([this] { watch(); });
    }
    d_.fed = fed_[0].load(std::memory_order_relaxed);
    merge(feed_r_);
    merge(query_r_);
  }

  const std::vector<Answer>& answers() const { return answers_; }
  const PushTrace& push() const { return push_; }
  SpanLog& feed_log() { return feed_log_; }
  SpanLog& query_log() { return query_log_; }

 private:
  // Folds one thread's measurements into the run's result.
  void merge(Result& part) {
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(r_.op_ms, part.op_ms);
    append(r_.ingest_late_ms, part.ingest_late_ms);
    append(r_.traced_op_ms, part.traced_op_ms);
    for (const auto& [k, v] : part.layer_samples) {
      append(r_.layer_samples[k], v);
    }
    r_.ingest_items += part.ingest_items;
    r_.ingest_busy_s += part.ingest_busy_s;
    r_.op_count += part.op_count;
    r_.op_seconds += part.op_seconds;
    for (const auto& f : part.failures) r_.fail(f);
  }

  [[nodiscard]] Clock::time_point at(double seconds_after_start) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds_after_start));
  }

  [[nodiscard]] double since_start_ms(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - start_).count();
  }

  // Open loop: chunk k of every party is due at start + k / rate.
  void feed() {
    feed_log_.enable(traced_);
    const double period = 1.0 / kChunksPerSecond;
    for (std::uint64_t k = 0;; ++k) {
      const auto due = at(period * static_cast<double>(k));
      if (due >= end_) break;
      std::this_thread::sleep_until(due);
      for (int j = 0; j < kParties; ++j) {
        auto& party = *d_.parties[static_cast<std::size_t>(j)];
        const std::uint64_t g = fed_[j].load(std::memory_order_relaxed);
        const auto t0 = Clock::now();
        {
          ScopedSpan span(feed_log_, "net.basic_observe_batch", g);
          party.observe_batch(inputs_[static_cast<std::size_t>(j)].chunk(g));
        }
        const auto t1 = Clock::now();
        fed_[j].store(g + 1, std::memory_order_release);
        const double call_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (traced_) {
          auto& ls = feed_r_.layer_samples;
          ls["distributed.observe_words_ns_per_item"].push_back(
              call_ms * 1e6 / static_cast<double>(kChunk));
          ls["distributed.observe_us"].push_back(call_ms * 1e3);
          // The estimate a push check would see from now on.
          push_.value[j].push_back(party.query(kWindow).value);
          push_.t_ms[j].push_back(since_start_ms(t1));
        } else {
          feed_r_.ingest_late_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - due).count());
          feed_r_.ingest_items += static_cast<double>(kChunk);
        }
      }
    }
    // Open loop: the delivered rate is items over the phase's wall time
    // (it falls below the offered rate only when the feeder falls behind).
    if (!traced_) {
      feed_r_.ingest_busy_s =
          std::chrono::duration<double>(Clock::now() - start_).count();
    }
  }

  // Open loop: query q is due at start + q / rate and timed from then.
  void query() {
    query_log_.enable(traced_);
    auto& flight = waves::obs::FlightRecorder::instance();
    const double period = 1.0 / kQueriesPerSecond;
    std::uint64_t q = 0;
    for (;; ++q) {
      const auto due = at(period * static_cast<double>(q));
      if (due >= end_) break;
      std::this_thread::sleep_until(due);
      Answer a;
      for (int j = 0; j < kParties; ++j) {
        a.before[j] = fed_[j].load(std::memory_order_acquire);
      }
      if (traced_) flight.clear();
      const std::uint64_t allocs0 = waves::obs::alloc_count();
      const std::int64_t q0 = now_ns();
      waves::distributed::QueryResult res;
      std::int64_t root = -1;
      {
        ScopedSpan span(query_log_, "net.total_query", q);
        root = span.id();
        res = waves::net::total_query(*d_.client, waves::net::PartyRole::kBasic,
                                      kWindow);
      }
      const auto done = Clock::now();
      const double allocs =
          static_cast<double>(waves::obs::alloc_count() - allocs0);
      for (int j = 0; j < kParties; ++j) {
        a.after[j] = fed_[j].load(std::memory_order_acquire);
      }
      const double ms =
          std::chrono::duration<double, std::milli>(done - due).count();
      if (res.status != QueryStatus::kOk) {
        query_r_.fail("query " + std::to_string(q) + " failed: " + res.error);
        a.value = std::nan("");
      } else {
        a.value = res.estimate.value;
      }
      answers_.push_back(a);
      if (traced_) {
        query_r_.traced_op_ms.push_back(ms);
        double slowest = 0.0;
        double bytes = 0.0;
        record_fetches(query_log_, q, root, q0, query_r_, slowest, bytes);
        auto& ls = query_r_.layer_samples;
        ls["net.collect_ms"].push_back(slowest);
        ls["distributed.wire_bytes_per_query"].push_back(bytes);
        ls["obs.allocs_per_query"].push_back(allocs);
        ls["monitor.staleness_items"].push_back(
            std::abs(d_.hub->estimate().value - a.value));
      } else {
        query_r_.op_ms.push_back(ms);
        query_r_.op_count += 1.0;
      }
    }
    if (!traced_) {
      query_r_.op_seconds +=
          std::chrono::duration<double>(Clock::now() - start_).count();
    }
  }

  void watch() {
    while (Clock::now() < end_) {
      const auto est =
          d_.hub->wait_revision(last_revision_, std::chrono::milliseconds(20));
      if (est.revision > last_revision_) {
        push_.revisions.emplace_back(since_start_ms(Clock::now()), est.value);
        last_revision_ = est.revision;
      }
    }
  }

  Deployment& d_;
  const std::vector<PartyInput>& inputs_;
  bool traced_;
  Result& r_;
  Result feed_r_;   // written by the feeder thread only
  Result query_r_;  // written by the query thread only
  Clock::time_point start_;
  Clock::time_point end_;
  std::atomic<std::uint64_t> fed_[kParties];
  std::vector<Answer> answers_;
  PushTrace push_;
  std::uint64_t last_revision_ = 0;
  SpanLog feed_log_;
  SpanLog query_log_;
};

// Theorem 1: each party's DetWave estimate is within eps of its exact
// in-window count at whatever cursor the snapshot saw.
void check_answers(const std::vector<Answer>& answers,
                   const std::vector<PartyInput>& inputs, Result& r) {
  for (std::size_t q = 0; q < answers.size(); ++q) {
    const Answer& a = answers[q];
    ++r.attempted;
    if (std::isnan(a.value)) continue;  // already counted as failed
    double lo = 0.0;
    double hi = 0.0;
    for (int j = 0; j < kParties; ++j) {
      std::uint64_t mn = ~std::uint64_t{0};
      std::uint64_t mx = 0;
      // The snapshot may include a chunk whose cursor bump was not yet
      // visible when `after` was read.
      for (std::uint64_t g = a.before[j]; g <= a.after[j] + 1; ++g) {
        const std::uint64_t e = inputs[static_cast<std::size_t>(j)].exact(g);
        mn = std::min(mn, e);
        mx = std::max(mx, e);
      }
      lo += static_cast<double>(mn) * (1.0 - kEps);
      hi += static_cast<double>(mx) * (1.0 + kEps);
    }
    if (a.value < lo - 1e-6 || a.value > hi + 1e-6) {
      r.fail("total " + std::to_string(a.value) + " outside [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  }
}

}  // namespace

void run_serve_mixed(const Options& opt, Result& r) {
  std::vector<PartyInput> inputs(kParties);
  for (int j = 0; j < kParties; ++j) {
    PartyInput& in = inputs[static_cast<std::size_t>(j)];
    const auto low = bernoulli_bits(
        0.05, derive_seed(opt.seed, static_cast<std::uint64_t>(j)),
        kPhaseChunks * kChunk);
    const auto high = bernoulli_bits(
        0.25, derive_seed(opt.seed, 50 + static_cast<std::uint64_t>(j)),
        kPhaseChunks * kChunk);
    for (const auto* phase : {&low, &high}) {
      const auto words = phase->words();
      for (std::uint64_t c = 0; c < kPhaseChunks; ++c) {
        waves::util::PackedBitStream chunk;
        for (std::uint64_t w = 0; w < kChunk / 64; ++w) {
          chunk.append_word(words[c * (kChunk / 64) + w]);
        }
        in.ones.push_back(chunk.ones());
        in.chunks.push_back(std::move(chunk));
      }
    }
  }
  r.rates["parties"] = kParties;
  r.rates["window"] = static_cast<double>(kWindow);
  r.rates["chunk_items"] = static_cast<double>(kChunk);
  r.rates["ingest_items_per_s_per_party"] =
      static_cast<double>(kChunksPerSecond * kChunk);
  r.rates["queries_per_s"] = kQueriesPerSecond;
  r.rates["density_low"] = 0.05;
  r.rates["density_high"] = 0.25;
  r.rates["density_phase_s"] = 0.5;

  std::unique_ptr<Deployment> d;
  for (int s = 0; s < kSetups; ++s) {
    d.reset();
    const auto t0 = Clock::now();
    d = set_up(inputs, r);
    if (!d) return;
    r.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  const double untraced = opt.trace ? opt.seconds / 2 : opt.seconds;
  {
    Phase phase(*d, inputs, false, r);
    phase.run(untraced);
    check_answers(phase.answers(), inputs, r);
  }
  if (!opt.trace) return;

  // A fresh hub for the traced phase: its subscription acks pin every
  // mirror to the parties' current estimates, the starting point the
  // push-lag attribution needs.
  d->hub.reset();
  d->hub = start_hub(*d);
  if (!d->hub || !hub_settled(*d)) {
    r.fail("monitor hub did not reach the parties' total");
    return;
  }
  Phase phase(*d, inputs, true, r);
  phase.run(opt.seconds / 2);
  check_answers(phase.answers(), inputs, r);
  r.push_json = push_json(
      phase.push(),
      std::max(kEps / kParties * static_cast<double>(kWindow), 1.0));
  r.layer["monitor.staleness_budget_items"] =
      kEps * static_cast<double>(kWindow);
  r.span_logs.push_back(std::move(phase.feed_log()));
  r.span_logs.push_back(std::move(phase.query_log()));
  // Bare layer costs over one full density cycle of party 0's bits.
  waves::util::PackedBitStream cycle;
  for (const auto& c : inputs[0].chunks) {
    for (const std::uint64_t w : c.words()) cycle.append_word(w);
  }
  measure_core_layers(r, cycle, 1 << 16, kWindow, derive_seed(opt.seed, 100));
}

}  // namespace perfbench
