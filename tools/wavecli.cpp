// wavecli — sliding-window aggregates over stdin, one item per line.
//
//   wavecli count    [--eps E] [--window N]                # item is 0/1
//   wavecli sum      [--eps E] [--window N] [--max-value R]
//   wavecli distinct [--eps E] [--window N] [--max-value R] [--seed S]
//   wavecli nth-one  [--eps E] [--span M] [--nth K]
//   wavecli metrics  [--format prom|json] [--parties T] [--instances K]
//                    [--eps E] [--window N] [--items M] [--seed S]
//                    [--connect host:port,...] [--deadline-ms MS]
//   wavecli top      --connect host:port,... [--deadline-ms MS]
//   wavecli query    --mode count|distinct|basic|sum|agg
//                    (--connect host:port,host:port,... | --local)
//                    [--op sum|min|max]   aggregate op (--mode agg only)
//                    [--eps E] [--window N] [--n W] [--parties T]
//                    [--instances K] [--seed S] [--items M]
//                    [--stream-seed S2] [--density D] [--noise X]
//                    [--value-space V] [--skew Z] [--max-value R]
//                    [--deadline-ms MS] [--attempts A]
//                    [--rounds K] [--delta on|off]
//                    [--trace] [--flight-recorder]
//   wavecli hub      --connect host:port,... --mode count|distinct|basic|sum
//                    [--eps E] [--window N] [--n W] [--parties T]
//                    [--instances K] [--seed S] [--value-space V]
//                    [--max-value R] [--split uniform|boosted]
//                    [--check-ms MS] [--port P] [--hub-host H]
//                    [--max-watchers K] [--serve-seconds SEC]
//   wavecli watch    --connect host:port [--mode M] [--window N] [--n W]
//                    [--updates K] [--deadline-ms MS]
//   wavecli --version   build + selected SIMD ingest kernel set
//
// The hub mode runs a continuous-monitoring referee (monitor::MonitorHub):
// it subscribes a push leg to every listed waved daemon with an eps-slack
// share (--split picks the uniform eps/t or boosted eps/sqrt(t) division),
// maintains the merged estimate incrementally from the pushes, and serves
// it to `wavecli watch` subscribers on --port. It prints
//
//   HUB READY port=<P> parties=<T> role=<R> eps=<E> split=<S>
//
// then operator events ("HUB RESYNC party=<i> generation=<g>" when a party
// restart forces a full-snapshot rebase) until SIGINT/SIGTERM. The watch
// mode subscribes to a hub and prints one query-format line per estimate
// update — the same "ok\t%.17g" bytes a `wavecli query` of the same
// deployment prints, which is how the loopback test checks push/poll
// parity; --updates K exits 0 after K lines (the first is the current
// estimate, pushed as the subscription's ack).
//
// Stream modes print "<items>\t<estimate>" every --every items (default
// 10000) and a final line on EOF. The metrics mode runs a small built-in
// distributed simulation (union counting + distinct values over the wire
// transport) and dumps the observability registry in Prometheus text
// exposition or JSON; with --connect it instead scrapes each listed waved
// daemon over the wire (kMetricsRequest) and dumps the daemons' registries,
// separated by `# party <i> ...` headers. The top mode scrapes every
// endpoint and prints one merged view: per-party generation headers, then
// every sample summed across parties, largest first.
//
// Query-mode observability (--connect only): --trace prints, after the
// result lines, `TRACE <hex16>` followed by the client's spans for the last
// round's trace and each party's spans scraped for the same trace id — one
// stitched cross-process trace. --flight-recorder dumps one `fetch ...`
// line per recorded party fetch (see obs/flight.hpp).
//
// The query mode is the referee of a waved deployment: --connect fans out
// over TCP to the listed party daemons; --local rebuilds the same
// deployment in-process from the shared feed_config streams and answers
// without any networking. Both print the same "<status>\t<estimate>" line
// (%.17g), so a loopback deployment is validated by literal string
// comparison. --rounds K repeats the query K times over the same client —
// round 2+ of a --connect run rides the keep-alive socket and (with
// --delta on, the default) the v3 delta path, so diffing K rounds against
// --local validates the fast query path, not just the bootstrap fetch.
// Degraded Scenario-1 answers append missing=K slack=S; failed queries
// (union/distinct under partial quorum) print the typed error to stderr
// and exit 4.
//
// Exit code 2 on usage errors, 3 on malformed input, 4 on failed queries.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

// Installs the counting operator new/delete (no-op when WAVES_OBS=OFF), so
// query-mode flight records carry real allocation counts.
#include "alloc_hook.hpp"
#include <csignal>
#include <thread>

#include "agg/agg_wave.hpp"
#include "core/det_wave.hpp"
#include "core/distinct_wave.hpp"
#include "core/extensions/nth_one.hpp"
#include "core/sum_wave.hpp"
#include "distributed/ingest_driver.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "feed_config.hpp"
#include "gf2/gf2.hpp"
#include "gf2/shared_randomness.hpp"
#include "monitor/hub.hpp"
#include "monitor/slack.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "stream/generators.hpp"
#include "stream/splitters.hpp"
#include "stream/value_streams.hpp"
#include "supervise/supervisor.hpp"
#include "util/simd.hpp"

namespace {

struct Options {
  std::string mode;
  std::uint64_t inv_eps = 20;  // eps = 0.05
  std::uint64_t window = 100000;
  bool window_set = false;
  std::uint64_t max_value = 1000000;
  bool max_value_set = false;
  std::uint64_t seed = 1;
  std::uint64_t every = 10000;
  std::uint64_t nth = 1;
  std::uint64_t span = 1 << 20;
  // metrics mode only:
  std::string format = "prom";
  int parties = 4;
  int instances = 3;
  std::uint64_t items = 20000;
  // query mode only:
  double eps_raw = 0.05;  // eps before inv_eps rounding (params want it)
  std::string qmode = "count";
  std::string connect;
  bool local = false;
  std::uint64_t n = 0;  // query window; 0 = full --window
  std::uint64_t deadline_ms = 1000;
  int attempts = 3;
  std::uint64_t stream_seed = 1;
  double density = 0.2;
  double noise = 0.05;
  std::uint64_t value_space = 1u << 16;
  double skew = 1.2;
  int rounds = 1;
  bool delta = true;
  bool trace = false;
  bool flight = false;
  std::string aggop = "sum";  // query --mode agg only
  // hub / watch modes:
  std::string split = "uniform";
  std::uint64_t check_ms = 25;
  std::uint64_t max_watchers = 64;
  std::uint16_t port = 0;
  std::string hub_host = "127.0.0.1";
  double serve_seconds = 0.0;  // 0: until signaled
  std::uint64_t updates = 0;   // watch: exit after K updates (0 = forever)
  // fleet mode:
  std::string spec_path;
  std::string waved_path;  // overrides the spec's `waved` line
  std::uint64_t probe_ms = 250;
  int crashloop_restarts = 5;
  std::uint64_t crashloop_window_ms = 10000;
};

int usage() {
  std::fprintf(stderr,
               "usage: wavecli count|sum|distinct|nth-one [--eps E] "
               "[--window N]\n               [--max-value R] [--seed S] "
               "[--every K] [--nth K] [--span M]\n       wavecli metrics "
               "[--format prom|json] [--parties T] [--instances K]\n"
               "               [--eps E] [--window N] [--items M] [--seed "
               "S]\n       wavecli query --mode count|distinct|basic|sum|agg\n"
               "               (--connect host:port,... | --local)\n"
               "               [--op sum|min|max]\n"
               "               [--eps E] [--window N] [--n W] [--parties T]"
               "\n               [--instances K] [--seed S] [--items M] "
               "[--stream-seed S2]\n               [--density D] [--noise "
               "X] [--value-space V] [--skew Z]\n               "
               "[--max-value R] [--deadline-ms MS] [--attempts A]\n"
               "               [--rounds K] [--delta on|off] [--trace] "
               "[--flight-recorder]\n       wavecli top --connect "
               "host:port,... [--deadline-ms MS]\n"
               "       wavecli hub --connect host:port,... "
               "--mode count|distinct|basic|sum\n"
               "               [--eps E] [--window N] [--n W] [--parties T]\n"
               "               [--instances K] [--seed S] [--value-space V]\n"
               "               [--max-value R] [--split uniform|boosted]\n"
               "               [--check-ms MS] [--port P] [--hub-host H]\n"
               "               [--max-watchers K] [--serve-seconds SEC]\n"
               "       wavecli watch --connect host:port [--mode M] "
               "[--window N]\n"
               "               [--n W] [--updates K] [--deadline-ms MS]\n"
               "       wavecli fleet --spec FILE [--waved PATH] "
               "[--probe-ms MS]\n"
               "               [--crashloop-restarts N] "
               "[--crashloop-window-ms MS]\n"
               "               [--serve-seconds SEC]\n");
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options o;
  o.mode = argv[1];
  int i = 2;
  while (i < argc) {
    const std::string flag = argv[i];
    // Boolean flags first; everything else takes one value.
    if (flag == "--local") {
      o.local = true;
      ++i;
      continue;
    }
    if (flag == "--trace") {
      o.trace = true;
      ++i;
      continue;
    }
    if (flag == "--flight-recorder") {
      o.flight = true;
      ++i;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* val = argv[i + 1];
    i += 2;
    if (flag == "--eps") {
      const double e = std::atof(val);
      if (e <= 0.0 || e >= 1.0) return std::nullopt;
      o.eps_raw = e;
      o.inv_eps = static_cast<std::uint64_t>(1.0 / e + 0.5);
      if (o.inv_eps < 1) o.inv_eps = 1;
    } else if (flag == "--window") {
      o.window = std::strtoull(val, nullptr, 10);
      o.window_set = true;
    } else if (flag == "--max-value") {
      o.max_value = std::strtoull(val, nullptr, 10);
      o.max_value_set = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--every") {
      o.every = std::strtoull(val, nullptr, 10);
    } else if (flag == "--nth") {
      o.nth = std::strtoull(val, nullptr, 10);
    } else if (flag == "--span") {
      o.span = std::strtoull(val, nullptr, 10);
    } else if (flag == "--format") {
      o.format = val;
    } else if (flag == "--parties") {
      o.parties = std::atoi(val);
    } else if (flag == "--instances") {
      o.instances = std::atoi(val);
    } else if (flag == "--items") {
      o.items = std::strtoull(val, nullptr, 10);
    } else if (flag == "--mode") {
      o.qmode = val;
    } else if (flag == "--op") {
      o.aggop = val;
    } else if (flag == "--connect") {
      o.connect = val;
    } else if (flag == "--n") {
      o.n = std::strtoull(val, nullptr, 10);
    } else if (flag == "--deadline-ms") {
      o.deadline_ms = std::strtoull(val, nullptr, 10);
    } else if (flag == "--attempts") {
      o.attempts = std::atoi(val);
    } else if (flag == "--stream-seed") {
      o.stream_seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--density") {
      o.density = std::atof(val);
    } else if (flag == "--noise") {
      o.noise = std::atof(val);
    } else if (flag == "--value-space") {
      o.value_space = std::strtoull(val, nullptr, 10);
    } else if (flag == "--skew") {
      o.skew = std::atof(val);
    } else if (flag == "--rounds") {
      o.rounds = std::atoi(val);
    } else if (flag == "--delta") {
      const std::string v = val;
      if (v != "on" && v != "off") return std::nullopt;
      o.delta = v == "on";
    } else if (flag == "--split") {
      o.split = val;
    } else if (flag == "--check-ms") {
      o.check_ms = std::strtoull(val, nullptr, 10);
    } else if (flag == "--max-watchers") {
      o.max_watchers = std::strtoull(val, nullptr, 10);
    } else if (flag == "--port") {
      o.port = static_cast<std::uint16_t>(std::strtoul(val, nullptr, 10));
    } else if (flag == "--hub-host") {
      o.hub_host = val;
    } else if (flag == "--serve-seconds") {
      o.serve_seconds = std::atof(val);
    } else if (flag == "--updates") {
      o.updates = std::strtoull(val, nullptr, 10);
    } else if (flag == "--spec") {
      o.spec_path = val;
    } else if (flag == "--waved") {
      o.waved_path = val;
    } else if (flag == "--probe-ms") {
      o.probe_ms = std::strtoull(val, nullptr, 10);
    } else if (flag == "--crashloop-restarts") {
      o.crashloop_restarts = std::atoi(val);
    } else if (flag == "--crashloop-window-ms") {
      o.crashloop_window_ms = std::strtoull(val, nullptr, 10);
    } else {
      return std::nullopt;
    }
  }
  if (o.mode == "query") {
    if (!o.window_set) o.window = 4096;
    if (o.qmode != "count" && o.qmode != "distinct" && o.qmode != "basic" &&
        o.qmode != "sum" && o.qmode != "agg") {
      return std::nullopt;
    }
    if (o.aggop != "sum" && o.aggop != "min" && o.aggop != "max") {
      return std::nullopt;
    }
    // Exactly one referee flavor: in-process reference or TCP deployment.
    if (o.local == !o.connect.empty()) return std::nullopt;
    if (o.parties < 1 || o.instances < 1 || o.attempts < 1 ||
        o.deadline_ms < 1 || o.rounds < 1) {
      return std::nullopt;
    }
    // The stitched trace and the flight recorder describe networked
    // fetches; --local has neither a client nor parties to scrape.
    if ((o.trace || o.flight) && o.local) return std::nullopt;
  }
  if (o.mode == "metrics") {
    // The built-in simulation only needs a small window to light up every
    // metric family; keep the default cheap unless the user asks.
    if (!o.window_set) o.window = 4096;
    if (o.format != "prom" && o.format != "json") return std::nullopt;
    if (o.parties < 1 || o.instances < 1 || o.items < 1) return std::nullopt;
    if (o.deadline_ms < 1) return std::nullopt;
  }
  if (o.mode == "top") {
    if (o.connect.empty() || o.deadline_ms < 1) return std::nullopt;
  }
  if (o.mode == "hub") {
    if (!o.window_set) o.window = 4096;
    if (o.connect.empty()) return std::nullopt;
    if (o.qmode != "count" && o.qmode != "distinct" && o.qmode != "basic" &&
        o.qmode != "sum") {
      return std::nullopt;
    }
    waves::monitor::SlackSplit split{};
    if (!waves::monitor::slack_split_from_name(o.split, split)) {
      return std::nullopt;
    }
    if (o.parties < 1 || o.instances < 1 || o.deadline_ms < 1 ||
        o.check_ms < 1 || o.max_watchers < 1) {
      return std::nullopt;
    }
  }
  if (o.mode == "watch") {
    if (!o.window_set) o.window = 4096;
    if (o.connect.empty() || o.deadline_ms < 1) return std::nullopt;
    if (o.qmode != "count" && o.qmode != "distinct" && o.qmode != "basic" &&
        o.qmode != "sum") {
      return std::nullopt;
    }
  }
  if (o.mode == "fleet") {
    if (o.spec_path.empty() || o.probe_ms < 1 || o.crashloop_restarts < 1 ||
        o.crashloop_window_ms < 1) {
      return std::nullopt;
    }
  }
  if (o.window < 1 || o.every < 1) return std::nullopt;
  return o;
}

/// Parses "h:p,h:p,..." into endpoints. False (with a stderr diagnostic) on
/// any malformed element or an empty list.
bool parse_endpoints(const std::string& list,
                     std::vector<waves::net::Endpoint>& out) {
  std::string rest = list;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string one = rest.substr(0, comma);
    rest = comma == std::string::npos ? std::string{} : rest.substr(comma + 1);
    waves::net::Endpoint ep;
    if (!waves::net::parse_endpoint(one, ep)) {
      std::fprintf(stderr, "wavecli: bad endpoint '%s'\n", one.c_str());
      return false;
    }
    out.push_back(std::move(ep));
  }
  return !out.empty();
}

/// Remote scrape: dump each daemon's registry verbatim, with a
/// `# party <i> <host>:<port> generation=<g>` header between parties so the
/// concatenation stays parseable (headers are exposition-format comments).
int run_metrics_remote(const Options& o) {
  using namespace waves;
  std::vector<net::Endpoint> endpoints;
  if (!parse_endpoints(o.connect, endpoints)) return 2;
  const auto fmt = o.format == "json" ? net::MetricsFormat::kJson
                                      : net::MetricsFormat::kProm;
  const auto deadline = std::chrono::milliseconds(o.deadline_ms);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    net::MetricsReply reply;
    std::string err;
    if (!net::scrape_metrics(endpoints[i], fmt, 0, deadline, reply, err)) {
      std::fprintf(stderr, "wavecli: scrape %s:%u failed: %s\n",
                   endpoints[i].host.c_str(), endpoints[i].port, err.c_str());
      return 4;
    }
    if (endpoints.size() > 1) {
      std::printf("# party %zu %s:%u generation=%llu\n", i,
                  endpoints[i].host.c_str(), endpoints[i].port,
                  static_cast<unsigned long long>(reply.generation));
    }
    std::fputs(reply.text.c_str(), stdout);
  }
  return 0;
}

/// Aggregate scrape: one header line per party, then every Prometheus
/// sample summed across the parties that report it, largest value first —
/// the "what is the deployment doing" view.
int run_top(const Options& o) {
  using namespace waves;
  std::vector<net::Endpoint> endpoints;
  if (!parse_endpoints(o.connect, endpoints)) return 2;
  const auto deadline = std::chrono::milliseconds(o.deadline_ms);
  // sample line ("family{labels}") -> (summed value, reporting parties)
  std::map<std::string, std::pair<double, int>> merged;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    net::MetricsReply reply;
    std::string err;
    if (!net::scrape_metrics(endpoints[i], net::MetricsFormat::kProm, 0,
                             deadline, reply, err)) {
      std::printf("party %zu %s:%u DOWN (%s)\n", i,
                  endpoints[i].host.c_str(), endpoints[i].port, err.c_str());
      continue;
    }
    std::printf("party %zu %s:%u generation=%llu\n", i,
                endpoints[i].host.c_str(), endpoints[i].port,
                static_cast<unsigned long long>(reply.generation));
    // Exposition format: `<name>[{labels}] <value>` per non-comment line.
    std::size_t start = 0;
    while (start < reply.text.size()) {
      std::size_t end = reply.text.find('\n', start);
      if (end == std::string::npos) end = reply.text.size();
      const std::string line = reply.text.substr(start, end - start);
      start = end + 1;
      if (line.empty() || line[0] == '#') continue;
      const std::size_t sp = line.rfind(' ');
      if (sp == std::string::npos || sp == 0) continue;
      auto& [sum, parties] = merged[line.substr(0, sp)];
      sum += std::atof(line.c_str() + sp + 1);
      ++parties;
    }
  }
  std::vector<std::pair<std::string, std::pair<double, int>>> rows(
      merged.begin(), merged.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.first > b.second.first;
  });
  for (const auto& [name, vp] : rows) {
    std::printf("%.17g\tparties=%d\t%s\n", vp.first, vp.second, name.c_str());
  }
  return 0;
}

/// Runs a small two-protocol distributed simulation so every layer of the
/// observability registry has data, then dumps it in the requested format.
int run_metrics(const Options& o) {
  using namespace waves;
  const double eps = 1.0 / static_cast<double>(o.inv_eps);

  // Union counting over the wire transport.
  {
    stream::BernoulliBits base_gen(0.2, o.seed);
    const auto base = stream::take(base_gen, o.items);
    const auto streams =
        stream::correlated_streams(base, o.parties, 0.05, o.seed + 1);
    std::vector<std::unique_ptr<distributed::CountParty>> owners;
    std::vector<distributed::CountParty*> feed;
    std::vector<const distributed::CountParty*> query;
    for (int j = 0; j < o.parties; ++j) {
      owners.push_back(std::make_unique<distributed::CountParty>(
          core::RandWave::Params{.eps = eps, .window = o.window, .c = 36},
          o.instances, o.seed + 99));
      feed.push_back(owners.back().get());
      query.push_back(owners.back().get());
    }
    (void)distributed::parallel_feed(feed, util::pack_streams(streams));
    (void)distributed::union_count_wire(query, o.window, nullptr);
  }

  // Distinct values over the wire transport.
  {
    const std::uint64_t value_space = 1u << 16;
    core::DistinctWave::Params p{.eps = eps,
                                 .window = o.window,
                                 .max_value = value_space,
                                 .c = 36};
    std::vector<std::unique_ptr<distributed::DistinctParty>> owners;
    std::vector<distributed::DistinctParty*> feed;
    std::vector<const distributed::DistinctParty*> query;
    for (int j = 0; j < o.parties; ++j) {
      owners.push_back(std::make_unique<distributed::DistinctParty>(
          p, o.instances, o.seed + 7));
      feed.push_back(owners.back().get());
      query.push_back(owners.back().get());
    }
    std::vector<std::vector<std::uint64_t>> streams;
    for (int j = 0; j < o.parties; ++j) {
      stream::ZipfValues gen(value_space, 1.2,
                             o.seed + static_cast<std::uint64_t>(j));
      streams.push_back(stream::take(gen, o.items));
    }
    (void)distributed::parallel_feed(feed, streams);
    (void)distributed::distinct_count_wire(query, o.window, nullptr, {});
  }

  const std::string text =
      o.format == "json" ? obs::json_text() : obs::prometheus_text();
  std::fputs(text.c_str(), stdout);
  return 0;
}

waves::tools::FeedSpec feed_spec(const Options& o) {
  waves::tools::FeedSpec f;
  f.parties = o.parties;
  f.items = o.items;
  f.stream_seed = o.stream_seed;
  f.density = o.density;
  f.noise = o.noise;
  f.value_space = o.value_space;
  f.skew = o.skew;
  // Options.max_value defaults to the legacy stream-mode value (1e6);
  // query mode must default to FeedSpec's, which waved also uses — a
  // default-flag --connect and --local run have to generate the same sum
  // streams (and error_slack) on both sides.
  if (o.max_value_set) f.max_value = o.max_value;
  return f;
}

/// Prints the query outcome in the format the loopback parity test diffs:
/// "ok\t<estimate>" / "degraded\t<estimate>\tmissing=K\tslack=S". %.17g
/// round-trips doubles exactly, so equal values mean equal lines.
int print_result(const waves::distributed::QueryResult& r) {
  using QS = waves::distributed::QueryStatus;
  if (r.status == QS::kFailed) {
    std::fprintf(stderr, "wavecli: query failed: %s\n", r.error.c_str());
    return 4;
  }
  if (r.status == QS::kDegraded) {
    std::printf("degraded\t%.17g\tmissing=%zu\tslack=%.17g\n",
                r.estimate.value, r.missing.size(), r.error_slack);
  } else {
    std::printf("ok\t%.17g\n", r.estimate.value);
  }
  return 0;
}

/// Agg-mode twin of print_result: the value is an exact int64 and prints as
/// one, so a networked answer diffs bit-for-bit against --local even past
/// 2^53 where %.17g doubles would round.
int print_agg_result(const waves::net::AggQueryResult& r) {
  using QS = waves::distributed::QueryStatus;
  if (r.status == QS::kFailed) {
    std::fprintf(stderr, "wavecli: query failed: %s\n", r.error.c_str());
    return 4;
  }
  if (r.status == QS::kDegraded) {
    std::printf("degraded\t%lld\tmissing=%zu\tslack=%.17g\n",
                static_cast<long long>(r.value), r.missing.size(),
                r.error_slack);
  } else {
    std::printf("ok\t%lld\n", static_cast<long long>(r.value));
  }
  return 0;
}

waves::agg::AggOp parse_agg_op(const std::string& s) {
  if (s == "min") return waves::agg::AggOp::kMin;
  if (s == "max") return waves::agg::AggOp::kMax;
  return waves::agg::AggOp::kSum;
}

/// Runs the query --rounds times against the same source/client and prints
/// one line per round. The parties are quiescent while wavecli queries, so
/// every round must print the identical line; over TCP, round 2+ rides the
/// keep-alive socket and the delta mirror, which is exactly what the
/// loopback test's multi-round leg diffs against --local.
template <class Query>
int run_rounds(int rounds, Query&& query) {
  for (int r = 0; r < rounds; ++r) {
    const int rc = print_result(query());
    if (rc != 0) return rc;
  }
  return 0;
}

/// After the result lines: the flight-recorder dump and/or the stitched
/// trace (--flight-recorder / --trace). The trace section prints the
/// client-side spans of the last round's trace, then scrapes every party
/// for its spans under the same trace id — one cross-process trace on
/// stdout. Scrape failures are reported inline, not fatal: the query
/// already succeeded.
void dump_query_obs(const Options& o, const waves::net::RefereeClient& client,
                    const std::vector<waves::net::Endpoint>& endpoints) {
  using namespace waves;
  if (o.flight) {
    for (const auto& rec : obs::FlightRecorder::instance().recent()) {
      std::printf("%s\n", obs::flight_line(rec).c_str());
    }
  }
  if (!o.trace) return;
  const std::uint64_t id = client.last_trace_id();
  std::printf("TRACE %016llx\n", static_cast<unsigned long long>(id));
  std::fputs(obs::trace_text(id).c_str(), stdout);
  const auto deadline = std::chrono::milliseconds(o.deadline_ms);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    net::MetricsReply reply;
    std::string err;
    if (!net::scrape_metrics(endpoints[i], net::MetricsFormat::kTrace, id,
                             deadline, reply, err)) {
      std::printf("# party %zu %s:%u scrape failed: %s\n", i,
                  endpoints[i].host.c_str(), endpoints[i].port, err.c_str());
      continue;
    }
    std::printf("# party %zu %s:%u\n", i, endpoints[i].host.c_str(),
                endpoints[i].port);
    std::fputs(reply.text.c_str(), stdout);
  }
}

/// The referee of a waved deployment (--connect) or its in-process
/// reference answer over the identical feed_config streams (--local).
int run_query(const Options& o) {
  using namespace waves;
  const tools::FeedSpec feed = feed_spec(o);
  const std::uint64_t n = o.n != 0 ? o.n : o.window;
  const std::uint64_t inv_eps = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(1.0 / o.eps_raw + 0.5));

  if (o.local) {
    if (o.qmode == "count") {
      const auto params = tools::count_params(o.eps_raw, o.window);
      const auto streams = tools::bit_streams(feed);
      std::vector<std::unique_ptr<distributed::CountParty>> owners;
      std::vector<const distributed::CountParty*> query;
      for (int j = 0; j < o.parties; ++j) {
        owners.push_back(std::make_unique<distributed::CountParty>(
            params, o.instances, o.seed));
        owners.back()->observe_batch(streams[static_cast<std::size_t>(j)]);
        query.push_back(owners.back().get());
      }
      distributed::InProcessCountSource source(query, /*via_wire=*/true);
      return run_rounds(o.rounds,
                        [&] { return distributed::union_count(source, n); });
    }
    if (o.qmode == "distinct") {
      const auto params = tools::distinct_params(o.eps_raw, o.window,
                                                 o.value_space, o.parties);
      std::vector<std::unique_ptr<distributed::DistinctParty>> owners;
      std::vector<const distributed::DistinctParty*> query;
      for (int j = 0; j < o.parties; ++j) {
        owners.push_back(std::make_unique<distributed::DistinctParty>(
            params, o.instances, o.seed));
        owners.back()->observe_batch(tools::value_stream(feed, j));
        query.push_back(owners.back().get());
      }
      distributed::InProcessDistinctSource source(query, /*via_wire=*/true);
      return run_rounds(
          o.rounds, [&] { return distributed::distinct_count(source, n); });
    }
    if (o.qmode == "agg") {
      // Exact aggregates: feed each party's sum stream through an AggWave
      // and combine the way net::agg_query does over responders.
      const agg::AggOp op = parse_agg_op(o.aggop);
      net::AggQueryResult r;
      r.op = op;
      r.status = distributed::QueryStatus::kOk;
      std::uint64_t usum = 0;
      std::int64_t lo = std::numeric_limits<std::int64_t>::max();
      std::int64_t hi = std::numeric_limits<std::int64_t>::min();
      for (int j = 0; j < o.parties; ++j) {
        agg::AggWave w(op, o.window);
        const auto uv = tools::sum_stream(feed, j);
        const std::vector<std::int64_t> vals(uv.begin(), uv.end());
        w.update_bulk(vals);
        const std::int64_t v = w.value();
        usum += static_cast<std::uint64_t>(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      r.value = op == agg::AggOp::kSum ? static_cast<std::int64_t>(usum)
                : op == agg::AggOp::kMin ? lo
                                         : hi;
      for (int round = 0; round < o.rounds; ++round) {
        const int rc = print_agg_result(r);
        if (rc != 0) return rc;
      }
      return 0;
    }
    // Scenario-1 totals: sum per-party window estimates.
    double sum = 0.0;
    bool exact = true;
    if (o.qmode == "basic") {
      const auto streams = tools::bit_streams(feed);
      for (int j = 0; j < o.parties; ++j) {
        net::BasicPartyState st(inv_eps, o.window);
        st.observe_batch(streams[static_cast<std::size_t>(j)]);
        const core::Estimate est = st.query(n);
        sum += est.value;
        exact = exact && est.exact;
      }
    } else {
      for (int j = 0; j < o.parties; ++j) {
        net::SumPartyState st(inv_eps, o.window, feed.max_value);
        st.observe_batch(tools::sum_stream(feed, j));
        const core::Estimate est = st.query(n);
        sum += est.value;
        exact = exact && est.exact;
      }
    }
    distributed::QueryResult r;
    r.status = distributed::QueryStatus::kOk;
    r.estimate = core::Estimate{sum, exact, n};
    return run_rounds(o.rounds, [&] { return r; });
  }

  // TCP referee: one endpoint per party, comma-separated. The list is
  // copied into the client and kept — dump_query_obs scrapes it afterward.
  std::vector<net::Endpoint> endpoints;
  if (!parse_endpoints(o.connect, endpoints)) return 2;

  net::ClientConfig ccfg;
  ccfg.request_deadline = std::chrono::milliseconds(o.deadline_ms);
  ccfg.max_attempts = o.attempts;
  ccfg.delta_snapshots = o.delta;

  if (o.qmode == "count") {
    net::NetworkCountSource source(endpoints,
                                   tools::count_params(o.eps_raw, o.window),
                                   o.instances, o.seed, ccfg);
    const int rc = run_rounds(
        o.rounds, [&] { return distributed::union_count(source, n); });
    dump_query_obs(o, source.client(), endpoints);
    return rc;
  }
  if (o.qmode == "distinct") {
    net::NetworkDistinctSource source(
        endpoints,
        tools::distinct_params(o.eps_raw, o.window, o.value_space, o.parties),
        o.instances, o.seed, ccfg);
    const int rc = run_rounds(
        o.rounds, [&] { return distributed::distinct_count(source, n); });
    dump_query_obs(o, source.client(), endpoints);
    return rc;
  }
  const net::RefereeClient client(endpoints, ccfg);
  int rc = 0;
  if (o.qmode == "agg") {
    const agg::AggOp op = parse_agg_op(o.aggop);
    for (int round = 0; round < o.rounds; ++round) {
      rc = print_agg_result(net::agg_query(client, op, n, feed.max_value));
      if (rc != 0) break;
    }
    dump_query_obs(o, client, endpoints);
    return rc;
  }
  if (o.qmode == "basic") {
    rc = run_rounds(o.rounds, [&] {
      return net::total_query(client, net::PartyRole::kBasic, n);
    });
  } else {
    rc = run_rounds(o.rounds, [&] {
      return net::total_query(client, net::PartyRole::kSum, n, feed.max_value);
    });
  }
  dump_query_obs(o, client, endpoints);
  return rc;
}

volatile std::sig_atomic_t g_hub_stop = 0;
void on_hub_signal(int) { g_hub_stop = 1; }

/// Continuous-monitoring referee: push legs to every listed party, merged
/// estimate maintained incrementally, watcher fan-out on --port.
int run_hub(const Options& o) {
  using namespace waves;
  std::vector<net::Endpoint> endpoints;
  if (!parse_endpoints(o.connect, endpoints)) return 2;
  net::PartyRole role{};
  if (!net::role_from_name(o.qmode, role)) return usage();
  monitor::SlackSplit split{};
  if (!monitor::slack_split_from_name(o.split, split)) return usage();
  const tools::FeedSpec feed = feed_spec(o);

  monitor::HubConfig cfg;
  cfg.parties = endpoints;
  cfg.role = role;
  cfg.n = o.n != 0 ? o.n : o.window;
  cfg.eps = o.eps_raw;
  cfg.split = split;
  cfg.max_value = feed.max_value;
  cfg.check_every = std::chrono::milliseconds(o.check_ms);
  cfg.io_deadline = std::chrono::milliseconds(o.deadline_ms);
  cfg.host = o.hub_host;
  cfg.port = o.port;
  cfg.max_watchers = static_cast<std::size_t>(o.max_watchers);
  cfg.count_params = tools::count_params(o.eps_raw, o.window);
  cfg.distinct_params =
      tools::distinct_params(o.eps_raw, o.window, o.value_space, o.parties);
  cfg.instances = o.instances;
  cfg.shared_seed = o.seed;
  cfg.on_event = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };

  monitor::MonitorHub hub(std::move(cfg));
  if (!hub.start()) {
    std::fprintf(stderr, "wavecli: hub cannot listen on %s:%u\n",
                 o.hub_host.c_str(), o.port);
    return 1;
  }
  std::signal(SIGINT, on_hub_signal);
  std::signal(SIGTERM, on_hub_signal);
  std::printf("HUB READY port=%u parties=%zu role=%s eps=%.17g split=%s\n",
              hub.watch_port(), endpoints.size(), o.qmode.c_str(), o.eps_raw,
              o.split.c_str());
  std::fflush(stdout);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_hub_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (o.serve_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count() >= o.serve_seconds) {
      break;
    }
  }
  hub.stop();
  std::printf("HUB DRAINED\n");
  std::fflush(stdout);
  return 0;
}

/// Self-healing fleet: spawn the spec's waved daemons under a Supervisor
/// and narrate its lifecycle events as FLEET lines until signaled.
int run_fleet(const Options& o) {
  using namespace waves;
  std::FILE* f = std::fopen(o.spec_path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "wavecli: cannot read fleet spec %s\n",
                 o.spec_path.c_str());
    return 2;
  }
  std::string text;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, got);
  }
  std::fclose(f);

  supervise::FleetSpec spec;
  std::string err;
  if (!supervise::parse_fleet_spec(text, spec, err)) {
    std::fprintf(stderr, "wavecli: %s\n", err.c_str());
    return 2;
  }
  if (!o.waved_path.empty()) spec.waved_path = o.waved_path;

  supervise::SupervisorConfig cfg;
  cfg.probe_every = std::chrono::milliseconds(o.probe_ms);
  cfg.crashloop_restarts = o.crashloop_restarts;
  cfg.crashloop_window = std::chrono::milliseconds(o.crashloop_window_ms);
  cfg.on_event = [](const supervise::FleetEvent& ev) {
    using Kind = supervise::FleetEvent::Kind;
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
  };

  supervise::Supervisor sup(std::move(spec), std::move(cfg));
  if (!sup.start()) {
    std::fprintf(stderr, "wavecli: fleet start failed: %s\n",
                 sup.error().c_str());
    return 1;
  }
  std::signal(SIGINT, on_hub_signal);
  std::signal(SIGTERM, on_hub_signal);
  std::printf("FLEET SUPERVISING parties=%zu waved=%s\n",
              sup.spec().parties.size(), sup.spec().waved_path.c_str());
  std::fflush(stdout);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_hub_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (o.serve_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count() >= o.serve_seconds) {
      break;
    }
  }
  sup.stop();
  return 0;
}

/// Subscribe to a hub and print one query-format line per estimate update.
int run_watch(const Options& o) {
  using namespace waves;
  std::vector<net::Endpoint> endpoints;
  if (!parse_endpoints(o.connect, endpoints) || endpoints.size() != 1) {
    std::fprintf(stderr, "wavecli: watch takes exactly one hub endpoint\n");
    return 2;
  }
  net::PartyRole role{};
  if (!net::role_from_name(o.qmode, role)) return usage();
  const std::uint64_t n = o.n != 0 ? o.n : o.window;
  const auto dl = [&] {
    return net::deadline_in(std::chrono::milliseconds(o.deadline_ms));
  };
  const net::Endpoint& ep = endpoints[0];
  net::Socket sock = net::tcp_connect(ep.host, ep.port, dl());
  if (!sock.valid()) {
    std::fprintf(stderr, "wavecli: cannot connect to hub %s:%u\n",
                 ep.host.c_str(), ep.port);
    return 4;
  }
  net::Hello hello;
  net::Frame frame;
  net::HelloAck ack;
  if (!net::write_frame(sock, net::MsgType::kHello, hello.encode(), dl()) ||
      net::read_frame(sock, frame, dl()) != net::ReadStatus::kOk ||
      frame.type != net::MsgType::kHelloAck ||
      !net::HelloAck::decode(frame.payload, ack)) {
    std::fprintf(stderr, "wavecli: hub handshake failed\n");
    return 4;
  }
  if (ack.role != role) {
    std::fprintf(stderr, "wavecli: hub monitors role %s, wanted %s\n",
                 net::role_name(ack.role), o.qmode.c_str());
    return 4;
  }
  net::SubscribeRequest req;
  req.request_id = 1;
  req.role = role;
  req.n = n;
  if (!net::write_frame(sock, net::MsgType::kSubscribe, req.encode(), dl())) {
    std::fprintf(stderr, "wavecli: subscribe failed\n");
    return 4;
  }
  std::uint64_t got = 0;
  std::uint64_t last_seq = 0;
  for (;;) {
    // A watch is a stream: block in short ticks with no overall deadline
    // (SIGINT kills the process; --updates bounds it deterministically).
    if (!sock.wait_readable(
            net::deadline_in(std::chrono::milliseconds(100)))) {
      continue;
    }
    if (net::read_frame(sock, frame, dl()) != net::ReadStatus::kOk) {
      std::fprintf(stderr, "wavecli: hub connection lost\n");
      return 4;
    }
    if (frame.type == net::MsgType::kErr) {
      net::ErrReply err;
      std::fprintf(stderr, "wavecli: hub error: %s\n",
                   net::ErrReply::decode(frame.payload, err)
                       ? err.message.c_str()
                       : "(undecodable)");
      return 4;
    }
    net::EstimateUpdate up;
    if (frame.type != net::MsgType::kPushUpdate ||
        !net::EstimateUpdate::decode(frame.payload, up) ||
        up.seq != last_seq + 1) {
      std::fprintf(stderr, "wavecli: bad estimate update from hub\n");
      return 4;
    }
    last_seq = up.seq;
    // Same bytes print_result would emit for the same estimate — the watch
    // side of the push/poll parity check.
    if (up.status == 1) {
      std::printf("ok\t%.17g\n", up.value);
    } else if (up.status == 2) {
      std::printf("degraded\t%.17g\tmissing=%zu\tslack=%.17g\n", up.value,
                  static_cast<std::size_t>(up.missing), up.error_slack);
    } else {
      std::printf("failed\n");
    }
    std::fflush(stdout);
    ++got;
    if (o.updates > 0 && got >= o.updates) {
      net::Unsubscribe unsub;
      unsub.request_id = req.request_id;
      (void)net::write_frame(sock, net::MsgType::kUnsubscribe, unsub.encode(),
                             dl());
      return 0;
    }
  }
}

/// Reads uint64 lines; calls consume(v) per item and flush(items) at every
/// --every boundary and once at EOF.
template <class Consume, class Flush>
int pump(const Options& o, Consume&& consume, Flush&& flush) {
  char line[128];
  std::uint64_t count = 0;
  while (std::fgets(line, sizeof line, stdin) != nullptr) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(line, &end, 10);
    if (end == line) {
      std::fprintf(stderr,
                   "wavecli: malformed input line after %" PRIu64 " items\n",
                   count);
      return 3;
    }
    ++count;
    consume(v);
    if (count % o.every == 0) flush(count);
  }
  if (count % o.every != 0 && count > 0) flush(count);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
    // satellite: report which ingest kernel set this binary selected (and
    // what the CPU supports), so "is SIMD on?" is one command.
    std::printf("wavecli (waves) simd=%s detected=%s\n",
                waves::util::simd::name(waves::util::simd::active()),
                waves::util::simd::name(waves::util::simd::detected()));
    return 0;
  }
  const auto opts = parse(argc, argv);
  if (!opts) return usage();
  const Options& o = *opts;

  if (o.mode == "metrics") {
    return o.connect.empty() ? run_metrics(o) : run_metrics_remote(o);
  }
  if (o.mode == "top") return run_top(o);
  if (o.mode == "query") return run_query(o);
  if (o.mode == "hub") return run_hub(o);
  if (o.mode == "watch") return run_watch(o);
  if (o.mode == "fleet") return run_fleet(o);
  if (o.mode == "count") {
    waves::core::DetWave w(o.inv_eps, o.window);
    return pump(
        o, [&](std::uint64_t v) { w.update(v != 0); },
        [&](std::uint64_t n) {
          std::printf("%" PRIu64 "\t%.1f\n", n, w.query().value);
        });
  }
  if (o.mode == "sum") {
    waves::core::SumWave w(o.inv_eps, o.window, o.max_value);
    return pump(
        o,
        [&](std::uint64_t v) { w.update(v <= o.max_value ? v : o.max_value); },
        [&](std::uint64_t n) {
          std::printf("%" PRIu64 "\t%.1f\n", n, w.query().value);
        });
  }
  if (o.mode == "distinct") {
    waves::core::DistinctWave::Params p{
        .eps = 1.0 / static_cast<double>(o.inv_eps),
        .window = o.window,
        .max_value = o.max_value,
        .c = 36};
    const waves::gf2::Field field(
        waves::core::DistinctWave::field_dimension(p));
    waves::gf2::SharedRandomness coins(o.seed);
    waves::core::DistinctWave w(p, field, coins);
    return pump(
        o,
        [&](std::uint64_t v) { w.update(v <= o.max_value ? v : o.max_value); },
        [&](std::uint64_t n) {
          std::printf("%" PRIu64 "\t%.1f\n", n, w.estimate(o.window).value);
        });
  }
  if (o.mode == "nth-one") {
    waves::core::NthOneWave w(o.inv_eps, o.span);
    return pump(
        o, [&](std::uint64_t v) { w.update(v != 0); },
        [&](std::uint64_t n) {
          if (const auto ans = w.query(o.nth)) {
            std::printf("%" PRIu64 "\t%.1f\n", n, ans->position);
          } else {
            std::printf("%" PRIu64 "\t-\n", n);
          }
        });
  }
  return usage();
}
