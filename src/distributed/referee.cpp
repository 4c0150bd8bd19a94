#include "distributed/referee.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>
#include <utility>
#include <vector>

#include "core/median_estimator.hpp"
#include "distributed/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace waves::distributed {

namespace {

// Per-protocol/transport instruments. The span tracer keeps the per-round
// story (parties contacted, messages, encoded bytes, decode failures,
// latency); these aggregate across rounds. Registration is a mutexed name
// lookup — fine on the cold query path.
struct RoundMetrics {
  const obs::Counter& rounds;
  const obs::Counter& messages;
  const obs::Histogram& bytes_h;
  const obs::Histogram& seconds_h;
  // Worker-threads used by the parallel combine, summed over rounds;
  // divided by rounds_total it reads as average combine parallelism.
  const obs::Counter& combine_workers;

  static RoundMetrics make(const std::string& labels) {
    obs::Registry& reg = obs::Registry::instance();
    return RoundMetrics{
        reg.counter("waves_referee_rounds_total", labels),
        reg.counter("waves_referee_messages_total", labels),
        reg.histogram("waves_referee_round_bytes", labels,
                      obs::bytes_buckets()),
        reg.histogram("waves_referee_round_seconds", labels,
                      obs::latency_buckets()),
        reg.counter("waves_referee_combine_workers_total", labels)};
  }
};

void finish_round(const RoundMetrics& m, obs::Span& span, std::size_t parties,
                  const CollectStats& info) {
  span.set("parties", static_cast<double>(parties));
  span.set("messages", static_cast<double>(info.messages));
  span.set("bytes", static_cast<double>(info.bytes));
  span.set("decode_failures", static_cast<double>(info.decode_failures));
  const double dt = span.end();
  m.rounds.add();
  m.messages.add(info.messages);
  m.bytes_h.observe(static_cast<double>(info.bytes));
  m.seconds_h.observe(dt);
}

// Span names stay what they were before the SnapshotSource refactor:
// referee.union_count / referee.union_count_wire / ...; tcp rounds get
// their own _tcp suffix.
std::string span_suffix(const char* transport) {
  return std::string(transport) == "direct" ? std::string{}
                                            : "_" + std::string(transport);
}

std::string quorum_error(const char* protocol,
                         const std::vector<std::size_t>& missing) {
  std::string msg = std::string(protocol) +
                    " fails closed under partial quorum; missing parties:";
  for (std::size_t j : missing) msg += " " + std::to_string(j);
  return msg;
}

// Worker count for the parallel combine: instances are independent, so up
// to 4 threads split them. Below 4 instances the spawn cost outweighs the
// work and the loop runs inline.
int combine_workers(int m) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int cap = static_cast<int>(std::max(1u, hw));
  return std::min({4, m >= 4 ? m : 1, cap});
}

// Fig. 6 steps 2-3 / Sec. 5 levelwise union, per instance, then the
// median over instances — identical for every transport. Instances touch
// disjoint per_instance slots and only read by_party and the (stateless,
// const) combine inputs, so they parallelize over a small worker pool; slot
// i always holds instance i's value, keeping the median deterministic
// regardless of scheduling.
template <class Snapshot, class Combine>
core::Estimate combine_median(
    const std::vector<std::vector<Snapshot>>& by_party, int m,
    std::uint64_t n, int workers, Combine&& combine) {
  std::vector<double> per_instance(static_cast<std::size_t>(m), 0.0);
  auto run = [&](std::vector<Snapshot>& inst, int i) {
    for (std::size_t j = 0; j < by_party.size(); ++j) {
      inst[j] = by_party[j][static_cast<std::size_t>(i)];
    }
    per_instance[static_cast<std::size_t>(i)] = combine(inst, i);
  };
  if (workers <= 1) {
    std::vector<Snapshot> inst(by_party.size());
    for (int i = 0; i < m; ++i) run(inst, i);
  } else {
    std::atomic<int> next{0};
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        std::vector<Snapshot> inst(by_party.size());
        for (int i = next.fetch_add(1, std::memory_order_relaxed); i < m;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          run(inst, i);
        }
      });
    }
    pool.clear();  // join
  }
  return core::Estimate{core::median(std::move(per_instance)), false, n};
}

// The paper's bit count for one party's snapshot message (Sec. 3.4, 5).
double paper_bits_of(const core::RandWaveSnapshot& s, const CountParty& p) {
  return paper_bits(s, p.instance(0).top_level());
}
double paper_bits_of(const core::DistinctSnapshot& s, const DistinctParty& p) {
  const int top = p.instance(0).top_level();
  return paper_bits(s, top, top);
}

}  // namespace

template <class Party>
InProcessSource<Party>::InProcessSource(std::span<const Party* const> parties,
                                        bool via_wire)
    : parties_(parties), via_wire_(via_wire) {
  assert(!parties_.empty());
  for (const Party* p : parties_) {
    assert(p->instances() == parties_.front()->instances());
    (void)p;
  }
}

template <class Party>
std::size_t InProcessSource<Party>::party_count() const {
  return parties_.size();
}

template <class Party>
int InProcessSource<Party>::instances() const {
  return parties_.front()->instances();
}

template <class Party>
const gf2::ExpHash& InProcessSource<Party>::hash(int instance) const {
  return parties_.front()->instance(instance).hash();
}

template <class Party>
const char* InProcessSource<Party>::transport() const {
  return via_wire_ ? "wire" : "direct";
}

template <class Party>
std::vector<std::vector<typename Party::Snapshot>>
InProcessSource<Party>::collect(std::uint64_t n, std::vector<std::size_t>&,
                                WireStats* stats, CollectStats& info) {
  std::vector<std::vector<Snapshot>> by_party;
  by_party.reserve(parties_.size());
  for (const Party* p : parties_) {
    auto snaps = p->snapshots(n);
    if (!via_wire_) {
      for (const auto& s : snaps) {
        ++info.messages;
        const std::uint64_t b = wire_bytes(s);
        info.bytes += b;
        if (stats != nullptr) stats->add(b, paper_bits_of(s, *p));
      }
      by_party.push_back(std::move(snaps));
    } else {
      std::vector<Snapshot> decoded(snaps.size());
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        const Bytes enc = encode(snaps[i]);
        ++info.messages;
        info.bytes += enc.size();
        if (stats != nullptr) {
          stats->add(enc.size(), static_cast<double>(enc.size()) * 8.0);
        }
        const bool ok = decode(enc, decoded[i]);
        if (!ok) ++info.decode_failures;
        assert(ok && "wire round-trip must succeed");
      }
      by_party.push_back(std::move(decoded));
    }
  }
  return by_party;
}

template class InProcessSource<CountParty>;
template class InProcessSource<DistinctParty>;

QueryResult union_count(CountSnapshotSource& source, std::uint64_t n,
                        WireStats* stats) {
  const RoundMetrics metrics = RoundMetrics::make(
      "protocol=\"union\",transport=\"" + std::string(source.transport()) +
      "\"");
  // The round span roots the query's trace (or joins an enclosing one);
  // the ambient scope lets the transport's fan-out — and, over TCP, the
  // parties' server-side spans — stitch under it.
  auto span = obs::Tracer::instance().start_auto("referee.union_count" +
                                                 span_suffix(source.transport()));
  const obs::TraceScope trace_scope(span.context());
  QueryResult r;
  if (source.party_count() == 0) {
    r.error = "union counting: no parties configured";
    return r;
  }
  CollectStats info;
  auto by_party = source.collect(n, r.missing, stats, info);
  span.set("missing", static_cast<double>(r.missing.size()));
  if (!r.missing.empty()) {
    finish_round(metrics, span, source.party_count(), info);
    r.error = quorum_error("union counting", r.missing);
    r.estimate = core::Estimate{0.0, false, n};
    return r;
  }
  const int workers = combine_workers(source.instances());
  r.estimate = combine_median(
      by_party, source.instances(), n, workers,
      [&](std::span<const core::RandWaveSnapshot> inst, int i) {
        return core::referee_union_count(inst, n, source.hash(i)).value;
      });
  span.set("combine_workers", static_cast<double>(workers));
  metrics.combine_workers.add(static_cast<std::uint64_t>(workers));
  r.status = QueryStatus::kOk;
  finish_round(metrics, span, source.party_count(), info);
  return r;
}

QueryResult distinct_count(DistinctSnapshotSource& source, std::uint64_t n,
                           WireStats* stats,
                           const std::function<bool(std::uint64_t)>& predicate) {
  const RoundMetrics metrics = RoundMetrics::make(
      "protocol=\"distinct\",transport=\"" + std::string(source.transport()) +
      "\"");
  auto span = obs::Tracer::instance().start_auto(
      "referee.distinct_count" + span_suffix(source.transport()));
  const obs::TraceScope trace_scope(span.context());
  QueryResult r;
  if (source.party_count() == 0) {
    r.error = "distinct values: no parties configured";
    return r;
  }
  CollectStats info;
  auto by_party = source.collect(n, r.missing, stats, info);
  span.set("missing", static_cast<double>(r.missing.size()));
  if (!r.missing.empty()) {
    finish_round(metrics, span, source.party_count(), info);
    r.error = quorum_error("distinct values", r.missing);
    r.estimate = core::Estimate{0.0, false, n};
    return r;
  }
  const int workers = combine_workers(source.instances());
  r.estimate = combine_median(
      by_party, source.instances(), n, workers,
      [&](std::span<const core::DistinctSnapshot> inst, int i) {
        return core::referee_distinct_count(inst, n, source.hash(i),
                                            predicate)
            .value;
      });
  span.set("combine_workers", static_cast<double>(workers));
  metrics.combine_workers.add(static_cast<std::uint64_t>(workers));
  r.status = QueryStatus::kOk;
  finish_round(metrics, span, source.party_count(), info);
  return r;
}

core::Estimate union_count(std::span<const CountParty* const> parties,
                           std::uint64_t n, WireStats* stats) {
  InProcessCountSource source(parties, /*via_wire=*/false);
  return union_count(source, n, stats).estimate;
}

core::Estimate distinct_count(
    std::span<const DistinctParty* const> parties, std::uint64_t n,
    WireStats* stats, const std::function<bool(std::uint64_t)>& predicate) {
  InProcessDistinctSource source(parties, /*via_wire=*/false);
  return distinct_count(source, n, stats, predicate).estimate;
}

core::Estimate union_count_wire(std::span<const CountParty* const> parties,
                                std::uint64_t n, WireStats* stats) {
  InProcessCountSource source(parties, /*via_wire=*/true);
  return union_count(source, n, stats).estimate;
}

core::Estimate distinct_count_wire(
    std::span<const DistinctParty* const> parties, std::uint64_t n,
    WireStats* stats, const std::function<bool(std::uint64_t)>& predicate) {
  InProcessDistinctSource source(parties, /*via_wire=*/true);
  return distinct_count(source, n, stats, predicate).estimate;
}

}  // namespace waves::distributed
