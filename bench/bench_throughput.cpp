// Experiment E12 (model plumbing): multi-party parallel ingestion
// throughput vs party/thread count, query cost vs t and eps, and raw
// single-structure update rates (google-benchmark). Experiment E15:
// per-bit observe() vs packed-word batch ingest (observe_words), across
// stream densities and batch sizes; E15c: the Sec. 4.1 level hash's cost
// per set bit, Field::mul oracle vs byte tables vs word-sliced levels.
// `--smoke` shrinks stream sizes for CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <thread>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/det_wave.hpp"
#include "core/rand_wave.hpp"
#include "distributed/ingest_driver.hpp"
#include "distributed/party.hpp"
#include "distributed/referee.hpp"
#include "gf2/shared_randomness.hpp"
#include "stream/generators.hpp"
#include "util/bitops.hpp"
#include "util/simd.hpp"

namespace {

using namespace waves;

void BM_DetWaveMixedStream(benchmark::State& state) {
  core::DetWave w(10, 1 << 16);
  stream::BernoulliBits gen(0.5, 3);
  std::vector<bool> bits = stream::take(gen, 1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    w.update(bits[i]);
    i = (i + 1) & ((1 << 16) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetWaveMixedStream);

void BM_RandWaveMixedStream(benchmark::State& state) {
  const gf2::Field f(
      util::floor_log2(util::next_pow2_at_least(2ull * (1 << 16))));
  gf2::SharedRandomness coins(5);
  core::RandWave w({.eps = 0.2, .window = 1 << 16, .c = 36}, f, coins);
  stream::BernoulliBits gen(0.5, 3);
  std::vector<bool> bits = stream::take(gen, 1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    w.update(bits[i]);
    i = (i + 1) & ((1 << 16) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandWaveMixedStream);

void sparse_fast_path_table() {
  bench::header(
      "E12c: sparse-stream fast path — skip_zeros(k) vs k unit updates");
  bench::row_line({"gap", "unit_us/event", "skip_us/event", "speedup"});
  const std::uint64_t window = 1 << 16;
  for (std::uint64_t gap : {16u, 256u, 4096u}) {
    const std::uint64_t events = 200000 / (gap / 16 + 1) + 1000;
    core::DetWave unit(10, window), fast(10, window);
    bench::Stopwatch sw;
    sw.start();
    for (std::uint64_t e = 0; e < events; ++e) {
      for (std::uint64_t i = 0; i < gap; ++i) unit.update(false);
      unit.update(true);
    }
    const double tu = sw.seconds() * 1e6 / static_cast<double>(events);
    sw.start();
    for (std::uint64_t e = 0; e < events; ++e) {
      fast.skip_zeros(gap);
      fast.update(true);
    }
    const double tf = sw.seconds() * 1e6 / static_cast<double>(events);
    bench::row_line({bench::fmt_u(gap), bench::fmt(tu, 3), bench::fmt(tf, 3),
                     bench::fmt(tu / tf, 1)});
    bench::JsonLine("e12c_sparse_fast_path")
        .field("gap", gap)
        .field("unit_us_per_event", tu)
        .field("skip_us_per_event", tf)
        .field("speedup", tu / tf)
        .emit();
  }
  std::printf(
      "Expected shape: unit cost grows linearly with the gap; skip_zeros "
      "stays flat\n(cost ~ one expiry check per expired entry).\n");
}

void parallel_ingest_table(bool smoke) {
  bench::header(
      "E12a: parallel ingestion throughput (1 thread per party, randomized "
      "waves x5 instances)");
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  bench::row_line({"parties", "items_total", "seconds", "Mitems/s"});
  const std::uint64_t window = 1 << 14;
  const std::size_t per_party = smoke ? 50000 : 400000;
  for (int t : {1, 2, 4, 8}) {
    std::vector<std::unique_ptr<distributed::CountParty>> owners;
    std::vector<distributed::CountParty*> ps;
    for (int j = 0; j < t; ++j) {
      owners.push_back(std::make_unique<distributed::CountParty>(
          core::RandWave::Params{.eps = 0.3, .window = window, .c = 36}, 5,
          7));
      ps.push_back(owners.back().get());
    }
    std::vector<util::PackedBitStream> streams;
    for (int j = 0; j < t; ++j) {
      stream::BernoulliBits gen(0.3, static_cast<std::uint64_t>(j) + 1);
      streams.push_back(stream::take_packed(gen, per_party));
    }
    const auto r = distributed::parallel_feed(ps, streams);
    bench::row_line({std::to_string(t), bench::fmt_u(r.items),
                     bench::fmt(r.seconds, 3),
                     bench::fmt(r.items_per_sec() / 1e6, 2)});
    bench::JsonLine("e12a_parallel_ingest")
        .field("parties", static_cast<std::uint64_t>(t))
        .field("items_total", r.items)
        .field("seconds", r.seconds)
        .field("mitems_per_sec", r.items_per_sec() / 1e6)
        .field("rate_skew", r.rate_skew())
        .emit();
  }
  std::printf(
      "Expected shape: aggregate throughput scales with parties until the "
      "available\ncores saturate, then plateaus (parties share nothing "
      "during ingestion — the\nmodel's point; on a single-core host the "
      "plateau is immediate).\n");
}

void query_cost_table() {
  bench::header("E12b: query latency and message bytes vs t (5 instances)");
  bench::row_line({"t", "query_ms", "bytes", "paper_bits"});
  const std::uint64_t window = 1 << 14;
  for (int t : {1, 2, 4, 8, 16}) {
    std::vector<std::unique_ptr<distributed::CountParty>> owners;
    std::vector<const distributed::CountParty*> ps;
    for (int j = 0; j < t; ++j) {
      owners.push_back(std::make_unique<distributed::CountParty>(
          core::RandWave::Params{.eps = 0.2, .window = window, .c = 36}, 5,
          7));
      ps.push_back(owners.back().get());
    }
    stream::BernoulliBits gen(0.4, 3);
    for (std::uint64_t i = 0; i < 2 * window; ++i) {
      const bool b = gen.next();
      for (auto& o : owners) o->observe(b);
    }
    distributed::WireStats stats;
    bench::Stopwatch sw;
    sw.start();
    const int reps = 20;
    for (int r = 0; r < reps; ++r) {
      distributed::WireStats qs;
      benchmark::DoNotOptimize(
          distributed::union_count(ps, window, &qs).value);
      stats = qs;
    }
    const double ms = sw.seconds() * 1e3 / reps;
    bench::row_line({std::to_string(t), bench::fmt(ms, 3),
                     bench::fmt_u(stats.bytes),
                     bench::fmt(stats.paper_bits, 0)});
    bench::JsonLine("e12b_query_cost")
        .field("parties", static_cast<std::uint64_t>(t))
        .field("query_ms", ms)
        .field("bytes", stats.bytes)
        .field("paper_bits", stats.paper_bits)
        .emit();
  }
  std::printf(
      "Expected shape: bytes and latency linear in t (Theorem 5's query "
      "cost O(t log(1/delta)(loglog N + 1/eps^2))).\n");
}

void batched_ingest_table(bool smoke) {
  bench::header(
      "E15: batched ingest — per-bit observe() vs packed observe_words() "
      "(1 party, randomized waves x5 instances)");
  bench::row_line({"density", "batch_bits", "per_bit_Mi/s", "batched_Mi/s",
                   "speedup"});
  const std::uint64_t window = 1 << 14;
  const std::uint64_t total = smoke ? (1u << 18) : (1u << 22);
  const core::RandWave::Params params{.eps = 0.3, .window = window, .c = 36};
  for (double density : {0.01, 0.1, 0.5}) {
    stream::BernoulliBits gen(density, 42);
    const util::PackedBitStream packed =
        stream::take_packed(gen, static_cast<std::size_t>(total));
    const std::vector<bool> bools = packed.to_bools();

    distributed::CountParty ref(params, 5, 7);
    bench::Stopwatch sw;
    sw.start();
    for (const bool b : bools) ref.observe(b);
    const double per_bit =
        static_cast<double>(total) / sw.seconds() / 1e6;

    for (std::uint64_t batch_bits : {64u, 4096u, 65536u}) {
      distributed::CountParty p(params, 5, 7);
      const auto words = packed.words();
      sw.start();
      for (std::uint64_t off = 0; off < total; off += batch_bits) {
        const std::uint64_t nbits = std::min(batch_bits, total - off);
        p.observe_words(words.subspan(off / 64, (nbits + 63) / 64), nbits);
      }
      const double batched =
          static_cast<double>(total) / sw.seconds() / 1e6;
      bench::row_line({bench::fmt(density, 2), bench::fmt_u(batch_bits),
                       bench::fmt(per_bit, 2), bench::fmt(batched, 2),
                       bench::fmt(batched / per_bit, 2)});
      bench::JsonLine("e15_batched_ingest")
          .field("density", density)
          .field("batch_bits", batch_bits)
          .field("per_bit_mitems_per_sec", per_bit)
          .field("batched_mitems_per_sec", batched)
          .field("speedup", batched / per_bit)
          .emit();
    }
  }
  std::printf(
      "Expected shape: speedup grows with batch size (lock + obs flush "
      "amortized)\nand falls with density (the batch path pays per set "
      "bit; zero words cost one\npopcount). Both paths are bit-exact "
      "equivalent (tests/batch_ingest_test).\n");

  // E15b: the same batched path, forced scalar kernels vs the detected
  // vector set. The dispatch layer guarantees bit-exactness, so the only
  // difference is time; parity confirms it by comparing a window query.
  bench::header("E15b: batched ingest, scalar vs detected SIMD kernel set");
  bench::row_line({"density", "scalar_Mi/s", "simd_Mi/s", "simd_speedup",
                   "parity"});
  const std::uint64_t batch_bits = 65536;
  for (double density : {0.01, 0.1, 0.5}) {
    stream::BernoulliBits gen(density, 43);
    const util::PackedBitStream packed =
        stream::take_packed(gen, static_cast<std::size_t>(total));
    const auto words = packed.words();
    double rate[2] = {0, 0};
    double answers[2] = {0, 0};
    const util::simd::KernelSet sets[2] = {util::simd::KernelSet::kScalar,
                                           util::simd::detected()};
    for (int s = 0; s < 2; ++s) {
      util::simd::force(sets[s]);
      distributed::CountParty p(params, 5, 7);
      bench::Stopwatch sw;
      sw.start();
      for (std::uint64_t off = 0; off < total; off += batch_bits) {
        const std::uint64_t nbits = std::min(batch_bits, total - off);
        p.observe_words(words.subspan(off / 64, (nbits + 63) / 64), nbits);
      }
      rate[s] = static_cast<double>(total) / sw.seconds() / 1e6;
      const distributed::CountParty* one[] = {&p};
      answers[s] = distributed::union_count({one, 1}, window).value;
    }
    util::simd::force(util::simd::detected());
    const bool parity = answers[0] == answers[1];
    bench::row_line({bench::fmt(density, 2), bench::fmt(rate[0], 1),
                     bench::fmt(rate[1], 1),
                     bench::fmt(rate[1] / rate[0], 2), parity ? "1" : "0"});
    bench::JsonLine("e15_simd_ingest")
        .field("density", density)
        .field("scalar_mitems_per_sec", rate[0])
        .field("simd_mitems_per_sec", rate[1])
        .field("simd_speedup", rate[1] / rate[0])
        .field("parity", std::uint64_t{parity})
        .field("simd_set", util::simd::name(util::simd::detected()))
        .emit();
  }
}

// h(p) by its definition: x = q*p + r through Field::mul (the oracle the
// byte tables are tested against), then the leading-zero level.
int oracle_level(const gf2::Field& f, const gf2::ExpHash& h, std::uint64_t p) {
  const std::uint64_t x = f.add(f.mul(h.q(), p & f.order_mask()), h.r());
  return x == 0 ? f.dimension() : f.dimension() - util::msb_index(x) - 1;
}

void hash_cost_table(bool smoke) {
  bench::header(
      "E15c: level hash cost per set bit — Field::mul oracle vs byte "
      "tables (ExpHash::level) vs word-sliced (ExpHash::for_each_level)");
  bench::row_line({"d", "oracle_ns", "table_ns", "sliced_ns", "table_KiB",
                   "parity"});
  // Density-0.5 words at positions 1 + 64w, as RandWave::update_words
  // sees them from a word-aligned stream.
  const std::size_t nbits = smoke ? (1u << 16) : (1u << 20);
  stream::BernoulliBits gen(0.5, 44);
  const util::PackedBitStream packed = stream::take_packed(gen, nbits);
  const auto words = packed.words();
  const auto ones = static_cast<double>(packed.ones());
  // Runs `levels(first, word, sink)` over every word; ns per set bit.
  const auto time_path = [&](auto&& levels) {
    std::uint64_t sink = 0;
    bench::Stopwatch sw;
    sw.start();
    for (std::size_t w = 0; w < words.size(); ++w) {
      levels(1 + 64 * static_cast<std::uint64_t>(w), words[w], sink);
    }
    const double ns = sw.seconds() * 1e9 / ones;
    benchmark::DoNotOptimize(sink);
    return ns;
  };
  for (const int d : {15, 21, 33, 64}) {
    const gf2::Field f(d);
    gf2::SharedRandomness coins(static_cast<std::uint64_t>(d));
    const gf2::ExpHash h = coins.draw_hash(f);
    // Parity: 2^16 consecutive positions from an arbitrary start, all three
    // paths against each other.
    const std::uint64_t start = coins.draw_word();
    bool parity = true;
    for (std::uint64_t w = 0; w < (1u << 16) / 64; ++w) {
      const std::uint64_t first = start + 64 * w;
      h.for_each_level(first, ~std::uint64_t{0}, [&](int b, int level) {
        const std::uint64_t p = first + static_cast<std::uint64_t>(b);
        const int want = oracle_level(f, h, p);
        parity = parity && level == want && h.level(p) == want;
      });
    }
    const auto per_bit = [](auto&& level_of) {
      return [level_of](std::uint64_t first, std::uint64_t word,
                        std::uint64_t& sink) {
        while (word != 0) {
          const int b = util::lsb_index(word);
          word &= word - 1;
          sink += static_cast<std::uint64_t>(
              level_of(first + static_cast<std::uint64_t>(b)));
        }
      };
    };
    const double oracle_ns = time_path(
        per_bit([&f, &h](std::uint64_t p) { return oracle_level(f, h, p); }));
    const double table_ns =
        time_path(per_bit([&h](std::uint64_t p) { return h.level(p); }));
    const double sliced_ns = time_path(
        [&h](std::uint64_t first, std::uint64_t word, std::uint64_t& sink) {
          h.for_each_level(first, word, [&sink](int, int level) {
            sink += static_cast<std::uint64_t>(level);
          });
        });
    const double kib = static_cast<double>(h.table_bytes()) / 1024.0;
    bench::row_line({bench::fmt_u(static_cast<std::uint64_t>(d)),
                     bench::fmt(oracle_ns, 1), bench::fmt(table_ns, 2),
                     bench::fmt(sliced_ns, 2), bench::fmt(kib, 0),
                     parity ? "1" : "0"});
    bench::JsonLine("e15c_hash_cost")
        .field("d", static_cast<std::uint64_t>(d))
        .field("oracle_ns_per_bit", oracle_ns)
        .field("table_ns_per_bit", table_ns)
        .field("sliced_ns_per_bit", sliced_ns)
        .field("table_bytes", static_cast<std::uint64_t>(h.table_bytes()))
        .field("parity", std::uint64_t{parity})
        .emit();
  }
  std::printf(
      "Expected shape: the oracle grows with d (bit-serial multiply and "
      "reduction);\nthe table path costs ceil(d/8) lookups per bit and the "
      "word-sliced path one\nlookup per bit plus two table products per "
      "word. parity = 1: all three agree\non 2^16 consecutive positions.\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before benchmark::Initialize — it rejects unknown flags.
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sparse_fast_path_table();
  parallel_ingest_table(smoke);
  query_cost_table();
  batched_ingest_table(smoke);
  hash_cost_table(smoke);
  return 0;
}
