#include "common.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/flight.hpp"
#include "stream/generators.hpp"

namespace perfbench {

void JsonOut::sep(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) std::fputc(',', f_);
    first_.back() = false;
  }
  if (key != nullptr) std::fprintf(f_, "\"%s\":", key);
}

void JsonOut::begin_object(const char* key) {
  sep(key);
  std::fputc('{', f_);
  first_.push_back(true);
}

void JsonOut::end_object() {
  first_.pop_back();
  std::fputc('}', f_);
}

void JsonOut::begin_array(const char* key) {
  sep(key);
  std::fputc('[', f_);
  first_.push_back(true);
}

void JsonOut::end_array() {
  first_.pop_back();
  std::fputc(']', f_);
}

void JsonOut::number(const char* key, double v) {
  sep(key);
  if (std::isfinite(v)) {
    std::fprintf(f_, "%.17g", v);
  } else {
    std::fputs("null", f_);
  }
}

void JsonOut::string(const char* key, const std::string& v) {
  sep(key);
  std::fputc('"', f_);
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f_);
      std::fputc(c, f_);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f_, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, f_);
    }
  }
  std::fputc('"', f_);
}

void JsonOut::raw(const char* key, const std::string& json) {
  sep(key);
  std::fputs(json.c_str(), f_);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  waves::gf2::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + tag);
  mix.next();
  return mix.next();
}

waves::util::PackedBitStream bernoulli_bits(double p, std::uint64_t seed,
                                            std::uint64_t items) {
  waves::stream::BernoulliBits gen(p, seed);
  return waves::stream::take_packed(gen, items);
}

double rss_peak_mb() {
  // VmHWM, not getrusage(): ru_maxrss survives execve, so it would include
  // the peak of the process that launched this binary.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

std::atomic<std::uint64_t> g_spin_sink{0};  // keeps the spin observable

std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double spin_wall_s(int threads, std::uint64_t iters) {
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([iters] {
        g_spin_sink.fetch_xor(spin(iters), std::memory_order_relaxed);
      });
    }
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::map<std::string, double> calibrate_parallel() {
  constexpr std::uint64_t kIters = 40'000'000;  // ~40 ms on one core
  const double t1 = spin_wall_s(1, kIters);
  std::map<std::string, double> out;
  out["spin_1thread_s"] = t1;
  for (const int k : {2, 4}) {
    out["parallel_eff_" + std::to_string(k)] = t1 / spin_wall_s(k, kIters);
  }
  return out;
}

std::vector<std::uint64_t> one_positions(
    const waves::util::PackedBitStream& bits, std::size_t limit) {
  std::vector<std::uint64_t> out;
  const auto words = bits.words();
  for (std::size_t w = 0; w < words.size() && out.size() < limit; ++w) {
    std::uint64_t x = words[w];
    while (x != 0 && out.size() < limit) {
      const int b = __builtin_ctzll(x);
      x &= x - 1;
      out.push_back(w * 64 + static_cast<std::uint64_t>(b) + 1);
    }
  }
  return out;
}

void record_fetches(SpanLog& log, std::uint64_t qid, std::int64_t parent,
                    std::int64_t start_ns, Result& r, double& slowest_ms,
                    double& bytes) {
  slowest_ms = 0.0;
  bytes = 0.0;
  const auto to_ns = [](double s) {
    return static_cast<std::int64_t>(s * 1e9);
  };
  for (const auto& rec : waves::obs::FlightRecorder::instance().recent()) {
    const std::int64_t fetch = log.add("net.fetch", qid, parent, start_ns,
                                       start_ns + to_ns(rec.total_s));
    // The recorder's phases are disjoint; lay them end to end.
    const std::pair<const char*, double> phases[] = {
        {"net.fetch.connect", rec.connect_s},
        {"net.fetch.send", rec.send_s},
        {"net.fetch.wait", rec.wait_s},
        {"net.fetch.decode", rec.decode_s},
        {"recovery.fetch_apply", rec.apply_s},
        {"net.fetch.backoff", rec.backoff_s}};
    std::int64_t at = start_ns;
    for (const auto& [name, s] : phases) {
      log.add(name, qid, fetch, at, at + to_ns(s));
      at += to_ns(s);
    }
    auto& ls = r.layer_samples;
    ls["net.fetch_connect_ms"].push_back(rec.connect_s * 1e3);
    ls["net.fetch_send_ms"].push_back(rec.send_s * 1e3);
    ls["net.fetch_wait_ms"].push_back(rec.wait_s * 1e3);
    ls["net.fetch_decode_ms"].push_back(rec.decode_s * 1e3);
    ls["recovery.fetch_apply_ms"].push_back(rec.apply_s * 1e3);
    ls["net.attempts_per_fetch"].push_back(rec.attempts);
    ls["recovery.delta_applied"].push_back(rec.delta_applied ? 1.0 : 0.0);
    ls["obs.allocs_per_fetch"].push_back(static_cast<double>(rec.allocs));
    slowest_ms = std::max(slowest_ms, rec.total_s * 1e3);
    bytes += static_cast<double>(rec.bytes);
  }
}

}  // namespace perfbench
