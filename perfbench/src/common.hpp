// Shared plumbing of the perfbench binary: options, the per-run result
// record, the span recorder, input generation and provenance probes.
//
// The binary measures; it does not summarize. Every workload fills a
// Result with raw samples (per-operation latencies, per-fetch phases,
// spans), and main.cpp writes that record as one JSON document on stdout.
// run.py turns it into medians, tail percentiles and the final result line,
// so all statistics live in one place (perfbench/stats.py) with its own
// self-tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/packed_bits.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// One recorded span. `parent` indexes the same SpanLog (-1 for a root);
// `qid` ties the spans of one operation (query or ingest chunk) together.
struct Span {
  const char* name = "";  // string literal, never freed
  std::int64_t parent = -1;
  std::uint64_t qid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Per-thread, in-memory span recorder. Disabled logs cost one branch per
// call, so the traced and untraced phases run the same code.
class SpanLog {
 public:
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }

  std::int64_t open(const char* name, std::uint64_t qid,
                    std::int64_t parent = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, qid, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  // A span whose interval was measured elsewhere (flight-recorder phases).
  std::int64_t add(const char* name, std::uint64_t qid, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, qid, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t qid,
             std::int64_t parent = -1)
      : log_(log), id_(log.open(name, qid, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int64_t id_;
};

// Everything one run measured. Samples are raw; run.py summarizes them.
struct Result {
  std::vector<double> setup_s;  // one per repeated set-up

  std::uint64_t attempted = 0;  // correctness-checked operations
  std::uint64_t failed = 0;     // failed, refused or wrong answers
  std::vector<std::string> failures;  // first few causes

  // End-to-end inputs, from the untraced phase.
  std::vector<double> op_ms;           // the workload's unit operation
  std::vector<double> ingest_late_ms;  // ingest completion behind its due time
  double ingest_items = 0.0;           // items passed to observe calls
  double ingest_busy_s = 0.0;          // time spent inside those calls
  double op_count = 0.0;
  double op_seconds = 0.0;  // denominator of the operation rate

  // Traced phase.
  std::vector<double> traced_op_ms;
  std::map<std::string, double> layer;  // scalar per-layer values
  std::map<std::string, std::vector<double>> layer_samples;
  std::vector<SpanLog> span_logs;
  std::map<std::string, double> rates;  // chosen rates and sizes
  std::string push_json;                // serve_mixed push-lag raw data

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 10) failures.push_back(why);
  }
};

// Minimal streaming JSON writer (objects, arrays, numbers, strings).
class JsonOut {
 public:
  explicit JsonOut(std::FILE* f) : f_(f) {}
  void begin_object(const char* key = nullptr);
  void end_object();
  void begin_array(const char* key = nullptr);
  void end_array();
  void number(const char* key, double v);
  void string(const char* key, const std::string& v);
  void raw(const char* key, const std::string& json);  // pre-encoded value

 private:
  void sep(const char* key);
  std::FILE* f_;
  std::vector<bool> first_;
};

// Independent sub-seed for input stream `tag` of run seed `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t tag);

// `items` Bernoulli(p) bits from the src/stream generator, packed.
[[nodiscard]] waves::util::PackedBitStream bernoulli_bits(
    double p, std::uint64_t seed, std::uint64_t items);

// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double rss_peak_mb();

// Parallel efficiency of a fixed integer spin on k = 1, 2, 4 threads:
// single-thread time / k-thread wall time (1.0 = perfect scaling).
[[nodiscard]] std::map<std::string, double> calibrate_parallel();

// Positions (1-based stream positions) of the first `limit` set bits.
[[nodiscard]] std::vector<std::uint64_t> one_positions(
    const waves::util::PackedBitStream& bits, std::size_t limit);

// Bare-wave costs over the workload's own bits, for traced runs: one
// ExpHash::level call (gf2.level_ns), RandWave::update_words per item at
// window `rand_window` and DetWave::update_words per item at `det_window`,
// each after a full window of warm-up so expiry runs. `bits` is cycled.
void measure_core_layers(Result& r, const waves::util::PackedBitStream& bits,
                         std::uint64_t rand_window, std::uint64_t det_window,
                         std::uint64_t shared_seed);

// Drains the flight recorder after a traced query: one `net.fetch` span per
// party fetch under `parent` (each starting at `start_ns`, since the fan-out
// is parallel) with its phases as child spans, plus per-fetch layer
// samples. Returns the slowest fetch and the reply bytes of the query.
void record_fetches(SpanLog& log, std::uint64_t qid, std::int64_t parent,
                    std::int64_t start_ns, Result& r, double& slowest_ms,
                    double& bytes);

// The workloads (one file each). Each fills `r` and never throws for a
// wrong answer: failures are counted in r.failed.
void run_ingest_union(const Options& opt, Result& r);
void run_query_union(const Options& opt, Result& r);
void run_serve_mixed(const Options& opt, Result& r);

}  // namespace perfbench
