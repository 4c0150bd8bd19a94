// perfbench_bin — runs one workload and writes its raw measurements as a
// single JSON document on stdout. Usage:
//
//   perfbench_bin --workload <ingest_union|query_union|serve_mixed>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// run.py builds this binary, runs it and summarizes the document; see
// perfbench/README.md. Exit code 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "util/simd.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

void write_samples(perfbench::JsonOut& out, const char* key,
                   const std::vector<double>& v) {
  out.begin_array(key);
  for (const double x : v) out.number(nullptr, x);
  out.end_array();
}

void write(const perfbench::Options& opt, const perfbench::Result& r,
           double rss_mb) {
  perfbench::JsonOut out(stdout);
  out.begin_object();
  out.string("workload", opt.workload);
  out.number("seed", static_cast<double>(opt.seed));
  out.number("trace", opt.trace ? 1 : 0);

  out.begin_object("provenance");
  out.number("nproc", std::thread::hardware_concurrency());
  for (const auto& [k, v] : perfbench::calibrate_parallel()) {
    out.number(k.c_str(), v);
  }
  namespace simd = waves::util::simd;
  out.string("simd_active", simd::name(simd::active()));
  out.string("simd_detected", simd::name(simd::detected()));
  out.string("build_type", PERFBENCH_BUILD_TYPE);
  out.number("waves_obs", WAVES_OBS_ENABLED);
  out.begin_object("rates");
  for (const auto& [k, v] : r.rates) out.number(k.c_str(), v);
  out.end_object();
  out.end_object();

  write_samples(out, "setup_s", r.setup_s);
  out.number("attempted", static_cast<double>(r.attempted));
  out.number("failed", static_cast<double>(r.failed));
  out.begin_array("failures");
  for (const auto& f : r.failures) out.string(nullptr, f);
  out.end_array();
  out.number("rss_peak_mb", rss_mb);

  write_samples(out, "op_ms", r.op_ms);
  write_samples(out, "ingest_late_ms", r.ingest_late_ms);
  out.number("ingest_items", r.ingest_items);
  out.number("ingest_busy_s", r.ingest_busy_s);
  out.number("op_count", r.op_count);
  out.number("op_seconds", r.op_seconds);

  write_samples(out, "traced_op_ms", r.traced_op_ms);
  out.begin_object("layer");
  for (const auto& [k, v] : r.layer) out.number(k.c_str(), v);
  out.end_object();
  out.begin_object("layer_samples");
  for (const auto& [k, v] : r.layer_samples) write_samples(out, k.c_str(), v);
  out.end_object();
  if (!r.push_json.empty()) out.raw("push", r.push_json);

  // Spans of every load thread, flattened: [name, parent, qid, start,
  // end] with parents re-based to indices into this one array.
  out.begin_array("spans");
  std::int64_t base = 0;
  for (const auto& log : r.span_logs) {
    for (const auto& s : log.spans()) {
      out.begin_array();
      out.string(nullptr, s.name);
      const std::int64_t parent = s.parent < 0 ? -1 : s.parent + base;
      out.number(nullptr, static_cast<double>(parent));
      out.number(nullptr, static_cast<double>(s.qid));
      out.number(nullptr, static_cast<double>(s.start_ns));
      out.number(nullptr, static_cast<double>(s.end_ns));
      out.end_array();
    }
    base += static_cast<std::int64_t>(log.spans().size());
  }
  out.end_array();
  out.end_object();
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_bin --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  perfbench::Result r;
  if (opt.workload == "ingest_union") {
    perfbench::run_ingest_union(opt, r);
  } else if (opt.workload == "query_union") {
    perfbench::run_query_union(opt, r);
  } else if (opt.workload == "serve_mixed") {
    perfbench::run_serve_mixed(opt, r);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  write(opt, r, perfbench::rss_peak_mb());
  return 0;
}
