#!/usr/bin/env python3
"""perfbench — the libwaves end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build, runs one workload in the benchmark binary,
checks its answers, prints a human-readable report, and prints as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits 1 when the build fails or any answer is wrong. See README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True  # write nothing outside the build tree

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
DEFAULT_SEED = 1
HOLDOUT_SEED = 20021  # reserved for confirming gain claims; never tune on it

# The figures end_to_end() makes that BENCHMARK.json may bound.
END_TO_END_NAMES = ("setup_s", "ingest_mitems_s", "op_p50_ms", "rss_peak_mb")

# Figures printed beside the end-to-end metrics but not bounded (see
# README.md, "Why the tails are not bounded"): name -> unit. The bounded
# metrics, their units and directions are read from BENCHMARK.json.
REPORTED = {
    "op_tail_ms": "ms",
    "op_rate_per_s": "1/s",
    "ingest_late_p50_ms": "ms",
    "ingest_late_tail_ms": "ms",
}

# How each per-layer metric of BENCHMARK.json is made from the binary's raw
# data. ("layer", key): scalar measured in the binary; ("median"|"mean"|
# "max"|"tail", key): statistic over the binary's per-operation samples.
PER_LAYER_RULES = {
    "gf2.level_ns": ("layer", "gf2.level_ns"),
    "gf2.level_calls_per_query": ("median", "gf2.level_calls_per_query"),
    "core.randwave_update_ns_per_item": (
        "layer", "core.randwave_update_ns_per_item"),
    "core.referee_union_count_ms": ("median", "core.referee_union_count_ms"),
    "core.detwave_observe_ns_per_item": (
        "layer", "core.detwave_observe_ns_per_item"),
    "core.space_bits_per_party": ("layer", "core.space_bits_per_party"),
    "distributed.observe_words_ns_per_item": (
        "median", "distributed.observe_words_ns_per_item"),
    "distributed.observe_p99_us": ("tail", "distributed.observe_us"),
    "distributed.union_count_ms": ("median", "distributed.union_count_ms"),
    "distributed.combine_ms": ("median", "distributed.combine_ms"),
    "distributed.wire_bytes_per_query": (
        "median", "distributed.wire_bytes_per_query"),
    "net.collect_ms": ("median", "net.collect_ms"),
    "net.fetch_connect_ms": ("median", "net.fetch_connect_ms"),
    "net.fetch_send_ms": ("median", "net.fetch_send_ms"),
    "net.fetch_wait_ms": ("median", "net.fetch_wait_ms"),
    "net.fetch_decode_ms": ("median", "net.fetch_decode_ms"),
    "net.attempts_per_fetch": ("mean", "net.attempts_per_fetch"),
    "recovery.fetch_apply_ms": ("median", "recovery.fetch_apply_ms"),
    "recovery.delta_applied_ratio": ("mean", "recovery.delta_applied"),
    "obs.allocs_per_query": ("median", "obs.allocs_per_query"),
    "obs.allocs_per_fetch": ("median", "obs.allocs_per_fetch"),
    "monitor.push_lag_p50_ms": ("push", "p50"),
    "monitor.push_lag_p99_ms": ("push", "tail"),
    "monitor.staleness_items_max": ("max", "monitor.staleness_items"),
    "monitor.staleness_budget_items": (
        "layer", "monitor.staleness_budget_items"),
    "trace.op_p50_ms": ("traced_op", "p50"),
    "trace.residual_ms": ("residual", None),
    "trace.overhead_pct": ("overhead", None),
}

# Workload-specific names of the shared figures.
ALIASES = {
    "ingest_union": {"op_p50_ms": "chunk_p50_ms",
                     "op_tail_ms": "chunk_p99_ms",
                     "op_rate_per_s": "chunks_per_s"},
    "query_union": {"op_p50_ms": "query_p50_ms",
                    "op_tail_ms": "query_p99_ms",
                    "op_rate_per_s": "query_qps"},
    "serve_mixed": {"op_p50_ms": "query_p50_ms",
                    "op_tail_ms": "query_p99_ms",
                    "ingest_late_tail_ms": "ingest_late_p99_ms"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark binary; returns its path or None."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        log("perfbench: library sources (src/) not found next to perfbench/")
        return None
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tag = hashlib.sha1(str(HERE).encode()).hexdigest()[:10]
    build_dir = (root / f"perfbench-{tag}").resolve()
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_bin", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return build_dir / "perfbench_bin"


def provenance_extras():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=10,
                             check=False).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for top in (REPO / "src", HERE / "src"):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "default_seed": DEFAULT_SEED, "holdout_seed": HOLDOUT_SEED}


def end_to_end(raw):
    """Every end-to-end figure, bounded or only reported:
    {name: (value, detail)}."""
    out = {}
    setups = raw["setup_s"]
    out["setup_s"] = (stats.median(setups), f"median of {len(setups)} set-ups")
    out["ingest_mitems_s"] = (
        raw["ingest_items"] / raw["ingest_busy_s"] / 1e6,
        f"{raw['ingest_items']:.0f} items in {raw['ingest_busy_s']:.3f} s")
    ops = raw["op_ms"]
    out["op_p50_ms"] = (stats.median(ops), f"median of {len(ops)} samples")
    out["rss_peak_mb"] = (raw["rss_peak_mb"], "VmHWM")
    q, v, n = stats.tail(ops)
    out["op_tail_ms"] = (v, f"p{q * 100:.1f} of {n} samples")
    out["op_rate_per_s"] = (
        raw["op_count"] / raw["op_seconds"],
        f"{raw['op_count']:.0f} operations in {raw['op_seconds']:.3f} s")
    late = raw["ingest_late_ms"]
    out["ingest_late_p50_ms"] = (stats.median(late),
                                 f"median of {len(late)} samples")
    q, v, n = stats.tail(late)
    out["ingest_late_tail_ms"] = (v, f"p{q * 100:.1f} of {n} samples")
    return out


def per_layer(raw, names):
    """The per-layer metrics `names`: {name: (value, detail)}. A layer the
    workload does not exercise reads 0 ("not on this path")."""
    layer = raw["layer"]
    samples = raw["layer_samples"]
    push = None
    if "push" in raw:
        push = stats.push_lags(raw["push"])
    traced = raw["traced_op_ms"]
    values = {}
    for name in names:
        kind, key = PER_LAYER_RULES[name]
        value, detail = 0.0, "not on this path"
        if kind == "layer" and key in layer:
            value, detail = layer[key], "measured once"
        elif kind in ("median", "mean", "max", "tail") and samples.get(key):
            xs = samples[key]
            if kind == "median":
                value, detail = stats.median(xs), f"median of {len(xs)}"
            elif kind == "mean":
                value, detail = sum(xs) / len(xs), f"mean of {len(xs)}"
            elif kind == "max":
                value, detail = max(xs), f"max of {len(xs)}"
            else:
                q, value, n = stats.tail(xs)
                detail = f"p{q * 100:.1f} of {n}"
        elif kind == "push" and push and push[0]:
            lags, unattributed = push
            if key == "p50":
                value = stats.median(lags)
                detail = (f"median of {len(lags)} pushes, "
                          f"{unattributed} revisions unattributed")
            else:
                q, value, n = stats.tail(lags)
                detail = f"p{q * 100:.1f} of {n} pushes"
        elif kind == "traced_op" and traced:
            value, detail = stats.median(traced), f"median of {len(traced)}"
        values[name] = (value, detail)
    if traced:
        op = values["trace.op_p50_ms"][0]
        covered = (values["net.collect_ms"][0] +
                   values["distributed.combine_ms"][0])
        values["trace.residual_ms"] = (
            op - covered, "trace.op_p50_ms - net.collect_ms - "
            "distributed.combine_ms")
        base = stats.median(raw["op_ms"])
        values["trace.overhead_pct"] = (
            (op - base) / base * 100.0,
            f"traced {op:.4f} ms vs untraced {base:.4f} ms per operation")
    return values


def print_table(title, rows):
    print(title)
    for name, unit, (value, detail) in rows:
        print(f"  {name:40s} {value:14.4f} {unit:8s} {detail}")


def load_spec():
    """Workload names and {group: {metric: unit}} from BENCHMARK.json, or
    None when it is missing or names a metric this script cannot make."""
    try:
        spec = json.loads((REPO / "BENCHMARK.json").read_text(
            encoding="utf-8"))
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return None
    units = {group: {m["name"]: m["unit"] for m in spec[group]}
             for group in ("end_to_end", "per_layer")}
    unknown = sorted((set(units["end_to_end"]) - set(END_TO_END_NAMES)) |
                     (set(units["per_layer"]) - set(PER_LAYER_RULES)))
    if unknown:
        log(f"perfbench: BENCHMARK.json names unknown metrics: {unknown}")
        return None
    return [w["name"] for w in spec["workloads"]], units


def main():
    spec = load_spec()
    if spec is None:
        return 1
    workloads, units_of = spec
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=170, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark binary timed out")
        return 1
    if done.returncode != 0:
        log(f"perfbench: benchmark binary exited with {done.returncode}")
        return 1
    raw = json.loads(done.stdout)

    prov = dict(raw["provenance"])
    prov.update(provenance_extras())
    prov["seed"] = args.seed
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    for why in raw["failures"]:
        print(f"FAILURE {why}")
    if not raw["op_ms"]:  # set-up failed before anything was measured
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    if args.trace == 0:
        values = end_to_end(raw)
        units = units_of["end_to_end"]
        print_table("end-to-end (bounded)",
                    [(n, units[n], values[n]) for n in units])
        print_table("end-to-end (reported, not bounded)",
                    [(n, REPORTED[n], values[n]) for n in REPORTED])
        every_unit = {**units, **REPORTED}
        for shared, alias in ALIASES.get(args.workload, {}).items():
            value, detail = values[shared]
            print(f"  {alias} = {shared} = {value:.4f} {every_unit[shared]} "
                  f"({detail})")
    else:
        units = units_of["per_layer"]
        values = per_layer(raw, units)
        rows = [(n, units[n], values[n]) for n in units]
        print_table("per-layer (traced run)", rows)
        table = stats.self_time_table(raw["spans"])
        print("span self time (ms)                         count     median"
              "        total")
        for name in sorted(table, key=lambda k: -table[k][2]):
            count, med, total = table[name]
            print(f"  {name:40s} {count:6d} {med:10.4f} {total:12.3f}")
        print(f"tracing overhead: {values['trace.overhead_pct'][0]:.2f}% "
              f"({values['trace.overhead_pct'][1]})")
    print(f"error_rate {failed / attempted if attempted else 1.0:.6f} "
          f"({failed} of {attempted} checked operations failed)")

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted > 0 else 1,
        "metrics": {n: {"value": values[n][0], "unit": units[n]}
                    for n in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
