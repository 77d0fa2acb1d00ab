#!/usr/bin/env python3
"""Serving benchmark for the asti SeedMinEngine.

    python3 servebench/run.py --workload ic-cold --seed 1 --seconds 45 --trace 0

Builds servebench_driver (and the asti library it links) from source into
.bench_build/, serves one workload through the public engine API, checks the
answers, and prints diagnostics followed, as the last line of standard
output, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload runs twice, untraced and traced, and the metrics are the per-layer
ones from the traced run. Exits non-zero when a correctness gate fails.
See servebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's directory free of build output
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "servebench_driver"
# A run must end within 180 s once the driver is built; the traced run starts
# two driver processes, so both share this allowance.
RUN_DEADLINE_S = 170
POST_BUILD_SETTLE_S = 20

WORKLOADS = ("ic-cold", "lt-churn")
REJECTED = 7  # StatusCode::kResourceExhausted
# Latency limit behind slo_ok_ratio, on each workload's own clock: the lowest
# at which slowing only the slowest tenth of requests can still trip the
# bound in BENCHMARK.json while the ratio's noise across runs stays under half
# of it. README.md gives the measurements behind each choice.
SLO_LIMIT_MS = {"ic-cold": 300.0, "lt-churn": 38.0}
# Arrivals after each swap whose latency feeds delta.post_swap_latency_ms_p50.
POST_SWAP_ARRIVALS = 20
# Per-layer self times must sum to the traced request time within this share.
SELF_TIME_RESIDUAL = 0.01

END_TO_END_UNITS = {
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "slo_ok_ratio": "ratio",
    "cpu_ms_per_query": "ms",
    "seeds_per_query": "seeds",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "ready_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "api.queue_wait_ms_p50": "ms",
    "api.queue_wait_ms_p95": "ms",
    "api.rejected_ratio": "ratio",
    "api.handoff_ms_p50": "ms",
    "core.rounds_per_query": "rounds",
    "core.loop_self_ms_per_query": "ms",
    "sampling.ms_per_query": "ms",
    "sampling.sets_per_query": "sets",
    "sampling.sets_per_s": "1/s",
    "sampling.edges_per_set": "edges",
    "sampling.cache_reuse_ratio": "ratio",
    "sampling.cache_evictions": "count",
    "sampling.cache_mb": "MiB",
    "parallel.cpu_utilization": "ratio",
    "parallel.fanout_us": "us",
    "coverage.ms_per_query": "ms",
    "coverage.index_build_ms": "ms",
    "coverage.picks_per_s": "1/s",
    "stats.certify_ms_per_query": "ms",
    "diffusion.world_ms_per_query": "ms",
    "graph.build_s": "s",
    "delta.apply_ms": "ms",
    "delta.swap_us": "us",
    "delta.post_swap_latency_ms_p50": "ms",
    "load.late_ms_p99": "ms",
}

# Per-layer metrics a workload does not exercise, with the reason. They are
# printed as 0 so every run carries every metric.
NOT_EXERCISED = {
    "delta.apply_ms": "no delta is applied outside lt-churn",
    "delta.swap_us": "no delta is applied outside lt-churn",
    "delta.post_swap_latency_ms_p50": "no delta is applied outside lt-churn",
    "load.late_ms_p99": "a closed loop submits on completion, so it has no schedule to lag",
}


def fail(message, code=2):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "api" / "seedmin_engine.h").is_file():
        fail(f"no asti sources under {ROOT / 'src'}; run from a checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as log:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"configure failed, see {log_path}")
        command = ["cmake", "--build", str(BUILD_DIR), "--target", "servebench_driver",
                   "-j", "4"]
        before = DRIVER.stat().st_mtime_ns if DRIVER.exists() else None
        if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail(f"build failed, see {log_path}")
    if DRIVER.stat().st_mtime_ns != before:
        # Runs that started right after a build read slower for their first
        # seconds; let the build's writes and the host's scheduling settle.
        os.sync()
        time.sleep(POST_BUILD_SETTLE_S)


def run_driver(args, traced, deadline):
    out = BUILD_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{int(traced)}.json"
    out.parent.mkdir(exist_ok=True)
    if out.exists():
        out.unlink()
    command = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
               "--out", str(out)]
    try:
        done = subprocess.run(command, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_DEADLINE_S} s", 3)
    if done.returncode != 0 or not out.is_file():
        fail(f"driver exited with {done.returncode}", 3)
    with open(out) as f:
        run = json.load(f)
    fields = run["record_fields"]
    for phase in ("warmup", "leadin", "requests"):
        run[phase] = [dict(zip(fields, r)) for r in run[phase]]
    return run


def ok_requests(run):
    return [r for r in run["requests"] if r["status"] == 0]


def tail(name, values, q, lines):
    """q-percentile of `values` (seconds) in ms, noting it with its sample support."""
    value, beyond = m.percentile(values, q)
    note = "" if beyond >= m.MIN_BEYOND else f", under-supported: needs {m.MIN_BEYOND}"
    lines.append(f"{name} = {1e3 * value:.4g} ms (n={len(values)}, {beyond} beyond{note})")
    return 1e3 * value


def end_to_end(run, lines):
    ok = ok_requests(run)
    if not ok:
        fail("no request completed", 3)
    attempted = len(run["requests"])
    latencies = [m.latency_s(r) for r in run["requests"] if r["status"] == 0]
    limit_s = SLO_LIMIT_MS[run["workload"]] / 1e3
    wall = run["window_end"] - run["window_start"]
    values = {
        "qps": m.rate_per_s(len(ok), run["window_start"], run["window_end"]),
        "latency_p50_ms": tail("latency_p50_ms", latencies, 0.50, lines),
        "slo_ok_ratio": sum(1 for x in latencies if x <= limit_s) / attempted,
        "cpu_ms_per_query": 1e3 * run["cpu_s"] / len(ok),
        "seeds_per_query": sum(r["seeds"] for r in ok) / len(ok),
        "ok_ratio": len(ok) / attempted,
        "setup_s": m.median(run["setup_s"]),
        "ready_rss_mb": run["ready_rss_mb"],
    }
    # Printed, not gated: across seeds of one build these tails spread by
    # 12-22 % (p95) and 20-38 % (p99), more than any bound allows.
    tail("latency_p95_ms", latencies, 0.95, lines)
    tail("latency_p99_ms", latencies, 0.99, lines)
    lines.append(f"slo limit: {SLO_LIMIT_MS[run['workload']]:g} ms; setup_s: median of "
                 f"{len(run['setup_s'])} set-ups {[round(s, 3) for s in run['setup_s']]}")
    lines.append(f"noise: steal_s={run['steal_s']:.2f} cpu_s={run['cpu_s']:.2f} "
                 f"window_s={wall:.2f} hardware_threads={run['hardware_threads']:g}")
    lines.append(f"serving_rss_mb={run['serving_rss_mb']:.1f} peak_rss_mb="
                 f"{run['peak_rss_mb']:.1f} (VmRSS and VmHWM right after the window; not "
                 "metrics: rare large requests and what the allocator keeps of them set "
                 "both, so they swing by seed)")
    return values, attempted


def per_layer(run, lines):
    ok = ok_requests(run)
    count = len(ok)
    attempted = len(run["requests"])
    sums = {k: sum(r[k] for r in ok) for k in (
        "queue_wait_s", "sampling_s", "coverage_s", "certify_s", "sets_generated",
        "sets_reused", "sets_extended", "rounds", "round_s")}
    phases_s = sums["sampling_s"] + sums["coverage_s"] + sums["certify_s"]
    wall = run["window_end"] - run["window_start"]
    waits = [r["queue_wait_s"] for r in ok]
    handoffs = [r["ready"] - r["submit"] - r["total_s"] for r in ok]
    probes = run["probes"]
    values = {
        "api.queue_wait_ms_p50": tail("api.queue_wait_ms_p50", waits, 0.5, lines),
        "api.queue_wait_ms_p95": tail("api.queue_wait_ms_p95", waits, 0.95, lines),
        "api.rejected_ratio":
            sum(1 for r in run["requests"] if r["status"] == REJECTED) / attempted,
        "api.handoff_ms_p50": tail("api.handoff_ms_p50", handoffs, 0.5, lines),
        "core.rounds_per_query": sums["rounds"] / count,
        "core.loop_self_ms_per_query": 1e3 * (sums["round_s"] - phases_s) / count,
        "sampling.ms_per_query": 1e3 * sums["sampling_s"] / count,
        "sampling.sets_per_query": sums["sets_generated"] / count,
        "sampling.sets_per_s":
            sums["sets_generated"] / sums["sampling_s"] if sums["sampling_s"] > 0 else 0.0,
        "sampling.edges_per_set": probes["edges_per_set"],
        "sampling.cache_reuse_ratio":
            sums["sets_reused"] / max(1, sums["sets_reused"] + sums["sets_extended"]),
        "sampling.cache_evictions": run["cache_evictions"],
        "sampling.cache_mb": run["cache_bytes"] / 2**20,
        "parallel.cpu_utilization": run["cpu_s"] / (wall * run["hardware_threads"]),
        "parallel.fanout_us": probes["fanout_us"],
        "coverage.ms_per_query": 1e3 * sums["coverage_s"] / count,
        "coverage.index_build_ms": probes["index_build_ms"],
        "coverage.picks_per_s": probes["picks_per_s"],
        "stats.certify_ms_per_query": 1e3 * sums["certify_s"] / count,
        "diffusion.world_ms_per_query": probes["world_ms"],
        "graph.build_s": m.median(run["graph_build_s"]),
    }
    swaps, requests = run["swaps"], run["requests"]
    if swaps:
        values["delta.apply_ms"] = 1e3 * sum(s[2] for s in swaps) / len(swaps)
        values["delta.swap_us"] = 1e6 * sum(s[3] for s in swaps) / len(swaps)
        after = [m.latency_s(r) for at in run["swap_at"]
                 for r in requests[at:at + POST_SWAP_ARRIVALS] if r["status"] == 0]
        values["delta.post_swap_latency_ms_p50"] = tail(
            "delta.post_swap_latency_ms_p50", after, 0.5, lines)
        lateness = [r["submit"] - r["scheduled"] for r in requests]
        values["load.late_ms_p99"] = tail("load.late_ms_p99", lateness, 0.99, lines)
    else:
        for name, reason in NOT_EXERCISED.items():
            values[name] = 0.0
            lines.append(f"not exercised: {name} ({reason})")
    lines.append(f"probes: index and greedy ran on {probes['collection_sets']:g} mRR sets")
    return values


def self_time_report(run, lines):
    """Per-layer self times of the traced requests and their residual."""
    spans = {s[0]: (s[1], s[4], s[5]) for s in run["spans"]}
    names = {s[0]: s[3] for s in run["spans"]}
    request_of = {s[0]: s[2] for s in run["spans"]}
    selfs = m.self_times(spans)
    traced_total = 0.0
    by_layer = {}
    for span_id, (parent, start, end) in spans.items():
        if request_of[span_id] < 0:
            continue
        if parent == 0:
            traced_total += end - start
        layer = names[span_id].split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[span_id]
    attributed = sum(by_layer.values())
    residual = (traced_total - attributed) / traced_total
    unattributed = sum(selfs[i] for i, name in names.items()
                       if name == "api.execute" and request_of[i] >= 0)
    count = len(ok_requests(run))
    lines.append("self time per query by layer: " + ", ".join(
        f"{layer} {1e3 * t / count:.3f} ms ({t / traced_total:.1%})"
        for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    # The children are laid out back to back from the engine's own durations,
    # so the residual is zero unless the profile's phases overrun its total:
    # the gate checks that nesting. How much time no inner layer explains is
    # the api.execute self time (hidden worlds, result assembly, overhead).
    lines.append(f"self-time residual: {residual:.4%} of {traced_total:.3f} s traced "
                 f"request time (gate: within {SELF_TIME_RESIDUAL:.0%}); not assigned to any "
                 f"inner layer (api.execute self): {unattributed / traced_total:.2%}")
    return abs(residual) <= SELF_TIME_RESIDUAL


def gate_failures(run):
    failures = []
    for phase in ("warmup", "leadin", "requests"):
        unreached = [i for i, r in enumerate(run[phase]) if r["status"] == 0 and not r["reached"]]
        if unreached:
            failures.append(f"{phase}: {len(unreached)} completed requests did not reach eta")
    if any(r["status"] != 0 for r in run["warmup"] + run["leadin"]):
        failures.append("a warm-up or lead-in request failed")
    gates = run["gates"]
    if gates["solo_checked"] == 0 or gates["solo_mismatches"]:
        failures.append(f"solo re-solve: {gates['solo_mismatches']:g} of "
                        f"{gates['solo_checked']:g} differ; {gates['detail']}")
    if run["swaps"] and not (gates["replay_checked"] and gates["replay_ok"]):
        failures.append(f"churn replay: {gates['detail']}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    lines = []
    untraced = run_driver(args, traced=False, deadline=deadline)
    lines.append(f"workload={args.workload} seed={args.seed} n={untraced['n']:g} "
                 f"m={untraced['m']:g} graph_digest={untraced['graph_digest']} "
                 f"requests_digest={untraced['requests_digest']} "
                 f"result_digest={untraced['result_digest']}")
    e2e, attempted = end_to_end(untraced, lines)
    failures = gate_failures(untraced)
    run, units, values = untraced, END_TO_END_UNITS, e2e

    if args.trace:
        traced = run_driver(args, traced=True, deadline=deadline)
        failures += [f"traced run: {f}" for f in gate_failures(traced)]
        for key in ("graph_digest", "requests_digest", "result_digest"):
            if traced[key] != untraced[key]:
                failures.append(f"traced and untraced runs differ in {key}")
        traced_lines = []
        traced_e2e, attempted = end_to_end(traced, traced_lines)
        lines.append("tracing overhead (traced - untraced): " + ", ".join(
            f"{k} {traced_e2e[k] - e2e[k]:+.4g} {END_TO_END_UNITS[k]}" for k in
            ("qps", "latency_p50_ms", "cpu_ms_per_query")))
        values = per_layer(traced, lines)
        if not self_time_report(traced, lines):
            failures.append("per-layer self times miss the traced request time by more "
                            f"than {SELF_TIME_RESIDUAL:.0%}")
        run, units = traced, PER_LAYER_UNITS

    for line in lines:
        print(f"# {line}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    for failure in failures:
        print(f"# GATE FAILED: {failure}")
    failed = sum(1 for r in run["requests"] if r["status"] != 0)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
