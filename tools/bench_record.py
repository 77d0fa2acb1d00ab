#!/usr/bin/env python3
"""Record servebench runs of a parent and a change checkout as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 21 --parent ../parent --change . \\
        --seeds 301-305 --seconds 45 --out BENCH_21.json

For every workload in the change's BENCHMARK.json and every seed, runs
`python3 servebench/run.py --workload W --seed S --seconds T --trace 0` once
in each checkout, as a pair whose first side alternates from seed to seed
(parent first on the first seed). Each workload ends with TRACED_PAIRS
traced pairs (`--trace 1`), at the seeds following the largest pair seed,
their first side alternating on from the pairs; a traced run's result line
carries the per-layer metrics. Three runs per side, not one, because one
cannot tell a layer move from noise: in BENCH_22.json's single traced pair,
`graph.build_s`, a span around code that change did not touch, read 0.14 ->
0.21 s. servebench builds each checkout into its own .bench_build/.

A run whose window lost more than MAX_STEAL_SHARE of its CPU to the host
(steal_s / (window_s x hardware_threads), from servebench's `# noise:`
line) is dropped and run again, up to MAX_RERUNS times; the last attempt is
kept whatever its steal. Each dropped run is recorded with its steal. The
share is 2 %: in servebench/README.md's sets of ten 45-s runs on 4 vCPUs,
steal ran from 0.8 to 38.8 CPU-s (0.4-22 % of the window's 180 CPU-s), and
lt-churn's p50 rose about 2.6 % per CPU-s of steal, so 2 % (3.6 CPU-s)
moves it about 9 %, well inside the 25 % bounds; lt-churn runs that read
15-17 % worse on unchanged machine code carried up to 10.5 CPU-s (5.8 %),
while every run of BENCH_21.json read under 0.5 CPU-s (0.3 %). A
share, not seconds, because ic-cold serves a fixed request count, so its
window shrinks as the code gets faster.

The file holds, per run, the side, the checkout's git SHA, servebench's
gates, the metrics and the steal of its window; per workload and side, the
median and quartiles of every end-to-end metric
(`statistics.quantiles(values, n=4)`, as servebench/README.md defines
spread), in how many pairs the change read better, and the median and
quartiles of every per-layer metric over the traced runs. Standard library
only.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

NOISE = "# noise:"
DIGESTS = re.compile(r"result_digest=(\S+)")
MAX_STEAL_SHARE = 0.02
MAX_RERUNS = 3
TRACED_PAIRS = 3


def summarize(values):
    """Median and quartiles, the quartiles as servebench/README.md reads spread.
    A single value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def parse_seeds(spec):
    """'301-305' or '1,3,7' -> list of ints."""
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            first, last = (int(x) for x in part.split("-", 1))
            seeds.extend(range(first, last + 1))
        else:
            seeds.append(int(part))
    if not seeds or any(s < 0 for s in seeds):
        raise ValueError(f"bad seed list '{spec}'")
    return seeds


def pair_order(index):
    """Sides of pair `index` in running order: the first side alternates."""
    return ("parent", "change") if index % 2 == 0 else ("change", "parent")


def traced_seeds(seeds):
    """(seed, pair index) of each traced pair: the seeds after the largest pair
    seed, indexed on from the pairs so that the first side keeps alternating."""
    return [(max(seeds) + 1 + i, len(seeds) + i) for i in range(TRACED_PAIRS)]


def parse_noise(lines):
    """The key=value fields of servebench's first `# noise:` line, as floats."""
    for line in lines:
        if line.startswith(NOISE):
            return {key: float(value) for key, value in
                    (field.split("=", 1) for field in line[len(NOISE):].split())}
    return {}


def parse_run(stdout):
    """servebench's result line, window noise and result digest from one run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("no result line")
    result = json.loads(lines[-1])
    noise = parse_noise(lines)
    digest = [m.group(1) for m in map(DIGESTS.search, lines) if m]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "steal_s": noise.get("steal_s"),
        "window_s": noise.get("window_s"),
        "hardware_threads": noise.get("hardware_threads"),
        "result_digest": digest[0] if digest else None,
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def steal_share(run):
    """Share of the window's CPU (window_s x hardware_threads) lost to steal."""
    if not run["steal_s"] or not run["window_s"] or not run["hardware_threads"]:
        return 0.0
    return run["steal_s"] / (run["window_s"] * run["hardware_threads"])


def run_unstolen(attempt):
    """Calls attempt() until a run's steal share is at most MAX_STEAL_SHARE,
    at most 1 + MAX_RERUNS times; returns the kept run and the dropped ones."""
    dropped = []
    while True:
        run = attempt()
        if steal_share(run) <= MAX_STEAL_SHARE or len(dropped) == MAX_RERUNS:
            return run, dropped
        dropped.append(run)


def pairs_better(runs, metric, better):
    """Pairs (same workload and seed) where the change read strictly better."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"][metric]
    wins = 0
    for sides in by_seed.values():
        if "parent" not in sides or "change" not in sides:
            continue
        delta = sides["change"] - sides["parent"]
        wins += delta < 0 if better == "lower" else delta > 0
    return wins


def traced_summary(traced):
    """Per side: the traced runs' seeds and each per-layer metric's median and
    quartiles over them."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in traced if r["side"] == side]
        if not mine:
            continue
        names = sorted({name for r in mine for name in r["metrics"]})
        out[side] = {"seeds": [r["seed"] for r in mine],
                     **{name: summarize([r["metrics"][name] for r in mine
                                         if name in r["metrics"]]) for name in names}}
    return out


def summary(runs, end_to_end, traced=(), dropped=()):
    """Per workload: each side's quartiles of every metric, the pair wins,
    the runs dropped for steal and the traced runs' per-layer quartiles."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {"pairs": len({r["seed"] for r in mine}),
                 "dropped_for_steal": sum(1 for r in dropped if r["workload"] == workload)}
        for side in ("parent", "change"):
            entry[side] = {m["name"]: summarize([r["metrics"][m["name"]] for r in mine
                                                 if r["side"] == side])
                           for m in end_to_end}
            entry[side]["steal_s"] = summarize([r["steal_s"] or 0.0 for r in mine
                                                if r["side"] == side])
        entry["pairs_change_better"] = {m["name"]: pairs_better(mine, m["name"], m["better"])
                                        for m in end_to_end}
        entry["traced"] = traced_summary([r for r in traced if r["workload"] == workload])
        out[workload] = entry
    return out


def git(checkout, *args, env=None):
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else None


def identity(checkout):
    """HEAD's SHA, whether the tree differs from it, and the hash of src/ as run.

    The src/ hash is git's tree hash of the files as they are, so it equals
    `git rev-parse <commit>:src` of any commit that holds the same sources.
    """
    sha = git(checkout, "rev-parse", "HEAD")
    if sha is None:
        return {"sha": None, "dirty": None, "src_tree": None}
    dirty = bool(git(checkout, "status", "--porcelain", "--", "src", "servebench",
                     "CMakeLists.txt"))
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(scratch) / "index"))
        git(checkout, "read-tree", "HEAD", env=env)
        git(checkout, "add", "-A", "--", "src", env=env)
        tree = git(checkout, "write-tree", env=env)
    return {"sha": sha, "dirty": dirty,
            "src_tree": git(checkout, "rev-parse", f"{tree}:src") if tree else None}


def run_once(checkout, workload, seed, seconds, trace=0):
    command = [sys.executable, "servebench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_run(done.stdout)
    except (ValueError, KeyError) as error:
        sys.exit(f"bench_record: {workload} seed {seed} in {checkout} exited "
                 f"{done.returncode} without a result ({error}):\n{done.stderr[-2000:]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--seeds", required=True, help="e.g. 301-305 or 1,2,3")
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    with open(args.change / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sides = {side: identity(path) for side, path in checkouts.items()}
    runs, traced, dropped = [], [], []

    def measure(workload, seed, index, side, position, trace):
        run, stolen = run_unstolen(
            lambda: run_once(checkouts[side], workload, seed, args.seconds, trace))
        tags = {"workload": workload, "seed": seed, "pair": index, "position": position,
                "side": side, "sha": sides[side]["sha"]}
        for lost in stolen:
            dropped.append({**tags, "trace": trace, **lost, "steal_share": steal_share(lost)})
            print(f"{workload} seed {seed} {side}: dropped, steal_s={lost['steal_s']} "
                  f"({steal_share(lost):.1%} of the window's CPU)", flush=True)
        print(f"{workload} seed {seed} {side}{' traced' if trace else ''}: "
              f"steal_s={run['steal_s']} "
              + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
        return {**tags, **run}

    for workload in workloads:
        for index, seed in enumerate(seeds):
            for position, side in enumerate(pair_order(index)):
                runs.append(measure(workload, seed, index, side, position, 0))
        for seed, index in traced_seeds(seeds):
            for position, side in enumerate(pair_order(index)):
                traced.append(measure(workload, seed, index, side, position, 1))
    record = {
        "pr": args.pr,
        "command": benchmark["command"] + ["--workload", "W", "--seed", "S", "--seconds",
                                           str(args.seconds), "--trace", "0"],
        "seconds": args.seconds,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "sides": sides,
        "max_steal_share": MAX_STEAL_SHARE,
        "traced_pairs": TRACED_PAIRS,
        "units": {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]},
        "summary": summary(runs, benchmark["end_to_end"], traced, dropped),
        "runs": runs,
        "traced_runs": traced,
        "dropped_runs": dropped,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
