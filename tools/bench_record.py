#!/usr/bin/env python3
"""Record servebench runs of a parent and a change checkout as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 21 --parent ../parent --change . \\
        --seeds 301-305 --seconds 45 --out BENCH_21.json

For every workload in the change's BENCHMARK.json and every seed, runs
`python3 servebench/run.py --workload W --seed S --seconds T --trace 0` once
in each checkout, as a pair whose first side alternates from seed to seed
(parent first on the first seed). servebench builds each checkout into its
own .bench_build/. The file holds, per run, the side, the checkout's git
SHA, servebench's gates, the end-to-end metrics and the host CPU steal of
its window (`steal_s`); per workload and side, the median and quartiles of
every metric (`statistics.quantiles(values, n=4)`, as servebench/README.md
defines spread); and per workload, in how many pairs the change read better.
Standard library only.
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

STEAL = re.compile(r"^# noise: steal_s=([0-9.eE+-]+)")
DIGESTS = re.compile(r"result_digest=(\S+)")


def summarize(values):
    """Median and quartiles, the quartiles as servebench/README.md reads spread."""
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


def parse_run(stdout):
    """servebench's result line, steal and result digest from one run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("no result line")
    result = json.loads(lines[-1])
    steal = [float(m.group(1)) for m in map(STEAL.match, lines) if m]
    digest = [m.group(1) for m in map(DIGESTS.search, lines) if m]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "steal_s": steal[0] if steal else None,
        "result_digest": digest[0] if digest else None,
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


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


def summary(runs, end_to_end):
    """Per workload: each side's quartiles of every metric and the pair wins."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {"pairs": len({r["seed"] for r in mine})}
        for side in ("parent", "change"):
            entry[side] = {m["name"]: summarize([r["metrics"][m["name"]] for r in mine
                                                 if r["side"] == side])
                           for m in end_to_end}
            entry[side]["steal_s"] = summarize([r["steal_s"] or 0.0 for r in mine
                                                if r["side"] == side])
        entry["pairs_change_better"] = {m["name"]: pairs_better(mine, m["name"], m["better"])
                                        for m in end_to_end}
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


def run_once(checkout, workload, seed, seconds):
    command = [sys.executable, "servebench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
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
    runs = []
    for workload in workloads:
        for index, seed in enumerate(seeds):
            for position, side in enumerate(pair_order(index)):
                run = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "pair": index,
                             "position": position, "side": side, "sha": sides[side]["sha"],
                             **run})
                print(f"{workload} seed {seed} {side}: steal_s={run['steal_s']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                      flush=True)
    record = {
        "pr": args.pr,
        "command": benchmark["command"] + ["--workload", "W", "--seed", "S", "--seconds",
                                           str(args.seconds), "--trace", "0"],
        "seconds": args.seconds,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "sides": sides,
        "units": {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        "summary": summary(runs, benchmark["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
