"""Steadiness check for the benchmark.

Run every workload once per seed, print each run's summary (fit_s, combine_s,
reps_per_s, setup_s, bundle_mb, failed_frac, ... with units) and save the results:

    python3 perfbench/steady.py run --seeds 101-110 --out .perfbench_work/set-a.json
    python3 perfbench/steady.py run --seeds 101-110 --trace 1 --out .perfbench_work/trace-a.json

Report one set, or compare a second set of the same code against it:

    python3 perfbench/steady.py report .perfbench_work/set-a.json
    python3 perfbench/steady.py report .perfbench_work/set-b.json --against .perfbench_work/set-a.json

For each end-to-end metric the report gives the median and the spread,
(Q3 - Q1) / median with quartiles from ``statistics.quantiles(n=4)``.  A
spread above a third of the metric's bound is flagged (setup_s is exempt).
Against an earlier set, a median worse by more than the bound is flagged,
and every count per-layer metric must be identical for the same workload
and seed.  The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(args) -> int:
    spec = load_spec()
    results = {"trace": args.trace, "runs": []}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in parse_seeds(args.seeds):
            began = time.monotonic()
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.monotonic() - began
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            result = json.loads(last) if last.startswith("{") else None
            results["runs"].append({
                "workload": workload, "seed": seed, "exit": done.returncode,
                "wall_s": wall, "result": result,
            })
            summary = "no result" if result is None else (
                f"correct={result['correct']} failed={result['failed']}/{result['attempted']}"
            )
            for line in done.stdout.strip().splitlines()[:-1]:
                if not line.startswith("env "):
                    print(line)
            print(f"{workload:12s} seed {seed:5d} exit {done.returncode} {wall:6.1f} s {summary}",
                  flush=True)
            if result is None:
                print(done.stderr, file=sys.stderr)
            with open(args.out, "w") as fh:
                json.dump(results, fh, indent=1)
    return 0


def by_workload(results) -> dict:
    out = {}
    for run in results["runs"]:
        out.setdefault(run["workload"], []).append(run)
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(args) -> int:
    spec = load_spec()
    with open(args.results) as fh:
        results = json.load(fh)
    against = None
    if args.against:
        with open(args.against) as fh:
            against = by_workload(json.load(fh))
    declared = spec["per_layer"] if results["trace"] else spec["end_to_end"]
    flagged = 0
    for workload, runs in by_workload(results).items():
        bad = [r for r in runs if r["result"] is None or not r["result"]["correct"]]
        if bad:
            flagged += 1
            print(f"{workload:12s} FLAG {len(bad)} run(s) without a correct result")
        ok = [r for r in runs if r not in bad]
        print(f"{workload:12s} {len(ok)} runs, longest {max(r['wall_s'] for r in runs):.1f} s")
        for item in declared:
            name = item["name"]
            values = [r["result"]["metrics"][name]["value"] for r in ok if name in r["result"]["metrics"]]
            if len(values) < 2:
                continue
            med = statistics.median(values)
            line = f"{workload:12s} {name:30s} median {med:.6g} {item['unit']}"
            notes = []
            if "bound" in item and med:
                s = spread(values)
                line += f"  spread {100 * s:.2f}% (bound {100 * item['bound']:g}%)"
                if name != "setup_s" and s > item["bound"] / 3:
                    notes.append("spread above a third of the bound")
                if against and workload in against:
                    old = [r["result"]["metrics"][name]["value"] for r in against[workload]
                           if r["result"] and name in r["result"]["metrics"]]
                    change = med / statistics.median(old) - 1.0
                    if item["better"] == "higher":
                        change = -change
                    line += f"  worse by {100 * change:+.2f}%"
                    if change > item["bound"]:
                        notes.append("median worse than the earlier set by more than the bound")
            if item["unit"] == "count" and against and workload in against:
                old = {r["seed"]: r["result"]["metrics"].get(name, {}).get("value")
                       for r in against[workload] if r["result"]}
                differ = [r["seed"] for r in ok if r["seed"] in old
                          and old[r["seed"]] != r["result"]["metrics"].get(name, {}).get("value")]
                if differ:
                    notes.append(f"count differs from the earlier set for seeds {differ}")
            if notes:
                flagged += 1
                line += "  FLAG: " + "; ".join(notes)
            print(line)
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run", help="run every workload once per seed")
    run.add_argument("--seeds", required=True, help="e.g. 101-110 or 3,5,8")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="spread of one set, optionally against another")
    rep.add_argument("results")
    rep.add_argument("--against")
    args = parser.parse_args(argv)
    return run_set(args) if args.action == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
