"""Benchmark of blockgmm: one workload per invocation.

    python3 perfbench/run.py --workload cl-paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The run sets the workload up
several times in fresh interpreters, then repeats the workload's
operation in one child process for about ``--seconds`` seconds, checks
every output against the correctness gate
and prints a human-readable summary, the environment, and as its last
line a JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json declares: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``.

Workloads, metrics and the gate are defined in ``workloads.py``; the
traced run's wrappers in ``tracer.py``.  Only this file's standard-library
process runs the children, so its own footprint stays out of the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cl-paper", "mc-gee", "many-blocks")
SETUP_REPEATS = 3
# The run's time limit is worked out from --seconds: the set-ups, then the
# measuring child, which stops once another operation no longer fits in
# --seconds but makes at least one operation, and with tracing at least
# two.  The longest operation, a cl-paper fit, took 19-38 s on a shared
# 2-vCPU machine, whose speed drifts by tens of percent.
SETUP_ALLOWANCE_S = 40.0
OP_ALLOWANCE_S = 55.0
# setup_s is the set-up wall time scaled to a machine on which the speed
# probe's unit (workloads.SpeedProbe) takes this long, so that a slow or
# fast phase of a shared machine does not read as a change of set-up work
NOMINAL_UNIT_S = 1e-3
# One BLAS thread: with OpenBLAS's default of one thread per core,
# paper-scale GEE fits measured slower and with several times the
# run-to-run spread on a 2-core machine; workers=1 does the rest.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def child(action: str, args, work: str, deadline: float, extra=()):
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"), action,
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--work", work, *extra,
    ]
    return subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, env={**os.environ, **CHILD_ENV},
        timeout=max(1.0, deadline - time.monotonic()),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: seconds-long inputs for the benchmark's self-test",
    )
    args = parser.parse_args(argv)
    time_limit = SETUP_ALLOWANCE_S + args.seconds + (1 + args.trace) * OP_ALLOWANCE_S
    deadline = time.monotonic() + time_limit

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "blockgmm", "__init__.py")):
        return fail(f"no blockgmm sources under {ROOT}/src; run from a source checkout")
    with open(spec_path) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # the only build step: byte-compile once so set-up times an installed package
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")],
        check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{args.scale}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    try:
        setup_wall, setup_s = [], []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            done = child("setup", args, work, deadline)
            setup_wall.append(time.perf_counter() - began)
            if done.returncode != 0:
                return fail(f"set-up failed:\n{done.stderr}")
            unit_s = json.loads(done.stdout.strip().splitlines()[-1])["unit_s"]
            setup_s.append(setup_wall[-1] * NOMINAL_UNIT_S / unit_s)
        done = child(
            "measure", args, work, deadline,
            ("--seconds", str(args.seconds), "--trace", str(args.trace)),
        )
    except subprocess.TimeoutExpired:
        return fail(f"no result within {time_limit:g} s")
    if done.returncode != 0:
        return fail(f"measurement failed:\n{done.stderr}")
    with open(os.path.join(work, "measure.json")) as fh:
        result = json.load(fh)

    measured = dict(result["metrics"], setup_s=statistics.median(setup_s))
    metrics = {}
    for item in declared:
        name = item["name"]
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": item["unit"]}
        elif not args.trace:
            return fail(f"end-to-end metric {name} was not measured")
        # a per-layer metric whose function no longer exists is left out

    for line in result["lines"]:
        print(line)
    print(
        f"{args.workload:12s} {'setup_s':14s} median {measured['setup_s']:.6g} s at nominal "
        f"probe speed; wall {', '.join(f'{x:.4g}' for x in setup_wall)} s"
    )
    for problem in result["problems"]:
        print(f"{args.workload:12s} GATE FAILED: {problem}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
