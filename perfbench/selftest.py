"""Self-test of the benchmark at tiny scale (well under a minute):

    python3 perfbench/selftest.py

1. Each workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json declares, with their units, and passes its gate.
2. The correctness gate trips on a perturbed estimate: one more than
   5 ASE from the truth, a non-finite one, and an in-memory estimate one
   ulp away from the file-based combine.
3. The tracer leaves no public package function reachable unwrapped.
4. predictions.json covers exactly the declared per-layer metrics.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_emitted(spec) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                expect(False, f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: gate passes ({result['failed']} of {result['attempted']} failed)")
            got = result["metrics"]
            expect(sorted(got) == sorted(m["name"] for m in declared),
                   f"{label}: every declared metric emitted, no other")
            units = {m["name"]: m["unit"] for m in declared}
            expect(all(got[k]["unit"] == units.get(k) for k in got), f"{label}: units")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in got.values()), f"{label}: values finite")
            if not trace:
                expect(all(v["value"] > 0 for v in got.values()), f"{label}: no zero metric")


def check_gate() -> None:
    theta0 = (0.3, 0.6, 0.8)
    ase = (0.01, 0.02, 0.03)
    expect(not workloads.check_estimates(theta0, ase, theta0, "t"), "gate passes the truth")
    far = (theta0[0] + 5.01 * ase[0],) + theta0[1:]
    expect(bool(workloads.check_estimates(far, ase, theta0, "t")), "gate trips at 5.01 ASE")
    expect(bool(workloads.check_estimates((math.nan,) + theta0[1:], ase, theta0, "t")),
           "gate trips on a nan estimate")
    expect(bool(workloads.check_estimates(theta0, (math.inf,) + ase[1:], theta0, "t")),
           "gate trips on an infinite ASE")

    # many-blocks: nudge the in-memory estimates by one ulp
    with tempfile.TemporaryDirectory() as work:
        workloads.setup("many-blocks", "tiny", 5, work)
        run = workloads.Run("many-blocks", "tiny", 5, work)
        expect(run.op()["failed"] == 0, "many-blocks tiny operation passes its gate")
        original = workloads.blockgmm.godambe_cov

        def nudged(fit, names, alpha=0.05):
            report = original(fit, names, alpha)
            report.estimates[0] = np.nextafter(report.estimates[0], np.inf)
            return report

        workloads.blockgmm.godambe_cov = nudged
        try:
            record = run.op()
        finally:
            workloads.blockgmm.godambe_cov = original
        expect(record["failed"] == 1 and "differ" in " ".join(record["problems"]),
               "gate trips when in-memory and file-based estimates differ by one ulp")

        # cl-paper: a written estimate moved 6 ASE away
        workloads.setup("cl-paper", "tiny", 5, work)
        run = workloads.Run("cl-paper", "tiny", 5, work)
        expect(run.op()["failed"] == 0, "cl-paper tiny operation passes its gate")
        path = os.path.join(work, "out", "fit", "estimates.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["name"] == "theta_2":
                row["estimate"] = "%.17g" % (float(row["estimate"]) + 6 * float(row["ase"]))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        expect(bool(workloads.check_estimates_file(path, theta0, "fit")),
               "gate trips on a written estimate 6 ASE from the truth")


def check_wrapping() -> None:
    import importlib

    package = workloads.blockgmm
    modules = [package] + [importlib.import_module(f"blockgmm.{n}") for n in LAYERS]
    originals = {
        id(obj) for m in modules[1:] for name, obj in vars(m).items()
        if callable(obj) and getattr(obj, "__module__", None) == m.__name__
        and not name.startswith("_") and not isinstance(obj, type)
    }
    tracer = Tracer()
    tracer.install(package)
    try:
        escaped = [f"{m.__name__}.{name}" for m in modules for name, obj in vars(m).items()
                   if id(obj) in originals]
    finally:
        tracer.uninstall()
    expect(not escaped, f"every public function name is wrapped (unwrapped: {escaped})")
    restored = [m for m in modules for obj in vars(m).values() if hasattr(obj, "__wrapped__")]
    expect(not restored, "uninstall restores every name")


def check_predictions(spec) -> None:
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predicted = set(json.load(fh)["predictions"])
    declared = {m["name"] for m in spec["per_layer"]}
    expect(predicted == declared,
           f"predictions cover the per-layer metrics (missing {sorted(declared - predicted)}, "
           f"extra {sorted(predicted - declared)})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_predictions(spec)
    check_wrapping()
    check_gate()
    check_emitted(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
