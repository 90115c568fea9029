"""The benchmark's workloads: input set-up, timed operations and the
correctness gate.  ``run.py`` starts this file as a child process:

    python3 perfbench/workloads.py setup   --workload W --seed S --scale full --work DIR
    python3 perfbench/workloads.py measure --workload W --seed S --scale full --work DIR \
        --seconds T --trace 0|1

``setup`` imports blockgmm, generates the inputs with the package's own
generators, writes them to DIR/inputs and prints the SpeedProbe's unit
time measured while it did so.  ``measure`` repeats the
workload's operation for about T seconds and writes DIR/measure.json.
Everything runs in this one process with workers=1.  The package is used
only through ``blockgmm.cli.main`` and the public names of ``blockgmm``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import blockgmm  # noqa: E402
from blockgmm import cli  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402

WORKLOADS = ("cl-paper", "mc-gee", "many-blocks")

# simulation designs; theta0 keeps the SimDesign default (0.3, 0.6, 0.8)
DESIGNS = {
    "cl-paper": {
        "full": dict(family="global-ar1", N=1000, M=300, J=6, K=2, sigma=6.0, rho=0.8),
        "tiny": dict(family="global-ar1", N=60, M=12, J=2, K=2, sigma=6.0, rho=0.8),
    },
    "mc-gee": {
        "full": dict(family="global-ar1", N=1000, M=300, J=6, K=2, sigma=6.0, rho=0.8, reps=24),
        "tiny": dict(family="global-ar1", N=60, M=12, J=2, K=2, sigma=6.0, rho=0.8, reps=3),
    },
    "many-blocks": {
        "full": dict(family="kronecker-nested", N=4000, M=100, J=20, K=20),
        "tiny": dict(family="kronecker-nested", N=200, M=20, J=4, K=4),
    },
}

GATE_SIGMAS = 5.0


def design_for(workload: str, scale: str, seed: int):
    return blockgmm.SimDesign(seed=seed, **DESIGNS[workload][scale])


# ---------------------------------------------------------------------------
# set-up: inputs written by the package's own generators


def _input_path(work: str, workload: str) -> str:
    name = {"cl-paper": "panel.csv", "mc-gee": "simulate.cfg", "many-blocks": "dataset.npz"}
    return os.path.join(work, "inputs", name[workload])


def write_long_csv(data, path) -> None:
    """Long format: subject_id,response_index,y,x_1..x_q with round-trip floats."""
    header = ["subject_id", "response_index", "y"] + [f"x_{c + 1}" for c in range(data.q)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for sid, ys, xs in zip(data.subject_ids, data.responses.tolist(), data.covariates.tolist()):
            fh.writelines(
                f"{sid},{t},{y!r},{','.join(map(repr, x))}\n"
                for t, (y, x) in enumerate(zip(ys, xs))
            )


def setup(workload: str, scale: str, seed: int, work: str) -> None:
    design = design_for(workload, scale, seed)
    path = _input_path(work, workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if workload == "cl-paper":
        write_long_csv(blockgmm.simstudy.generate(design), path)
    elif workload == "mc-gee":
        with open(path, "w") as fh:
            for key in ("family", "N", "M", "J", "K", "sigma", "rho", "reps", "seed"):
                fh.write(f"{key} = {getattr(design, key)}\n")
            fh.write("method = gee\nworking = ar1\nworkers = 1\n")
    else:
        data = blockgmm.simstudy.generate(design)
        np.savez(
            path,
            responses=data.responses,
            covariates=data.covariates,
            subject_ids=np.asarray(data.subject_ids),
        )


# ---------------------------------------------------------------------------
# correctness gate


def check_estimates(theta, ase, theta0, label: str) -> list:
    """Problems with one fit's theta estimates: non-finite values or a
    component more than GATE_SIGMAS standard errors from the truth."""
    problems = []
    for a, (est, se, true) in enumerate(zip(theta, ase, theta0)):
        if not (math.isfinite(est) and math.isfinite(se) and se > 0):
            problems.append(f"{label}: theta_{a + 1} estimate {est!r} / ASE {se!r} not finite")
        elif abs(est - true) > GATE_SIGMAS * se:
            problems.append(
                f"{label}: |theta_{a + 1} - theta0| = {abs(est - true):.4g} > "
                f"{GATE_SIGMAS:g} * ASE = {GATE_SIGMAS * se:.4g}"
            )
    return problems


def read_estimates(path) -> dict:
    """estimates.csv as name -> (estimate, ase)."""
    with open(path, newline="") as fh:
        return {
            row["name"]: (float(row["estimate"]), float(row["ase"]))
            for row in csv.DictReader(fh)
        }


def check_estimates_file(path, theta0, label: str) -> list:
    rows = read_estimates(path)
    problems = [
        f"{label}: {name} estimate {est!r} / ASE {se!r} not finite"
        for name, (est, se) in rows.items()
        if not (math.isfinite(est) and math.isfinite(se))
    ]
    theta = [rows[f"theta_{a + 1}"] for a in range(len(theta0))]
    return problems + check_estimates(
        [t for t, _ in theta], [s for _, s in theta], theta0, label
    )


def check_bundle(bundle, J: int, K: int, label: str) -> list:
    if len(bundle.fits) != J * K:
        return [f"{label}: bundle holds {len(bundle.fits)} blocks, expected {J * K}"]
    return [
        f"{label}: block {key} did not converge"
        for key, fit in sorted(bundle.fits.items())
        if not fit.converged
    ]


def check_overid(stat, label: str) -> list:
    return [] if math.isfinite(stat) else [f"{label}: over-id statistic {stat!r} not finite"]


def read_overid_statistic(out_dir) -> float:
    with open(os.path.join(out_dir, "overid.txt")) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            if key.strip() == "statistic":
                return float(value)
    return float("nan")


# ---------------------------------------------------------------------------
# operations: each returns a record of its timings, counts and problems


class Run:
    def __init__(self, workload: str, scale: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.design = design_for(workload, scale, seed)
        self.input = _input_path(work, workload)
        self.tracer = None
        if workload == "many-blocks":
            with np.load(self.input) as npz:
                self.data = blockgmm.Dataset(
                    responses=npz["responses"],
                    covariates=npz["covariates"],
                    subject_ids=tuple(npz["subject_ids"].tolist()),
                )

    def out_dir(self, name: str) -> str:
        path = os.path.join(self.work, "out", name)
        os.makedirs(path, exist_ok=True)
        return path

    def checks(self):
        return self.tracer.suspended() if self.tracer else contextlib.nullcontext()

    def run_cli(self, argv):
        """blockgmm.cli.main with its messages captured; returns (code, stderr)."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def op(self) -> dict:
        return {
            "cl-paper": self.op_cl_paper,
            "mc-gee": self.op_mc_gee,
            "many-blocks": self.op_many_blocks,
        }[self.workload]()

    def op_cl_paper(self) -> dict:
        d = self.design
        out = self.out_dir("fit")
        argv = ["fit", "--input", self.input, "--J", str(d.J), "--K", str(d.K),
                "--method", "cl", "--seed", str(self.seed), "--workers", "1", "--out", out]
        start = time.perf_counter()
        code, err = self.run_cli(argv)
        end = time.perf_counter()
        fit_s = end - start
        problems = [f"fit: exit code {code}: {err}"] if code != 0 else []
        bundle_path = os.path.join(out, "bundle.zip")
        if not problems:
            with self.checks():
                problems += check_estimates_file(os.path.join(out, "estimates.csv"), d.theta0, "fit")
                problems += check_overid(read_overid_statistic(out), "fit")
                problems += check_bundle(blockgmm.load_bundle(bundle_path), d.J, d.K, "fit")
        return {
            "window": (start, end),
            "fit_s": fit_s,
            "bundle_bytes": os.path.getsize(bundle_path) if not problems else 0,
            "fits": 1,
            "attempted": 1,
            "failed": int(bool(problems)),
            "problems": problems,
        }

    def op_mc_gee(self) -> dict:
        d = self.design
        out = self.out_dir("simulate")
        start = time.perf_counter()
        code, err = self.run_cli(["simulate", "--config", self.input, "--out", out])
        end = time.perf_counter()
        wall = end - start
        problems, failed_reps, rep_s = [], d.reps, []
        if code != 0:
            problems.append(f"simulate: exit code {code}: {err}")
        else:
            failed_reps = 0
            with open(os.path.join(out, "reps.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != d.reps:
                problems.append(f"simulate: reps.csv has {len(rows)} rows, expected {d.reps}")
                failed_reps = d.reps
            for row in rows:
                label = f"rep {row['rep']}"
                found = [] if row["ok"] == "1" else [f"{label}: replication failed"]
                if not found:
                    found = check_estimates(
                        [float(row[f"theta_{a + 1}"]) for a in range(d.p)],
                        [float(row[f"ase_{a + 1}"]) for a in range(d.p)],
                        d.theta0,
                        label,
                    ) + check_overid(float(row["overid_stat"]), label)
                failed_reps += int(bool(found))
                problems += found
            with open(os.path.join(out, "timings.csv"), newline="") as fh:
                rep_s = [float(row["walltime_seconds"]) for row in csv.DictReader(fh)]
        return {
            "window": (start, end),
            "reps_per_s": d.reps / wall,
            "rep_s": rep_s,
            "fits": d.reps,
            "attempted": d.reps,
            "failed": failed_reps,
            "problems": problems,
        }

    def op_many_blocks(self) -> dict:
        d = self.design
        fit_out = self.out_dir("fit")
        comb_out = self.out_dir("combine")
        names = [os.path.join(self.work, "out", f"group_{k}.zip") for k in range(d.K)]
        marks = {"fit": self._mark()}
        start = time.perf_counter()
        try:
            bundle, blocks = blockgmm.fit_dataset(
                self.data, d.J, d.K, "gee-ar1", strategy="seeded-random", seed=self.seed
            )
            fit = blockgmm.combine(bundle)
            # the weights for the over-id test are rebuilt, as `blockgmm fit` does
            W = blockgmm.invert_vhat(blockgmm.assemble_vhat(bundle), bundle)
            stat, df, p_value = blockgmm.overid_test(blocks, bundle, fit, W)
            report = blockgmm.godambe_cov(fit, blockgmm.inference.parameter_names(bundle))
        except blockgmm.BlockGmmError as exc:
            # the file-based combine has nothing to combine: both operations fail
            end = time.perf_counter()
            return {
                "window": (start, end), "fit_s": end - start, "save_s": 0.0,
                "combine_s": 0.0, "bundle_bytes": 0, "fits": 1, "attempted": 2,
                "failed": 2, "problems": [f"fit: {exc}"], "marks": marks,
            }
        with open(os.path.join(fit_out, "estimates.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "estimate", "ase", "z", "p_value", "ci_lower", "ci_upper"])
            writer.writerows(
                [row[0]] + ["%.17g" % v for v in row[1:]] for row in report.rows()
            )
        with open(os.path.join(fit_out, "overid.txt"), "w") as fh:
            fh.write(f"statistic = {stat!r}\ndf = {df}\np_value = {p_value!r}\n")
        fit_s = time.perf_counter() - start
        marks["save"] = self._mark()
        for part, path in zip(blockgmm.split_bundle(bundle), names):
            blockgmm.save_bundle(part, path)
        save_end = time.perf_counter()
        code, err = self.run_cli(["combine", *names, "--out", comb_out])
        end = time.perf_counter()

        fit_problems, comb_problems = [], []
        with self.checks():
            fit_problems += check_bundle(bundle, d.J, d.K, "fit")
            fit_problems += check_estimates_file(
                os.path.join(fit_out, "estimates.csv"), d.theta0, "fit"
            )
            fit_problems += check_overid(stat, "fit")
            if code != 0:
                comb_problems.append(f"combine: exit code {code}: {err}")
            else:
                in_memory = read_estimates(os.path.join(fit_out, "estimates.csv"))
                from_files = read_estimates(os.path.join(comb_out, "estimates.csv"))
                if from_files != in_memory:
                    diff = sorted(k for k in in_memory if from_files.get(k) != in_memory[k])
                    comb_problems.append(
                        f"combine: file-based estimates/ASE differ from the in-memory fit "
                        f"for {diff[:5]}"
                    )
        return {
            "window": (start, end),
            "fit_s": fit_s,
            "save_s": save_end - start - fit_s,
            "combine_s": end - save_end,
            "bundle_bytes": sum(os.path.getsize(path) for path in names),
            "fits": 1,
            "attempted": 2,
            "failed": int(bool(fit_problems)) + int(bool(comb_problems)),
            "problems": fit_problems + comb_problems,
            "marks": marks,
        }

    def _mark(self) -> int:
        return len(self.tracer.spans) if self.tracer else 0


# ---------------------------------------------------------------------------
# measurement loop and per-layer metrics


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        } or "default",
        "commit": _git_commit(),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def layer_values(tracer: Tracer, first: int, last: int, counts: dict) -> dict:
    """Per-layer figures of spans[first:last] and the counter increments
    ``counts`` of the same interval."""
    summary = summarize(tracer.spans, first, last)
    values = {}
    for name in tracer.names:
        values[f"{name}.s"] = summary["inclusive"].get(name, 0.0)
        values[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for key in ("composite.newton_iterations", "gee.iterations"):
        values[key] = counts.get(key, 0)
    for layer, seconds in summary["self"].items():
        values[f"{layer}.self_s"] = seconds
    return values


def traced_op(run: Run, tracer: Tracer) -> dict:
    """One operation with every public package function wrapped."""
    d = run.design
    before = dict(tracer.counts)
    first = len(tracer.spans)
    run.tracer = tracer
    tracer.install(blockgmm)
    try:
        record = run.op()
    finally:
        tracer.uninstall()
        run.tracer = None
    counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    expected = record["fits"] * d.J * d.K
    calls = counts.get("engines.fit_block.calls", 0)
    if calls != expected:
        record["problems"].append(
            f"trace: engines.fit_block.calls = {calls}, expected {expected} "
            f"({record['fits']} fit(s) x J*K)"
        )
        record["failed"] = max(record["failed"], 1)
    record["layers"] = layer_values(tracer, first, len(tracer.spans), counts)
    marks = record.get("marks", {})
    if "save" in marks:  # the library-fit stage alone, for the hotspot share
        record["fit_stage"] = layer_values(tracer, marks["fit"], marks["save"], {})
    return record


class SpeedProbe:
    """Samples how fast the machine runs while an operation runs.

    Every ``interval`` seconds a SIGALRM handler times ``unit``, a fixed
    computation of about a millisecond that does not use blockgmm: small
    matrix products and a Python loop, the mix of the block kernels.  On a
    shared machine the speed of one core drifts by tens of percent within
    seconds, so operation times are reported as multiples of the median
    unit time sampled during the same operation (``op_ref``).  The probe's
    own time is taken out of the operation's time.
    """

    _a = np.linspace(-1.0, 1.0, 25000).reshape(500, 50)
    _b = np.linspace(0.5, 1.5, 150).reshape(50, 3)

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples = []  # (start, seconds)

    @classmethod
    def unit(cls) -> float:
        acc = 0.0
        for _ in range(40):
            c = cls._a @ cls._b
            acc += float(np.einsum("ij,ij->", c, c)) + sum(k * 0.5 for k in range(100))
        return acc

    def _sample(self, *_):
        began = time.perf_counter()
        self.unit()
        self.samples.append((began, time.perf_counter() - began))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def net(self, start: float, end: float) -> float:
        """Seconds of [start, end) not spent in the probe."""
        return end - start - sum(d for t, d in self.samples if start <= t < end)

    def unit_s(self) -> float:
        return statistics.median(d for _, d in self.samples)


def measure(run: Run, seconds: float, trace: bool):
    """Repeat the operation while another one still fits in ``seconds``.
    With tracing, untraced and traced operations alternate, at least one
    of each.  A SpeedProbe runs during every operation.  Returns (records,
    tracer)."""
    tracer = Tracer() if trace else None
    records = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        with SpeedProbe() as probe:
            if trace and len(records) % 2 == 1:
                record = traced_op(run, tracer)
                record["traced"] = True
            else:
                record = run.op()
        start_op, end_op = record.pop("window")
        # op_s is per operation, like the per-layer figures; op_ref is per
        # fit, so that on mc-gee it is one replication (1 / reps_per_s)
        record["op_s"] = probe.net(start_op, end_op)
        record["unit_s"] = probe.unit_s()
        record["op_ref"] = record["op_s"] / record["fits"] / record["unit_s"]
        record["wall"] = time.perf_counter() - began
        records.append(record)
        typical = statistics.median(r["wall"] for r in records)
        if len(records) >= 1 + trace and time.perf_counter() - start + typical > seconds:
            return records, tracer


def tail(values):
    """(label, value) of the highest percentile with >= 10 samples above it,
    or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return f"p{100 * rank // n}", sorted(values)[rank - 1]


def timing_line(workload, name, values, unit) -> str:
    line = f"{workload:12s} {name:14s} median {statistics.median(values):.6g} {unit}"
    found = tail(values) if unit == "s" else None
    if found:
        line += f", {found[0]} {found[1]:.6g} {unit}"
    return line + f" (n={len(values)})"


def report(run: Run, records, tracer) -> dict:
    """End-to-end and per-layer metrics plus the human-readable lines."""
    w = run.workload
    plain = [r for r in records if not r.get("traced")]
    traced = [r for r in records if r.get("traced")]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    lines = []
    for key, unit in (("fit_s", "s"), ("combine_s", "s"), ("save_s", "s"), ("reps_per_s", "1/s")):
        if key in plain[0]:
            lines.append(timing_line(w, key, [r[key] for r in plain], unit))
    if w == "mc-gee":
        lines.append(timing_line(w, "rep_s", [x for r in plain for x in r["rep_s"]], "s"))
    if "bundle_bytes" in plain[0]:
        lines.append(f"{w:12s} {'bundle_mb':14s} {plain[0]['bundle_bytes'] / 1e6:.6f} MB")
    lines.append(f"{w:12s} {'failed_frac':14s} {failed / attempted:.6g} ({failed} of {attempted})")
    lines.append(timing_line(w, "op_s", [r["op_s"] for r in plain], "s"))
    lines.append(timing_line(w, "probe unit", [r["unit_s"] for r in plain], "s"))
    op_ref = statistics.median(r["op_ref"] for r in plain)
    lines.append(f"{w:12s} {'op_ref':14s} median {op_ref:.6g} ref (n={len(plain)})")
    metrics = {
        "op_ref": op_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        names = sorted(set().union(*(r["layers"] for r in traced)))
        layers = {}
        for key in names:
            values = [r["layers"].get(key, 0) for r in traced]
            if isinstance(values[0], int):  # a count: identical in every operation
                layers[key] = values[0]
                if len(set(values)) > 1:
                    lines.append(f"{w:12s} WARNING counter {key} differs between operations: {values}")
            else:
                layers[key] = statistics.median(values)
        traced_ref = statistics.median(r["op_ref"] for r in traced)
        layers["trace.op_s"] = statistics.median(r["op_s"] for r in traced)
        layers["trace.overhead_frac"] = traced_ref / op_ref - 1.0
        layers["combine.bundle_mb"] = traced[0].get("bundle_bytes", 0) / 1e6
        lines.append(
            f"{w:12s} tracing overhead {100 * layers['trace.overhead_frac']:+.2f}% "
            f"(traced op_ref {traced_ref:.6g} vs untraced {op_ref:.6g})"
        )
        if w == "cl-paper":
            fit_s = statistics.median(r["fit_s"] for r in traced)
            share = layers.get("composite.cl_scores.s", 0.0) / fit_s
            lines.append(f"{w:12s} composite.cl_scores.s is {100 * share:.1f}% of traced fit_s ({fit_s:.6g} s)")
        staged = [r for r in traced if "fit_stage" in r]
        if staged:
            fit_s = statistics.median(r["fit_s"] for r in staged)
            share = statistics.median(r["fit_stage"]["combine.combine.s"] / r["fit_s"] for r in staged)
            lines.append(f"{w:12s} combine.combine.s is {100 * share:.1f}% of traced fit_s ({fit_s:.6g} s)")
        metrics = layers
    problems = [p for r in records for p in r["problems"]]
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.action == "setup":
        with SpeedProbe() as probe:
            setup(args.workload, args.scale, args.seed, args.work)
        print(json.dumps({"unit_s": probe.unit_s()}))
        return 0
    run = Run(args.workload, args.scale, args.seed, args.work)
    records, tracer = measure(run, args.seconds, bool(args.trace))
    result = report(run, records, tracer)
    result["env"] = environment(args.workload, args.seed)
    with open(os.path.join(args.work, "measure.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(args.work, "spans.json"), "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
