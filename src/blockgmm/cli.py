"""Command-line interface: ``fit`` a dataset, ``simulate`` a Monte Carlo
design, or ``combine`` previously saved block-summary bundles.

Settings come from an optional plain-text key-value config file; explicit
command-line flags win.  Every run writes its resolved configuration next
to the outputs so results can be reproduced bit-exactly from that file.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import inference, simstudy
from .combine import load_bundle, merge_bundles, save_bundle
from .combine import combine as combine_bundle
from .dataio import load_long_csv
from .engines import SolverOptions
from .errors import BlockGmmError

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_config(path) -> dict:
    """Plain-text ``key = value`` pairs; blank lines and # comments skipped."""
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise BlockGmmError(f"{path}: malformed config line {line!r}")
            cfg[key.strip()] = value.strip()
    return cfg


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


def _ints(raw: str) -> list:
    return [int(v) for v in raw.split(",")]


_EXPECTED = {
    _bool: "one of 1/0/true/false/yes/no",
    int: "an integer",
    float: "a number",
    _floats: "a comma-separated list of numbers",
    _ints: "a comma-separated list of integers",
}


def _setting(args, cfg, name, default=None, cast=str):
    """Flag value if given, else config value, else default.

    A config value that ``cast`` rejects is a :class:`BlockGmmError`
    naming the config file, the key and the raw value.
    """
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name not in cfg:
        return default
    raw = cfg[name]
    try:
        return cast(raw)
    except ValueError:
        raise BlockGmmError(
            f"{args.config}: config key {name} = {raw!r} is not {_EXPECTED[cast]}"
        ) from None


def _alpha(args, cfg) -> float:
    """The test level from ``--alpha`` or the config; it must lie in (0, 1)."""
    alpha = _setting(args, cfg, "alpha", 0.05, float)
    if not 0.0 < alpha < 1.0:  # false for nan as well
        raise BlockGmmError(f"alpha = {alpha!r} is not a level inside (0, 1)")
    return alpha


def _write_resolved_config(path, settings: dict) -> None:
    with open(path, "w") as fh:
        for key in sorted(settings):
            fh.write(f"{key} = {settings[key]}\n")


def _solver_kind(method: str, working: str) -> str:
    if method == "cl":
        return "cl-ar1"
    return f"gee-{working}"


def _write_inference_outputs(out_dir, report, overid) -> None:
    _write_csv(
        os.path.join(out_dir, "estimates.csv"),
        ["name", "estimate", "ase", "z", "p_value", "ci_lower", "ci_upper"],
        report.rows(),
    )
    with open(os.path.join(out_dir, "overid.txt"), "w") as fh:
        if overid is None:
            fh.write("over-identification test: skipped (raw data unavailable)\n")
        else:
            stat, df, p_value = overid
            fh.write(f"statistic = {_fmt(stat)}\n")
            fh.write(f"df = {df}\n")
            if p_value is None:
                fh.write("p_value = n/a (just-identified, df = 0)\n")
            else:
                fh.write(f"p_value = {_fmt(p_value)}\n")


def cmd_fit(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    input_path = _setting(args, cfg, "input")
    if input_path is None:
        print("fit: --input is required", file=sys.stderr)
        return 1
    J = _setting(args, cfg, "J", 1, int)
    K = _setting(args, cfg, "K", 1, int)
    strategy = _setting(args, cfg, "group_strategy", "seeded-random")
    seed = _setting(args, cfg, "seed", 0, int)
    method = _setting(args, cfg, "method", "gee")
    working = _setting(args, cfg, "working", "ar1")
    workers = _setting(args, cfg, "workers", 1, int)
    alpha = _alpha(args, cfg)
    tol = _setting(args, cfg, "tol", 1e-8, float)
    max_iter = _setting(args, cfg, "max_iter", 100, int)
    out_dir = _setting(args, cfg, "out", "blockgmm-out")
    allow_unconverged = _setting(args, cfg, "allow_unconverged", False, _bool)

    os.makedirs(out_dir, exist_ok=True)
    data = load_long_csv(input_path)
    kind = _solver_kind(method, working)
    bundle, blocks = simstudy.fit_dataset(
        data, J, K, kind, strategy=strategy, seed=seed,
        opts=SolverOptions(tol=tol, max_iter=max_iter), workers=workers,
    )
    unconverged = [key for key, fit in bundle.fits.items() if not fit.converged]
    if unconverged and not allow_unconverged:
        print(
            f"fit: blocks {sorted(unconverged)} did not converge "
            "(rerun with --allow-unconverged to proceed)",
            file=sys.stderr,
        )
        return 2

    fit = combine_bundle(bundle, allow_unconverged=allow_unconverged)
    overid = inference.overid_test(blocks, bundle, fit, fit.W)
    report = inference.godambe_cov(
        fit, inference.parameter_names(bundle), alpha=alpha
    )
    _write_inference_outputs(out_dir, report, overid)
    save_bundle(bundle, os.path.join(out_dir, "bundle.zip"))
    _write_resolved_config(
        os.path.join(out_dir, "config.txt"),
        {
            "command": "fit",
            "input": input_path,
            "J": J,
            "K": K,
            "group_strategy": strategy,
            "seed": seed,
            "method": method,
            "working": working,
            "workers": workers,
            "alpha": alpha,
            "tol": tol,
            "max_iter": max_iter,
            "out": out_dir,
            "allow_unconverged": allow_unconverged,
        },
    )
    print(
        f"fit: {J}x{K} blocks combined over N={data.N} subjects, "
        f"M={data.M} responses -> {out_dir}"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    design = simstudy.SimDesign(
        family=_setting(args, cfg, "family", "kronecker-nested"),
        N=_setting(args, cfg, "N", 500, int),
        M=_setting(args, cfg, "M", 60, int),
        J=_setting(args, cfg, "J", 3, int),
        K=_setting(args, cfg, "K", 2, int),
        theta0=_setting(args, cfg, "theta0", (0.3, 0.6, 0.8), _floats),
        sigma=_setting(args, cfg, "sigma", 4.0, float),
        rho=_setting(args, cfg, "rho", 0.8, float),
        method=_setting(args, cfg, "method", "gee"),
        working=_setting(args, cfg, "working", "ar1"),
        reps=_setting(args, cfg, "reps", 100, int),
        seed=_setting(args, cfg, "seed", 0, int),
    )
    workers = _setting(args, cfg, "workers", 1, int)
    alpha = _alpha(args, cfg)
    out_dir = _setting(args, cfg, "out", "blockgmm-sim")
    os.makedirs(out_dir, exist_ok=True)

    rows = simstudy.run_replications(design, workers=workers)
    p = design.p
    per_rep_header = (
        ["rep", "ok"]
        + [f"theta_{a + 1}" for a in range(p)]
        + [f"ase_{a + 1}" for a in range(p)]
        + ["overid_stat", "overid_df", "overid_p"]
    )
    per_rep_rows = [
        [r["rep"], r["ok"]]
        + list(r["theta"])
        + list(r["ase"])
        + [
            r["overid_stat"],
            r["overid_df"],
            r["overid_p"] if r["overid_p"] is not None else float("nan"),
        ]
        for r in rows
    ]
    _write_csv(os.path.join(out_dir, "reps.csv"), per_rep_header, per_rep_rows)
    # wall times are inherently run-dependent; kept out of the deterministic file
    _write_csv(
        os.path.join(out_dir, "timings.csv"),
        ["rep", "walltime_seconds"],
        [[r["rep"], r["walltime"]] for r in rows],
    )

    ok_rows = [r for r in rows if r["ok"]]
    if not ok_rows:
        print("simulate: every replication failed", file=sys.stderr)
        return 1
    summ = simstudy.summarize(rows, design.theta0, alpha=alpha)
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["component", "bias", "ese", "rmse", "ase", "coverage", "reps", "failures"],
        [
            [
                summ.components[idx],
                summ.bias[idx],
                summ.ese[idx],
                summ.rmse[idx],
                summ.ase[idx],
                summ.coverage[idx],
                summ.reps,
                summ.failures,
            ]
            for idx in range(len(summ.components))
        ],
    )

    m_list = _setting(args, cfg, "M_list", cast=_ints)
    k_list = _setting(args, cfg, "K_list", cast=_ints)
    if m_list and k_list:
        grid = simstudy.grid_plot_data(design, m_list, k_list, workers=workers, alpha=alpha)
        _write_csv(
            os.path.join(out_dir, "plotdata.csv"),
            ["M", "K", "component", "ase", "ese", "rmse", "bias", "coverage"],
            [
                [
                    g["M"],
                    g["K"],
                    g["component"],
                    g["ase"],
                    g["ese"],
                    g["rmse"],
                    g["bias"],
                    g["coverage"],
                ]
                for g in grid
            ],
        )

    _write_resolved_config(
        os.path.join(out_dir, "config.txt"),
        {
            "command": "simulate",
            "family": design.family,
            "N": design.N,
            "M": design.M,
            "J": design.J,
            "K": design.K,
            "theta0": ",".join(_fmt(v) for v in design.theta0),
            "sigma": design.sigma,
            "rho": design.rho,
            "method": design.method,
            "working": design.working,
            "reps": design.reps,
            "seed": design.seed,
            "workers": workers,
            "alpha": alpha,
            "out": out_dir,
        },
    )
    print(
        f"simulate: {summ.reps} replications ({summ.failures} failed) -> {out_dir}"
    )
    return 0


def cmd_combine(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    alpha = _alpha(args, cfg)
    out_dir = _setting(args, cfg, "out", "blockgmm-combined")
    allow_unconverged = _setting(args, cfg, "allow_unconverged", False, _bool)
    os.makedirs(out_dir, exist_ok=True)

    parts = [load_bundle(path) for path in args.bundles]
    bundle = parts[0] if len(parts) == 1 else merge_bundles(parts)
    fit = combine_bundle(bundle, allow_unconverged=allow_unconverged)
    report = inference.godambe_cov(
        fit, inference.parameter_names(bundle), alpha=alpha
    )
    # the over-identification test needs raw data, which bundles do not carry
    _write_inference_outputs(out_dir, report, None)
    _write_resolved_config(
        os.path.join(out_dir, "config.txt"),
        {
            "command": "combine",
            "bundles": ",".join(args.bundles),
            "alpha": alpha,
            "out": out_dir,
            "allow_unconverged": allow_unconverged,
        },
    )
    print(
        f"combine: merged {len(parts)} bundle(s), "
        f"{bundle.J}x{bundle.K} blocks -> {out_dir}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockgmm",
        description=(
            "Split-and-combine estimation for regression with many "
            "correlated responses"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="plain-text key=value settings file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--workers", type=int, help="parallel worker count")
    common.add_argument("--J", type=int, help="number of response blocks")
    common.add_argument("--K", type=int, help="number of subject groups")
    common.add_argument("--method", choices=("gee", "cl"))
    common.add_argument(
        "--working", choices=("ar1", "exchangeable", "independence")
    )
    common.add_argument("--alpha", type=float, help="CI / test level")

    fit = sub.add_parser("fit", parents=[common], help="fit a long-format CSV")
    fit.add_argument("--input", help="long-format CSV path")
    fit.add_argument(
        "--group-strategy",
        dest="group_strategy",
        choices=("contiguous", "seeded-random"),
    )
    # default None: an absent flag falls through to the config file
    fit.add_argument("--allow-unconverged", action="store_true", default=None)
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser(
        "simulate", parents=[common], help="run a Monte Carlo design"
    )
    sim.add_argument("--reps", type=int, help="replication count")
    sim.add_argument("--N", type=int, help="subjects per replication")
    sim.add_argument("--M", type=int, help="responses per subject")
    sim.add_argument(
        "--family", choices=("kronecker-nested", "global-ar1")
    )
    sim.add_argument("--sigma", type=float)
    sim.add_argument("--rho", type=float)
    sim.add_argument("--theta0", type=_floats, help="comma-separated true coefficients")
    sim.set_defaults(func=cmd_simulate)

    comb = sub.add_parser(
        "combine", parents=[common], help="merge saved bundles and combine"
    )
    comb.add_argument("bundles", nargs="+", help="bundle archive paths")
    comb.add_argument("--allow-unconverged", action="store_true", default=None)
    comb.set_defaults(func=cmd_combine)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlockGmmError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
