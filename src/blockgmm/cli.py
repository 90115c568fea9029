"""Command-line interface: ``fit`` a dataset, ``simulate`` a Monte Carlo
design, or ``combine`` previously saved block-summary bundles.

``fit`` and ``combine`` take their results from
:func:`blockgmm.inference.infer`, as the simulation driver does.  A
ConvergenceError is exit 2, any other package error exit 1.

Each command's settings are one table of (name, default, cast, choices)
rows, from which its flags, its config keys and its ``config.txt`` all
follow.  Settings come from an optional plain-text key-value config file;
explicit command-line flags win.  Every run writes its resolved
configuration next to the outputs so results can be reproduced bit-exactly
from that file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import inference, simstudy
from .combine import load_bundle, merge_bundles, save_bundle
from .dataio import load_long_csv
from .engines import METHODS, WORKINGS, SolverOptions, solver_kind
from .errors import BlockGmmError, ConvergenceError
from .partition import GROUP_STRATEGIES

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def _write_csv(path, header, rows: list) -> None:
    """Each value as :func:`_fmt` gives it, in a line format taken from the
    first row (each column holds one type).  No value needs quoting, so the
    bytes are those of ``csv.writer``, without its call per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        line = ",".join(FLOAT_FMT if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
        fh.writelines(line % tuple(row) for row in rows)


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


def _paths(raw: str) -> list:
    return raw.split(",")


_EXPECTED = {
    _bool: "one of 1/0/true/false/yes/no",
    int: "an integer",
    float: "a number",
    _floats: "a comma-separated list of numbers",
    _ints: "a comma-separated list of integers",
}

# Each command's settings, one (name, default, cast, choices) row each.  The
# name is the config key and, as --name with "_" spelt "-", the flag; a flag
# given wins over the config file, which wins over the default.
_ALPHA = ("alpha", 0.05, float, None)
_WORKERS = ("workers", 1, int, None)
_ALLOW_UNCONVERGED = ("allow_unconverged", False, _bool, None)
FIT = (
    ("input", None, str, None),
    ("J", 1, int, None),
    ("K", 1, int, None),
    ("group_strategy", "seeded-random", str, GROUP_STRATEGIES),
    ("seed", 0, int, None),
    ("method", "gee", str, METHODS),
    ("working", "ar1", str, WORKINGS),
    _WORKERS,
    _ALPHA,
    ("tol", SolverOptions.tol, float, None),
    ("max_iter", SolverOptions.max_iter, int, None),
    ("out", "blockgmm-out", str, None),
    _ALLOW_UNCONVERGED,
)
_DESIGN = simstudy.SimDesign
SIMULATE = (
    ("family", _DESIGN.family, str, simstudy.FAMILIES),
    ("N", _DESIGN.N, int, None),
    ("M", _DESIGN.M, int, None),
    ("J", _DESIGN.J, int, None),
    ("K", _DESIGN.K, int, None),
    ("theta0", _DESIGN.theta0, _floats, None),
    ("sigma", _DESIGN.sigma, float, None),
    ("rho", _DESIGN.rho, float, None),
    ("method", _DESIGN.method, str, METHODS),
    ("working", _DESIGN.working, str, WORKINGS),
    ("reps", _DESIGN.reps, int, None),
    ("seed", _DESIGN.seed, int, None),
    _WORKERS,
    _ALPHA,
    ("out", "blockgmm-sim", str, None),
    ("M_list", None, _ints, None),
    ("K_list", None, _ints, None),
)
COMBINE = (
    ("bundles", None, _paths, None),  # positional on the command line
    _ALPHA,
    ("out", "blockgmm-combined", str, None),
    _ALLOW_UNCONVERGED,
)
# every command accepts the keys of the others, so one file can serve them all
_CONFIG_KEYS = {"command"} | {row[0] for table in (FIT, SIMULATE, COMBINE) for row in table}


def _config_value(path, name: str, raw: str, cast, choices):
    """``cast(raw)``; a value that ``cast`` rejects or that is not one of
    ``choices`` is a :class:`BlockGmmError` naming the config file, the key
    and the raw value."""
    try:
        value = cast(raw)
    except ValueError:
        raise BlockGmmError(
            f"{path}: config key {name} = {raw!r} is not {_EXPECTED[cast]}"
        ) from None
    if choices is not None and value not in choices:
        raise BlockGmmError(
            f"{path}: config key {name} = {raw!r} is not one of {'/'.join(choices)}"
        )
    return value


def _settings(args, table) -> dict:
    """Every setting of ``table``: its flag if given, else its config value,
    else its default, each checked where it enters.

    A config key that no command reads, or a ``command`` key naming another
    command, is a :class:`BlockGmmError` naming the file.  ``out`` must be
    a directory or an absent path; it is created only once the outputs are
    ready.  A bundle path may not hold a comma, which ``config.txt`` could
    not hold.
    """
    cfg = read_config(args.config) if args.config else {}
    for key in cfg:
        if key not in _CONFIG_KEYS:
            raise BlockGmmError(f"{args.config}: unknown config key {key!r}")
    if cfg.get("command", args.command) != args.command:
        raise BlockGmmError(
            f"{args.config}: config is of command {cfg['command']!r}, "
            f"not {args.command!r}"
        )
    settings = {}
    for name, default, cast, choices in table:
        value = getattr(args, name)
        if value in (None, []):  # no flag given; an absent positional list is []
            value = (
                _config_value(args.config, name, cfg[name], cast, choices)
                if name in cfg else default
            )
        settings[name] = value
    alpha = settings["alpha"]
    if not 0.0 < alpha < 1.0:  # false for nan as well
        raise BlockGmmError(f"alpha = {alpha!r} is not a level inside (0, 1)")
    out = settings["out"]
    if os.path.exists(out) and not os.path.isdir(out):
        raise BlockGmmError(f"out = {out!r} exists and is not a directory")
    if "workers" in settings:
        simstudy.check_workers(settings["workers"])
    for path in settings.get("bundles") or ():
        if "," in os.path.abspath(path):
            raise BlockGmmError(
                f"bundle path {os.path.abspath(path)!r} holds a comma, "
                "which config.txt cannot hold"
            )
    return settings


def _write_resolved_config(path, command: str, settings: dict) -> None:
    """The settings as a config file that reruns the command from any
    directory: ``input`` and ``bundles`` paths made absolute (``out`` as
    given), lists comma-joined, unset settings left out."""
    settings = {"command": command, **settings}
    if "input" in settings:
        settings["input"] = os.path.abspath(settings["input"])
    if "bundles" in settings:
        settings["bundles"] = [os.path.abspath(p) for p in settings["bundles"]]
    with open(path, "w") as fh:
        for key, value in sorted(settings.items()):
            if isinstance(value, (list, tuple)):
                value = ",".join(_fmt(v) for v in value)
            if value is not None:
                fh.write(f"{key} = {value}\n")


def _write_inference_outputs(out_dir, report, overid) -> None:
    header = ["name", "estimate", "ase", "z", "p_value", "ci_lower", "ci_upper"]
    _write_csv(os.path.join(out_dir, "estimates.csv"), header, list(report.rows()))
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


def cmd_fit(s: dict) -> int:
    if s["input"] is None:
        raise BlockGmmError("--input is required")
    opts = SolverOptions(tol=s["tol"], max_iter=s["max_iter"])
    kind = solver_kind(s["method"], s["working"])
    data = load_long_csv(s["input"])
    bundle, _ = simstudy.fit_dataset(
        data, s["J"], s["K"], kind, strategy=s["group_strategy"], seed=s["seed"],
        opts=opts, workers=s["workers"],
    )
    _, report, overid = inference.infer(
        bundle, alpha=s["alpha"], allow_unconverged=s["allow_unconverged"]
    )
    out_dir = s["out"]
    os.makedirs(out_dir, exist_ok=True)
    _write_inference_outputs(out_dir, report, overid)
    save_bundle(bundle, os.path.join(out_dir, "bundle.zip"))
    _write_resolved_config(os.path.join(out_dir, "config.txt"), "fit", s)
    print(
        f"fit: {s['J']}x{s['K']} blocks combined over N={data.N} subjects, "
        f"M={data.M} responses -> {out_dir}"
    )
    return 0


def cmd_simulate(s: dict) -> int:
    design = simstudy.SimDesign(**{f.name: s[f.name] for f in fields(simstudy.SimDesign)})
    workers, alpha, out_dir = s["workers"], s["alpha"], s["out"]
    # before any output: a failed cell leaves no directory
    rows, grid = simstudy.run_study(
        design, s["M_list"] or (), s["K_list"] or (), workers=workers, alpha=alpha
    )
    ok = any(r["ok"] for r in rows)
    os.makedirs(out_dir, exist_ok=True)
    p = design.p
    per_rep_header = (
        ["rep", "ok"]
        + [f"theta_{a + 1}" for a in range(p)]
        + [f"ase_{a + 1}" for a in range(p)]
        + ["overid_stat", "overid_df", "overid_p"]
    )
    per_rep_rows = [
        [r["rep"], r["ok"], *r["theta"], *r["ase"], r["overid_stat"], r["overid_df"],
         float("nan") if r["overid_p"] is None else r["overid_p"]]
        for r in rows
    ]
    _write_csv(os.path.join(out_dir, "reps.csv"), per_rep_header, per_rep_rows)
    # wall times are inherently run-dependent; kept out of the deterministic file
    _write_csv(
        os.path.join(out_dir, "timings.csv"),
        ["rep", "walltime_seconds"],
        [[r["rep"], r["walltime"]] for r in rows],
    )

    if not ok:
        print("simulate: every replication failed", file=sys.stderr)
        return 1
    summ = simstudy.summarize(rows, design.theta0, alpha=alpha)
    header = ["component", "bias", "ese", "rmse", "ase", "coverage", "reps", "failures"]
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        header,
        [[row[h] for h in header] for row in summ.rows()],
    )
    if grid is not None:
        header = ["M", "K", "component", "ase", "ese", "rmse", "bias", "coverage"]
        _write_csv(
            os.path.join(out_dir, "plotdata.csv"),
            header,
            [[row[h] for h in header] for row in grid],
        )

    _write_resolved_config(os.path.join(out_dir, "config.txt"), "simulate", s)
    print(
        f"simulate: {summ.reps} replications ({summ.failures} failed) -> {out_dir}"
    )
    return 0


def cmd_combine(s: dict) -> int:
    if s["bundles"] is None:
        raise BlockGmmError("no bundle paths given")
    parts = [load_bundle(path) for path in s["bundles"]]
    bundle = parts[0] if len(parts) == 1 else merge_bundles(parts)
    _, report, overid = inference.infer(
        bundle, alpha=s["alpha"], allow_unconverged=s["allow_unconverged"]
    )
    out_dir = s["out"]
    os.makedirs(out_dir, exist_ok=True)
    _write_inference_outputs(out_dir, report, overid)
    _write_resolved_config(os.path.join(out_dir, "config.txt"), "combine", s)
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
    for command, table, func, about in (
        ("fit", FIT, cmd_fit, "fit a long-format CSV"),
        ("simulate", SIMULATE, cmd_simulate, "run a Monte Carlo design"),
        ("combine", COMBINE, cmd_combine, "merge saved bundles and combine"),
    ):
        cmd = sub.add_parser(command, help=about)
        cmd.add_argument("--config", help="plain-text key = value settings file")
        for name, _, cast, choices in table:
            flag = "--" + name.replace("_", "-")
            if name == "bundles":
                cmd.add_argument(name, nargs="*", help="bundle archive paths")
            elif cast is _bool:
                # default None: an absent flag falls through to the config file
                cmd.add_argument(flag, action="store_true", default=None)
            else:
                cmd.add_argument(flag, type=cast, choices=choices)
        cmd.set_defaults(func=func, table=table)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(_settings(args, args.table))
    except (BlockGmmError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConvergenceError) else 1


if __name__ == "__main__":
    sys.exit(main())
