"""Every per-layer timing or call count that BENCHMARK.json declares names
a public function of a package layer, so a traced run reports it.

The tracer wraps the public functions defined in each layer module and
reports ``<layer>.<function>.s`` and ``.calls`` for those alone; a
declared metric whose function was removed or renamed drops out of the
traced result line instead of reading 0.

The declared residual-pass metrics (``engines.eval_scores`` and the
kernels' ``gee.gee_scores`` and ``composite.cl_scores``) count the calls
of the functions a fit really makes: once per block.

The benchmark's own self-test runs here too: it drives the package the
way the benchmark does (``fit_dataset``, ``fit_block``, ``overid_test``
and the traced run) at tiny scale.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from blockgmm import composite, engines, gee, simstudy

from conftest import random_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared_functions():
    """(layer, function) of every declared ``<layer>.<function>.s|.calls``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("s", "calls"):
            names.append((parts[0], parts[1]))
    return names


def test_every_timed_or_counted_metric_names_a_public_layer_function():
    names = declared_functions()
    assert ("composite", "fit_cl_block") in names
    missing = []
    for layer, function in names:
        module = importlib.import_module(f"blockgmm.{layer}")
        obj = vars(module).get(function)
        if (
            function.startswith("_")
            or not inspect.isfunction(obj)
            or obj.__module__ != module.__name__
        ):
            missing.append(f"{layer}.{function}")
    assert not missing, missing


@pytest.mark.parametrize("kind", engines.KINDS)
def test_a_fit_makes_one_scores_pass_per_block_through_the_declared_names(kind, monkeypatch):
    calls = []
    for module, name in (
        (engines, "eval_scores"),
        (gee, "gee_scores"),
        (composite, "cl_scores"),
    ):
        original = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        monkeypatch.setattr(
            module, name, lambda *args, _f=original, _l=label: calls.append(_l) or _f(*args)
        )
    data, _ = random_dataset(N=40, M=6, p=2, seed=3)
    J, K = 3, 2
    bundle, _ = simstudy.fit_dataset(data, J, K, kind)
    assert len(bundle.fits) == J * K
    kernel = "composite.cl_scores" if kind == "cl-ar1" else "gee.gee_scores"
    assert calls.count("engines.eval_scores") == J * K
    assert calls.count(kernel) == J * K
    assert len(calls) == 2 * J * K


@pytest.mark.slow
def test_benchmark_self_test_passes():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 failure(s)" in done.stdout.splitlines()[-1], done.stdout
