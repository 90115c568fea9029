"""Every per-layer timing or call count that BENCHMARK.json declares names
a public function of a package layer, so a traced run reports it.

The tracer wraps the public functions defined in each layer module and
reports ``<layer>.<function>.s`` and ``.calls`` for those alone; a
declared metric whose function was removed or renamed drops out of the
traced result line instead of reading 0.

The declared residual-pass metrics (``engines.eval_scores`` and the
kernels' ``gee.gee_scores`` and ``composite.cl_scores``) count the calls
of the functions a fit really makes: one ``eval_scores`` call per solve,
and under it one ``gee_scores`` call per slab of a bucket (the blocks of
a subject group's run of equal-size response blocks) or one
``cl_scores`` call per block.  ``engines.fit_block`` still packages each
block once.

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
def test_a_fit_makes_one_scores_pass_per_slab_through_the_declared_names(kind, monkeypatch):
    calls = []
    for module, name in (
        (engines, "eval_scores"),
        (simstudy, "fit_block"),
        (gee, "gee_scores"),
        (composite, "cl_scores"),
    ):
        original = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        monkeypatch.setattr(
            module, name,
            lambda *args, _f=original, _l=label, **kw: calls.append(_l) or _f(*args, **kw),
        )
    # M = 7 on J = 3: each group has a bucket of one 3-response block and one
    # of two 2-response blocks
    data, _ = random_dataset(N=40, M=7, p=2, seed=3)
    J, K = 3, 2
    bundle, blocks = simstudy.fit_dataset(data, J, K, kind)
    assert len(bundle.fits) == J * K
    buckets = {id(block.bucket): block.bucket for block in blocks.values()}.values()
    assert len(buckets) == 2 * K
    slabs = sum(len(gee._slabs(bucket.X)) for bucket in buckets)
    assert slabs == 2 * K
    if kind == "cl-ar1":
        kernel, passes = "composite.cl_scores", J * K
    else:
        kernel, passes = "gee.gee_scores", slabs
    assert calls.count("simstudy.fit_block") == J * K
    assert calls.count("engines.eval_scores") == 1
    assert calls.count(kernel) == passes
    assert len(calls) == J * K + 1 + passes


@pytest.mark.slow
def test_benchmark_self_test_passes():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 failure(s)" in done.stdout.splitlines()[-1], done.stdout
