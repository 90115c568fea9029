"""Shared fixtures: small simulated datasets and fitted bundles."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from blockgmm import composite, gee, simstudy
from blockgmm.dataio import Dataset

# the same examples on every run, and no example database on disk
settings.register_profile("blockgmm", derandomize=True, database=None)
settings.load_profile("blockgmm")


def pytest_configure(config):
    # hypothesis still caches the constants it reads from local modules; keep
    # that cache in pytest's cache directory rather than in .hypothesis/
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def make_ar1_design(**overrides):
    """Small AR(1)-error design used across the suite."""
    base = dict(
        family="global-ar1",
        N=200,
        M=12,
        J=2,
        K=2,
        theta0=(0.3, 0.6, 0.8),
        sigma=2.0,
        rho=0.5,
        reps=1,
        seed=12345,
    )
    base.update(overrides)
    return simstudy.SimDesign(**base)


def column_subset(data, cols=None):
    """The dataset on covariate columns ``cols``, in that order (all of
    them for None): a model of the shared parameter on those columns."""
    if cols is None:
        return data
    return Dataset(data.responses, data.covariates[:, :, list(cols)], data.subject_ids)


def random_dataset(N, M, p=3, seed=0, sigma=1.0):
    """Independent-error dataset with known coefficients (no correlation)."""
    rng = np.random.default_rng(seed)
    theta0 = np.linspace(0.5, 1.5, p)
    covariates = np.empty((N, M, p))
    covariates[:, :, 0] = 1.0
    if p > 1:
        covariates[:, :, 1:] = rng.standard_normal((N, M, p - 1))
    responses = covariates @ theta0 + sigma * rng.standard_normal((N, M))
    return (
        Dataset(
            responses=responses,
            covariates=covariates,
            subject_ids=tuple(range(1, N + 1)),
        ),
        theta0,
    )


def near_unit_root_dataset(N=100, M=6, rho=0.9995, seed=5):
    """AR(1) errors with rho beyond the solvers' 0.999 clamp."""
    data, theta0 = random_dataset(N=N, M=M, p=3, seed=seed)
    rng = np.random.default_rng(seed)
    errors = np.empty((N, M))
    errors[:, 0] = rng.standard_normal(N)
    for t in range(1, M):
        errors[:, t] = rho * errors[:, t - 1] + np.sqrt(1 - rho * rho) * rng.standard_normal(N)
    return Dataset(
        responses=data.covariates @ theta0 + errors,
        covariates=data.covariates,
        subject_ids=data.subject_ids,
    )


def record_passes(monkeypatch) -> list:
    """Record every Gram build and pass over a block's data that either
    kernel makes; returns the list the calls are appended to."""
    calls = []
    for module, name, label in (
        (gee, "_grams", "grams"),
        (gee, "_residuals", "residual pass"),
        (composite, "_lag_moments", "lag moments"),
        (composite, "cl_scores", "residual pass"),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(
            module,
            name,
            lambda *args, _f=original, _l=label: calls.append(_l) or _f(*args),
        )
    return calls


@pytest.fixture(scope="session")
def ar1_dataset():
    return simstudy.generate(make_ar1_design(), rep=0)


@pytest.fixture(scope="session")
def fitted_bundle(ar1_dataset):
    """2x2 GEE-AR(1) bundle plus its blocks, fitted once per session."""
    return simstudy.fit_dataset(ar1_dataset, 2, 2, "gee-ar1")
