"""Monte Carlo harness: correlated-response data generators, a replication
driver with deterministic parallelism, and RMSE/BIAS/ESE/ASE summaries.

Two error families are supported: ``kronecker-nested`` (covariance
S (x) A with S a random unit-diagonal positive-definite block matrix and
A an AR(1) block) and ``global-ar1`` (one AR(1) process across all M
responses, run for all subjects at once, one response position at a
time).  Every subject draws from its own counter-based RNG stream
derived from (master seed, replication, subject), so the generated data
are bit-identical for any worker count or scheduling order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.stats

from .dataio import Dataset
from .engines import NuisanceSpec, SolverOptions, fit_block
from .errors import BlockGmmError, DataError
from .combine import SummaryBundle
from .combine import combine as combine_bundle
from . import inference, partition

FAMILIES = ("kronecker-nested", "global-ar1")


@dataclass(frozen=True)
class SimDesign:
    family: str = "kronecker-nested"
    N: int = 500
    M: int = 60
    J: int = 3
    K: int = 2
    theta0: tuple = (0.3, 0.6, 0.8)
    sigma: float = 4.0
    rho: float = 0.8
    method: str = "gee"  # gee | cl
    working: str = "ar1"
    reps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown simulation family {self.family!r}")
        if self.family == "kronecker-nested" and self.M % self.J != 0:
            raise DataError(
                f"kronecker-nested needs M divisible by J, got M={self.M}, J={self.J}"
            )
        if not -1.0 < self.rho < 1.0:
            raise DataError(f"rho must lie in (-1, 1), got {self.rho}")
        if self.sigma <= 0:
            raise DataError(f"sigma must be positive, got {self.sigma}")
        if self.reps < 1:
            raise DataError(f"reps must be >= 1, got {self.reps}")
        if not all(np.isfinite(self.theta0)):
            raise DataError("theta0 must be finite")

    @property
    def p(self) -> int:
        return len(self.theta0)

    @property
    def kind(self) -> str:
        return "cl-ar1" if self.method == "cl" else f"gee-{self.working}"


@dataclass(frozen=True)
class SimSummary:
    components: tuple  # parameter labels
    bias: np.ndarray
    ese: np.ndarray
    rmse: np.ndarray
    ase: np.ndarray
    coverage: np.ndarray
    reps: int
    failures: int

    @property
    def failure_rate(self) -> float:
        return self.failures / (self.reps + self.failures)


def random_pd_matrix(J: int, seed: int) -> np.ndarray:
    """Unit-diagonal positive-definite J x J matrix: Gram + diagonal boost."""
    g = np.random.default_rng(seed).standard_normal((J, J))
    p = g @ g.T + J * np.eye(J)
    scale = 1.0 / np.sqrt(np.diag(p))
    p = p * np.outer(scale, scale)
    np.fill_diagonal(p, 1.0)
    return p


def _ar1_chol(m: int, rho: float) -> np.ndarray:
    """Lower Cholesky factor of the m x m AR(1) correlation matrix."""
    corr = rho ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    return np.linalg.cholesky(corr)


def _covariates(rng, M: int, p: int) -> np.ndarray:
    """Intercept plus p-1 independent M-dimensional standard-normal columns."""
    x = np.empty((M, p))
    x[:, 0] = 1.0
    if p > 1:
        x[:, 1:] = rng.standard_normal((M, p - 1))
    return x


def _subject_rng(seed: int, rep: int, i: int):
    return np.random.default_rng(np.random.SeedSequence([seed, rep, i]))


def gen_kronecker_mvn(design: SimDesign, rep: int = 0) -> Dataset:
    """Dataset with error covariance S (x) (sigma^2 R_AR1), S fixed per design."""
    if design.family != "kronecker-nested":
        raise DataError("gen_kronecker_mvn requires family=kronecker-nested")
    J, M, N, p = design.J, design.M, design.N, design.p
    m = M // J
    s_factor = np.linalg.cholesky(random_pd_matrix(J, design.seed))
    a_factor = design.sigma * _ar1_chol(m, design.rho)
    theta0 = np.asarray(design.theta0)

    responses = np.empty((N, M))
    covariates = np.empty((N, M, p))
    for i in range(N):
        rng = _subject_rng(design.seed, rep, i)
        x = _covariates(rng, M, p)
        z = rng.standard_normal((J, m))
        # (L_S (x) L_A) z, laid out with the J outer blocks contiguous
        err = (s_factor @ z @ a_factor.T).reshape(M)
        covariates[i] = x
        responses[i] = x @ theta0 + err
    return Dataset(
        responses=responses,
        covariates=covariates,
        subject_ids=tuple(range(1, N + 1)),
    )


def gen_ar1_mvn(design: SimDesign, rep: int = 0) -> Dataset:
    """Dataset with a single stationary AR(1) error process across responses.

    Each subject draws its covariates and then M standard normals z from
    its own stream.  The errors e_0 = sigma z_0 and
    e_t = rho e_{t-1} + sigma sqrt(1 - rho^2) z_t are then run for all
    subjects at once, one response position at a time.
    """
    if design.family != "global-ar1":
        raise DataError("gen_ar1_mvn requires family=global-ar1")
    M, N, p = design.M, design.N, design.p
    rho, sigma = design.rho, design.sigma
    innov = sigma * np.sqrt(1.0 - rho * rho)
    theta0 = np.asarray(design.theta0)

    z = np.empty((M, N))  # position-major, so each step reads one row
    covariates = np.empty((N, M, p))
    for i in range(N):
        rng = _subject_rng(design.seed, rep, i)
        covariates[i] = _covariates(rng, M, p)
        z[:, i] = rng.standard_normal(M)
    err = np.empty((M, N))
    err[0] = sigma * z[0]
    for t in range(1, M):
        err[t] = rho * err[t - 1] + innov * z[t]
    return Dataset(
        responses=covariates @ theta0 + err.T,
        covariates=covariates,
        subject_ids=tuple(range(1, N + 1)),
    )


def generate(design: SimDesign, rep: int = 0) -> Dataset:
    if design.family == "kronecker-nested":
        return gen_kronecker_mvn(design, rep)
    return gen_ar1_mvn(design, rep)


def _fit_one_block(args):
    block, kind, opts = args
    return fit_block(block, NuisanceSpec(kind), opts)


def fit_dataset(
    data: Dataset,
    J: int,
    K: int,
    kind: str,
    strategy: str = "contiguous",
    seed: int = 0,
    opts: SolverOptions | None = None,
    theta_cols=None,
    workers: int = 1,
):
    """Split, fit every block (optionally in parallel), return (bundle, blocks).

    Results are keyed by (j, k), so the bundle is identical for any
    worker count.
    """
    plan = partition.make_plan(data.M, data.N, J, K, strategy=strategy, seed=seed)
    blocks = partition.split(data, plan, theta_cols=theta_cols)
    keys = sorted(blocks)
    if workers > 1 and len(keys) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fitted = list(
                pool.map(
                    _fit_one_block,
                    [(blocks[key], kind, opts) for key in keys],
                )
            )
        fits = dict(zip(keys, fitted))
    else:
        spec = NuisanceSpec(kind)
        fits = {key: fit_block(blocks[key], spec, opts) for key in keys}
    return SummaryBundle(plan=plan, fits=fits), blocks


def _one_rep(args):
    """One replication: generate, fit, combine, test.  Returns a plain dict."""
    design, rep = args
    start = time.perf_counter()
    try:
        data = generate(design, rep)
        bundle, blocks = fit_dataset(
            data, design.J, design.K, design.kind, strategy="contiguous"
        )
        fit = combine_bundle(bundle)
        stat, df, p_value = inference.overid_test(blocks, bundle, fit, fit.W)
        ase = np.sqrt(fit.variances[: design.p])
        row = {
            "rep": rep,
            "ok": 1,
            "theta": fit.theta.tolist(),
            "ase": ase.tolist(),
            "overid_stat": stat,
            "overid_df": df,
            "overid_p": p_value,
        }
    except BlockGmmError as exc:
        row = {
            "rep": rep,
            "ok": 0,
            "theta": [float("nan")] * design.p,
            "ase": [float("nan")] * design.p,
            "overid_stat": float("nan"),
            "overid_df": 0,
            "overid_p": float("nan"),
            "error": str(exc),
        }
    row["walltime"] = time.perf_counter() - start
    return row


def run_replications(design: SimDesign, workers: int = 1):
    """All replications, sorted by index so output order never depends on
    scheduling.  Returns a list of per-rep dicts."""
    jobs = [(design, rep) for rep in range(design.reps)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_one_rep, jobs, chunksize=1))
    else:
        rows = [_one_rep(job) for job in jobs]
    rows.sort(key=lambda r: r["rep"])
    return rows


def summarize(rows, theta0, alpha: float = 0.05) -> SimSummary:
    """Per-component BIAS, ESE, RMSE, mean ASE, and CI coverage."""
    ok = [r for r in rows if r["ok"]]
    if not ok:
        raise DataError("no successful replications to summarize")
    theta0 = np.asarray(theta0, dtype=float)
    est = np.array([r["theta"] for r in ok])
    ase = np.array([r["ase"] for r in ok])
    reps = est.shape[0]

    bias = est.mean(axis=0) - theta0
    ese = est.std(axis=0, ddof=1) if reps > 1 else np.zeros_like(theta0)
    rmse = np.sqrt(np.mean((est - theta0) ** 2, axis=0))
    q = scipy.stats.norm.ppf(1.0 - alpha / 2.0)
    covered = np.abs(est - theta0) <= q * ase
    return SimSummary(
        components=tuple(f"theta_{a + 1}" for a in range(theta0.size)),
        bias=bias,
        ese=ese,
        rmse=rmse,
        ase=ase.mean(axis=0),
        coverage=covered.mean(axis=0),
        reps=reps,
        failures=len(rows) - reps,
    )


def grid_plot_data(
    design: SimDesign, m_values, k_values, workers: int = 1, alpha: float = 0.05
) -> list:
    """Mean-ASE grid over (M, K) for external plotting; coverage is of
    the level-``alpha`` intervals.

    Returns rows (M, K, component, ase, ese, rmse, bias, coverage).
    """
    out = []
    for m in m_values:
        for k in k_values:
            d = replace(design, M=int(m), K=int(k))
            rows = run_replications(d, workers=workers)
            summ = summarize(rows, d.theta0, alpha)
            for idx, name in enumerate(summ.components):
                out.append(
                    {
                        "M": int(m),
                        "K": int(k),
                        "component": name,
                        "ase": float(summ.ase[idx]),
                        "ese": float(summ.ese[idx]),
                        "rmse": float(summ.rmse[idx]),
                        "bias": float(summ.bias[idx]),
                        "coverage": float(summ.coverage[idx]),
                    }
                )
    return out
