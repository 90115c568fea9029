"""Monte Carlo harness: correlated-response data generators, the one
split-and-fit driver (:func:`fit_dataset`, which the CLI and the library
call too), a replication driver with deterministic parallelism, and
RMSE/BIAS/ESE/ASE summaries.

:func:`fit_dataset` solves the blocks of a fit as one stack, or one per
worker process, and its bundle is byte-identical for any worker count.

The unit of a study is one generated dataset: a replication generates
its (M, rep) dataset once and then fits it under each of its designs,
which differ only in K (no generator reads K), and takes each design's
results from one :func:`blockgmm.inference.infer` call, the chain that
the CLI and the library run too.
:func:`run_replications` gives it one design, :func:`grid_plot_data`
every K of the grid, and :func:`run_study` the main design along with
the grid's K of its M, all through one :func:`_fan_out` in job order.

Two error families are supported: ``kronecker-nested`` (covariance
S (x) A with S a random unit-diagonal positive-definite block matrix and
A an AR(1) block) and ``global-ar1`` (one AR(1) process across all M
responses, run for all subjects at once, one response position at a
time).  Every subject draws from its own stream,
``default_rng(SeedSequence([master seed, replication, subject]))``, so
the generated data are bit-identical for any worker count or scheduling
order.  The seed states of all subjects are hashed at once by
``subject_states``, numpy's SeedSequence algorithm run over the subject
axis, so the streams are exactly those of per-subject SeedSequences;
each subject then takes one draw of M*p standard normals into a buffer
that every subject reuses, and its values are copied once into the
covariates and the innovations.

A replication's arrays are freed and the next replication's are the same
size, so a study keeps its heap between replications (:func:`_keep_heap`,
glibc only) instead of faulting fresh zero-filled pages in for each.
"""

from __future__ import annotations

import ctypes
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .dataio import Dataset
from .engines import SolverOptions, fit_block, nuisance_dim, solve_blocks, solver_kind
from .errors import BlockGmmError, DataError
from .combine import SummaryBundle, check_group_size
from . import inference, partition

FAMILIES = ("kronecker-nested", "global-ar1")


def _check_plan(plan: partition.PartitionPlan, p: int, kind: str) -> None:
    """The admission rule (:func:`blockgmm.combine.check_group_size`) for
    the first of a plan's smallest groups, before any block is fitted."""
    n = min(plan.group_sizes)
    check_group_size(plan.group_sizes.index(n), n, plan.J * (p + nuisance_dim(kind)))


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
        for name in ("N", "M", "J", "K"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.family == "kronecker-nested" and self.M % self.J != 0:
            raise DataError(
                f"kronecker-nested needs M divisible by J, got M={self.M}, J={self.J}"
            )
        if not -1.0 < self.rho < 1.0:
            raise DataError(f"rho must lie in (-1, 1), got {self.rho}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DataError(f"sigma must be finite and positive, got {self.sigma}")
        if self.reps < 1:
            raise DataError(f"reps must be >= 1, got {self.reps}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if len(self.theta0) == 0:
            raise DataError("theta0 is empty: the shared parameter needs a component")
        if not all(np.isfinite(self.theta0)):
            raise DataError("theta0 must be finite")
        # self.kind checks the method and the working structure
        _check_plan(partition.make_plan(self.M, self.N, self.J, self.K), self.p, self.kind)

    @property
    def p(self) -> int:
        return len(self.theta0)

    @property
    def kind(self) -> str:
        return solver_kind(self.method, self.working)


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

    def rows(self) -> list:
        """One dict per component, keyed by the ``summary.csv`` column names."""
        stats = ("bias", "ese", "rmse", "ase", "coverage")
        return [{"component": name, **{s: float(getattr(self, s)[a]) for s in stats},
                 "reps": self.reps, "failures": self.failures}
                for a, name in enumerate(self.components)]


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


# SeedSequence constants (numpy/random/bit_generator.pyx); NEP 19 keeps
# the SeedSequence algorithm, and so these, stable across numpy versions
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4


def _uint32_words(value: int) -> list:
    """The little-endian 32-bit words SeedSequence makes of an int >= 0."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def subject_states(seed: int, rep: int, n: int) -> np.ndarray:
    """Every subject's ``SeedSequence([seed, rep, i]).generate_state(4,
    np.uint64)`` for i < n <= 2**32, as an (n, 4) uint64 array.

    The hash constants advance the same way whatever the entropy values
    are, so numpy's pool mixing and output hash run once over the subject
    axis in uint32 arithmetic (products wrap modulo 2**32, as in C).
    """
    words = _uint32_words(int(seed)) + _uint32_words(int(rep))
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[a] if a < len(entropy) else zero) for a in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    state = np.empty((n, 2 * _POOL), dtype=np.uint32)
    const = _INIT_B
    for a in range(2 * _POOL):
        value = pool[a % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(const)
        state[:, a] = value ^ (value >> np.uint32(16))
    # consecutive words pair up little-endian, as generate_state's uint64 view
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PresetState(ISeedSequence):
    """A seed sequence whose state is already known: hands PCG64 its row
    (PCG64 asks for exactly 4 uint64 words)."""

    __slots__ = ("row",)

    def __init__(self, row):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


def _draw_subjects(design: SimDesign, rep: int, slopes: np.ndarray, z: np.ndarray):
    """Draw each subject i's M*p standard normals from its stream,
    ``default_rng(SeedSequence([seed, rep, i]))``, into one reused buffer:
    the first M*(p-1) become ``slopes[i]`` (its non-intercept covariates,
    M x (p-1), row-major), the last M ``z[i]`` (its error innovations)."""
    M, p = design.M, design.p
    buf = np.empty(M * p)
    covs, innov = buf[: M * (p - 1)].reshape(M, p - 1), buf[M * (p - 1) :]
    for i, row in enumerate(subject_states(design.seed, rep, design.N)):
        np.random.Generator(np.random.PCG64(_PresetState(row))).standard_normal(out=buf)
        slopes[i] = covs
        z[i] = innov


def gen_kronecker_mvn(design: SimDesign, rep: int = 0) -> Dataset:
    """Dataset with error covariance S (x) (sigma^2 R_AR1), S fixed per design."""
    if design.family != "kronecker-nested":
        raise DataError("gen_kronecker_mvn requires family=kronecker-nested")
    J, M, N, p = design.J, design.M, design.N, design.p
    m = M // J
    s_factor = np.linalg.cholesky(random_pd_matrix(J, design.seed))
    a_factor = design.sigma * _ar1_chol(m, design.rho)
    theta0 = np.asarray(design.theta0)

    z = np.empty((N, J, m))
    covariates = np.empty((N, M, p))
    covariates[:, :, 0] = 1.0
    _draw_subjects(design, rep, covariates[:, :, 1:], z.reshape(N, M))
    # (L_S (x) L_A) z per subject, laid out with the J outer blocks
    # contiguous; the two products take turns in two N x M arrays
    left = np.matmul(s_factor, z)
    np.matmul(left, a_factor.T, out=z)
    del left
    responses = covariates @ theta0
    responses += z.reshape(N, M)
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

    z = np.empty((N, M))
    covariates = np.empty((N, M, p))
    covariates[:, :, 0] = 1.0
    _draw_subjects(design, rep, covariates[:, :, 1:], z)
    # position-major, so each step reads one row; each step sums
    # innov z_t + rho e_{t-1}, bit-equal to the order above (IEEE addition
    # commutes)
    err = z.T.copy()
    del z
    err[0] *= sigma
    err[1:] *= innov
    for t in range(1, M):
        err[t] += rho * err[t - 1]
    responses = covariates @ theta0
    responses += err.T
    return Dataset(
        responses=responses,
        covariates=covariates,
        subject_ids=tuple(range(1, N + 1)),
    )


def generate(design: SimDesign, rep: int = 0) -> Dataset:
    if design.family == "kronecker-nested":
        return gen_kronecker_mvn(design, rep)
    return gen_ar1_mvn(design, rep)


def check_workers(workers) -> int:
    """``workers`` if it is a worker count >= 1; otherwise a BlockGmmError."""
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise BlockGmmError(f"workers = {workers!r} is not a count >= 1")
    return workers


def _fan_out(func, jobs, workers: int) -> list:
    """``[func(job) for job in jobs]``: in this process for one worker or
    one job, otherwise over a pool of at most ``workers`` processes, in job
    order."""
    workers = min(check_workers(workers), len(jobs))
    if workers <= 1:
        return [func(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, jobs))


def _fit_chunk(args):
    """Fit a chunk of blocks: one stacked solve, then each block's fit from
    its row."""
    chunk, kind, opts = args
    rows = solve_blocks(chunk, kind, opts)
    return [fit_block(block, kind, opts, row) for block, row in zip(chunk, rows)]


def fit_dataset(
    data: Dataset,
    J: int,
    K: int,
    kind: str,
    strategy: str = "contiguous",
    seed: int = 0,
    opts: SolverOptions | None = None,
    workers: int = 1,
):
    """Split, fit every block, return (bundle, blocks).

    Every covariate column of ``data`` belongs to the shared parameter; a
    fit on a subset of them takes a :class:`Dataset` built from those
    columns.  The split gathers each subject group once per block-size
    bucket, and every block's arrays are views of its bucket.  The blocks,
    in sorted (j, k) order, are solved as one stack
    (:func:`blockgmm.engines.solve_blocks`: the moments of each bucket's
    blocks in one batched pass, one alternation over all of them, then the
    scores of each bucket's blocks in one residual pass per slab) and each
    block's fit is then packaged from its row.  With
    ``workers > 1`` the sorted keys are cut into ``workers`` contiguous
    chunks, and each worker process solves its chunk as one stack, taking
    the matching slice of each bucket; a pickled block carries its bucket
    once per chunk.  A block's fit has the same bits in any stack or
    bucket, so the bundle is identical for any worker count.  It holds
    each group's summary of its J fits, without their scores.  A plan
    whose smallest group is too small for its weights is rejected
    (:func:`_check_plan`) before any block is fitted.
    """
    check_workers(workers)
    plan = partition.make_plan(data.M, data.N, J, K, strategy=strategy, seed=seed)
    _check_plan(plan, data.q, kind)
    blocks = partition.split(data, plan)
    keys = sorted(blocks)
    chunks = min(workers, len(keys))
    cuts = [len(keys) * c // chunks for c in range(chunks + 1)]
    jobs = [([blocks[key] for key in keys[a:b]], kind, opts) for a, b in zip(cuts, cuts[1:])]
    fitted = [fit for part in _fan_out(_fit_chunk, jobs, chunks) for fit in part]
    return SummaryBundle.from_fits(plan, dict(zip(keys, fitted))), blocks


# glibc's mallopt parameters (malloc.h); 32 MiB is the ceiling glibc's own
# dynamic mmap threshold reaches on 64-bit, and the dynamic rule sets the
# trim threshold to twice the mmap threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_BYTES = 32 << 20
_heap_kept = False


def _keep_heap() -> None:
    """Fix glibc's malloc thresholds for the rest of the process, so that a
    replication's freed arrays stay mapped for the next one instead of
    going back to the kernel and being faulted in again, zero-filled.

    The policy is process-wide and stays set once a study has run: such a
    process keeps up to 64 MiB of freed heap resident.  Without glibc's
    ``mallopt``, or where it rejects a value, it does nothing.  It runs
    once per process.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES):
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_BYTES)


def _one_rep(args):
    """One replication: generate the dataset once, then fit it and infer
    from it under each design of the list (the designs differ only in K).

    Returns one plain dict per design; a failure fails only its own row.
    A row's wall time is its fit's, the first row's including generation.
    The process keeps its heap between replications (:func:`_keep_heap`).
    """
    _keep_heap()
    designs, rep = args
    data, rows, nan = None, [], float("nan")
    start = time.perf_counter()
    for design in designs:
        try:  # a failed generation fails the rows, as a failed fit does
            if data is None:
                data = generate(design, rep)
            bundle, _ = fit_dataset(data, design.J, design.K, design.kind)
            _, report, (stat, df, p_value) = inference.infer(bundle)
            row = {"ok": 1, "theta": report.estimates[: design.p].tolist(),
                   "ase": report.ase[: design.p].tolist(),
                   "overid_stat": stat, "overid_df": df, "overid_p": p_value}
        except BlockGmmError as exc:
            row = {"ok": 0, "theta": [nan] * design.p, "ase": [nan] * design.p,
                   "overid_stat": nan, "overid_df": 0, "overid_p": nan, "error": str(exc)}
        now = time.perf_counter()
        rows.append({"rep": rep, **row, "walltime": now - start})
        start = now
    return rows


def _run_designs(designs, workers: int) -> dict:
    """Every replication of each distinct design of the list (the designs
    differ only in M and K): one job per (M, rep) generates the dataset once
    and fits it under each design of that M.  Returns each design's rows,
    in replication order."""
    by_m = {}
    for design in designs:
        group = by_m.setdefault(design.M, [])
        if design not in group:
            group.append(design)
    reps = designs[0].reps
    jobs = [(group, rep) for group in by_m.values() for rep in range(reps)]
    results = _fan_out(_one_rep, jobs, workers)
    out = {}
    for a, group in enumerate(by_m.values()):
        for b, design in enumerate(group):
            out[design] = [rows[b] for rows in results[a * reps : (a + 1) * reps]]
    return out


def run_replications(design: SimDesign, workers: int = 1):
    """All replications of one design, in replication order whatever the
    scheduling.  Returns a list of per-rep dicts."""
    return _run_designs([design], workers)[design]


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
    q = inference.normal_quantile(alpha)
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

    Each (M, rep) dataset is generated once and fitted for every K.
    Returns, cell by cell, ``M``, ``K`` and the cell's summary rows; a
    cell whose replications all failed is a :class:`DataError` naming it.
    """
    cells = _cells(design, m_values, k_values)
    return _grid(cells, _run_designs(cells, workers), alpha)


def run_study(design: SimDesign, m_values=(), k_values=(), workers: int = 1,
              alpha: float = 0.05):
    """The main design's replications and the (M, K) grid of
    :func:`grid_plot_data`, from one fan-out: the main design rides in the
    jobs of its M, so its datasets are generated once, and a grid cell equal
    to it reuses its rows.  Returns (rows, grid); the grid is None without
    M or K values, or when every main replication failed."""
    cells = _cells(design, m_values, k_values)
    results = _run_designs([design, *cells], workers)
    rows = results[design]
    grid = _grid(cells, results, alpha) if cells and any(r["ok"] for r in rows) else None
    return rows, grid


def _cells(design: SimDesign, m_values, k_values) -> list:
    return [replace(design, M=int(m), K=int(k)) for m in m_values for k in k_values]


def _grid(cells, results: dict, alpha: float) -> list:
    out = []
    for d in cells:
        try:
            summ = summarize(results[d], d.theta0, alpha)
        except DataError as exc:
            raise DataError(f"grid cell M={d.M}, K={d.K}: {exc}") from None
        out += [{"M": d.M, "K": d.K, **r} for r in summ.rows()]
    return out
