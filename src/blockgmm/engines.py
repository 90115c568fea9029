"""Uniform block-solver interface over every supported estimation kernel.

Kernels: ``gee-ar1``, ``gee-exchangeable``, ``gee-independence`` (weighted
least squares with residual-moment nuisance equations) and ``cl-ar1``
(pairwise composite likelihood).  A kernel is three operations, and only
these three functions dispatch on the kind.  :func:`block_moments`
reduces a block to a few p-sized moments: for GEE the least-squares
start, the design Grams and the cross sums and totals of the start
residuals over the working-correlation basis; for CL the start and the
per-lag Grams of [X, r0].  :func:`block_means` gives the mean estimating
functions of a list of blocks and their exact Jacobians at any
(theta, zeta) by closed-form algebra on the moments, so the solvers
iterate, the sensitivity (the negative Jacobian) is formed and the
over-identification test is taken without another pass over the data.
:func:`eval_scores` makes the per-subject scores, which the weights of
the combination need, in one residual pass.

:func:`solve_blocks` solves a list of blocks of one kind: GEE in one
stacked alternation over their moments, taken by one
:func:`blockgmm.gee.gee_moments` call per bucket (the blocks of a subject
group's run of equal-size response blocks, which
:func:`blockgmm.partition.split` gathers into one array, a block alone
being a bucket of one), CL by each block's damped Newton on its lag
moments, and the Jacobians at the solution in one :func:`block_means`
call.  Each block's row of that solve
(:class:`BlockSolution`) goes to :func:`fit_block`, which keeps the
moments on its :class:`BlockFit`; its only pass over the data is
:func:`eval_scores`.  Without a row, :func:`fit_block` solves its block as
a stack of one, with the same bits.  Nothing is differentiated
numerically and there is no step size to choose.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import composite, gee
from .errors import NumericDomainError, SolverError
from .partition import BlockData

GEE_KINDS = ("gee-ar1", "gee-exchangeable", "gee-independence")
KINDS = (*GEE_KINDS, "cl-ar1")
METHODS = ("gee", "cl")
WORKINGS = ("ar1", "exchangeable", "independence")


def solver_kind(method: str, working: str) -> str:
    """The kernel of an estimation method and a working structure; CL has
    only its AR(1) kernel, whatever the working structure."""
    if method not in METHODS:
        raise SolverError(f"unknown method {method!r}, expected one of {METHODS}")
    if working not in WORKINGS:
        raise SolverError(f"unknown working structure {working!r}, expected one of {WORKINGS}")
    return "cl-ar1" if method == "cl" else f"gee-{working}"


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        tol, max_iter = self.tol, self.max_iter
        # a bool is an Integral, and so a Real, but neither a tolerance nor a count
        real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
        if not (real and math.isfinite(tol) and tol > 0):
            raise SolverError(f"tol = {tol!r} is not a finite number > 0")
        count = isinstance(max_iter, numbers.Integral) and not isinstance(max_iter, bool)
        if not (count and max_iter >= 1):
            raise SolverError(f"max_iter = {max_iter!r} is not an integer >= 1")


@dataclass(frozen=True)
class NuisanceSpec:
    """Estimation kernel and implied nuisance dimension."""

    kind: str = "gee-ar1"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SolverError(f"unknown solver kind {self.kind!r}")

    @property
    def d(self) -> int:
        return gee.nuisance_dim(self.working)

    @property
    def method(self) -> str:
        return "cl" if self.kind.startswith("cl") else "gee"

    @property
    def working(self) -> str:
        return self.kind.split("-", 1)[1]


@dataclass(frozen=True)
class BlockRecord:
    """A solved block's estimates and convergence record: all that a bundle
    archive keeps of it."""

    j: int
    k: int
    kind: str
    theta_hat: np.ndarray  # (p,)
    zeta_hat: np.ndarray  # (d_jk,) as (sigma^2,) or (sigma^2, rho)
    converged: bool
    iterations: int
    final_norm: float
    rho_clamped: bool = False

    @property
    def p(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def d(self) -> int:
        return self.zeta_hat.shape[0]


@dataclass(frozen=True, kw_only=True)
class BlockFit(BlockRecord):
    """Solved block in memory: its record plus per-subject scores, the
    sample sensitivity and the block's moments, from which its group's
    summary and its share of the over-identification test are built."""

    scores: np.ndarray  # (n_k, p + d_jk), row i = (psi_i, g_i)
    sensitivity: np.ndarray  # (p + d_jk, p + d_jk)
    moments: tuple | None = None  # gee.GeeMoments or composite.LagMoments

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def block_moments(block: BlockData, kind: str) -> tuple:
    """The block's moments under ``kind``, as :func:`fit_block` keeps them."""
    if kind == "cl-ar1":
        return composite._lag_moments(block)[0]
    return _gee_moments([block], NuisanceSpec(kind).working)[0]


def _gee_moments(blocks: list, structure: str) -> list:
    """Each block's :class:`blockgmm.gee.GeeMoments`, in list order, from
    one :func:`blockgmm.gee.gee_moments` call per bucket over the slots of
    it that the list holds (a slice of the bucket when they run in order,
    as a chunk of sorted keys does)."""
    members = {}
    for pos, block in enumerate(blocks):
        members.setdefault(id(block.bucket), (block.bucket, []))[1].append((pos, block.slot))
    moments = [None] * len(blocks)
    for bucket, held in members.values():
        positions, slots = zip(*held)
        run = range(slots[0], slots[0] + len(slots))
        index = slice(run.start, run.stop) if slots == tuple(run) else list(slots)
        rows = gee.gee_moments(
            bucket.y[index], bucket.X[index], structure, [bucket.keys[s] for s in slots]
        )
        for pos, row in zip(positions, rows):
            moments[pos] = row
    return moments


def block_means(moments: list, theta, zetas, kind: str, jacobian: bool = False):
    """(rows, jacobians) of B blocks of one kind from their moments alone:
    the mean estimating function rows (B, p + d_jk), block b at zetas[b]
    and at theta, shared (p,) or row b of (B, p), and with ``jacobian``
    their exact Jacobians on the natural (theta, sigma^2, rho) scale (else
    None).  GEE blocks take one stacked :func:`blockgmm.gee.mean_terms`
    call, CL blocks one call each."""
    theta = np.asarray(theta, dtype=float)
    thetas = np.broadcast_to(theta, (len(moments), theta.shape[-1]))
    zetas = np.asarray(zetas, dtype=float)
    if kind == "cl-ar1":
        rows, jacs = zip(*(
            composite._mean_terms(mom, th, zeta, hessian=jacobian)
            for mom, th, zeta in zip(moments, thetas, zetas)
        ))
        return np.array(rows), np.array(jacs) if jacobian else None
    return gee.mean_terms(
        gee.stack_moments(moments), thetas, zetas, NuisanceSpec(kind).working, jacobian
    )


def eval_scores(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Per-subject score matrix (n_k, p + d_jk) at arbitrary (theta, zeta),
    from one residual pass."""
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if kind == "cl-ar1":
        return composite.cl_scores(block, theta, zeta)
    return gee.gee_scores(block, theta, zeta, NuisanceSpec(kind).working)


def sample_sensitivity(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Negative Jacobian of the averaged estimating function at (theta, zeta),
    from moments rebuilt from the block by :func:`block_moments`.

    ``cl-ar1``: the exact negative Hessian of the mean pairwise
    log-likelihood; GEE kernels: the closed form of
    :func:`blockgmm.gee.mean_terms`.  Both are on the natural
    (theta, sigma^2, rho) scale, and at a fit's estimates both have the
    bits of :func:`fit_block`'s sensitivity.
    """
    _, jac = block_means([block_moments(block, kind)], theta, [zeta], kind, jacobian=True)
    return _finite(-jac[0])


def _finite(sens: np.ndarray) -> np.ndarray:
    if not np.isfinite(sens).all():
        r, c = np.argwhere(~np.isfinite(sens))[0]
        raise NumericDomainError(f"non-finite sensitivity entry at ({r}, {c})")
    return sens


class BlockSolution(NamedTuple):
    """A block's row of a solve: its estimates, convergence record and
    moments, and the Jacobian of its mean estimating function at the
    estimates."""

    theta: np.ndarray
    zeta: np.ndarray
    converged: bool
    iterations: int
    clamped: bool
    moments: tuple
    jacobian: np.ndarray


def solve_blocks(blocks: list, spec: NuisanceSpec, opts: SolverOptions | None = None) -> list:
    """Solve blocks of one kind; returns one :class:`BlockSolution` per block.

    GEE: the moments of the blocks that share a bucket in one batched
    pass, over the slice of the bucket that the list holds, then one
    stacked alternation over all of them.  CL: each block's damped Newton,
    on its lag moments.  The Jacobians at the solution take one
    :func:`block_means` call.  A block's row has the same bits in any
    stack or bucket, a stack of one included.  Of several blocks with a
    singular design or an exact fit, the error names the first in list
    order.
    """
    opts = opts or SolverOptions()
    if spec.method == "cl":
        solved = []
        for block in blocks:
            if block.m < 2:
                raise SolverError(f"cl-ar1 needs m >= 2, block has m={block.m}")
            solved.append(composite.fit_cl_block(block, tol=opts.tol, max_iter=opts.max_iter))
        theta, zeta, converged, iterations, clamped, moments = zip(*solved)
    else:
        try:
            moments = _gee_moments(blocks, spec.working)
        except SolverError:
            # of several bad blocks, name the first in list order, as alone
            for block in blocks:
                _gee_moments([block], spec.working)
            raise
        theta, zeta, converged, iterations, clamped = gee.fit_gee_block(
            gee.stack_moments(moments), spec.working, [(block.j, block.k) for block in blocks],
            tol=opts.tol, max_iter=opts.max_iter,
        )
    _, jac = block_means(moments, theta, zeta, spec.kind, jacobian=True)
    return [
        BlockSolution(
            theta[b], zeta[b], bool(converged[b]), int(iterations[b]), bool(clamped[b]),
            moments[b], jac[b],
        )
        for b in range(len(blocks))
    ]


def fit_block(
    block: BlockData,
    spec: NuisanceSpec,
    opts: SolverOptions | None = None,
    solution: BlockSolution | None = None,
) -> BlockFit:
    """Fit one block and package estimates, scores, sensitivity and moments.

    ``solution`` is the block's row of :func:`solve_blocks`; without it the
    block is solved alone, as a stack of one.  One residual pass at the
    solution gives the scores, and the sensitivity is the row's negative
    Jacobian.
    """
    if solution is None:
        solution = solve_blocks([block], spec, opts)[0]
    theta, zeta, converged, iterations, clamped, moments, jac = solution
    scores = eval_scores(block, theta, zeta, spec.kind)
    sens = _finite(-jac)
    # a rho held at the clamp leaves its moment equation unsolved
    converged = converged and not clamped
    final_norm = float(np.linalg.norm(scores.mean(axis=0)))
    return BlockFit(
        j=block.j,
        k=block.k,
        kind=spec.kind,
        theta_hat=theta,
        zeta_hat=zeta,
        scores=scores,
        sensitivity=sens,
        moments=moments,
        converged=converged,
        iterations=iterations,
        final_norm=final_norm,
        rho_clamped=clamped,
    )
