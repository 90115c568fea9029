"""Uniform block-solver interface over every supported estimation kernel.

Kernels: ``gee-ar1``, ``gee-exchangeable``, ``gee-independence`` (weighted
least squares with residual-moment nuisance equations) and ``cl-ar1``
(pairwise composite likelihood), each named by its ``kind`` string.  A
kernel is four operations, and only these four functions dispatch on the
kind.  :func:`block_moments` reduces a list of blocks to a few p-sized
moments each: for GEE the least-squares start, the design Grams and the
cross sums and totals of the start residuals over the working-correlation
basis, from one :func:`blockgmm.gee.gee_moments` call per bucket (the
blocks of a subject group's run of equal-size response blocks, which
:func:`blockgmm.partition.split` gathers into one array, a block alone
being a bucket of one); for CL the start, the per-lag Grams of [X, r0]
and the moment estimates of (sigma^2, rho) that start Newton.
:func:`solve_blocks` checks the blocks' shapes, takes their moments and
solves on the moments alone: GEE in one stacked alternation, CL by each
block's damped Newton.  :func:`block_means` gives the mean estimating
functions of a list of blocks and their exact Jacobians at any
(theta, zeta) by closed-form algebra on the moments, so the solvers
iterate, the sensitivity (the negative Jacobian) is formed and the
over-identification test is taken without another pass over the data.
:func:`eval_scores` makes the per-subject scores, which the weights of the
combination need, in one residual pass.

Each block's row of a solve (:class:`BlockSolution`) goes to
:func:`fit_block`, which keeps the moments on its :class:`BlockFit`; its
only pass over the data is :func:`eval_scores`.  Without a row,
:func:`fit_block` solves its block as a stack of one, with the same bits.
Nothing is differentiated numerically and there is no step size to
choose.
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


def _structure(kind: str) -> str:
    """The working structure of a kernel kind (CL's is ``ar1``)."""
    if kind not in KINDS:
        raise SolverError(f"unknown solver kind {kind!r}, expected one of {KINDS}")
    return kind.split("-", 1)[1]


def nuisance_dim(kind: str) -> int:
    """The number d of nuisance parameters a block of this kind estimates."""
    return gee.nuisance_dim(_structure(kind))


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


def block_moments(blocks: list, kind: str) -> list:
    """Each block's moments under ``kind``, in list order, as
    :func:`fit_block` keeps them: a :class:`blockgmm.composite.LagMoments`
    per CL block, and for GEE one :func:`blockgmm.gee.gee_moments` call per
    bucket over the slots of it that the list holds (a slice of the bucket
    when they run in order, as a chunk of sorted keys does).  Of several
    blocks with a singular design, overflowing sums of squares or an
    exact fit, the error names the first in list order, as alone."""
    structure = _structure(kind)
    if kind == "cl-ar1":
        return [composite._lag_moments(block) for block in blocks]
    members = {}
    for pos, block in enumerate(blocks):
        members.setdefault(id(block.bucket), (block.bucket, []))[1].append((pos, block.slot))
    moments = [None] * len(blocks)
    try:
        for bucket, held in members.values():
            positions, slots = zip(*held)
            run = range(slots[0], slots[0] + len(slots))
            index = slice(run.start, run.stop) if slots == tuple(run) else list(slots)
            rows = gee.gee_moments(
                bucket.y[index], bucket.X[index], structure, [bucket.keys[s] for s in slots]
            )
            for pos, row in zip(positions, rows):
                moments[pos] = row
    except (SolverError, NumericDomainError):
        if len(blocks) > 1:
            for block in blocks:
                block_moments([block], kind)
        raise
    return moments


def block_means(moments: list, theta, zetas, kind: str, jacobian: bool = False):
    """(rows, jacobians) of B blocks of one kind from their moments alone:
    the mean estimating function rows (B, p + d_jk), block b at zetas[b]
    and at theta, shared (p,) or row b of (B, p), and with ``jacobian``
    their exact Jacobians on the natural (theta, sigma^2, rho) scale (else
    None).  GEE blocks take one stacked :func:`blockgmm.gee.mean_terms`
    call, CL blocks one call each."""
    structure = _structure(kind)
    theta = np.asarray(theta, dtype=float)
    thetas = np.broadcast_to(theta, (len(moments), theta.shape[-1]))
    zetas = np.asarray(zetas, dtype=float)
    if kind == "cl-ar1":
        rows, jacs = zip(*(
            composite._mean_terms(mom, th, zeta, hessian=jacobian)
            for mom, th, zeta in zip(moments, thetas, zetas)
        ))
        return np.array(rows), np.array(jacs) if jacobian else None
    return gee.mean_terms(gee.stack_moments(moments), thetas, zetas, structure, jacobian)


def eval_scores(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Per-subject score matrix (n_k, p + d_jk) at arbitrary (theta, zeta),
    from one residual pass."""
    structure = _structure(kind)
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if kind == "cl-ar1":
        return composite.cl_scores(block, theta, zeta)
    return gee.gee_scores(block, theta, zeta, structure)


def sample_sensitivity(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Negative Jacobian of the averaged estimating function at (theta, zeta),
    from moments rebuilt from the block by :func:`block_moments`.

    ``cl-ar1``: the exact negative Hessian of the mean pairwise
    log-likelihood; GEE kernels: the closed form of
    :func:`blockgmm.gee.mean_terms`.  Both are on the natural
    (theta, sigma^2, rho) scale, and at a fit's estimates both have the
    bits of :func:`fit_block`'s sensitivity.
    """
    _, jac = block_means(block_moments([block], kind), theta, [zeta], kind, jacobian=True)
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


def solve_blocks(blocks: list, kind: str, opts: SolverOptions | None = None) -> list:
    """Solve blocks of one kind; returns one :class:`BlockSolution` per block.

    Every block's shape is checked first: more subjects than its p + d
    parameters, and at least two responses where d = 2 (a rho), the first
    bad block in list order named.  Then one :func:`block_moments` pass,
    the kernel's solve on the moments alone (GEE: one stacked alternation
    over all the blocks; CL: each block's damped Newton), and the
    Jacobians at the solution in one :func:`block_means` call.  A block's
    row has the same bits in any stack or bucket, a stack of one included.
    """
    opts = opts or SolverOptions()
    d = nuisance_dim(kind)
    for block in blocks:
        where = f"block ({block.j}, {block.k})"
        if block.n <= block.p + d:
            raise SolverError(f"{where}: n={block.n} too small for p+d={block.p + d} parameters")
        if d == 2 and block.m < 2:
            raise SolverError(f"{where}: m={block.m} too small; {kind} needs m >= 2 for rho")
    moments = block_moments(blocks, kind)
    keys = [(block.j, block.k) for block in blocks]
    if kind == "cl-ar1":
        theta, zeta, converged, iterations, clamped = zip(*(
            composite.fit_cl_block(mom, key, tol=opts.tol, max_iter=opts.max_iter)
            for mom, key in zip(moments, keys)
        ))
    else:
        theta, zeta, converged, iterations, clamped = gee.fit_gee_block(
            gee.stack_moments(moments), _structure(kind), keys,
            tol=opts.tol, max_iter=opts.max_iter,
        )
    _, jac = block_means(moments, theta, zeta, kind, jacobian=True)
    return [
        BlockSolution(
            theta[b], zeta[b], bool(converged[b]), int(iterations[b]), bool(clamped[b]),
            moments[b], jac[b],
        )
        for b in range(len(blocks))
    ]


def fit_block(
    block: BlockData,
    kind: str,
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
        solution = solve_blocks([block], kind, opts)[0]
    theta, zeta, converged, iterations, clamped, moments, jac = solution
    scores = eval_scores(block, theta, zeta, kind)
    sens = _finite(-jac)
    # a rho held at the clamp leaves its moment equation unsolved
    converged = converged and not clamped
    # a norm that overflows is recorded as inf
    with np.errstate(over="ignore"):
        final_norm = float(np.linalg.norm(scores.mean(axis=0)))
    return BlockFit(
        j=block.j,
        k=block.k,
        kind=kind,
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
