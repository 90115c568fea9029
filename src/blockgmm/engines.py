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
:func:`eval_scores` makes the per-subject scores of a list of blocks,
which the weights of the combination need: for GEE one
:func:`blockgmm.gee.gee_scores` residual pass per slab of each bucket's
share of the list (the grouping by bucket that :func:`block_moments`
uses), for CL one pass per block.

:func:`solve_blocks` ends with that scores pass, so each block's row of a
solve (:class:`BlockSolution`) carries its scores, and
:func:`fit_block` packages the row: it keeps the moments and the scores
on its :class:`BlockFit` and makes no pass over the data.  Without a
row, :func:`fit_block` solves its block as a stack of one, a slab of one
for its scores, with the same bits.  Nothing is differentiated
numerically and there is no step size to choose.  Once its group's
summary is formed, a block keeps only its :class:`BlockRecord`: its
estimates, convergence record and moments, whose float fields
(:func:`_moment_shapes`) a bundle archive stores.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
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


@dataclass(frozen=True, kw_only=True)
class BlockRecord:
    """A solved block's estimates, convergence record and moments: all that
    its group summary, and so a bundle archive, keeps of it.  The moments
    give the block's mean estimating function at any parameter, which the
    over-identification test takes."""

    j: int
    k: int
    kind: str
    theta_hat: np.ndarray  # (p,)
    zeta_hat: np.ndarray  # (d_jk,) as (sigma^2,) or (sigma^2, rho)
    converged: bool
    iterations: int
    final_norm: float
    rho_clamped: bool = False
    moments: tuple  # gee.GeeMoments or composite.LagMoments

    @property
    def p(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def d(self) -> int:
        return self.zeta_hat.shape[0]


@dataclass(frozen=True, kw_only=True)
class BlockFit(BlockRecord):
    """Solved block in memory: its record plus per-subject scores and the
    sample sensitivity, from which its group's summary is formed."""

    scores: np.ndarray  # (n_k, p + d_jk), row i = (psi_i, g_i)
    sensitivity: np.ndarray  # (p + d_jk, p + d_jk)

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    def record(self) -> BlockRecord:
        """The block's record, without its scores and sensitivity."""
        return BlockRecord(**{f.name: getattr(self, f.name) for f in fields(BlockRecord)})


def _moment_shapes(kind: str, p: int, m: int) -> tuple:
    """The shapes of the float fields of a block's moments under ``kind``
    with p covariates and m responses, in field order: a GEE block's start,
    Grams, cross sums and totals over its working-correlation basis (one,
    two or three operators), a CL block's start, per-lag Grams and the two
    starting moments."""
    if kind == "cl-ar1":
        return (p,), (m - 1, p + 1, p + 1), (m - 1, p + 1, p + 1), (), ()
    basis = {"independence": 1, "exchangeable": 2, "ar1": 3}[_structure(kind)]
    return (p,), (basis, p, p), (basis, p), (basis,)


def _flat_moments(moments: tuple, kind: str) -> np.ndarray:
    """The float fields of a block's moments, raveled and concatenated."""
    fields_ = moments if kind == "cl-ar1" else moments[:4]
    return np.concatenate([np.ravel(part) for part in fields_])


def _moments_size(kind: str, p: int, m: int) -> int:
    return sum(math.prod(shape) for shape in _moment_shapes(kind, p, m))


def _unflat_moments(flat: np.ndarray, kind: str, p: int, n: int, m: int) -> tuple:
    """The moments of a block of n subjects from :func:`_flat_moments`; the
    arrays are views of ``flat``."""
    parts, at = [], 0
    for shape in _moment_shapes(kind, p, m):
        size = math.prod(shape)
        parts.append(flat[at : at + size].reshape(shape))
        at += size
    if kind == "cl-ar1":
        start, gv, gw, sigma2, rho = parts
        return composite.LagMoments(start, gv, gw, float(sigma2), float(rho))
    return gee.GeeMoments(*parts, n, m)


def _check_responses(block: BlockData, kind: str) -> None:
    """A SolverError for a block of one response under a kind that
    estimates a rho, which needs a pair of responses."""
    if nuisance_dim(kind) == 2 and block.m < 2:
        raise SolverError(
            f"block ({block.j}, {block.k}): m={block.m} too small; {kind} needs m >= 2 for rho"
        )


def _bucket_shares(blocks: list) -> list:
    """The blocks of a list by bucket, in first-seen order: per bucket the
    blocks' places in the list (an index array) and their share of the
    bucket, y, X and keys in slot order.  When their slots run in order, as
    a chunk of sorted keys holds them, the share is a slice of the bucket,
    and so a view; otherwise it is a copy."""
    members = {}
    for pos, block in enumerate(blocks):
        members.setdefault(id(block.bucket), (block.bucket, []))[1].append((pos, block.slot))
    shares = []
    for bucket, held in members.values():
        positions, slots = zip(*held)
        run = range(slots[0], slots[0] + len(slots))
        index = slice(run.start, run.stop) if slots == tuple(run) else list(slots)
        shares.append((
            np.array(positions), bucket.y[index], bucket.X[index],
            [bucket.keys[slot] for slot in slots],
        ))
    return shares


def block_moments(blocks: list, kind: str) -> list:
    """Each block's moments under ``kind``, in list order, as
    :func:`fit_block` keeps them: a :class:`blockgmm.composite.LagMoments`
    per CL block, and for GEE one :func:`blockgmm.gee.gee_moments` call per
    bucket over its share of the list.  Of several blocks with a singular
    design, overflowing sums of squares or an exact fit, the error names
    the first in list order, as alone; so does the check that a kind with a
    rho has at least two responses."""
    structure = _structure(kind)
    for block in blocks:
        _check_responses(block, kind)
    if kind == "cl-ar1":
        return [composite._lag_moments(block) for block in blocks]
    moments = [None] * len(blocks)
    try:
        for positions, y, X, keys in _bucket_shares(blocks):
            for pos, row in zip(positions, gee.gee_moments(y, X, structure, keys)):
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


def eval_scores(blocks: list, theta, zetas, kind: str) -> list:
    """The per-subject score matrix (n_k, p + d_jk) of each of B blocks of
    one kind, block b at zetas[b] and at theta, shared (p,) or row b of
    (B, p), from one residual pass.  GEE blocks take one
    :func:`blockgmm.gee.gee_scores` call per slab of each bucket's share of
    the list, CL blocks one :func:`blockgmm.composite.cl_scores` call each;
    a block's rows have the same bits in any list.  A kind with a rho
    needs at least two responses, as :func:`block_moments` checks."""
    structure = _structure(kind)
    for block in blocks:
        _check_responses(block, kind)
    theta = np.asarray(theta, dtype=float)
    thetas = np.broadcast_to(theta, (len(blocks), theta.shape[-1]))
    zetas = np.asarray(zetas, dtype=float)
    if kind == "cl-ar1":
        return [composite.cl_scores(block, th, zeta)
                for block, th, zeta in zip(blocks, thetas, zetas)]
    scores = [None] * len(blocks)
    for positions, y, X, _ in _bucket_shares(blocks):
        for at in gee._slabs(X):
            held = positions[at]
            slab = gee.gee_scores(y[at], X[at], thetas[held], zetas[held], structure)
            for pos, rows in zip(held, slab):
                scores[pos] = rows
    return scores


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
    moments, the Jacobian of its mean estimating function at the estimates,
    and its per-subject scores there."""

    theta: np.ndarray
    zeta: np.ndarray
    converged: bool
    iterations: int
    clamped: bool
    moments: tuple
    jacobian: np.ndarray
    scores: np.ndarray


def solve_blocks(blocks: list, kind: str, opts: SolverOptions | None = None) -> list:
    """Solve blocks of one kind; returns one :class:`BlockSolution` per block.

    Every block's shape is checked first: more subjects than its p + d
    parameters, and at least two responses where d = 2 (a rho), the first
    bad block in list order named.  Then one :func:`block_moments` pass,
    the kernel's solve on the moments alone (GEE: one stacked alternation
    over all the blocks; CL: each block's damped Newton), and the
    Jacobians at the solution in one :func:`block_means` call, and the
    scores there in one :func:`eval_scores` call.  A block's row has the
    same bits in any stack or bucket, a stack of one included.
    """
    opts = opts or SolverOptions()
    d = nuisance_dim(kind)
    for block in blocks:
        where = f"block ({block.j}, {block.k})"
        if block.n <= block.p + d:
            raise SolverError(f"{where}: n={block.n} too small for p+d={block.p + d} parameters")
        _check_responses(block, kind)
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
    scores = eval_scores(blocks, theta, zeta, kind)
    return [
        BlockSolution(
            theta[b], zeta[b], bool(converged[b]), int(iterations[b]), bool(clamped[b]),
            moments[b], jac[b], scores[b],
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
    block is solved alone, as a stack of one and a slab of one.  The row
    carries the scores, and the sensitivity is its negative Jacobian.
    """
    if solution is None:
        solution = solve_blocks([block], kind, opts)[0]
    theta, zeta, converged, iterations, clamped, moments, jac, scores = solution
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
