"""Uniform block-solver interface over every supported estimation kernel.

Kernels: ``gee-ar1``, ``gee-exchangeable``, ``gee-independence`` (weighted
least squares with residual-moment nuisance equations) and ``cl-ar1``
(pairwise composite likelihood).  Each kernel reduces a block to a few
p-sized moments (:func:`block_moments`): for GEE the least-squares start,
the design Grams and the cross sums and totals of the start residuals
over the working-correlation basis; for CL the start and the per-lag
Grams of [X, r0].  The mean estimating function and its exact Jacobian at
any (theta, zeta) are closed-form algebra on those moments
(:func:`mean_terms`), so the block solvers iterate, the sensitivity (the
negative Jacobian) is formed and the over-identification test is taken
without another pass over the data.  :func:`fit_block` keeps the moments
on its :class:`BlockFit`; its only pass over the data after the fit makes
the per-subject scores, which the weights of the combination need.
Nothing is differentiated numerically and there is no step size to
choose.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import composite, gee
from .errors import NumericDomainError, SolverError
from .partition import BlockData

GEE_KINDS = ("gee-ar1", "gee-exchangeable", "gee-independence")
KINDS = (*GEE_KINDS, "cl-ar1")


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        tol, max_iter = self.tol, self.max_iter
        if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
            raise SolverError(f"tol = {tol!r} is not a finite number > 0")
        if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
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
        return 1 if self.kind == "gee-independence" else 2

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


def _working(kind: str) -> str:
    if kind not in KINDS:
        raise SolverError(f"unknown solver kind {kind!r}")
    return kind.split("-", 1)[1]


def block_moments(block: BlockData, kind: str) -> tuple:
    """The block's moments under ``kind``, as :func:`fit_block` keeps them."""
    if kind == "cl-ar1":
        return composite._lag_moments(block)[0]
    return gee.gee_moments(block, _working(kind))


def mean_terms(moments: tuple, theta, zeta, kind: str, jacobian: bool = False):
    """Mean estimating function row (p + d_jk,) at (theta, zeta) and, with
    ``jacobian``, its exact Jacobian on the natural (theta, sigma^2, rho)
    scale (else None), from a block's moments alone."""
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if kind == "cl-ar1":
        return composite._mean_terms(moments, theta, zeta, hessian=jacobian)
    return gee.mean_terms(moments, theta, zeta, _working(kind), jacobian)


def eval_scores(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Per-subject score matrix (n_k, p + d_jk) at arbitrary (theta, zeta)."""
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if kind == "cl-ar1":
        return composite.cl_scores(block, theta, zeta)
    return gee.gee_scores(block, theta, zeta, _working(kind))


def sample_sensitivity(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Negative Jacobian of the averaged estimating function at (theta, zeta),
    from moments rebuilt from the block by :func:`block_moments`.

    ``cl-ar1``: the exact negative Hessian of the mean pairwise
    log-likelihood; GEE kernels: the closed form of
    :func:`blockgmm.gee.mean_terms`.  Both are on the natural
    (theta, sigma^2, rho) scale, and at a fit's estimates both have the
    bits of :func:`fit_block`'s sensitivity.
    """
    _, jac = mean_terms(block_moments(block, kind), theta, zeta, kind, jacobian=True)
    return _finite(-jac)


def _finite(sens: np.ndarray) -> np.ndarray:
    if not np.isfinite(sens).all():
        r, c = np.argwhere(~np.isfinite(sens))[0]
        raise NumericDomainError(f"non-finite sensitivity entry at ({r}, {c})")
    return sens


def fit_block(
    block: BlockData, spec: NuisanceSpec, opts: SolverOptions | None = None
) -> BlockFit:
    """Fit one block and package estimates, scores, sensitivity and moments.

    The solver works from the block's moments; one residual pass at the
    solution gives the scores, and the moments give the Jacobian.
    """
    opts = opts or SolverOptions()
    if spec.method == "cl":
        if block.m < 2:
            raise SolverError(f"cl-ar1 needs m >= 2, block has m={block.m}")
        theta, zeta, converged, iterations, clamped, moments = composite.fit_cl_block(
            block, tol=opts.tol, max_iter=opts.max_iter
        )
        scores, jac = composite.cl_evaluate(block, theta, zeta, moments)
    else:
        theta, zeta, converged, iterations, clamped, moments = gee.fit_gee_block(
            block, spec.working, tol=opts.tol, max_iter=opts.max_iter
        )
        scores, jac = gee.gee_evaluate(block, theta, zeta, spec.working, moments)
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
