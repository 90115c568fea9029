"""Uniform block-solver interface: fit, score evaluation, and sample
sensitivity for every supported estimation kernel.

Kernels: ``gee-ar1``, ``gee-exchangeable``, ``gee-independence`` (weighted
least squares with residual-moment nuisance equations) and ``cl-ar1``
(pairwise composite likelihood).  The sensitivity matrix is the negative
Jacobian of the averaged estimating function.  For ``cl-ar1`` it is the
exact negative Hessian of the mean pairwise log-likelihood.  For the GEE
kernels every row and column is in closed form as well
(:func:`blockgmm.gee.gee_sensitivity`), so no kernel differentiates
numerically and there is no step size to choose.
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
    """Solved block in memory: its record plus per-subject scores and the
    sample sensitivity, from which its group's summary is built."""

    scores: np.ndarray  # (n_k, p + d_jk), row i = (psi_i, g_i)
    sensitivity: np.ndarray  # (p + d_jk, p + d_jk)

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def eval_scores(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Per-subject score matrix (n_k, p + d_jk) at arbitrary (theta, zeta)."""
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if kind == "cl-ar1":
        return composite.cl_scores(block, theta, zeta)
    if kind in GEE_KINDS:
        return gee.gee_scores(block, theta, zeta, kind.split("-", 1)[1])
    raise SolverError(f"unknown solver kind {kind!r}")


def sample_sensitivity(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Negative Jacobian of the averaged estimating function at (theta, zeta).

    ``cl-ar1``: the exact negative Hessian of the mean pairwise
    log-likelihood, from lag moments rebuilt from the block.  GEE kernels:
    the closed form of :func:`blockgmm.gee.gee_sensitivity`.  Both are on
    the natural (theta, sigma^2, rho) scale, and at a fit's estimates both
    have the bits of :func:`fit_block`'s sensitivity.
    """
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if kind == "cl-ar1":
        sens = -composite.cl_scores(block, theta, zeta, hessian=True)[1]
    elif kind in GEE_KINDS:
        sens = gee.gee_sensitivity(block, theta, zeta, kind.split("-", 1)[1])
    else:
        raise SolverError(f"unknown solver kind {kind!r}")
    return _finite(sens)


def _finite(sens: np.ndarray) -> np.ndarray:
    if not np.isfinite(sens).all():
        r, c = np.argwhere(~np.isfinite(sens))[0]
        raise NumericDomainError(f"non-finite sensitivity entry at ({r}, {c})")
    return sens


def fit_block(
    block: BlockData, spec: NuisanceSpec, opts: SolverOptions | None = None
) -> BlockFit:
    """Fit one block and package estimates, scores, and sensitivity."""
    opts = opts or SolverOptions()
    if spec.method == "cl":
        if block.m < 2:
            raise SolverError(f"cl-ar1 needs m >= 2, block has m={block.m}")
        theta, zeta, converged, iterations, clamped, moments = composite.fit_cl_block(
            block, tol=opts.tol, max_iter=opts.max_iter
        )
        # one residual pass at the solution gives the scores; the fit's lag
        # moments give the Hessian
        scores, hess = composite.cl_evaluate(block, theta, zeta, moments)
        sens = -hess
    else:
        theta, zeta, converged, iterations, clamped, grams = gee.fit_gee_block(
            block, spec.working, tol=opts.tol, max_iter=opts.max_iter
        )
        # one residual pass at the solution gives the scores and, with the
        # fit's design Grams, the sensitivity
        scores, sens = gee.gee_evaluate(block, theta, zeta, spec.working, grams)
    sens = _finite(sens)
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
        converged=converged,
        iterations=iterations,
        final_norm=final_norm,
        rho_clamped=clamped,
    )
