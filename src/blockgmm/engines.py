"""Uniform block-solver interface: fit, score evaluation, and sample
sensitivity for every supported estimation kernel.

Kernels: ``gee-ar1``, ``gee-exchangeable``, ``gee-independence`` (weighted
least squares with residual-moment nuisance equations) and ``cl-ar1``
(pairwise composite likelihood).  The sensitivity matrix is the negative
Jacobian of the averaged estimating function.  For ``cl-ar1`` it is the
exact negative Hessian of the mean pairwise log-likelihood.  For the GEE
kernels the theta-theta sub-block is analytic and every other entry (the
nuisance rows and columns) is a central finite difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import composite, gee
from .errors import NumericDomainError, SolverError
from .partition import BlockData

KINDS = ("gee-ar1", "gee-exchangeable", "gee-independence", "cl-ar1")


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 100
    fd_step: float = 1e-5  # relative central-difference step, GEE sensitivities only


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
class BlockFit:
    """Solved block: estimates, per-subject scores, and sample sensitivity."""

    j: int
    k: int
    kind: str
    theta_hat: np.ndarray  # (p,)
    zeta_hat: np.ndarray  # (d_jk,) as (sigma^2,) or (sigma^2, rho)
    scores: np.ndarray  # (n_k, p + d_jk), row i = (psi_i, g_i)
    sensitivity: np.ndarray  # (p + d_jk, p + d_jk)
    converged: bool
    iterations: int
    final_norm: float
    rho_clamped: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def d(self) -> int:
        return self.zeta_hat.shape[0]

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def eval_scores(block: BlockData, theta, zeta, kind: str) -> np.ndarray:
    """Per-subject score matrix (n_k, p + d_jk) at arbitrary (theta, zeta)."""
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if kind == "cl-ar1":
        return composite.cl_scores(block, theta, zeta)
    if kind in ("gee-ar1", "gee-exchangeable", "gee-independence"):
        return gee.gee_scores(block, theta, zeta, kind.split("-", 1)[1])
    raise SolverError(f"unknown solver kind {kind!r}")


def _param_bounds(block: BlockData, kind: str, dim: int):
    """(lo, hi) open-interval domain for each stacked parameter."""
    lo = np.full(dim, -np.inf)
    hi = np.full(dim, np.inf)
    p = block.p
    lo[p] = 0.0  # sigma^2 > 0
    if dim > p + 1:
        rho_lo = -1.0
        if kind == "gee-exchangeable":
            rho_lo = -1.0 / (block.m - 1)
        lo[p + 1], hi[p + 1] = rho_lo, 1.0
    return lo, hi


def sample_sensitivity(
    block: BlockData, theta, zeta, kind: str, fd_step: float = 1e-5
) -> np.ndarray:
    """Negative Jacobian of the averaged estimating function at (theta, zeta).

    ``cl-ar1``: the exact negative Hessian of the mean pairwise
    log-likelihood.  GEE kernels: the theta-theta sub-block is analytic;
    the other entries are central finite differences on the natural
    (theta, sigma^2, rho) scale, with steps that shrink near domain
    boundaries so evaluations stay valid.
    """
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if kind == "cl-ar1":
        sens = -composite.cl_scores(block, theta, zeta, hessian=True)[1]
    else:
        sens = _gee_sensitivity(block, theta, zeta, kind, fd_step)
    bad = np.argwhere(~np.isfinite(sens))
    if bad.size:
        r, c = bad[0]
        raise NumericDomainError(f"non-finite sensitivity entry at ({r}, {c})")
    return sens


def _gee_sensitivity(block, theta, zeta, kind, fd_step):
    """Central-difference sensitivity with the analytic theta-theta block."""
    params = np.concatenate([theta, zeta])
    dim = params.size
    p = block.p
    lo, hi = _param_bounds(block, kind, dim)

    sens = np.empty((dim, dim))
    for a in range(dim):
        h = fd_step * max(1.0, abs(params[a]))
        if np.isfinite(lo[a]):
            h = min(h, 0.49 * (params[a] - lo[a]))
        if np.isfinite(hi[a]):
            h = min(h, 0.49 * (hi[a] - params[a]))
        if h <= 0:
            raise NumericDomainError(
                f"parameter {a} at domain boundary, cannot differentiate"
            )
        up, um = params.copy(), params.copy()
        up[a] += h
        um[a] -= h
        fp = eval_scores(block, up[:p], up[p:], kind).mean(axis=0)
        fm = eval_scores(block, um[:p], um[p:], kind).mean(axis=0)
        sens[:, a] = -(fp - fm) / (2.0 * h)
    sens[:p, :p] = gee.gee_theta_sensitivity(block, zeta, kind.split("-", 1)[1])
    return sens


def fit_block(
    block: BlockData, spec: NuisanceSpec, opts: SolverOptions | None = None
) -> BlockFit:
    """Fit one block and package estimates, scores, and sensitivity."""
    opts = opts or SolverOptions()
    if spec.method == "cl":
        if block.m < 2:
            raise SolverError(f"cl-ar1 needs m >= 2, block has m={block.m}")
        theta, zeta, converged, iterations, clamped = composite.fit_cl_block(
            block, tol=opts.tol, max_iter=opts.max_iter
        )
    else:
        theta, zeta, converged, iterations, clamped = gee.fit_gee_block(
            block, spec.working, tol=opts.tol, max_iter=opts.max_iter
        )
    # a rho held at the clamp leaves its moment equation unsolved
    converged = converged and not clamped
    scores = eval_scores(block, theta, zeta, spec.kind)
    final_norm = float(np.linalg.norm(scores.mean(axis=0)))
    sens = sample_sensitivity(block, theta, zeta, spec.kind, fd_step=opts.fd_step)
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
