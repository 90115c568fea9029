"""Gaussian identity-link GEE block solver with moment equations for the
variance/correlation nuisance parameters.

The mean parameter solves the weighted least-squares equations
(1/n) sum_i X_i' R(rho)^-1 r_i = 0 and the nuisance parameters solve
unbiased moment equations on residual products, alternated to joint
convergence.

Every working-correlation inverse is a short linear combination
R(rho)^-1 = sum_k w_k(rho) B_k of fixed sparse operators: I, the two end
positions and the lag-1 shift for AR(1); I and 11' for exchangeable; I
alone for independence.  So the Grams sum_i X_i' B_k X_i of the design
and the cross sums sum_i X_i' B_k r0, with r0 the residuals of the
ordinary least-squares start, built once per block, turn the weighted
normal equations at any rho into a p x p solve for the correction to
that start.  Solving from r0 rather than y keeps the right-hand side
free of cancellation when the residuals are small next to X theta.  For
the same reason the nuisance moments always come from the residuals
r = y - X theta of each iterate, never from a quadratic form in Grams.
Per-subject scores apply each B_k to the residuals by shifted slices or
a row sum, and the sensitivity (the negative Jacobian of the mean
estimating function) is in closed form in every row and column; no
m x m matrix is ever formed and nothing is differentiated numerically.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericDomainError, SolverError

RHO_LIMIT = 0.999


def nuisance_dim(kind: str) -> int:
    return 1 if kind == "independence" else 2


def _weights(structure: str, rho: float, m: int):
    """Coefficients w and dw/drho of R(rho)^-1 = sum_k w_k B_k."""
    if structure == "independence":
        return np.ones(1), np.zeros(1)
    if structure not in ("ar1", "exchangeable"):
        raise SolverError(f"unknown working structure {structure!r}")
    if abs(rho) >= 1.0:
        raise NumericDomainError(f"|rho| >= 1 (rho={rho})")
    if structure == "ar1":
        # tridiagonal: (1 + rho^2) c inside, c at both ends, -rho c off the diagonal
        c = 1.0 / (1.0 - rho * rho)
        w = np.array([(1.0 + rho * rho) * c, -rho * rho * c, -rho * c])
        dw = c * c * np.array([4.0 * rho, -2.0 * rho, -(1.0 + rho * rho)])
        return w, dw
    denom = 1.0 + (m - 1) * rho
    if denom <= 0:
        raise NumericDomainError(f"exchangeable rho={rho} not PD for m={m}")
    # Sherman-Morrison: R^-1 = a I + b 11'
    scale = (1.0 - rho) * denom
    w = np.array([1.0 / (1.0 - rho), -rho / scale])
    dw = np.array([1.0 / (1.0 - rho) ** 2, -(1.0 + (m - 1) * rho * rho) / scale**2])
    return w, dw


def _grams(structure: str, X: np.ndarray) -> np.ndarray:
    """(K, p, p) Grams sum_i X_i' B_k X_i of X (n, m, p) over the basis B_k."""
    n, m, p = X.shape
    flat = X.reshape(n * m, p)
    g0 = flat.T @ flat
    if structure == "independence":
        return g0[None]
    if structure == "ar1":
        ends = X[:, 0].T @ X[:, 0] + X[:, -1].T @ X[:, -1]
        # consecutive flat rows, less the pairs that straddle two subjects
        lag = flat[:-1].T @ flat[1:] - X[:-1, -1].T @ X[1:, 0]
        return np.stack([g0, ends, lag + lag.T])
    total = X.sum(axis=1)
    return np.stack([g0, total.T @ total])


def _apply_basis(structure: str, r: np.ndarray) -> tuple:
    """Each B_k applied to every subject's row of r (n, m)."""
    if structure == "independence":
        return (r,)
    if structure == "ar1":
        ends = np.zeros_like(r)
        ends[:, [0, -1]] = r[:, [0, -1]]
        shift = np.zeros_like(r)
        shift[:, :-1] = r[:, 1:]
        shift[:, 1:] += r[:, :-1]
        return r, ends, shift
    return r, np.broadcast_to(r.sum(axis=1, keepdims=True), r.shape)


def _combine(coefs, terms) -> np.ndarray:
    return sum(c * t for c, t in zip(coefs, terms))


def _xt(X, a) -> np.ndarray:
    """sum_i X_i' a_i over every subject and position: (p,)."""
    return X.reshape(-1, X.shape[2]).T @ a.reshape(-1)


def _residuals(block, theta) -> np.ndarray:
    X = block.design
    return block.y - (X.reshape(-1, X.shape[2]) @ theta).reshape(block.y.shape)


def _solve(block, A, b):
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"singular weighted normal equations in block ({block.j}, {block.k})"
        ) from exc


def _moment_zeta(resid, structure, m):
    """Closed-form roots of the residual-product moment equations."""
    sigma2 = float(np.mean(resid**2))
    if structure == "independence":
        return np.array([sigma2]), False
    if structure == "ar1":
        lag1 = np.mean(np.mean(resid[:, :-1] * resid[:, 1:], axis=1))
        rho = float(lag1 / sigma2)
    else:  # exchangeable
        total = resid.sum(axis=1)
        cross = (total**2 - np.sum(resid**2, axis=1)) / 2.0
        npairs = m * (m - 1) / 2.0
        rho = float(np.mean(cross / npairs) / sigma2)
    lo = -RHO_LIMIT
    if structure == "exchangeable":
        lo = max(lo, -1.0 / (m - 1) + 1e-6)
    clamped = rho < lo or rho > RHO_LIMIT
    rho = min(max(rho, lo), RHO_LIMIT)
    return np.array([sigma2, rho]), clamped


def _nuisance(zeta, structure):
    sigma2 = float(zeta[0])
    if sigma2 <= 0:
        raise NumericDomainError(f"sigma^2 must be positive, got {sigma2}")
    rho = float(zeta[1]) if structure != "independence" else 0.0
    return sigma2, rho


def gee_scores(block, theta, zeta, structure) -> np.ndarray:
    """Per-subject score rows (psi_i, g_i) at (theta, zeta)."""
    sigma2, rho = _nuisance(zeta, structure)
    resid = _residuals(block, theta)
    w, _ = _weights(structure, rho, block.m)
    rinv_r = _combine(w, _apply_basis(structure, resid))
    psi = np.matmul(rinv_r[:, None, :], block.design)[:, 0, :] / sigma2

    g1 = np.mean(resid**2, axis=1) - sigma2
    if structure == "independence":
        return np.hstack([psi, g1[:, None]])
    if structure == "ar1":
        g2 = np.mean(resid[:, :-1] * resid[:, 1:], axis=1) - rho * sigma2
    else:
        total = resid.sum(axis=1)
        cross = (total**2 - np.sum(resid**2, axis=1)) / 2.0
        npairs = block.m * (block.m - 1) / 2.0
        g2 = cross / npairs - rho * sigma2
    return np.hstack([psi, g1[:, None], g2[:, None]])


def gee_theta_sensitivity(block, zeta, structure) -> np.ndarray:
    """Analytic theta-theta sensitivity (1/n) sum_i D_i' Sigma_i^-1 D_i."""
    return _theta_sensitivity(block, zeta, structure, _grams(structure, block.design))


def _theta_sensitivity(block, zeta, structure, grams) -> np.ndarray:
    sigma2, rho = _nuisance(zeta, structure)
    w, _ = _weights(structure, rho, block.m)
    return np.tensordot(w, grams, axes=1) / (block.n * sigma2)


def gee_sensitivity(block, theta, zeta, structure) -> np.ndarray:
    """Negative Jacobian of the mean estimating function at (theta, zeta),
    in closed form, rows (psi, g) and columns (theta, sigma^2[, rho])."""
    return _gee_sensitivity(block, theta, zeta, structure, _grams(structure, block.design))


def _gee_sensitivity(block, theta, zeta, structure, grams) -> np.ndarray:
    """:func:`gee_sensitivity` with the block's design Grams already built."""
    sigma2, rho = _nuisance(zeta, structure)
    X = block.design
    n, m, p = X.shape
    d = nuisance_dim(structure)
    resid = _residuals(block, theta)
    w, dw = _weights(structure, rho, m)
    basis = _apply_basis(structure, resid)

    sens = np.zeros((p + d, p + d))
    sens[:p, :p] = _theta_sensitivity(block, zeta, structure, grams)
    # psi = X' R^-1 r / sigma^2 scales as 1 / sigma^2
    sens[:p, p] = _xt(X, _combine(w, basis)) / (n * sigma2 * sigma2)
    # g1 = mean_t r_t^2 - sigma^2
    sens[p, :p] = 2.0 * _xt(X, resid) / (n * m)
    sens[p, p] = 1.0
    if d == 1:
        return sens
    sens[:p, p + 1] = -_xt(X, _combine(dw, basis)) / (n * sigma2)
    if structure == "ar1":
        # g2 = mean_t r_t r_{t+1} - rho sigma^2; the lag-1 shift pairs x_t
        # with r_{t+1} and x_{t+1} with r_t
        sens[p + 1, :p] = _xt(X, basis[2]) / (n * (m - 1))
    else:
        # g2 = sum_{s<t} r_s r_t / npairs - rho sigma^2
        cross = X.sum(axis=1).T @ resid.sum(axis=1) - _xt(X, resid)
        sens[p + 1, :p] = cross / (n * m * (m - 1) / 2.0)
    sens[p + 1, p] = rho
    sens[p + 1, p + 1] = sigma2
    return sens


def fit_gee_block(block, structure: str, tol: float = 1e-8, max_iter: int = 100):
    """Alternate theta / zeta updates to joint convergence.

    Returns (theta, zeta, converged, iterations, rho_clamped).
    """
    return _fit_gee_block(block, structure, tol, max_iter)[:5]


def _fit_gee_block(block, structure, tol, max_iter):
    """:func:`fit_gee_block`, also returning the design Grams it built, so
    the sensitivity at the solution needs no second pass over the design."""
    d = nuisance_dim(structure)
    if block.n <= block.p + d:
        raise SolverError(
            f"block ({block.j}, {block.k}): n={block.n} too small for "
            f"p+d={block.p + d} parameters"
        )
    X, m = block.design, block.m
    grams = _grams(structure, X)
    # independence start; each weighted step then solves for a correction
    # from its residuals r0 (see the module docstring)
    start = _solve(block, grams[0], _xt(X, block.y))
    resid = _residuals(block, start)
    cross = np.stack([_xt(X, b) for b in _apply_basis(structure, resid)])
    theta = start
    zeta, clamped = _moment_zeta(resid, structure, m)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rho = float(zeta[1]) if structure != "independence" else 0.0
        w, _ = _weights(structure, rho, m)
        theta_new = start + _solve(block, np.tensordot(w, grams, axes=1), w @ cross)
        zeta_new, clamped = _moment_zeta(_residuals(block, theta_new), structure, m)
        delta = max(
            np.max(np.abs(theta_new - theta)), np.max(np.abs(zeta_new - zeta))
        )
        theta, zeta = theta_new, zeta_new
        if delta < tol:
            converged = True
            break
    return theta, zeta, converged, iterations, clamped, grams
