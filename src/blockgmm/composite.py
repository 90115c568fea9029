"""Pairwise composite-likelihood block solver with AR(1)-in-rho bivariate
Gaussian margins.

Each pair (r, t), r < t, of response positions within a block contributes
the log-density of a bivariate normal with correlation c = rho^(t-r) and
common variance sigma^2.  The per-subject estimating function is the
average of the pair scores.

Every pair at lag L = t - r shares c = rho^L, so the kernel sums over the
m - 1 lags with sliced arrays instead of over the m(m-1)/2 pairs.  One
evaluation returns the per-subject scores and, on request, the exact mean
Hessian on the natural (theta, sigma^2, rho) scale; its theta-theta part
is a design Gram per lag, computed once per block.  The root is found by
damped Newton on the unconstrained parameterization
(theta, log sigma, atanh rho) with the analytic Jacobian.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericDomainError, SolverError
from .gee import RHO_LIMIT


def _lag_gram(X) -> tuple[np.ndarray, np.ndarray]:
    """Per-lag design Grams (Gv, Gw), each (m - 1, p, p), averaged over subjects.

    For lag L, with (x_a, x_b) the design rows of a pair (r, r + L),
    Gv[L-1] sums x_a x_a' + x_b x_b' and Gw[L-1] sums x_a x_b' + x_b x_a'.
    """
    n, m, p = X.shape
    flat = X.reshape(n, m * p)
    gram = (flat.T @ flat).reshape(m, p, m, p) / n
    # cum[k] = sum of the position Grams x_r x_r' over r < k
    cum = np.zeros((m + 1, p, p))
    np.cumsum(np.einsum("rprq->rpq", gram), axis=0, out=cum[1:])
    lags = np.arange(1, m)
    gv = cum[m - lags] + cum[m] - cum[lags]
    gw = np.empty((m - 1, p, p))
    for lag in lags:
        cross = np.trace(gram, offset=lag, axis1=0, axis2=2)
        gw[lag - 1] = cross + cross.T
    return gv, gw


def _pair_operator(diag, off, m) -> np.ndarray:
    """m x m matrix summing E' [[diag_L, off_L], [off_L, diag_L]] E over all
    pairs, with E selecting the pair's two positions and L its lag."""
    pos = np.arange(m)
    out = np.concatenate([[0.0], off])[np.abs(pos[:, None] - pos[None, :])]
    # position r is the first member of the pairs with lag <= m-1-r and
    # the second member of those with lag <= r
    cum = np.concatenate([[0.0], np.cumsum(diag)])
    out[pos, pos] = cum[m - 1 - pos] + cum[pos]
    return out


def _evaluate(X, y, theta, zeta, gram=None):
    """Per-subject averaged pairwise scores (n, p + 2) and, when the lag
    Gram of X is given, the exact Hessian of their mean (else ``None``)."""
    sigma2 = float(zeta[0])
    rho = float(zeta[1])
    if sigma2 <= 0:
        raise NumericDomainError(f"sigma^2 must be positive, got {sigma2}")
    if abs(rho) >= 1.0:
        raise NumericDomainError(f"|rho| >= 1 (rho={rho})")

    n, m, p = X.shape
    resid = y - X @ theta
    lags = np.arange(1, m)
    npairs = m * (m - 1) // 2
    count = m - lags  # pairs per lag
    power = rho ** np.arange(m)
    c = power[1:]
    dc = lags * power[:-1]  # dc/drho; rho^0 = 1 also at rho = 0
    w = 1.0 - c * c

    # per-subject lag sums over pairs (a, b) = (resid_r, resid_{r+L}):
    # prod = sum a b, quad = sum a^2 - 2 c a b + b^2
    cum2 = np.zeros((n, m + 1))
    np.cumsum(resid * resid, axis=1, out=cum2[:, 1:])
    prod = np.empty((n, m - 1))
    for lag in lags:
        prod[:, lag - 1] = np.einsum("nr,nr->n", resid[:, :-lag], resid[:, lag:])
    quad = cum2[:, m - lags] + cum2[:, [m]] - cum2[:, lags] - 2.0 * c * prod

    out = np.empty((n, p + 2))
    coef = resid @ _pair_operator(1.0 / w, -c / w, m)
    out[:, :p] = np.einsum("nrp,nr->np", X, coef) / sigma2
    out[:, p] = quad @ (0.5 / (sigma2 * sigma2 * w)) - npairs / sigma2
    # d loglik / dc summed over the pairs of each lag
    dl_dc = count * c / w + (prod - quad * (c / w)) / (sigma2 * w)
    out[:, p + 1] = dl_dc @ dc
    out /= npairs
    if gram is None:
        return out, None

    gv, gw = gram
    prod_m = prod.mean(axis=0)
    quad_m = quad.mean(axis=0)
    s2 = sigma2 * sigma2
    d2c = np.concatenate([[0.0], lags[1:] * (lags[1:] - 1) * power[:-2]])
    hess = np.empty((p + 2, p + 2))
    hess[:p, :p] = -(
        np.einsum("l,lpq->pq", 1.0 / w, gv) - np.einsum("l,lpq->pq", c / w, gw)
    ) / (sigma2 * npairs)
    hess[:p, p] = -out[:, :p].mean(axis=0) / sigma2
    coef_rho = resid @ _pair_operator(
        2.0 * c * dc / (w * w), -(1.0 + c * c) * dc / (w * w), m
    )
    hess[:p, p + 1] = np.einsum("nrp,nr->p", X, coef_rho) / (n * sigma2 * npairs)
    hess[p, p] = (npairs / s2 - quad_m @ (1.0 / w) / (s2 * sigma2)) / npairs
    hess[p, p + 1] = ((quad_m * c / w - prod_m) / (s2 * w)) @ dc / npairs
    dl_dc_m = dl_dc.mean(axis=0)
    d2l_dc2 = (
        count * (1.0 + c * c) / (w * w)
        + (4.0 * c * prod_m - quad_m * (1.0 + 4.0 * c * c / w)) / (sigma2 * w * w)
    )
    hess[p + 1, p + 1] = (d2l_dc2 @ (dc * dc) + dl_dc_m @ d2c) / npairs
    hess[p:, :p] = hess[:p, p:].T
    hess[p + 1, p] = hess[p, p + 1]
    return out, hess


def cl_scores(block, theta, zeta, hessian: bool = False):
    """Per-subject averaged pairwise score rows (n, p + 2).

    Columns are the gradient of the mean pairwise log-likelihood with
    respect to (theta, sigma^2, rho).  With ``hessian=True`` the return
    value is ``(scores, H)``, H the exact Jacobian of the mean score row.
    """
    X = block.design
    scores, hess = _evaluate(X, block.y, theta, zeta, _lag_gram(X) if hessian else None)
    return (scores, hess) if hessian else scores


def _u_terms(X, y, u, gram=None):
    """Mean score, and with ``gram`` its Jacobian, in the unconstrained
    parameterization u = (theta, log sigma, atanh rho)."""
    p = X.shape[2]
    sigma = float(np.exp(u[p]))
    sigma2 = sigma * sigma
    rho = float(np.tanh(u[p + 1]))
    scores, hess = _evaluate(X, y, u[:p], np.array([sigma2, rho]), gram)
    s = scores.mean(axis=0)
    # d sigma^2 / d log sigma = 2 sigma^2, d rho / d atanh rho = 1 - rho^2
    dparam = np.ones(p + 2)
    dparam[p], dparam[p + 1] = 2.0 * sigma2, 1.0 - rho * rho
    jac = None
    if hess is not None:
        jac = hess * np.outer(dparam, dparam)
        # second derivatives of the reparameterization times the score
        jac[p, p] += 4.0 * sigma2 * s[p]
        jac[p + 1, p + 1] -= 2.0 * rho * (1.0 - rho * rho) * s[p + 1]
    return s * dparam, jac


def fit_cl_block(block, tol: float = 1e-8, max_iter: int = 100):
    """Damped Newton root of the mean pairwise score.

    Returns (theta, zeta, converged, iterations, rho_clamped).
    """
    if block.n <= block.p + 2:
        raise SolverError(
            f"block ({block.j}, {block.k}): n={block.n} too small for "
            f"p+2={block.p + 2} parameters"
        )
    X, y = block.design, block.y
    # start from OLS with moment estimates of (sigma^2, rho)
    theta, *_ = np.linalg.lstsq(X.reshape(-1, block.p), y.reshape(-1), rcond=None)
    resid = y - X @ theta
    sigma2 = float(np.mean(resid**2))
    if block.m > 1:
        rho = float(np.mean(resid[:, :-1] * resid[:, 1:]) / sigma2)
    else:
        rho = 0.0
    rho = min(max(rho, -RHO_LIMIT), RHO_LIMIT)

    gram = _lag_gram(X)
    u = np.concatenate([theta, [0.5 * np.log(sigma2), np.arctanh(rho)]])
    score, _ = _u_terms(X, y, u)
    converged = float(np.linalg.norm(score)) <= tol
    iterations = 0
    while not converged and iterations < max_iter:
        iterations += 1
        _, jac = _u_terms(X, y, u, gram)
        try:
            step = np.linalg.solve(jac, -score)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"singular score Jacobian in block ({block.j}, {block.k})"
            ) from exc
        lam = 1.0
        norm = float(np.linalg.norm(score))
        while lam > 1e-8:
            u_new = u + lam * step
            try:
                score_new, _ = _u_terms(X, y, u_new)
            except (NumericDomainError, FloatingPointError):
                lam *= 0.5
                continue
            if np.all(np.isfinite(score_new)) and np.linalg.norm(score_new) < norm:
                break
            lam *= 0.5
        else:
            raise SolverError(
                f"line search failed in block ({block.j}, {block.k})"
            )
        u, score = u_new, score_new
        converged = float(np.linalg.norm(score)) <= tol

    p = block.p
    sigma = float(np.exp(u[p]))
    rho = float(np.tanh(u[p + 1]))
    clamped = abs(rho) > RHO_LIMIT
    rho = min(max(rho, -RHO_LIMIT), RHO_LIMIT)
    zeta = np.array([sigma * sigma, rho])
    return u[:p].copy(), zeta, bool(converged), iterations, clamped
