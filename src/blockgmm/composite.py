"""Pairwise composite-likelihood block solver with AR(1)-in-rho bivariate
Gaussian margins.

Each pair (r, t), r < t, of response positions within a block contributes
the log-density of a bivariate normal with correlation c = rho^(t-r) and
common variance sigma^2.  The per-subject estimating function is the
average of the pair scores.

Every pair at lag L = t - r shares c = rho^L, so the kernel sums over the
m - 1 lags instead of over the m(m-1)/2 pairs.  For the mean score and
the exact mean Hessian on the (theta, sigma^2, rho) scale it needs, per
lag, only sums over subjects and over the pairs (a, b) = (r_t, r_{t+L})
of residuals with design rows (x_a, x_b): the design Grams
sum x_a x_a' + x_b x_b' and sum x_a x_b' + x_b x_a', the cross vectors
sum x_a a + x_b b and sum x_a b + x_b a, and the residual sums
sum a^2 + b^2 and sum a b.  All of them are blocks of the per-lag Grams
of the augmented per-subject array z = [X, r0], with r0 the residuals of
the ordinary least-squares start, and those come from one Gram of z per
block.  At theta = start + delta the residual is z e with
e = (-delta, 1), so each residual lag sum is its r0 value minus a term
linear in delta plus a quadratic form in delta.  The mean score and its
Jacobian are then O(m p^2) algebra.  The lag moments
(:class:`LagMoments`, built by :func:`blockgmm.engines.block_moments`)
also hold the moment estimates of sigma^2 and rho from r0, and
:func:`fit_cl_block` solves on them alone: damped Newton on the
unconstrained parameterization (theta, log sigma, atanh rho), its
analytic Jacobian and its line search touch no n x m data.  As in
:mod:`blockgmm.gee`, working from r0 rather than y keeps the residual
sums free of cancellation when the residuals are small next to X theta.

At the solution one residual pass gives the per-subject scores
(:func:`cl_scores`), and the fit's lag moments give the sensitivity (the
negative mean Hessian, :func:`blockgmm.engines.block_means`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericDomainError, SolverError
from .gee import RHO_LIMIT, _reject_exact_fit


class LagMoments(NamedTuple):
    """A block's least-squares start, the per-lag Grams of z = [X, r0]
    averaged over subjects, each (m - 1, p + 1, p + 1) (see
    :func:`_lag_gram`), and the moment estimates of sigma^2 and rho from
    r0 that start the Newton iteration."""

    start: np.ndarray
    gv: np.ndarray
    gw: np.ndarray
    sigma2: float
    rho: float


def _lag_gram(Z) -> tuple[np.ndarray, np.ndarray]:
    """Per-lag Grams (Gv, Gw), each (m - 1, q, q), of Z (n, m, q) averaged
    over subjects.

    For lag L, with (z_a, z_b) the rows of a pair (r, r + L),
    Gv[L-1] sums z_a z_a' + z_b z_b' and Gw[L-1] sums z_a z_b' + z_b z_a'.
    """
    n, m, q = Z.shape
    flat = Z.reshape(n, m * q)
    gram = (flat.T @ flat).reshape(m, q, m, q) / n
    # cum[k] = sum of the position Grams z_r z_r' over r < k
    cum = np.zeros((m + 1, q, q))
    np.cumsum(np.einsum("rprq->rpq", gram), axis=0, out=cum[1:])
    lags = np.arange(1, m)
    gv = cum[m - lags] + cum[m] - cum[lags]
    gw = np.empty((m - 1, q, q))
    for lag in lags:
        cross = np.trace(gram, offset=lag, axis1=0, axis2=2)
        gw[lag - 1] = cross + cross.T
    return gv, gw


def _lag_moments(block) -> LagMoments:
    """The block's lag moments.  A block whose responses are an exact
    linear fit of its covariates is a SolverError, and one whose sums of
    squares overflow a NumericDomainError."""
    X, y = block.X, block.y
    start, *_ = np.linalg.lstsq(X.reshape(-1, block.p), y.reshape(-1), rcond=None)
    resid = y - X @ start
    _reject_exact_fit([(block.j, block.k)], [[float(np.vdot(resid, resid))]],
                      [float(np.vdot(y, y))])
    sigma2 = float(np.mean(resid**2))
    rho = float(np.mean(resid[:, :-1] * resid[:, 1:]) / sigma2)
    rho = min(max(rho, -RHO_LIMIT), RHO_LIMIT)
    gv, gw = _lag_gram(np.concatenate([X, resid[:, :, None]], axis=2))
    return LagMoments(start, gv, gw, sigma2, rho)


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


def _nuisance(zeta) -> tuple[float, float]:
    sigma2 = float(zeta[0])
    rho = float(zeta[1])
    if sigma2 <= 0:
        raise NumericDomainError(f"sigma^2 must be positive, got {sigma2}")
    if abs(rho) >= 1.0:
        raise NumericDomainError(f"|rho| >= 1 (rho={rho})")
    return sigma2, rho


def _lag_coefficients(rho, m):
    """Per lag L = 1 .. m-1: the lags, pair counts, c = rho^L, dc/drho and
    w = 1 - c^2, and the powers rho^0 .. rho^(m-1)."""
    lags = np.arange(1, m)
    power = rho ** np.arange(m)
    c = power[1:]
    dc = lags * power[:-1]  # rho^0 = 1 also at rho = 0
    return lags, m - lags, c, dc, 1.0 - c * c, power


def cl_scores(block, theta, zeta) -> np.ndarray:
    """Per-subject averaged pairwise score rows (n, p + 2), from one
    residual pass.

    Columns are the gradient of the mean pairwise log-likelihood with
    respect to (theta, sigma^2, rho).
    """
    sigma2, rho = _nuisance(zeta)
    X = block.X
    n, m, p = X.shape
    resid = block.y - X @ theta
    npairs = m * (m - 1) // 2
    lags, count, c, dc, w, _ = _lag_coefficients(rho, m)

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
    return out


def _mean_terms(moments: LagMoments, theta, zeta, hessian: bool = False):
    """Mean score row (p + 2,) at (theta, zeta) and, with ``hessian``, its
    exact Jacobian (else ``None``), from the lag moments alone."""
    sigma2, rho = _nuisance(zeta)
    start, gv, gw, *_ = moments
    p = start.shape[0]
    m = gv.shape[0] + 1
    npairs = m * (m - 1) // 2
    lags, count, c, dc, w, power = _lag_coefficients(rho, m)

    # the residual at theta is z e; per lag, (Gv e)[:p] = sum x_a a + x_b b,
    # (Gw e)[:p] = sum x_a b + x_b a, e'Gv e = sum a^2 + b^2, e'Gw e = 2 sum a b
    e = np.append(start - theta, 1.0)
    gv_e = gv @ e
    gw_e = gw @ e
    cross_v, cross_w = gv_e[:, :p], gw_e[:, :p]
    prod = 0.5 * (gw_e @ e)
    quad = gv_e @ e - 2.0 * c * prod

    score = np.empty(p + 2)
    score[:p] = ((1.0 / w) @ cross_v - (c / w) @ cross_w) / sigma2
    score[p] = quad @ (0.5 / (sigma2 * sigma2 * w)) - npairs / sigma2
    dl_dc = count * c / w + (prod - quad * (c / w)) / (sigma2 * w)
    score[p + 1] = dl_dc @ dc
    score /= npairs
    if not hessian:
        return score, None

    s2 = sigma2 * sigma2
    d2c = np.concatenate([[0.0], lags[1:] * (lags[1:] - 1) * power[:-2]])
    hess = np.empty((p + 2, p + 2))
    hess[:p, :p] = -(
        np.einsum("l,lpq->pq", 1.0 / w, gv[:, :p, :p])
        - np.einsum("l,lpq->pq", c / w, gw[:, :p, :p])
    ) / (sigma2 * npairs)
    hess[:p, p] = -score[:p] / sigma2
    hess[:p, p + 1] = (
        (2.0 * c * dc / (w * w)) @ cross_v - ((1.0 + c * c) * dc / (w * w)) @ cross_w
    ) / (sigma2 * npairs)
    hess[p, p] = (npairs / s2 - quad @ (1.0 / w) / (s2 * sigma2)) / npairs
    hess[p, p + 1] = ((quad * c / w - prod) / (s2 * w)) @ dc / npairs
    d2l_dc2 = (
        count * (1.0 + c * c) / (w * w)
        + (4.0 * c * prod - quad * (1.0 + 4.0 * c * c / w)) / (sigma2 * w * w)
    )
    hess[p + 1, p + 1] = (d2l_dc2 @ (dc * dc) + dl_dc @ d2c) / npairs
    hess[p:, :p] = hess[:p, p:].T
    hess[p + 1, p] = hess[p, p + 1]
    return score, hess


def _u_terms(moments: LagMoments, u, hessian: bool = False):
    """Mean score, and with ``hessian`` its Jacobian, in the unconstrained
    parameterization u = (theta, log sigma, atanh rho)."""
    p = moments.start.shape[0]
    sigma = float(np.exp(u[p]))
    sigma2 = sigma * sigma
    rho = float(np.tanh(u[p + 1]))
    s, hess = _mean_terms(moments, u[:p], np.array([sigma2, rho]), hessian)
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


def fit_cl_block(moments: LagMoments, key, tol: float = 1e-8, max_iter: int = 100):
    """Damped Newton root of the mean pairwise score, from the block's lag
    moments alone, started at their least-squares start and moment
    estimates of (sigma^2, rho); ``key`` names the block (j, k) for the
    errors.

    Returns (theta, zeta, converged, iterations, rho_clamped), as
    :func:`blockgmm.gee.fit_gee_block` does for a stack.
    """
    j, k = key
    u = np.concatenate([moments.start, [0.5 * np.log(moments.sigma2), np.arctanh(moments.rho)]])
    score, _ = _u_terms(moments, u)
    converged = float(np.linalg.norm(score)) <= tol
    iterations = 0
    while not converged and iterations < max_iter:
        iterations += 1
        with np.errstate(over="ignore", invalid="ignore"):
            _, jac = _u_terms(moments, u, hessian=True)
        if not np.isfinite(jac).all():  # (2 sigma^2)^2 overflows from |y| near 1e77
            raise NumericDomainError(
                f"block ({j}, {k}): the score Jacobian overflows; rescale the responses"
            )
        try:
            step = np.linalg.solve(jac, -score)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular score Jacobian in block ({j}, {k})") from exc
        lam = 1.0
        norm = float(np.linalg.norm(score))
        while lam > 1e-8:
            u_new = u + lam * step
            try:
                score_new, _ = _u_terms(moments, u_new)
            except (NumericDomainError, FloatingPointError):
                lam *= 0.5
                continue
            if np.all(np.isfinite(score_new)) and np.linalg.norm(score_new) < norm:
                break
            lam *= 0.5
        else:
            raise SolverError(f"line search failed in block ({j}, {k})")
        u, score = u_new, score_new
        converged = float(np.linalg.norm(score)) <= tol

    p = moments.start.shape[0]
    sigma = float(np.exp(u[p]))
    rho = float(np.tanh(u[p + 1]))
    clamped = abs(rho) > RHO_LIMIT
    rho = min(max(rho, -RHO_LIMIT), RHO_LIMIT)
    zeta = np.array([sigma * sigma, rho])
    return u[:p].copy(), zeta, bool(converged), iterations, clamped
