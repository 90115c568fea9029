"""Gaussian identity-link GEE block solver with moment equations for the
variance/correlation nuisance parameters.

The mean parameter solves the weighted least-squares equations
(1/n) sum_i X_i' R(rho)^-1 r_i = 0 and the nuisance parameters solve
unbiased moment equations on residual products, alternated to joint
convergence.

Every working-correlation inverse is a short linear combination
R(rho)^-1 = sum_k w_k(rho) B_k of fixed sparse operators: I, the two end
positions and the lag-1 shift for AR(1); I and 11' for exchangeable; I
alone for independence.  A block's moments (:class:`GeeMoments`) are
the ordinary least-squares start, the Grams G_k = sum_i X_i' B_k X_i of
the design, and the cross sums c_k = sum_i X_i' B_k r0 and totals
r0' B_k r0 of the start residuals r0: one Gram build and one pass over
r0 (:func:`gee_moments`).  At theta = start + delta the cross sums are
c_k - G_k delta and the totals sum_i r_i' B_k r_i the quadratic forms
r0' B_k r0 - 2 delta' c_k + delta' G_k delta.  So the weighted normal
equations at any rho are a p x p solve for delta, the nuisance moments
are these totals, and the mean estimating function and its Jacobian at
any (theta, zeta) are O(p^2) algebra on the moments
(:func:`mean_terms`).  The alternation, the sensitivity and the
over-identification test touch no n x m data after set-up.

The moments work from r0 rather than y to stay free of cancellation when
the residuals are small next to X theta.  A quadratic form in the Grams
of (X, y) subtracts totals of the size of y' y to leave one of the size
of r' r, and cancels to noise there; r0 and r are the same size, and
since X' r0 is about 0 at the least-squares start the delta terms are
small corrections to r0' B_k r0, not a difference of large numbers.

The per-subject scores, which the weights of the combination need, take
the one residual pass at the solution (:func:`gee_evaluate`); it applies
each B_k to r by shifted slices or a row sum.  No m x m matrix is ever
formed and nothing is differentiated numerically.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericDomainError, SolverError

RHO_LIMIT = 0.999  # |rho| clamp of every block solver, CL included


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
    """Each B_k applied to every subject's row of r (n, m).  The
    exchangeable 11' gives every position its subject's row sum, returned
    as one (n, 1) column that broadcasts over the positions."""
    if structure == "independence":
        return (r,)
    if structure == "ar1":
        ends = np.zeros_like(r)
        ends[:, 0] = r[:, 0]
        ends[:, -1] = r[:, -1]
        shift = np.zeros_like(r)
        shift[:, :-1] = r[:, 1:]
        shift[:, 1:] += r[:, :-1]
        return r, ends, shift
    return r, r.sum(axis=1, keepdims=True)


def _combine(coefs, terms) -> np.ndarray:
    return sum(c * t for c, t in zip(coefs, terms))


def _xt(X, a) -> np.ndarray:
    """sum_i X_i' a_i over every subject and position: (p,); an (n, 1)
    column a holds one value for all of a subject's positions."""
    if a.shape[1] == 1:
        return X.sum(axis=1).T @ a[:, 0]
    return X.reshape(-1, X.shape[2]).T @ a.reshape(-1)


def _total(r, a) -> float:
    """sum_i r_i' a_i, with an (n, 1) column a as in :func:`_xt`."""
    if a.shape[1] == 1:
        return float(r.sum(axis=1) @ a[:, 0])
    return float(np.vdot(r, a))


def _basis_cross(X, basis) -> np.ndarray:
    """(K, p) cross sums sum_i X_i' B_k r_i, one row per applied operator."""
    return np.stack([_xt(X, b) for b in basis])


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


def _moment_roots(totals, structure, n, m):
    """Closed-form roots of the residual-product moment equations, from
    the totals sum_i r_i' B_k r_i over the basis operators."""
    sigma2 = float(totals[0] / (n * m))
    if structure == "independence":
        return np.array([sigma2]), False
    if structure == "ar1":
        # the lag-1 shift counts each of the m - 1 neighbour pairs twice
        rho = float(totals[2] / (2.0 * n * (m - 1)) / sigma2)
    else:  # exchangeable: 11' - I counts each of the m(m-1)/2 pairs twice
        rho = float((totals[1] - totals[0]) / (n * m * (m - 1)) / sigma2)
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


class GeeMoments(NamedTuple):
    """A block's least-squares start and its sums over the basis operators
    B_k: the design Grams G_k = sum_i X_i' B_k X_i (K, p, p), the cross
    sums c_k = sum_i X_i' B_k r0_i (K, p) and the totals r0' B_k r0 (K,)
    of the start residuals r0, with the block's n subjects and m
    positions."""

    start: np.ndarray
    grams: np.ndarray
    cross: np.ndarray
    totals: np.ndarray
    n: int
    m: int


def gee_moments(block, structure: str) -> GeeMoments:
    """The block's moments: one Gram build and one pass over the start
    residuals."""
    X = block.design
    grams = _grams(structure, X)
    start = _solve(block, grams[0], _xt(X, block.y))
    resid = _residuals(block, start)
    basis = _apply_basis(structure, resid)
    totals = np.array([_total(resid, b) for b in basis])
    return GeeMoments(start, grams, _basis_cross(X, basis), totals, block.n, block.m)


def mean_terms(moments: GeeMoments, theta, zeta, structure: str, jacobian: bool = False):
    """Mean estimating function row (psi, g) at (theta, zeta) and, with
    ``jacobian``, its Jacobian on (theta, sigma^2[, rho]) (else None),
    from the block's moments alone: with delta = theta - start the cross
    sums are c_k - G_k delta and the totals the quadratic forms
    r0' B_k r0 - 2 delta' c_k + delta' G_k delta.  Every entry is in
    closed form."""
    sigma2, rho = _nuisance(zeta, structure)
    start, grams, cross0, totals0, n, m = moments
    p = start.shape[0]
    d = nuisance_dim(structure)
    delta = theta - start
    g_delta = grams @ delta  # (K, p): G_k delta
    cross = cross0 - g_delta  # sum_i X_i' B_k r_i
    # as Python floats: the g entries are a few scalar operations each
    totals = (totals0 - 2.0 * (cross0 @ delta) + g_delta @ delta).tolist()
    w, dw = _weights(structure, rho, m)

    row = np.empty(p + d)
    row[:p] = w @ cross / (n * sigma2)
    row[p] = totals[0] / (n * m) - sigma2
    if structure == "ar1":
        # g2 = mean_t r_t r_{t+1} - rho sigma^2; the lag-1 shift counts each
        # of the m - 1 neighbour pairs twice
        row[p + 1] = totals[2] / (2.0 * n * (m - 1)) - rho * sigma2
    elif structure == "exchangeable":
        # g2 = sum_{s<t} r_s r_t / npairs - rho sigma^2; 11' - I counts each
        # pair twice
        row[p + 1] = (totals[1] - totals[0]) / (n * m * (m - 1)) - rho * sigma2
    if not jacobian:
        return row, None

    jac = np.zeros((p + d, p + d))
    jac[:p, :p] = -(w @ grams.reshape(len(grams), -1)).reshape(p, p) / (n * sigma2)
    # psi = X' R^-1 r / sigma^2 scales as 1 / sigma^2
    jac[:p, p] = -(w @ cross) / (n * sigma2 * sigma2)
    # d r' B r / d theta = -2 X' B r for every symmetric B
    jac[p, :p] = -2.0 * cross[0] / (n * m)
    jac[p, p] = -1.0
    if d == 1:
        return row, jac
    jac[:p, p + 1] = (dw @ cross) / (n * sigma2)
    if structure == "ar1":
        jac[p + 1, :p] = -cross[2] / (n * (m - 1))
    else:
        jac[p + 1, :p] = -(cross[1] - cross[0]) / (n * m * (m - 1) / 2.0)
    jac[p + 1, p] = -rho
    jac[p + 1, p + 1] = -sigma2
    return row, jac


def gee_scores(block, theta, zeta, structure) -> np.ndarray:
    """Per-subject score rows (psi_i, g_i) at (theta, zeta)."""
    return gee_evaluate(block, theta, zeta, structure)[0]


def gee_evaluate(block, theta, zeta, structure, moments: GeeMoments | None = None):
    """(scores, H) at (theta, zeta): the per-subject score rows
    (psi_i, g_i) from one residual pass and, when the block's moments are
    given (as :func:`fit_gee_block` returns them), H the Jacobian of the
    mean row from :func:`mean_terms` (else None)."""
    sigma2, rho = _nuisance(zeta, structure)
    X = block.design
    m = X.shape[1]
    resid = _residuals(block, theta)
    basis = _apply_basis(structure, resid)
    w, _ = _weights(structure, rho, m)
    psi = np.matmul(_combine(w, basis)[:, None, :], X)[:, 0, :] / sigma2

    squares = (resid**2).sum(axis=1)
    columns = [psi, squares / m - sigma2]
    if structure == "ar1":
        lag1 = (resid[:, :-1] * resid[:, 1:]).sum(axis=1)
        columns.append(lag1 / (m - 1) - rho * sigma2)
    elif structure == "exchangeable":
        pairs = (resid.sum(axis=1) ** 2 - squares) / 2.0
        columns.append(pairs / (m * (m - 1) / 2.0) - rho * sigma2)
    scores = np.column_stack(columns)
    if moments is None:
        return scores, None
    return scores, mean_terms(moments, theta, zeta, structure, jacobian=True)[1]


def fit_gee_block(block, structure: str, tol: float = 1e-8, max_iter: int = 100):
    """Alternate theta / zeta updates to joint convergence.

    Returns (theta, zeta, converged, iterations, rho_clamped, moments), the
    last the block's :class:`GeeMoments`, so that :func:`gee_evaluate`
    needs no second pass over the design for the Jacobian at the solution.
    """
    d = nuisance_dim(structure)
    if block.n <= block.p + d:
        raise SolverError(
            f"block ({block.j}, {block.k}): n={block.n} too small for "
            f"p+d={block.p + d} parameters"
        )
    n, m, p = block.n, block.m, block.p
    # each weighted step solves for a correction delta to the independence
    # start from its residuals r0, and the moment totals at start + delta
    # are quadratic forms in delta (see the module docstring)
    moments = gee_moments(block, structure)
    flat = moments.grams.reshape(len(moments.grams), -1)
    start, cross, base = moments.start, moments.cross, moments.totals
    theta = start
    zeta, clamped = _moment_roots(base, structure, n, m)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rho = float(zeta[1]) if structure != "independence" else 0.0
        w, _ = _weights(structure, rho, m)
        delta = _solve(block, (w @ flat).reshape(p, p), w @ cross)
        totals = base - 2.0 * (cross @ delta) + flat @ np.outer(delta, delta).reshape(-1)
        theta_new = start + delta
        zeta_new, clamped = _moment_roots(totals, structure, n, m)
        step = max(np.abs(theta_new - theta).max(), np.abs(zeta_new - zeta).max())
        theta, zeta = theta_new, zeta_new
        if step < tol:
            converged = True
            break
    return theta, zeta, converged, iterations, clamped, moments
