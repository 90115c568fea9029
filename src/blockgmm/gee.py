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
r0.  At theta = start + delta the cross sums are c_k - G_k delta and the
totals sum_i r_i' B_k r_i the quadratic forms
r0' B_k r0 - 2 delta' c_k + delta' G_k delta.  So the weighted normal
equations at any rho are a p x p solve for delta, the nuisance moments
are these totals, and the mean estimating function and its Jacobian at
any (theta, zeta) are O(p^2) algebra on the moments
(:func:`mean_terms`).  The alternation, the sensitivity and the
over-identification test touch no n x m data after set-up.

:func:`gee_moments` takes a bucket of blocks of one shape at once, the
(B, n, m, p) covariates and (B, n, m) responses that
:func:`blockgmm.partition.split` gathers for a subject group's run of
equal-size response blocks, and builds every block's moments in a few
batched passes; each product and reduction still runs over one block's
own rows, with the bits it has for the block alone.

Since every iteration is p x p algebra, the solver works on a stack of
blocks at once: :func:`stack_moments` lays the blocks' moments along a
leading axis (their m may differ), and :func:`fit_gee_block` alternates
all of them together, with one (b, p, p) solve per iteration over the b
blocks not yet converged; :func:`mean_terms` takes the same stack.  The
weighted sums over the basis are written out term by term and every
other sum runs along a block's own row, so a block's bits, its iteration
count and its flags do not depend on the stack it is in; a block fitted
alone is a stack of one.  :func:`blockgmm.engines.solve_blocks` checks
every block's shape (n > p + d, and m >= 2 where there is a rho) before
its moments are taken, so the solver meets no block too small to solve.

The moments work from r0 rather than y to stay free of cancellation when
the residuals are small next to X theta.  A quadratic form in the Grams
of (X, y) subtracts totals of the size of y' y to leave one of the size
of r' r, and cancels to noise there; r0 and r are the same size, and
since X' r0 is about 0 at the least-squares start the delta terms are
small corrections to r0' B_k r0, not a difference of large numbers.
Start residuals at round-off next to y, an exact linear fit, carry no
variance, and :func:`gee_moments` rejects such a block.

The per-subject scores, which the weights of the combination need, take
one residual pass per slab of a bucket at the solution
(:func:`gee_scores`), the slabs of :func:`gee_moments`: every block's
weights, sigma^2 and rho broadcast along the slab's leading axis, R^-1 r
is w_0 r plus the other operators, applied by shifted slices or a row
sum, in place, and each per-subject sum over the m positions is one
contraction along the subject's own row, so a block's scores have the
same bits in any slab.  No m x m matrix is ever formed and nothing is
differentiated numerically.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericDomainError, SolverError

RHO_LIMIT = 0.999  # |rho| clamp of every block solver, CL included


def nuisance_dim(structure: str) -> int:
    return 1 if structure == "independence" else 2


def _weight_terms(structure: str, rho, m):
    """Coefficients w and dw/drho of R(rho)^-1 = sum_k w_k B_k, one term per
    basis operator, for a scalar rho and m or for broadcastable arrays of
    them."""
    if structure == "independence":
        return (1.0,), (0.0,)
    if structure not in ("ar1", "exchangeable"):
        raise SolverError(f"unknown working structure {structure!r}")
    bad = np.abs(rho) >= 1.0
    if bad.any():
        raise NumericDomainError(f"|rho| >= 1 (rho={_first(rho, bad)})")
    if structure == "ar1":
        # tridiagonal: (1 + rho^2) c inside, c at both ends, -rho c off the diagonal
        c = 1.0 / (1.0 - rho * rho)
        cc = c * c
        w = ((1.0 + rho * rho) * c, -rho * rho * c, -rho * c)
        return w, (cc * (4.0 * rho), cc * (-2.0 * rho), cc * -(1.0 + rho * rho))
    denom = 1.0 + (m - 1) * rho
    bad = np.less_equal(denom, 0.0)
    if bad.any():
        raise NumericDomainError(
            f"exchangeable rho={_first(rho, bad)} not PD for m={int(_first(m, bad))}"
        )
    # Sherman-Morrison: R^-1 = a I + b 11'
    scale = (1.0 - rho) * denom
    w = (1.0 / (1.0 - rho), -rho / scale)
    return w, (1.0 / (1.0 - rho) ** 2, -(1.0 + (m - 1) * rho * rho) / scale**2)


def _first(values, bad) -> float:
    """The first of ``values`` (broadcast to ``bad``) where ``bad`` holds."""
    return float(np.broadcast_to(values, np.shape(bad))[bad][0])


def _weights(structure: str, rho, m):
    """The terms of :func:`_weight_terms` stacked along the last axis, for
    a scalar rho and m or for (B,) arrays of them."""
    rho, m = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(m))
    out = []
    for terms in _weight_terms(structure, rho, m):
        stacked = np.empty(rho.shape + (len(terms),))
        for k, term in enumerate(terms):
            stacked[..., k] = term
        out.append(stacked)
    return tuple(out)


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _grams(structure: str, X: np.ndarray) -> np.ndarray:
    """(..., K, p, p) Grams sum_i X_i' B_k X_i of X (..., n, m, p) over the
    basis B_k, one block per leading index."""
    *lead, n, m, p = X.shape
    flat = X.reshape(*lead, n * m, p)
    # numpy sends X'X of one operand to BLAS syrk, which took 2.5 times a
    # gemm on a transposed copy at n m = 25 000 (copy included)
    g0 = np.ascontiguousarray(_t(flat)) @ flat
    if structure == "independence":
        return g0[..., None, :, :]
    if structure == "ar1":
        first, last = X[..., 0, :], X[..., -1, :]
        ends = _t(first) @ first + _t(last) @ last
        # consecutive flat rows, less the pairs that straddle two subjects
        lag = _t(flat[..., :-1, :]) @ flat[..., 1:, :] - _t(X[..., :-1, -1, :]) @ X[..., 1:, 0, :]
        return np.stack([g0, ends, lag + _t(lag)], axis=-3)
    total = X.sum(axis=-2)
    return np.stack([g0, _t(total) @ total], axis=-3)


def _apply_basis(structure: str, r: np.ndarray) -> tuple:
    """Each B_k applied to every subject's row of r (..., n, m).  The
    exchangeable 11' gives every position its subject's row sum, returned
    as one (..., n, 1) column that broadcasts over the positions."""
    if structure == "independence":
        return (r,)
    if structure == "ar1":
        ends = np.zeros_like(r)
        ends[..., 0] = r[..., 0]
        ends[..., -1] = r[..., -1]
        return r, ends, _shift(r)
    return r, r.sum(axis=-1, keepdims=True)


def _shift(r: np.ndarray) -> np.ndarray:
    """The lag-1 shift applied to every subject's row of r (..., n, m)."""
    shift = np.empty_like(r)
    shift[..., :-1] = r[..., 1:]
    shift[..., -1] = 0.0
    shift[..., 1:] += r[..., :-1]
    return shift


def _apply_inverse(structure: str, w, r: np.ndarray) -> np.ndarray:
    """sum_k w_k B_k r for weights w (..., K), one row of them per block,
    every subject's row of r (..., n, m) at once: w_0 r, then the other
    terms added in place, with the bits of the sum of the applied operators
    of :func:`_apply_basis`."""
    w = np.asarray(w)[..., None, None, :]  # (..., 1, 1, K)
    out = w[..., 0] * r
    if structure == "ar1":
        out[..., 0] += w[..., 0, 1] * r[..., 0]
        out[..., -1] += w[..., 0, 1] * r[..., -1]
        shift = _shift(r)
        shift *= w[..., 2]
        out += shift
    elif structure == "exchangeable":
        out += w[..., 1] * r.sum(axis=-1, keepdims=True)
    return out


def _xt(X, a) -> np.ndarray:
    """sum_i X_i' a_i over every subject and position, (..., p) for X
    (..., n, m, p) and a (..., n, m); an (..., n, 1) column a holds one
    value for all of a subject's positions."""
    if a.shape[-1] == 1:
        return (_t(X.sum(axis=-2)) @ a)[..., 0]
    *lead, n, m, p = X.shape
    return (_t(X.reshape(*lead, n * m, p)) @ a.reshape(*lead, n * m, 1))[..., 0]


def _total(r, a) -> np.ndarray:
    """sum_i r_i' a_i, (...,) for r (..., n, m), with an (..., n, 1)
    column a as in :func:`_xt`."""
    if a.shape[-1] == 1:
        r = r.sum(axis=-1, keepdims=True)
    # a (1, nm) @ (nm, 1) product per block is numpy's dot, with the bits of np.vdot
    lead = r.shape[:-2]
    return np.matmul(r.reshape(*lead, 1, -1), a.reshape(*lead, -1, 1))[..., 0, 0]


def _basis_cross(X, basis) -> np.ndarray:
    """(..., K, p) cross sums sum_i X_i' B_k r_i, one row per applied operator."""
    return np.stack([_xt(X, b) for b in basis], axis=-2)


def _residuals(y, X, theta) -> np.ndarray:
    """y - X theta of y (..., n, m) and X (..., n, m, p) at theta (..., p)."""
    *lead, n, m, p = X.shape
    return y - (X.reshape(*lead, n * m, p) @ theta[..., None]).reshape(y.shape)


def _singular(key) -> SolverError:
    j, k = key
    return SolverError(f"singular weighted normal equations in block ({j}, {k})")


def _reject_exact_fit(keys, totals, yy) -> None:
    """Check the start residuals' sums of squares, one row of ``totals``
    (the residual sum of squares rss first) and one y'y ``yy`` per key.

    A block with a non-finite sum, which overflowed, is a
    NumericDomainError, and then a block whose rss is round-off next to
    its y'y a SolverError; each names the first such block."""
    totals, yy = np.asarray(totals), np.asarray(yy)
    rss = totals[:, 0]
    overflow = ~(np.isfinite(totals).all(axis=1) & np.isfinite(yy))
    if overflow.any():
        b = int(np.argmax(overflow))
        j, k = keys[b]
        raise NumericDomainError(
            f"block ({j}, {k}): the sums of squares of the responses overflow "
            f"(start residual sum of squares {rss[b]:.3e}, y'y {yy[b]:.3e}); "
            "rescale the responses"
        )
    # a float64 least-squares residual is known to about eps kappa(X) |y|
    # (eps = 2.2e-16), so r0' r0 <= 1e-20 y' y, a relative norm below 1e-10,
    # is round-off for any design with kappa below about 4e5.  An exact fit
    # measured at most 1e-28 on this ratio over 200 random designs, and
    # noise at 1e-6 of the signal about 1e-12: eight orders either side
    exact = rss <= 1e-20 * yy
    if exact.any():
        b = int(np.argmax(exact))
        j, k = keys[b]
        raise SolverError(
            f"block ({j}, {k}): the responses are an exact linear fit "
            f"of the covariates (start residual sum of squares {rss[b]:.3e}, "
            f"y'y {yy[b]:.3e}); there is no residual variance to estimate"
        )


def _first_singular(A) -> int:
    """Index of the first matrix of a (B, p, p) stack that LAPACK rejects."""
    for i, a in enumerate(A):
        try:
            np.linalg.solve(a, a[0])
        except np.linalg.LinAlgError:
            return i
    return 0


def _wsum(w, terms) -> np.ndarray:
    """sum_k w_k T_k of stacked terms (B, K, ...) with w (B, K), written out
    term by term so that a block's sum has the same bits in any stack."""
    w = w.reshape(w.shape + (1,) * (terms.ndim - 2))
    out = w[:, 0] * terms[:, 0]
    for k in range(1, terms.shape[1]):
        out += w[:, k] * terms[:, k]
    return out


def _shifted(grams, cross0, totals0, delta):
    """Stacked cross sums c_k - G_k delta and totals
    r0' B_k r0 - 2 delta' c_k + delta' G_k delta at start + delta, with
    every sum over the p coordinates taken along the last axis."""
    g_delta = (grams * delta[:, None, None, :]).sum(axis=-1)  # (B, K, p)
    dd = delta[:, None, :]
    totals = totals0 - 2.0 * (cross0 * dd).sum(axis=-1) + (g_delta * dd).sum(axis=-1)
    return cross0 - g_delta, totals


def _moment_roots(totals, structure, n, m):
    """Closed-form roots (B, d) of the residual-product moment equations
    from the stacked totals sum_i r_i' B_k r_i (B, K) over the basis
    operators, and whether each block's rho was clamped."""
    sigma2 = totals[:, 0] / (n * m)
    if structure == "independence":
        return sigma2[:, None], np.zeros(len(sigma2), dtype=bool)
    if structure == "ar1":
        # the lag-1 shift counts each of the m - 1 neighbour pairs twice
        rho = totals[:, 2] / (2.0 * n * (m - 1)) / sigma2
    else:  # exchangeable: 11' - I counts each of the m(m-1)/2 pairs twice
        rho = (totals[:, 1] - totals[:, 0]) / (n * m * (m - 1)) / sigma2
    lo = np.full(len(rho), -RHO_LIMIT)
    if structure == "exchangeable":
        lo = np.maximum(lo, -1.0 / (m - 1) + 1e-6)
    clamped = (rho < lo) | (rho > RHO_LIMIT)
    rho = np.minimum(np.maximum(rho, lo), RHO_LIMIT)
    return np.stack([sigma2, rho], axis=-1), clamped


def _nuisance(zeta, structure):
    """sigma^2 and rho (0 for independence) of zeta (..., d)."""
    zeta = np.asarray(zeta, dtype=float)
    sigma2 = zeta[..., 0]
    bad = sigma2 <= 0
    if bad.any():
        raise NumericDomainError(f"sigma^2 must be positive, got {float(sigma2[bad][0])}")
    rho = zeta[..., 1] if structure != "independence" else np.zeros_like(sigma2)
    return sigma2, rho


class GeeMoments(NamedTuple):
    """A block's least-squares start and its sums over the basis operators
    B_k: the design Grams G_k = sum_i X_i' B_k X_i (K, p, p), the cross
    sums c_k = sum_i X_i' B_k r0_i (K, p) and the totals r0' B_k r0 (K,)
    of the start residuals r0, with the block's n subjects and m
    positions.  :func:`stack_moments` stacks blocks' moments along a
    leading axis, n and m included."""

    start: np.ndarray
    grams: np.ndarray
    cross: np.ndarray
    totals: np.ndarray
    n: int
    m: int


# design bytes of the blocks that one batched pass of gee_moments or
# gee_scores takes.  A pass holds the residuals and the applied operators
# of all its blocks at once; slabs this size keep that memory at one large
# block's (a 600 kB design is a slab of its own: one pass per 6-block
# bucket raised an mc-gee replication's peak RSS by about 2 MB), while
# small blocks, whose cost is per-call overhead, still go many to a pass
# (400 blocks of 24 kB took 20 ms one bucket per pass, 55 ms one block per
# pass)
_SLAB_BYTES = 1 << 20


def gee_moments(y, X, structure: str, keys) -> list:
    """The moments of a bucket of B blocks of one shape, y (B, n, m) and
    covariates X (B, n, m, p): one :class:`GeeMoments` per block, whose arrays
    are views of the bucket's; ``keys`` names the blocks (j, k) for the
    errors.

    One Gram build and one pass over the start residuals, a slab of about
    1 MB of design at a time.  Every product and reduction runs over one
    block's own rows, so a block's moments have the same bits in any
    bucket, a bucket of one included.  A singular design is a SolverError
    naming the first such block, then a block whose sums of squares
    overflow a NumericDomainError, and then a block whose responses are an
    exact linear fit of its covariates a SolverError; one block at a time,
    as :func:`blockgmm.engines.block_moments` retries a failed bucket,
    names the first bad block of any kind.
    """
    B, n, m, p = X.shape
    rows = []
    for at in _slabs(X):
        slab = _slab_moments(y[at], X[at], structure, keys[at])
        rows += [GeeMoments(*(part[b] for part in slab), n, m) for b in range(len(slab[0]))]
    return rows


def _slabs(X) -> list:
    """Slices of a bucket's leading axis, with X (B, n, m, p) its design,
    that cut it into slabs of about ``_SLAB_BYTES`` of design each; a
    block larger than that is a slab of its own."""
    step = max(1, _SLAB_BYTES // X[0].nbytes)
    return [slice(a, a + step) for a in range(0, len(X), step)]


def _slab_moments(y, X, structure, keys) -> tuple:
    grams = _grams(structure, X)
    try:
        start = np.linalg.solve(grams[:, 0], _xt(X, y)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise _singular(keys[_first_singular(grams[:, 0])]) from exc
    resid = _residuals(y, X, start)
    basis = _apply_basis(structure, resid)
    totals = np.empty((len(y), len(basis)))
    # an overflowing sum is named by _reject_exact_fit
    with np.errstate(over="ignore", invalid="ignore"):
        for k, b in enumerate(basis):
            totals[:, k] = _total(resid, b)
        yy = _total(y, y)
    _reject_exact_fit(keys, totals, yy)
    return start, grams, _basis_cross(X, basis), totals


def stack_moments(moments) -> GeeMoments:
    """Blocks' moments of one structure stacked along a leading axis: start
    (B, p), grams (B, K, p, p), cross (B, K, p), totals (B, K), n and m
    (B,).  The blocks may differ in m."""
    return GeeMoments(*map(np.array, zip(*moments)))


def mean_terms(moments: GeeMoments, theta, zeta, structure: str, jacobian: bool = False):
    """Mean estimating function rows (psi, g) (B, p + d) of a stack of
    blocks (:func:`stack_moments`), block b at (theta[b], zeta[b]), and,
    with ``jacobian``, their Jacobians (B, p + d, p + d) on
    (theta, sigma^2[, rho]) (else None), from the moments alone: with
    delta = theta - start the cross sums are c_k - G_k delta and the
    totals the quadratic forms r0' B_k r0 - 2 delta' c_k + delta' G_k delta.
    Every entry is in closed form, and a block's bits do not depend on
    the stack it is in."""
    sigma2, rho = _nuisance(zeta, structure)
    start, grams, cross0, totals0, n, m = moments
    B, p = start.shape
    d = nuisance_dim(structure)
    cross, totals = _shifted(grams, cross0, totals0, theta - start)
    w, dw = _weights(structure, rho, m)
    scale = n * sigma2  # n sigma^2 per block

    row = np.empty((B, p + d))
    row[:, :p] = _wsum(w, cross) / scale[:, None]
    row[:, p] = totals[:, 0] / (n * m) - sigma2
    if structure == "ar1":
        # g2 = mean_t r_t r_{t+1} - rho sigma^2; the lag-1 shift counts each
        # of the m - 1 neighbour pairs twice
        row[:, p + 1] = totals[:, 2] / (2.0 * n * (m - 1)) - rho * sigma2
    elif structure == "exchangeable":
        # g2 = sum_{s<t} r_s r_t / npairs - rho sigma^2; 11' - I counts each
        # pair twice
        row[:, p + 1] = (totals[:, 1] - totals[:, 0]) / (n * m * (m - 1)) - rho * sigma2
    if not jacobian:
        return row, None

    jac = np.zeros((B, p + d, p + d))
    jac[:, :p, :p] = -_wsum(w, grams) / scale[:, None, None]
    # psi = X' R^-1 r / sigma^2 scales as 1 / sigma^2; where n sigma^4
    # overflows, this entry (about m / sigma^3) reads 0
    with np.errstate(over="ignore"):
        jac[:, :p, p] = -_wsum(w, cross) / (scale * sigma2)[:, None]
    # d r' B r / d theta = -2 X' B r for every symmetric B
    jac[:, p, :p] = -2.0 * cross[:, 0] / (n * m)[:, None]
    jac[:, p, p] = -1.0
    if d == 1:
        return row, jac
    jac[:, :p, p + 1] = _wsum(dw, cross) / scale[:, None]
    if structure == "ar1":
        jac[:, p + 1, :p] = -cross[:, 2] / (n * (m - 1))[:, None]
    else:
        jac[:, p + 1, :p] = -(cross[:, 1] - cross[:, 0]) / (n * m * (m - 1) / 2.0)[:, None]
    jac[:, p + 1, p] = -rho
    jac[:, p + 1, p + 1] = -sigma2
    return row, jac


def gee_scores(y, X, theta, zeta, structure: str) -> np.ndarray:
    """The per-subject score rows (psi_i, g_i) (B, n, p + d) of a slab of B
    blocks of one shape, y (B, n, m) and covariates X (B, n, m, p), block b
    at (theta[b], zeta[b]).

    One residual pass over the slab, with every block's weights, sigma^2
    and rho broadcast along the leading axis; each per-subject sum runs
    over that subject's own row, so a block's scores have the same bits in
    any slab, a slab of one included.
    """
    sigma2, rho = _nuisance(zeta, structure)
    B, n, m, p = X.shape
    resid = _residuals(y, X, theta)
    w, _ = _weights(structure, rho, m)
    scores = np.empty((B, n, p + nuisance_dim(structure)))
    psi = np.matmul(_apply_inverse(structure, w, resid)[..., None, :], X)[..., 0, :]
    np.divide(psi, sigma2[:, None, None], out=scores[..., :p])

    # each per-subject sum over m is one contraction along the row
    squares = np.einsum("...m,...m->...", resid, resid)
    scores[..., p] = squares / m - sigma2[:, None]
    if structure == "ar1":
        lag1 = np.einsum("...m,...m->...", resid[..., :-1], resid[..., 1:])
        scores[..., p + 1] = lag1 / (m - 1) - (rho * sigma2)[:, None]
    elif structure == "exchangeable":
        pairs = (resid.sum(axis=-1) ** 2 - squares) / 2.0
        scores[..., p + 1] = pairs / (m * (m - 1) / 2.0) - (rho * sigma2)[:, None]
    return scores


class GeeSolution(NamedTuple):
    """A stacked solve: estimates theta (B, p) and zeta (B, d), and per
    block whether the alternation converged, its iteration count and
    whether its rho ended at the clamp."""

    theta: np.ndarray
    zeta: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    clamped: np.ndarray


def fit_gee_block(moments: GeeMoments, structure: str, keys, tol: float = 1e-8,
                  max_iter: int = 100) -> GeeSolution:
    """Alternate theta / zeta updates to joint convergence, for every block
    of a stack (:func:`stack_moments`) at once; ``keys`` names the blocks
    (j, k) in stack order for the errors.

    Each iteration makes one (b, p, p) solve over the b blocks still
    active.  A block leaves the active set in the iteration where its step
    falls below ``tol``, so its iterates and its iteration count are those
    it would have alone, bit for bit.
    """
    start, grams, cross, base, n, m = moments
    B = len(start)
    # each weighted step solves for a correction delta to the independence
    # start from its residuals r0, and the moment totals at start + delta
    # are quadratic forms in delta (see the module docstring)
    theta = start.copy()
    zeta, clamped = _moment_roots(base, structure, n, m)
    converged = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    active = np.arange(B)
    for it in range(1, max_iter + 1):
        iterations[active] = it
        zeta_a = zeta[active]
        rho = zeta_a[:, 1] if structure != "independence" else 0.0
        w, _ = _weights(structure, rho, m)
        A = _wsum(w, grams)
        try:
            delta = np.linalg.solve(A, _wsum(w, cross)[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise _singular(keys[active[_first_singular(A)]]) from exc
        _, totals = _shifted(grams, cross, base, delta)
        theta_new = start + delta
        zeta_new, clamped[active] = _moment_roots(totals, structure, n, m)
        # the larger of the two steps, where a nan zeta step leaves the theta
        # step, as Python's max(theta step, zeta step) does
        t_step = np.abs(theta_new - theta[active]).max(axis=1)
        z_step = np.abs(zeta_new - zeta_a).max(axis=1)
        step = np.where(z_step > t_step, z_step, t_step)
        theta[active], zeta[active] = theta_new, zeta_new
        done = step < tol
        if done.any():
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            start, grams, cross, base = start[keep], grams[keep], cross[keep], base[keep]
            n, m = n[keep], m[keep]
    return GeeSolution(theta, zeta, converged, iterations, clamped)
