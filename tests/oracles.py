"""Dense and iterative verification oracles for the test suite.

The arrowhead combiner in ``blockgmm.combine`` never forms a
(p+d) x (p+d) matrix.  The oracles here do: they build every zero-padded
combination matrix C_{k,i}, sum them into the full information, and solve
the dense system, so the production solve can be checked against the
combination identity and against a plain dense computation; the
per-block loop that assembles a group's stacked sensitivity S_k is here
as the reference for the production one-scatter assembly.  Likewise the
GEE kernel never forms an m x m working-correlation inverse and never
differentiates numerically; the dense GEE fit and the central-difference
sensitivity here do, and the residual-moment alternation takes the
nuisance moments from a pass over the residuals of every iterate, where
the kernel uses quadratic forms in the start residuals.  The per-block
GEE scores with scalar weights are the reference for the kernel's one
pass over a slab of blocks, and the working-correlation basis operators
applied subject by subject and position by position are the reference
for the kernel's flat, slab-wide application.  The GEE and pairwise-CL mean estimating
functions and their Jacobians here come from a pass over the residuals
at every point, where the kernels use their block moments; so does the
data-pass T_N of the over-identification test.  The simulation
generators with one numpy SeedSequence per subject, the numeric GMM
minimizer and the plan/split helpers that only tests use live here too.

A production bundle keeps each group's summary and its blocks' records,
not their per-subject scores and sensitivities; :class:`FitBundle` keeps
the in-memory block fits as well, for the dense oracles that read them.
"""

import dataclasses

import numpy as np
import scipy.linalg
import scipy.optimize

from blockgmm import composite, gee, partition, simstudy
from blockgmm.combine import SummaryBundle, assemble_vhat, invert_vhat
from blockgmm.dataio import Dataset
from blockgmm.engines import eval_scores
from blockgmm.errors import NumericDomainError, SolverError
from blockgmm.inference import _stacked_estfun
from blockgmm.partition import format_plan, parse_plan


# ---------------------------------------------------------------------------
# a bundle with its blocks' in-memory fits


@dataclasses.dataclass(frozen=True)
class FitBundle(SummaryBundle):
    """A SummaryBundle that also keeps its blocks' in-memory fits
    ((j, k) -> BlockFit, with scores and sensitivities), which the
    production bundle drops once its group summaries are formed."""

    block_fits: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def of(cls, plan, fits):
        groups = SummaryBundle.from_fits(plan, fits).groups
        return cls(plan=plan, groups=groups, block_fits=fits)


def stacked_fits(blocks, kind, opts=None):
    """(j, k) -> BlockFit of a split's blocks from the one stacked solve
    over them in sorted key order that :func:`blockgmm.simstudy.fit_dataset`
    runs, so with its bits, and without group summaries."""
    keys = sorted(blocks)
    return dict(zip(keys, simstudy._fit_chunk(([blocks[key] for key in keys], kind, opts))))


def fit_bundle(data, J, K, kind, strategy="contiguous", seed=0, opts=None):
    """(FitBundle, blocks) of the split and stacked solve that
    :func:`blockgmm.simstudy.fit_dataset` makes, so with its bits."""
    plan = partition.make_plan(data.M, data.N, J, K, strategy=strategy, seed=seed)
    blocks = partition.split(data, plan)
    return FitBundle.of(plan, stacked_fits(blocks, kind, opts)), blocks


# ---------------------------------------------------------------------------
# nuisance offsets in the global parameter (theta, zeta_list), j-fast k-slow


def group_offset(bundle, k):
    """Nuisance rows/columns consumed by groups before k."""
    return sum(bundle.fits[(j, l)].d for l in range(k) for j in range(bundle.J))


def zeta_offset(bundle, j, k):
    """Offset of zeta_jk in the global nuisance vector."""
    return group_offset(bundle, k) + sum(bundle.fits[(l, k)].d for l in range(j))


def zeta_list(bundle):
    """All block nuisance estimates stacked j-fast, k-slow."""
    return np.concatenate(
        [bundle.fits[(j, k)].zeta_hat for k in range(bundle.K) for j in range(bundle.J)]
    )


# ---------------------------------------------------------------------------
# the dense C-matrix sum


def subset_v(bundle, W, i, j, k, kind):
    """Submatrix of W_k for block pair (i, j) of group k."""
    p, J = bundle.p, bundle.J

    def g_off(b):
        return J * p + sum(bundle.fits[(l, k)].d for l in range(b))

    if kind == "psipsi":
        return W[k][i * p : (i + 1) * p, j * p : (j + 1) * p]
    if kind == "psig":
        off = g_off(j)
        return W[k][i * p : (i + 1) * p, off : off + bundle.fits[(j, k)].d]
    if kind == "gg":
        oi, oj = g_off(i), g_off(j)
        return W[k][oi : oi + bundle.fits[(i, k)].d, oj : oj + bundle.fits[(j, k)].d]
    raise ValueError(f"unknown subset kind {kind!r}")


def sens_parts(fit):
    """(S^theta_psi, S^zeta_psi, S^theta_g, S^zeta_g) of one block."""
    p, s = fit.p, fit.sensitivity
    return s[:p, :p], s[:p, p:], s[p:, :p], s[p:, p:]


def build_AB(bundle, W, k, i, j):
    """Sensitivity-weighted cross terms between blocks i and j of group k:
    (A_theta, A_zeta, B_theta, B_zeta) with shapes (p,p), (p,d_ik),
    (d_jk,p), (d_jk,d_ik)."""
    s_psi_th_i, s_psi_ze_i, s_g_th_i, s_g_ze_i = sens_parts(bundle.block_fits[(i, k)])
    s_psi_th_j, s_psi_ze_j, s_g_th_j, s_g_ze_j = sens_parts(bundle.block_fits[(j, k)])

    v_psi = subset_v(bundle, W, j, i, k, "psipsi")
    v_psig_T = subset_v(bundle, W, i, j, k, "psig").T
    v_psig = subset_v(bundle, W, j, i, k, "psig")
    v_g = subset_v(bundle, W, j, i, k, "gg")

    left_psi_A = s_psi_th_j.T @ v_psi + s_g_th_j.T @ v_psig_T
    left_g_A = s_psi_th_j.T @ v_psig + s_g_th_j.T @ v_g
    a_theta = left_psi_A @ s_psi_th_i + left_g_A @ s_g_th_i
    a_zeta = left_psi_A @ s_psi_ze_i + left_g_A @ s_g_ze_i

    left_psi_B = s_psi_ze_j.T @ v_psi + s_g_ze_j.T @ v_psig_T
    left_g_B = s_psi_ze_j.T @ v_psig + s_g_ze_j.T @ v_g
    b_theta = left_psi_B @ s_psi_th_i + left_g_B @ s_g_th_i
    b_zeta = left_psi_B @ s_psi_ze_i + left_g_B @ s_g_ze_i
    return a_theta, a_zeta, b_theta, b_zeta


def build_C(bundle, W, k, i):
    """Zero-padded (p+d) x (p+d) combination matrix of block (i, k) and its
    condensed form keeping the theta and zeta_ik columns."""
    p, d = bundle.p, bundle.d
    d_ik = bundle.fits[(i, k)].d
    off_i = p + zeta_offset(bundle, i, k)

    c = np.zeros((p + d, p + d))
    a_theta_sum = np.zeros((p, p))
    a_zeta_sum = np.zeros((p, d_ik))
    for j in range(bundle.J):
        a_theta, a_zeta, b_theta, b_zeta = build_AB(bundle, W, k, i, j)
        a_theta_sum += a_theta
        a_zeta_sum += a_zeta
        row = p + zeta_offset(bundle, j, k)
        d_jk = bundle.fits[(j, k)].d
        c[row : row + d_jk, :p] = b_theta
        c[row : row + d_jk, off_i : off_i + d_ik] = b_zeta
    c[:p, :p] = a_theta_sum
    c[:p, off_i : off_i + d_ik] = a_zeta_sum

    keep = list(range(p)) + list(range(off_i, off_i + d_ik))
    return c, c[:, keep].copy()


def combined_information(bundle, W):
    """(1/N^2) sum_k sum_i n_k^2 C_{k,i}, in fixed k-major i-minor order."""
    N = bundle.plan.N
    total = np.zeros((bundle.p + bundle.d, bundle.p + bundle.d))
    for k in range(bundle.K):
        nk2 = float(bundle.plan.group_sizes[k]) ** 2
        for i in range(bundle.J):
            c, _ = build_C(bundle, W, k, i)
            total += nk2 * c
    return total / (N * N)


def stacked_sensitivity(bundle):
    """Dense weighted sensitivity: rows follow the group score stacking,
    columns the combined parameter (theta, zeta_list)."""
    p, d, J = bundle.p, bundle.d, bundle.J
    N = bundle.plan.N
    dims = [J * p + sum(bundle.fits[(j, k)].d for j in range(J)) for k in range(bundle.K)]
    s = np.zeros((sum(dims), p + d))
    row = 0
    for k in range(bundle.K):
        wk = bundle.plan.group_sizes[k] / N
        g_row = row + J * p
        for j in range(J):
            fit = bundle.block_fits[(j, k)]
            s_psi_th, s_psi_ze, s_g_th, s_g_ze = sens_parts(fit)
            col = p + zeta_offset(bundle, j, k)
            r = row + j * p
            s[r : r + p, :p] = wk * s_psi_th
            s[r : r + p, col : col + fit.d] = wk * s_psi_ze
            s[g_row : g_row + fit.d, :p] = wk * s_g_th
            s[g_row : g_row + fit.d, col : col + fit.d] = wk * s_g_ze
            g_row += fit.d
        row += dims[k]
    return s


def godambe_direct(bundle, W):
    """S' W S computed densely: the other side of the combination identity."""
    s = stacked_sensitivity(bundle)
    total = np.zeros((s.shape[1], s.shape[1]))
    row = 0
    for k in range(bundle.K):
        dim = W[k].shape[0]
        sk = s[row : row + dim, :]
        total += sk.T @ W[k] @ sk
        row += dim
    return total


def dense_combine(bundle):
    """The dense combiner: sum every C_{k,i} and its right-hand side into
    (p+d)^2, then solve.  Returns (theta, zeta, cov) with cov the full
    (p+d) x (p+d) covariance."""
    W = invert_vhat(assemble_vhat(bundle), bundle)
    p, d, N = bundle.p, bundle.d, bundle.plan.N
    total = np.zeros((p + d, p + d))
    rhs = np.zeros(p + d)
    zetas = zeta_list(bundle)
    for k in range(bundle.K):
        nk2 = float(bundle.plan.group_sizes[k]) ** 2
        for i in range(bundle.J):
            c, _ = build_C(bundle, W, k, i)
            point = np.concatenate([bundle.fits[(i, k)].theta_hat, zetas])
            total += nk2 * c
            rhs += nk2 * (c @ point)
    cho = scipy.linalg.cho_factor(0.5 * (total + total.T))
    est = scipy.linalg.cho_solve(cho, rhs)
    cov = scipy.linalg.cho_solve(cho, np.eye(p + d)) * N
    return est[:p], est[p:], cov


def arrowhead_information(bundle):
    """The production group summaries' informations I_k (what a bundle
    archive stores) scattered into (p+d)^2 and scaled like
    :func:`combined_information`."""
    p, d, N = bundle.p, bundle.d, bundle.plan.N
    total = np.zeros((p + d, p + d))
    for k in range(bundle.K):
        summary = bundle.groups[k]
        idx = np.r_[0:p, p + group_offset(bundle, k) : p + group_offset(bundle, k + 1)]
        total[np.ix_(idx, idx)] += float(summary.n) ** 2 * summary.info
    return total / (N * N)


def group_information(fits, w):
    """(I_k, r_k, S_k, v_k) of one group by a loop over its blocks, six
    slice assignments each, with its explicit weights W_k: the reference
    for :func:`blockgmm.combine.build_C`, whose one-scatter S_k and v_k
    must have the same bits, and whose solve with V_k must give I_k and
    r_k to round-off."""
    J, p = len(fits), fits[0].p
    d_k = sum(fit.d for fit in fits)
    s = np.zeros((J * p + d_k, p + d_k))
    v = np.empty(J * p + d_k)
    off = 0  # offset of block j's g rows after the psi rows, and of its zeta columns
    for j, fit in enumerate(fits):
        sens, d = fit.sensitivity, fit.d
        image = sens @ np.concatenate([fit.theta_hat, fit.zeta_hat])
        psi = slice(j * p, (j + 1) * p)
        g = slice(J * p + off, J * p + off + d)
        zeta = slice(p + off, p + off + d)
        s[psi, :p], s[psi, zeta], v[psi] = sens[:p, :p], sens[:p, p:], image[:p]
        s[g, :p], s[g, zeta], v[g] = sens[p:, :p], sens[p:, p:], image[p:]
        off += d
    sw = s.T @ w
    return sw @ s, sw @ v, s, v


# ---------------------------------------------------------------------------
# iterative GMM minimizer


def stacked_estfun_pass(blocks, bundle, theta, zeta_list):
    """T_N at arbitrary parameters from a pass over every block: per-group
    (n_k/N)-weighted stacked means of the per-subject scores."""
    N = bundle.plan.N
    parts = []
    off = 0  # offset of zeta_jk in zeta_list, which runs j-fast, k-slow
    for k in range(bundle.K):
        wk = bundle.plan.group_sizes[k] / N
        psi_means, g_means = [], []
        for j in range(bundle.J):
            fit = bundle.fits[(j, k)]
            zeta = zeta_list[off : off + fit.d]
            off += fit.d
            mean = eval_scores([blocks[(j, k)]], theta, [zeta], fit.kind)[0].mean(axis=0)
            psi_means.append(mean[: bundle.p])
            g_means.append(mean[bundle.p :])
        parts.append(wk * np.concatenate(psi_means + g_means))
    return parts


def gmm_objective(bundle, W, theta, zeta_list):
    """Q_N = T_N' W T_N at arbitrary parameters, T_N from the block moments."""
    parts = _stacked_estfun(bundle, theta, zeta_list)
    return sum(float(tk @ W[k] @ tk) for k, tk in enumerate(parts))


def gmm_oracle(bundle, W, init_theta, init_zeta, gtol=1e-7):
    """Numeric minimizer of Q_N over all parameters.

    Optimizes on the unconstrained scale (theta, log sigma, atanh rho per
    block) starting from the supplied point.  Returns
    (theta_opt, zeta_opt, success_flag).
    """
    p = bundle.p
    order = [(j, k) for k in range(bundle.K) for j in range(bundle.J)]

    def pack(theta, zetas):
        u = [np.asarray(theta, dtype=float)]
        for j, k in order:
            fit = bundle.fits[(j, k)]
            off = zeta_offset(bundle, j, k)
            zeta = zetas[off : off + fit.d]
            chunk = [0.5 * np.log(zeta[0])]
            if fit.d > 1:
                chunk.append(np.arctanh(np.clip(zeta[1], -0.999, 0.999)))
            u.append(np.asarray(chunk))
        return np.concatenate(u)

    def unpack(u):
        theta = u[:p]
        zeta_parts = []
        pos = p
        for j, k in order:
            fit = bundle.fits[(j, k)]
            sigma2 = np.exp(2.0 * u[pos])
            pos += 1
            if fit.d > 1:
                zeta_parts.extend([sigma2, np.tanh(u[pos])])
                pos += 1
            else:
                zeta_parts.append(sigma2)
        return theta, np.array(zeta_parts)

    def fun(u):
        theta, zetas = unpack(u)
        return gmm_objective(bundle, W, theta, zetas)

    u0 = pack(init_theta, np.asarray(init_zeta, dtype=float))
    res = scipy.optimize.minimize(
        fun, u0, method="BFGS", options={"gtol": gtol, "maxiter": 500}
    )
    best = res.x if res.fun <= fun(u0) else u0
    theta_opt, zeta_opt = unpack(best)
    return theta_opt, zeta_opt, bool(res.success)


# ---------------------------------------------------------------------------
# partition helpers


def reassemble(blocks, plan):
    """Inverse of :func:`blockgmm.partition.split` on the response matrix."""
    out = np.empty((plan.N, plan.M))
    for (j, k), block in blocks.items():
        out[np.ix_(plan.subject_indices(k), plan.response_indices(j))] = block.y
    return out


def ix_split(data, plan):
    """Blocks of :func:`blockgmm.partition.split`, each gathered by one
    ``np.ix_`` double fancy index: {(j, k): (y, X)}."""
    blocks = {}
    for k in range(plan.K):
        rows = plan.subject_indices(k)
        for j in range(plan.J):
            cols = plan.response_indices(j)
            blocks[(j, k)] = (data.responses[np.ix_(rows, cols)],
                              data.covariates[np.ix_(rows, cols)])
    return blocks


def plan_labels(plan):
    """Reference (block_of_response, group_of_subject) label arrays of a plan,
    built the way plans once stored them: group labels
    ``repeat(arange(K), group_sizes)`` scattered to the subject order
    (entry order, or ``default_rng(seed).permutation(N)`` for seeded-random).
    """
    order = np.arange(plan.N)
    if plan.strategy == "seeded-random":
        order = np.random.default_rng(plan.seed).permutation(plan.N)
    group_of_subject = np.empty(plan.N, dtype=int)
    group_of_subject[order] = np.repeat(np.arange(plan.K), plan.group_sizes)
    return np.repeat(np.arange(plan.J), plan.block_sizes), group_of_subject


def save_plan(plan, path):
    """Write a plan's plain-text form to a file."""
    with open(path, "w") as fh:
        fh.write(format_plan(plan))


def load_plan(path):
    with open(path) as fh:
        return parse_plan(fh.read(), path)


# ---------------------------------------------------------------------------
# dense GEE kernel and central-difference sensitivity


def corr_inverse(kind, rho, m):
    """Inverse of the m x m working correlation matrix R(rho)."""
    if kind == "independence":
        return np.eye(m)
    if abs(rho) >= 1.0:
        raise NumericDomainError(f"|rho| >= 1 (rho={rho})")
    if kind == "ar1":
        if m == 1:
            return np.eye(m)
        inv = np.zeros((m, m))
        c = 1.0 / (1.0 - rho * rho)
        idx = np.arange(m)
        inv[idx, idx] = (1.0 + rho * rho) * c
        inv[0, 0] = inv[m - 1, m - 1] = c
        inv[idx[:-1], idx[1:]] = -rho * c
        inv[idx[1:], idx[:-1]] = -rho * c
        return inv
    if kind == "exchangeable":
        denom = 1.0 + (m - 1) * rho
        if denom <= 0 or rho >= 1.0:
            raise NumericDomainError(f"exchangeable rho={rho} not PD for m={m}")
        a = 1.0 / (1.0 - rho)
        b = -rho / ((1.0 - rho) * denom)
        return a * np.eye(m) + b * np.ones((m, m))
    raise SolverError(f"unknown working structure {kind!r}")


def moment_zeta(resid, structure, m):
    """Closed-form roots of the residual-product moment equations, taken
    from the residuals (n, m) themselves."""
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
    lo = -gee.RHO_LIMIT
    if structure == "exchangeable":
        lo = max(lo, -1.0 / (m - 1) + 1e-6)
    clamped = rho < lo or rho > gee.RHO_LIMIT
    rho = min(max(rho, lo), gee.RHO_LIMIT)
    return np.array([sigma2, rho]), clamped


def residual_fit_gee_block(block, structure, tol=1e-8, max_iter=100):
    """The Gram-solve GEE alternation with the nuisance moments taken from
    the residuals of every iterate, a full pass over the block per
    iteration.  Returns (theta, zeta, converged, iterations, rho_clamped)."""
    X, m = block.X, block.m
    grams = gee._grams(structure, X)
    start = np.linalg.solve(grams[0], gee._xt(X, block.y))
    resid = gee._residuals(block.y, X, start)
    cross = np.stack([gee._xt(X, b) for b in gee._apply_basis(structure, resid)])
    theta = start
    zeta, clamped = moment_zeta(resid, structure, m)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rho = float(zeta[1]) if structure != "independence" else 0.0
        w, _ = gee._weights(structure, rho, m)
        theta_new = start + np.linalg.solve(np.tensordot(w, grams, axes=1), w @ cross)
        zeta_new, clamped = moment_zeta(gee._residuals(block.y, X, theta_new), structure, m)
        delta = max(np.max(np.abs(theta_new - theta)), np.max(np.abs(zeta_new - zeta)))
        theta, zeta = theta_new, zeta_new
        if delta < tol:
            converged = True
            break
    return theta, zeta, converged, iterations, clamped


def gee_theta_sensitivity(block, zeta, structure):
    """Theta-theta sensitivity (1/n) sum_i X_i' R^-1 X_i / sigma^2 from the
    design Grams alone."""
    sigma2 = float(zeta[0])
    rho = float(zeta[1]) if structure != "independence" else 0.0
    w, _ = gee._weights(structure, rho, block.m)
    return np.tensordot(w, gee._grams(structure, block.X), axes=1) / (block.n * sigma2)


def dense_wls_theta(block, rho, structure, start):
    """Weighted normal equations through the dense m x m R^-1, solved for
    the correction to ``start`` from its residuals."""
    X = block.X
    rinv = corr_inverse(structure, rho, block.m)
    XtR = np.einsum("nmp,mt->ntp", X, rinv)
    A = np.einsum("ntp,ntq->pq", XtR, X)
    b = np.einsum("ntp,nt->p", XtR, block.y - X @ start)
    return start + np.linalg.solve(A, b)


def dense_fit_gee_block(block, structure, tol=1e-8, max_iter=100):
    """The GEE alternation with a dense R^-1 in every theta step and the
    nuisance moments taken from the residuals of every iterate.  Returns
    (theta, zeta, converged, iterations, rho_clamped)."""
    X = block.X
    start = np.linalg.solve(
        np.einsum("nmp,nmq->pq", X, X), np.einsum("nmp,nm->p", X, block.y)
    )
    theta = dense_wls_theta(block, 0.0, "independence", start)
    zeta, clamped = moment_zeta(block.y - X @ theta, structure, block.m)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rho = float(zeta[1]) if structure != "independence" else 0.0
        theta_new = dense_wls_theta(block, rho, structure, theta)
        zeta_new, clamped = moment_zeta(block.y - X @ theta_new, structure, block.m)
        delta = max(np.max(np.abs(theta_new - theta)), np.max(np.abs(zeta_new - zeta)))
        theta, zeta = theta_new, zeta_new
        if delta < tol:
            converged = True
            break
    return theta, zeta, converged, iterations, clamped


# ---------------------------------------------------------------------------
# the working-correlation basis operators, subject by subject


def shift_loop(r):
    """The lag-1 shift of every subject's row of r (..., n, m), one
    position at a time: r_{t+1} + r_{t-1} inside, r_1 at the first position
    and 0 + r_{m-2} at the last (the sum that a zero-initialised shift adds
    to, so -0 becomes +0), in Python float arithmetic."""
    out = np.empty_like(r)
    m = r.shape[-1]
    for lead in np.ndindex(r.shape[:-1]):
        row = [float(v) for v in r[lead]]
        for t in range(m):
            if t == 0:
                out[lead + (t,)] = row[1]
            elif t == m - 1:
                out[lead + (t,)] = 0.0 + row[m - 2]
            else:
                out[lead + (t,)] = row[t + 1] + row[t - 1]
    return out


def apply_basis_loop(structure, r):
    """Each basis operator B_k applied to every subject's row of r
    (..., n, m), subject by subject: I; for AR(1) the two end positions
    and the lag-1 shift; for exchangeable 11' as the (..., n, 1) row sums,
    each the numpy sum of that subject's own row."""
    if structure == "independence":
        return (r.copy(),)
    if structure == "ar1":
        ends = np.zeros_like(r)
        for lead in np.ndindex(r.shape[:-1]):
            ends[lead + (0,)] = r[lead + (0,)]
            ends[lead + (-1,)] = r[lead + (-1,)]
        return r.copy(), ends, shift_loop(r)
    sums = np.empty(r.shape[:-1] + (1,))
    for lead in np.ndindex(r.shape[:-1]):
        sums[lead + (0,)] = np.sum(r[lead])
    return r.copy(), sums


def apply_inverse_loop(structure, w, r):
    """sum_k w_k B_k r of every subject's row of r (B, n, m), weights w
    (B, K) per block, position by position in the order the kernel adds
    the terms: w_0 r_t, plus w_1 r_t at an end (AR(1)), plus w_2 times the
    shift (AR(1)) or w_1 times the row sum (exchangeable)."""
    basis = apply_basis_loop(structure, r)
    B, n, m = r.shape
    out = np.empty_like(r)
    for b, i, t in np.ndindex(B, n, m):
        wb = [float(v) for v in w[b]]
        value = wb[0] * float(r[b, i, t])
        if structure == "ar1":
            if t == 0:
                value = value + wb[1] * float(r[b, i, 0])
            if t == m - 1:
                value = value + wb[1] * float(r[b, i, m - 1])
            value = value + float(basis[2][b, i, t]) * wb[2]
        elif structure == "exchangeable":
            value = value + wb[1] * float(basis[1][b, i, 0])
        out[b, i, t] = value
    return out


# ---------------------------------------------------------------------------
# GEE and pairwise-CL mean terms from a pass over the data


def gee_scores(block, theta, zeta, structure):
    """The per-subject GEE score rows (psi_i, g_i) of one block at
    (theta, zeta), from one residual pass with scalar weights: the
    per-block form that the slab kernel :func:`blockgmm.gee.gee_scores`
    replaced, kept as its absolute reference."""
    sigma2, rho = map(float, gee._nuisance(zeta, structure))
    X = block.X
    n, m, p = X.shape
    resid = gee._residuals(block.y, X, theta)
    w, _ = gee._weight_terms(structure, rho, m)
    scores = np.empty((n, p + gee.nuisance_dim(structure)))
    # R^-1 r as w_0 r plus the other operators, applied by slices
    applied = w[0] * resid
    if structure == "ar1":
        applied[:, 0] += w[1] * resid[:, 0]
        applied[:, -1] += w[1] * resid[:, -1]
        applied += w[2] * gee._shift(resid)
    elif structure == "exchangeable":
        applied += w[1] * resid.sum(axis=1, keepdims=True)
    psi = np.matmul(applied[:, None, :], X)[:, 0, :]
    np.divide(psi, sigma2, out=scores[:, :p])

    squares = (resid**2).sum(axis=1)
    scores[:, p] = squares / m - sigma2
    if structure == "ar1":
        lag1 = (resid[:, :-1] * resid[:, 1:]).sum(axis=1)
        scores[:, p + 1] = lag1 / (m - 1) - rho * sigma2
    elif structure == "exchangeable":
        pairs = (resid.sum(axis=1) ** 2 - squares) / 2.0
        scores[:, p + 1] = pairs / (m * (m - 1) / 2.0) - rho * sigma2
    return scores


def gee_pass_terms(block, theta, zeta, structure):
    """Mean GEE estimating function row and its closed-form Jacobian at
    (theta, zeta), with the cross sums sum_i X_i' B_k r_i taken from the
    residuals at theta: a full pass over the block, where the kernel works
    from its moments at the start."""
    sigma2 = float(zeta[0])
    rho = float(zeta[1]) if structure != "independence" else 0.0
    X = block.X
    n, m, p = X.shape
    basis = gee._apply_basis(structure, gee._residuals(block.y, X, theta))
    w, dw = gee._weights(structure, rho, m)
    mean = gee_scores(block, theta, zeta, structure).mean(axis=0)
    d = gee.nuisance_dim(structure)
    grams = gee._grams(structure, X)
    cross = gee._basis_cross(X, basis)
    jac = np.zeros((p + d, p + d))
    jac[:p, :p] = -np.tensordot(w, grams, axes=1) / (n * sigma2)
    jac[:p, p] = -(w @ cross) / (n * sigma2 * sigma2)
    jac[p, :p] = -2.0 * cross[0] / (n * m)
    jac[p, p] = -1.0
    if d == 1:
        return mean, jac
    jac[:p, p + 1] = (dw @ cross) / (n * sigma2)
    if structure == "ar1":
        jac[p + 1, :p] = -cross[2] / (n * (m - 1))
    else:
        jac[p + 1, :p] = -(cross[1] - cross[0]) / (n * m * (m - 1) / 2.0)
    jac[p + 1, p] = -rho
    jac[p + 1, p + 1] = -sigma2
    return mean, jac


def pass_terms(block, theta, zeta, kind):
    """The data-pass mean row and Jacobian of any kernel."""
    if kind == "cl-ar1":
        return cl_pass_terms(block, theta, zeta)
    return gee_pass_terms(block, theta, zeta, kind.split("-", 1)[1])


def cl_pass_terms(block, theta, zeta):
    """Mean pairwise score row and its exact Hessian on the (theta, sigma^2,
    rho) scale from per-subject lag sums of the residuals at theta and the
    per-lag Grams of the design: a full pass over the block, where the
    kernel works from the lag sums of [X, r0] at the start."""
    X, y = block.X, block.y
    sigma2, rho = float(zeta[0]), float(zeta[1])
    n, m, p = X.shape
    resid = y - X @ theta
    lags = np.arange(1, m)
    npairs = m * (m - 1) // 2
    count = m - lags
    power = rho ** np.arange(m)
    c = power[1:]
    dc = lags * power[:-1]
    w = 1.0 - c * c

    cum2 = np.zeros((n, m + 1))
    np.cumsum(resid * resid, axis=1, out=cum2[:, 1:])
    prod = np.empty((n, m - 1))
    for lag in lags:
        prod[:, lag - 1] = np.einsum("nr,nr->n", resid[:, :-lag], resid[:, lag:])
    quad = cum2[:, m - lags] + cum2[:, [m]] - cum2[:, lags] - 2.0 * c * prod
    coef = resid @ composite._pair_operator(1.0 / w, -c / w, m)
    dl_dc = count * c / w + (prod - quad * (c / w)) / (sigma2 * w)
    score = np.empty(p + 2)
    score[:p] = np.einsum("nrp,nr->p", X, coef) / (n * sigma2)
    score[p] = (quad @ (0.5 / (sigma2 * sigma2 * w))).mean() - npairs / sigma2
    score[p + 1] = (dl_dc @ dc).mean()
    score /= npairs

    gv, gw = composite._lag_gram(X)
    prod_m = prod.mean(axis=0)
    quad_m = quad.mean(axis=0)
    s2 = sigma2 * sigma2
    d2c = np.concatenate([[0.0], lags[1:] * (lags[1:] - 1) * power[:-2]])
    hess = np.empty((p + 2, p + 2))
    hess[:p, :p] = -(
        np.einsum("l,lpq->pq", 1.0 / w, gv) - np.einsum("l,lpq->pq", c / w, gw)
    ) / (sigma2 * npairs)
    hess[:p, p] = -score[:p] / sigma2
    coef_rho = resid @ composite._pair_operator(
        2.0 * c * dc / (w * w), -(1.0 + c * c) * dc / (w * w), m
    )
    hess[:p, p + 1] = np.einsum("nrp,nr->p", X, coef_rho) / (n * sigma2 * npairs)
    hess[p, p] = (npairs / s2 - quad_m @ (1.0 / w) / (s2 * sigma2)) / npairs
    hess[p, p + 1] = ((quad_m * c / w - prod_m) / (s2 * w)) @ dc / npairs
    d2l_dc2 = (
        count * (1.0 + c * c) / (w * w)
        + (4.0 * c * prod_m - quad_m * (1.0 + 4.0 * c * c / w)) / (sigma2 * w * w)
    )
    hess[p + 1, p + 1] = (d2l_dc2 @ (dc * dc) + dl_dc.mean(axis=0) @ d2c) / npairs
    hess[p:, :p] = hess[:p, p:].T
    hess[p + 1, p] = hess[p, p + 1]
    return score, hess


def param_bounds(block, kind, dim):
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


def fd_sensitivity(block, theta, zeta, kind, fd_step=1e-5):
    """Central-difference negative Jacobian of the mean scores on the
    natural (theta, sigma^2, rho) scale, every entry numeric; steps shrink
    near domain boundaries so evaluations stay valid."""
    params = np.concatenate([theta, zeta]).astype(float)
    dim = params.size
    p = block.p
    lo, hi = param_bounds(block, kind, dim)
    sens = np.empty((dim, dim))
    for a in range(dim):
        h = fd_step * max(1.0, abs(params[a]))
        if np.isfinite(lo[a]):
            h = min(h, 0.49 * (params[a] - lo[a]))
        if np.isfinite(hi[a]):
            h = min(h, 0.49 * (hi[a] - params[a]))
        if h <= 0:
            raise NumericDomainError(f"parameter {a} at domain boundary, cannot differentiate")
        up, um = params.copy(), params.copy()
        up[a] += h
        um[a] -= h
        fp = eval_scores([block], up[:p], [up[p:]], kind)[0].mean(axis=0)
        fm = eval_scores([block], um[:p], [um[p:]], kind)[0].mean(axis=0)
        sens[:, a] = -(fp - fm) / (2.0 * h)
    return sens


# ---------------------------------------------------------------------------
# per-subject generator loops, each subject seeding its own SeedSequence


def subject_rng(seed, rep, i):
    """Subject i's stream, seeded by numpy's own SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence([seed, rep, i]))


def subject_draws(seed, rep, N, size):
    """Yield (i, draws) for each of N subjects: its ``size`` = M*p standard
    normals from the stream the generators seed from
    ``simstudy.subject_states``, which is
    ``default_rng(SeedSequence([seed, rep, i]))``.  The first M*(p-1) are
    its non-intercept covariates (M x (p-1), row-major), the last M its
    error innovations."""
    for i, row in enumerate(simstudy.subject_states(seed, rep, N)):
        rng = np.random.Generator(np.random.PCG64(simstudy._PresetState(row)))
        yield i, rng.standard_normal(size)


def subject_covariates(rng, M, p):
    """Intercept plus p-1 independent M-dimensional standard-normal columns."""
    x = np.empty((M, p))
    x[:, 0] = 1.0
    if p > 1:
        x[:, 1:] = rng.standard_normal((M, p - 1))
    return x


def gen_kronecker_loop(design, rep=0):
    """Kronecker-nested dataset with (L_S (x) L_A) z formed subject by subject."""
    J, M, N, p = design.J, design.M, design.N, design.p
    m = M // J
    s_factor = np.linalg.cholesky(simstudy.random_pd_matrix(J, design.seed))
    a_factor = design.sigma * simstudy._ar1_chol(m, design.rho)
    theta0 = np.asarray(design.theta0)
    responses = np.empty((N, M))
    covariates = np.empty((N, M, p))
    for i in range(N):
        rng = subject_rng(design.seed, rep, i)
        x = subject_covariates(rng, M, p)
        z = rng.standard_normal((J, m))
        covariates[i] = x
        responses[i] = x @ theta0 + (s_factor @ z @ a_factor.T).reshape(M)
    return Dataset(
        responses=responses, covariates=covariates, subject_ids=tuple(range(1, N + 1))
    )


def gen_ar1_loop(design, rep=0):
    """Global AR(1) dataset with the error recursion run subject by subject."""
    M, N, p = design.M, design.N, design.p
    rho, sigma = design.rho, design.sigma
    innov = sigma * np.sqrt(1.0 - rho * rho)
    theta0 = np.asarray(design.theta0)
    responses = np.empty((N, M))
    covariates = np.empty((N, M, p))
    for i in range(N):
        rng = subject_rng(design.seed, rep, i)
        x = subject_covariates(rng, M, p)
        z = rng.standard_normal(M)
        err = np.empty(M)
        err[0] = sigma * z[0]
        for t in range(1, M):
            err[t] = rho * err[t - 1] + innov * z[t]
        covariates[i] = x
        responses[i] = x @ theta0 + err
    return Dataset(
        responses=responses, covariates=covariates, subject_ids=tuple(range(1, N + 1))
    )
