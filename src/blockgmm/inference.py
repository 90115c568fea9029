"""Sandwich standard errors, confidence intervals and the
over-identifying restrictions chi-square test.

The test statistic N * T_N' W T_N needs each block's mean estimating
function at the combined estimates.  Every in-memory block fit carries
its moments, and the mean is closed-form algebra on them, taken for all
blocks of a kind in one :func:`blockgmm.engines.block_means` call (the
one that gives the block solvers their Jacobians), so the test reads no
data: it costs at most O(J K m p^2), however many subjects there are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from .combine import CombinedFit, SummaryBundle, WeightBlocks
from .engines import block_means
from .errors import CombineError


@dataclass(frozen=True)
class InferenceReport:
    names: tuple  # parameter labels, theta first then zeta (j-fast, k-slow)
    estimates: np.ndarray
    ase: np.ndarray
    z: np.ndarray
    p_values: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    alpha: float

    def rows(self):
        for idx, name in enumerate(self.names):
            yield (
                name,
                self.estimates[idx],
                self.ase[idx],
                self.z[idx],
                self.p_values[idx],
                self.ci_lower[idx],
                self.ci_upper[idx],
            )


def parameter_names(bundle: SummaryBundle) -> tuple:
    names = [f"theta_{a + 1}" for a in range(bundle.p)]
    for k in range(bundle.K):
        for j in range(bundle.J):
            fit = bundle.fits[(j, k)]
            labels = ("sigma2", "rho")[: fit.d]
            names.extend(f"{lbl}_b{j + 1}g{k + 1}" for lbl in labels)
    return tuple(names)


def godambe_cov(fit: CombinedFit, names: tuple, alpha: float = 0.05) -> InferenceReport:
    """Per-parameter sandwich standard errors, Wald z, and normal CIs."""
    variances = fit.variances
    if np.any(variances <= 0):
        raise CombineError("non-positive variance on the covariance diagonal")
    est = np.concatenate([fit.theta, fit.zeta])
    ase = np.sqrt(variances)
    z = est / ase
    # ndtr(-|z|) and ndtri are the normal survival function and quantile
    # (chdtrc in overid_test is the chi-square one), taken from
    # scipy.special, which imports in a fraction of the statistics package's time
    p_values = 2.0 * scipy.special.ndtr(-np.abs(z))
    q = scipy.special.ndtri(1.0 - alpha / 2.0)
    return InferenceReport(
        names=tuple(names),
        estimates=est,
        ase=ase,
        z=z,
        p_values=p_values,
        ci_lower=est - q * ase,
        ci_upper=est + q * ase,
        alpha=alpha,
    )


def _stacked_estfun(bundle: SummaryBundle, theta, zeta_list):
    """T_N at arbitrary parameters: per-group (n_k/N)-weighted stacked means,
    each block's mean from its moments, all blocks of a kind in one
    stacked call."""
    N, p = bundle.plan.N, bundle.p
    zetas = {}
    off = 0  # offset of zeta_jk in zeta_list, which runs j-fast, k-slow
    by_kind = {}
    for k in range(bundle.K):
        for j in range(bundle.J):
            fit = bundle.fits[(j, k)]
            zetas[(j, k)] = zeta_list[off : off + fit.d]
            off += fit.d
            by_kind.setdefault(fit.kind, []).append((j, k))
    means = {}
    for kind, keys in by_kind.items():
        rows, _ = block_means(
            [bundle.fits[key].moments for key in keys], theta, [zetas[key] for key in keys], kind
        )
        means.update(zip(keys, rows))
    parts = []
    for k in range(bundle.K):
        wk = bundle.plan.group_sizes[k] / N
        rows = [means[(j, k)] for j in range(bundle.J)]
        parts.append(wk * np.concatenate([row[:p] for row in rows] + [row[p:] for row in rows]))
    return parts


def _check_overid_input(bundle: SummaryBundle, fit: CombinedFit, W) -> None:
    """A CombineError naming the first group or block whose input the test
    cannot use."""
    if fit.theta.shape != (bundle.p,) or fit.zeta.shape != (bundle.d,):
        raise CombineError(
            f"combined fit has {fit.theta.size} + {fit.zeta.size} parameters, "
            f"the bundle needs {bundle.p} + {bundle.d}"
        )
    if W is None:
        raise CombineError(
            f"no weights W_k for groups 0..{bundle.K - 1} (a combination from "
            "bundle archives keeps none); the over-identification test needs them"
        )
    if len(W.w) != bundle.K:
        raise CombineError(f"weights hold {len(W.w)} group(s), the bundle has {bundle.K}")
    for k in range(bundle.K):
        fits = [bundle.fits[(j, k)] for j in range(bundle.J)]
        for j, block_fit in enumerate(fits):
            if getattr(block_fit, "moments", None) is None:
                raise CombineError(
                    f"block ({j}, {k}) carries no moments (a block record read "
                    "from a bundle archive has none); the over-identification "
                    "test needs the block fits in memory"
                )
        dim = bundle.J * bundle.p + sum(block_fit.d for block_fit in fits)
        if np.shape(W.w[k]) != (dim, dim):
            raise CombineError(
                f"weights of group {k} are {np.shape(W.w[k])}, the group stacks "
                f"{dim} estimating functions"
            )


def overid_test(blocks, bundle: SummaryBundle, fit: CombinedFit, W: WeightBlocks):
    """Over-identifying restrictions test N * T_N' W T_N at the combined
    estimates, with W frozen at the block-estimate inverse covariance.

    Each block's mean is taken from the moments on its in-memory fit, so
    ``blocks`` is not read; it is accepted so that existing callers keep
    working.  A bundle of block records (read from an archive), a missing
    W or one that does not match the bundle raises a CombineError.

    Returns (statistic, df, p_value); p_value is None when df = 0.
    """
    _check_overid_input(bundle, fit, W)
    parts = _stacked_estfun(bundle, fit.theta, fit.zeta)
    stat = 0.0
    for k in range(bundle.K):
        tk = parts[k]
        stat += float(tk @ W.w[k] @ tk)
    stat *= fit.N
    df = (bundle.J * bundle.K - 1) * bundle.p
    p_value = float(scipy.special.chdtrc(df, stat)) if df > 0 else None
    return stat, df, p_value
