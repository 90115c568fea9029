"""Sandwich standard errors, confidence intervals and the
over-identifying restrictions chi-square test, chained after the
combination by :func:`infer`, which the CLI and the simulation driver call.

The test statistic N * T_N' W T_N needs each block's mean estimating
function at the combined estimates.  Every block record carries its
moments, in memory and read from a bundle archive alike, and the mean
is closed-form algebra on them, taken for all blocks of a kind in one
:func:`blockgmm.engines.block_means` call (the one that gives the block
solvers their Jacobians), so the test reads no data: it costs at most
O(J K m p^2), however many subjects there are.  Each group's share
T_k' W_k T_k comes from a solve with its V_k, so no weights are formed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .combine import CombinedFit, SummaryBundle, combine
from .engines import block_means, nuisance_dim
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
        """(name, estimate, ase, z, p_value, ci_lower, ci_upper) per parameter."""
        columns = (self.estimates, self.ase, self.z, self.p_values, self.ci_lower, self.ci_upper)
        return zip(self.names, *(c.tolist() for c in columns))


def parameter_names(bundle: SummaryBundle) -> tuple:
    names = [f"theta_{a + 1}" for a in range(bundle.p)]
    for k in range(bundle.K):
        for j, record in enumerate(bundle.groups[k].blocks):
            labels = ("sigma2", "rho")[: record.d]
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
    # the two-sided normal tail 2 Phi(-|z|) = erfc(|z| / sqrt 2)
    p_values = np.array([math.erfc(v) for v in (np.abs(z) * math.sqrt(0.5)).tolist()])
    q = normal_quantile(alpha)
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


def normal_quantile(alpha: float) -> float:
    """The two-sided normal critical value Phi^{-1}(1 - alpha / 2)."""
    return statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _stirling(a: float) -> float:
    """log Gamma(a + 1) - log(sqrt(2 pi a) (a / e)^a), the error of
    Stirling's formula, for a > 0: below 16 the log of a ratio near 1, so
    no two large logs are subtracted, and from 16 on its asymptotic series
    to the a^-9 term (the next term is below 2e-16 there)."""
    if a < 16.0:
        return math.log(math.gamma(a + 1.0) / (math.sqrt(2.0 * math.pi * a) * a**a * math.exp(-a)))
    r = 1.0 / (a * a)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / a


def _log_poisson_term(a: float, y: float) -> float:
    """log(e^-y y^a / Gamma(a + 1)) for y > 0 and a >= 0, with no
    cancellation (Temme 1979): with t = (y - a) / a it is
    -a (t - log1p t) - log sqrt(2 pi a) - :func:`_stirling` (a), and
    a (t - log1p t) = y - a - a log(y / a) is formed from log1p t, so its
    rounding error is of order eps |y - a| rather than eps y.  Where y < a / 2
    (only a = 1/2 meets it) log(y / a) stands for log1p t, which loses
    accuracy as t nears -1."""
    if a == 0.0:
        return -y
    t = (y - a) / a
    log_ratio = math.log1p(t) if t > -0.5 else math.log(y / a)
    return -a * (t - log_ratio) - 0.5 * math.log(2.0 * math.pi * a) - _stirling(a)


def _chi2_sf(df: int, x: float) -> float:
    """P(chi-square with integer df > x), the regularised upper incomplete
    gamma function Q(df / 2, x / 2).

    With y = x / 2, Q is a sum of the terms e^-y y^a / Gamma(a + 1) over
    a = 0, 1, .., df/2 - 1 for even df (a Poisson sum), and over
    a = 1/2, 3/2, .., df/2 - 1 plus erfc(sqrt y) for odd df.  The sum starts
    at its largest term, the a nearest below y, whose log comes from
    :func:`_log_poisson_term`; the others follow by the ratio y / (a + 1)
    upwards and a / y downwards until they fall below 1e-17 of it, and
    ``math.fsum`` adds them."""
    if math.isnan(x):
        return x
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    low, high = (df % 2) / 2.0, df / 2.0 - 1.0
    terms = [math.erfc(math.sqrt(y))] if df % 2 else []
    if high >= low:
        a0 = min(high, max(low, math.floor(y - low) + low))
        t0 = math.exp(_log_poisson_term(a0, y))
        terms.append(t0)
        a, t = a0, t0
        while a < high and t > 1e-17 * t0:
            a += 1.0
            t *= y / a
            terms.append(t)
        a, t = a0, t0
        while a > low and t > 1e-17 * t0:
            t *= a / y
            a -= 1.0
            terms.append(t)
    return math.fsum(terms)


def _stacked_estfun(bundle: SummaryBundle, theta, zeta_list):
    """T_N at arbitrary parameters: per group the (n_k/N)-weighted stacked
    means, the psi rows of its J blocks and then their g rows, as one
    vector per group.  Each block's mean comes from its moments, all blocks
    of a kind in one stacked call, and lands in its group's vector by one
    scatter per kind."""
    N, p, J, K = bundle.plan.N, bundle.p, bundle.J, bundle.K
    records = [record for k in range(K) for record in bundle.groups[k].blocks]
    ds = np.array([record.d for record in records])
    # zeta_list runs j-fast, k-slow, as the records do
    zeta_at = np.cumsum(ds) - ds
    dims = J * p + ds.reshape(K, J).sum(axis=1)  # J p + d_k
    group_at = np.cumsum(dims) - dims
    b = np.arange(len(records))
    psi_at = group_at[b // J] + (b % J) * p
    g_at = group_at[b // J] + J * p + zeta_at - zeta_at[(b // J) * J]
    by_kind = {}
    for i, record in enumerate(records):
        by_kind.setdefault(record.kind, []).append(i)
    stacked = np.empty(dims.sum())
    for kind, held in by_kind.items():
        held, d = np.array(held), nuisance_dim(kind)
        rows, _ = block_means(
            [records[i].moments for i in held], theta,
            zeta_list[zeta_at[held][:, None] + np.arange(d)], kind,
        )
        stacked[psi_at[held][:, None] + np.arange(p)] = rows[:, :p]
        stacked[g_at[held][:, None] + np.arange(d)] = rows[:, p:]
    stacked *= np.repeat(np.array(bundle.plan.group_sizes) / N, dims)
    return np.split(stacked, group_at[1:])


def _check_overid_input(bundle: SummaryBundle, fit: CombinedFit) -> None:
    """A CombineError when the combined fit does not match the bundle."""
    if fit.theta.shape != (bundle.p,) or fit.zeta.shape != (bundle.d,):
        raise CombineError(
            f"combined fit has {fit.theta.size} + {fit.zeta.size} parameters, "
            f"the bundle needs {bundle.p} + {bundle.d}"
        )


def overid_test(blocks, bundle: SummaryBundle, fit: CombinedFit, W: tuple | None = None):
    """Over-identifying restrictions test N * T_N' W T_N at the combined
    estimates, with W_k = V_k^{-1} of each group's summary, the weights the
    combination used, applied by a solve with V_k.

    Each block's mean is taken from the moments on its record, and the
    weights from the group summaries, so neither ``blocks`` nor ``W`` is
    read; both are accepted so that existing callers keep working.  A
    combined fit that does not match the bundle, or a statistic that is not
    finite, raises a CombineError.

    Returns (statistic, df, p_value); p_value is None when df = 0.
    """
    _check_overid_input(bundle, fit)
    # an overflow is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        parts = _stacked_estfun(bundle, fit.theta, fit.zeta)
        stat = 0.0
        for k in range(bundle.K):
            tk = parts[k]
            stat += float(tk @ np.linalg.solve(bundle.groups[k].vhat, tk))
        stat *= fit.N
    if not math.isfinite(stat):
        raise CombineError(f"the over-identification statistic is not finite ({stat})")
    df = (bundle.J * bundle.K - 1) * bundle.p
    p_value = _chi2_sf(df, stat) if df > 0 else None
    return stat, df, p_value


def infer(bundle: SummaryBundle, alpha: float = 0.05, allow_unconverged: bool = False):
    """(fit, report, overid): the combination (a ConvergenceError on
    unconverged blocks unless ``allow_unconverged``), its Godambe report
    and the over-identification test, from the group summaries alone,
    whether fitted in memory or read from archives."""
    fit = combine(bundle, allow_unconverged=allow_unconverged)
    overid = overid_test(None, bundle, fit, None)
    return fit, godambe_cov(fit, parameter_names(bundle), alpha=alpha), overid
