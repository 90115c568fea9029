"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured quantity.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria (3, 4, 5, 7) take several minutes combined on one core and are
marked ``slow``: ``pytest -m "not slow"`` leaves them out.
"""

import time

import numpy as np
import pytest

from blockgmm import gee, simstudy
from blockgmm.combine import (
    assemble_vhat,
    combine,
    invert_vhat,
    save_bundle,
)
from blockgmm.engines import fit_block, sample_sensitivity
from blockgmm.inference import overid_test
from blockgmm.partition import make_plan, split

import oracles
from conftest import make_ar1_design


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPT {status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_combined_information_identity():
    """The per-group informations the combiner solves with, scattered into
    (p+d)^2, must reproduce both the summed zero-padded combination
    matrices and the weighted-sensitivity information S'WS exactly
    (relative Frobenius error <= 1e-8) on a spread of small fitted
    designs."""
    configs = [
        dict(J=1, K=1, M=8, N=120, kind="gee-ar1"),
        dict(J=2, K=2, M=12, N=200, kind="gee-ar1"),
        dict(J=3, K=2, M=12, N=240, kind="gee-exchangeable"),
        dict(J=2, K=3, M=10, N=300, kind="gee-independence"),
        dict(J=3, K=3, M=12, N=480, kind="gee-ar1"),
        dict(J=2, K=2, M=8, N=160, kind="cl-ar1"),
    ]
    worst = 0.0
    for idx, cfg in enumerate(configs):
        design = make_ar1_design(
            N=cfg["N"], M=cfg["M"], J=cfg["J"], K=cfg["K"], seed=100 + idx
        )
        data = simstudy.generate(design, 0)
        bundle, _ = simstudy.fit_dataset(
            data, cfg["J"], cfg["K"], cfg["kind"], strategy="seeded-random",
            seed=idx,
        )
        W = invert_vhat(assemble_vhat(bundle), bundle)
        lhs = oracles.arrowhead_information(bundle)
        for rhs in (oracles.combined_information(bundle, W), oracles.godambe_direct(bundle, W)):
            worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    report(
        "criterion-1 combined-information identity",
        worst <= 1e-8,
        f"max relative Frobenius error {worst:.3e} over {len(configs)} "
        "designs (tolerance 1e-8)",
    )


def test_criterion_2_single_block_reduction():
    """J=K=1 must return the block solution unchanged, with a degenerate
    (df=0) over-identification test."""
    design = make_ar1_design(N=150, M=10, J=1, K=1)
    data = simstudy.generate(design, 0)
    bundle, blocks = simstudy.fit_dataset(data, 1, 1, "gee-ar1")
    fit = combine(bundle)
    block_fit = bundle.fits[(0, 0)]
    theta_err = float(np.max(np.abs(fit.theta - block_fit.theta_hat)))
    zeta_err = float(np.max(np.abs(fit.zeta - block_fit.zeta_hat)))
    W = invert_vhat(assemble_vhat(bundle), bundle)
    _, df, p_value = overid_test(blocks, bundle, fit, W)
    ok = theta_err <= 1e-8 and zeta_err <= 1e-8 and df == 0 and p_value is None
    report(
        "criterion-2 single-block reduction",
        ok,
        f"theta deviation {theta_err:.3e}, zeta deviation {zeta_err:.3e} "
        f"(tolerance 1e-8), over-id df = {df}",
    )


@pytest.mark.slow
def test_criterion_3_asymptotic_equivalence_trend():
    """The closed-form combined estimator and the iterative GMM minimizer
    must coincide at the sqrt(N) scale: median sqrt(N)*||difference||
    at N=4000 no larger than at N=250 (50 replications per N)."""
    reps = 50
    medians = {}
    for n_subjects in (250, 1000, 4000):
        diffs = []
        for rep in range(reps):
            design = make_ar1_design(
                N=n_subjects, M=8, J=2, K=2, sigma=2.0, rho=0.5, seed=300
            )
            data = simstudy.generate(design, rep)
            bundle, _ = simstudy.fit_dataset(data, 2, 2, "gee-ar1")
            fit = combine(bundle)
            W = invert_vhat(assemble_vhat(bundle), bundle)
            theta_opt, _, _ = oracles.gmm_oracle(bundle, W, fit.theta, fit.zeta)
            diffs.append(
                np.sqrt(n_subjects) * np.linalg.norm(fit.theta - theta_opt)
            )
        medians[n_subjects] = float(np.median(diffs))
    ok = medians[4000] <= medians[250]
    report(
        "criterion-3 closed-form vs iterative GMM equivalence trend",
        ok,
        "median sqrt(N)*||difference||: "
        + ", ".join(f"N={n}: {v:.4f}" for n, v in medians.items()),
    )


@pytest.mark.slow
def test_criterion_4_moderate_scale_ase_ese_pattern():
    """Moderate-scale calibration (N=1000, M=300, J=6, K=2, AR(1) errors
    with sigma=6, rho=0.8): per-component |ASE/ESE - 1| <= 0.15,
    |BIAS| <= 3*ESE/sqrt(reps), and 95% CI coverage in [0.91, 0.98]
    over 200 replications."""
    reps = 200
    design = simstudy.SimDesign(
        family="global-ar1", N=1000, M=300, J=6, K=2,
        theta0=(0.3, 0.6, 0.8), sigma=6.0, rho=0.8,
        method="gee", working="ar1", reps=reps, seed=400,
    )
    start = time.perf_counter()
    rows = simstudy.run_replications(design, workers=1)
    elapsed = time.perf_counter() - start
    summ = simstudy.summarize(rows, design.theta0)
    ratio = summ.ase / summ.ese
    ratio_ok = bool(np.all(np.abs(ratio - 1.0) <= 0.15))
    bias_ok = bool(np.all(np.abs(summ.bias) <= 3 * summ.ese / np.sqrt(summ.reps)))
    cover_ok = bool(np.all((summ.coverage >= 0.91) & (summ.coverage <= 0.98)))
    ok = ratio_ok and bias_ok and cover_ok and summ.failures == 0
    report(
        "criterion-4 moderate-scale ASE/ESE calibration",
        ok,
        f"ASE/ESE = {np.round(ratio, 3).tolist()}, "
        f"bias = {np.round(summ.bias, 5).tolist()} "
        f"(3-SE bound {np.round(3 * summ.ese / np.sqrt(summ.reps), 5).tolist()}), "
        f"coverage = {np.round(summ.coverage, 3).tolist()}, "
        f"{summ.reps} reps in {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_5_overid_chi2_calibration():
    """Correctly specified design (J=2, K=2, p=2, N=2000): the
    over-identification statistic must be chi-square calibrated — the
    empirical mean within 15% of df = 6 and the nominal-5% rejection
    rate in [0.02, 0.09] over 500 replications."""
    reps = 500
    design = simstudy.SimDesign(
        family="global-ar1", N=2000, M=8, J=2, K=2,
        theta0=(0.3, 0.6), sigma=2.0, rho=0.5,
        method="gee", working="ar1", reps=reps, seed=500,
    )
    rows = simstudy.run_replications(design, workers=1)
    stats = np.array([r["overid_stat"] for r in rows if r["ok"]])
    pvals = np.array([r["overid_p"] for r in rows if r["ok"]])
    df = rows[0]["overid_df"]
    assert df == 6
    mean_stat = float(stats.mean())
    rejection = float(np.mean(pvals < 0.05))
    mean_ok = abs(mean_stat - df) <= 0.15 * df
    rej_ok = 0.02 <= rejection <= 0.09
    report(
        "criterion-5 over-identification chi-square calibration",
        mean_ok and rej_ok,
        f"mean statistic {mean_stat:.3f} vs df {df} (within 15%: {mean_ok}), "
        f"5%-level rejection rate {rejection:.3f} (target [0.02, 0.09]), "
        f"{stats.size} reps",
    )


def test_criterion_6_sensitivity_finite_difference_agreement():
    """The analytic GEE theta-theta sensitivity must match central finite
    differences to relative error <= 1e-5 on 20 random blocks."""
    rng = np.random.default_rng(600)
    worst = 0.0
    for trial in range(20):
        structure = ("ar1", "exchangeable", "independence")[trial % 3]
        design = make_ar1_design(
            N=int(rng.integers(40, 120)),
            M=int(rng.integers(4, 12)),
            J=1,
            K=1,
            sigma=float(rng.uniform(0.5, 3.0)),
            rho=float(rng.uniform(-0.3, 0.7)),
            seed=600 + trial,
        )
        data = simstudy.generate(design, 0)
        plan = make_plan(data.M, data.N, 1, 1, strategy="contiguous")
        block = split(data, plan)[(0, 0)]
        fit = fit_block(block, f"gee-{structure}")
        analytic = oracles.gee_theta_sensitivity(block, fit.zeta_hat, structure)

        p = block.p
        params = np.concatenate([fit.theta_hat, fit.zeta_hat])
        fd = np.empty((p, p))
        for a in range(p):
            h = 1e-6 * max(1.0, abs(params[a]))
            up, um = params.copy(), params.copy()
            up[a] += h
            um[a] -= h
            fp = gee.gee_scores(block, up[:p], up[p:], structure).mean(axis=0)
            fm = gee.gee_scores(block, um[:p], um[p:], structure).mean(axis=0)
            fd[:, a] = -(fp[:p] - fm[:p]) / (2 * h)
        worst = max(
            worst, np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
        )
    report(
        "criterion-6 analytic vs finite-difference sensitivity",
        worst <= 1e-5,
        f"max relative error {worst:.3e} over 20 blocks (tolerance 1e-5)",
    )


@pytest.mark.slow
def test_criterion_7_ase_trends_with_dimension_and_groups():
    """Mean ASE must strictly decrease as the response dimension M grows
    (fixed K) and decrease from K=1 to K=5 (fixed M), on the nested-
    covariance design with J=5, N=1000, 200 replications per cell."""
    reps = 200
    m_values = (60, 150, 300)
    k_values = (1, 2, 5)
    base = simstudy.SimDesign(
        family="kronecker-nested", N=1000, M=60, J=5, K=1,
        theta0=(0.3, 0.6, 0.8), sigma=4.0, rho=0.8,
        method="gee", working="ar1", reps=reps, seed=700,
    )
    start = time.perf_counter()
    grid = simstudy.grid_plot_data(base, m_values, k_values, workers=1)
    elapsed = time.perf_counter() - start
    # mean ASE across the three coefficients, per (M, K) cell
    ase = {}
    for m in m_values:
        for k in k_values:
            cell = [g["ase"] for g in grid if g["M"] == m and g["K"] == k]
            ase[(m, k)] = float(np.mean(cell))
    m_ok = all(
        ase[(60, k)] > ase[(150, k)] > ase[(300, k)] for k in k_values
    )
    k_ok = all(ase[(m, 1)] > ase[(m, 5)] for m in m_values)
    table = "; ".join(
        f"M={m},K={k}: {ase[(m, k)]:.5f}" for m in m_values for k in k_values
    )
    report(
        "criterion-7 ASE decreases in M and in groups",
        m_ok and k_ok,
        f"mean ASE by cell: {table} ({elapsed:.0f}s)",
    )


def test_criterion_8_byte_determinism(tmp_path):
    """Identical configurations must produce byte-identical estimate
    tables and bundles, across repeated runs and across worker counts."""
    design = make_ar1_design(N=120, M=12, J=2, K=2, seed=800)
    data = simstudy.generate(design, 0)

    outputs = []
    for workers in (1, 1, 8):
        bundle, _ = simstudy.fit_dataset(
            data, 2, 2, "gee-ar1", strategy="seeded-random", seed=8,
            workers=workers,
        )
        fit = combine(bundle)
        path = tmp_path / f"bundle-{len(outputs)}.zip"
        save_bundle(bundle, path)
        outputs.append(
            (
                fit.theta.tobytes(),
                fit.zeta.tobytes(),
                fit.cov_theta.tobytes(),
                fit.variances.tobytes(),
                path.read_bytes(),
            )
        )
    rerun_ok = outputs[0] == outputs[1]
    workers_ok = outputs[0] == outputs[2]
    report(
        "criterion-8 byte determinism",
        rerun_ok and workers_ok,
        f"rerun identical: {rerun_ok}, workers 1 vs 8 identical: {workers_ok} "
        "(estimates, covariance, variances, bundle archive)",
    )


def test_criterion_9_generator_fidelity():
    """Simulated errors must match their target covariance: moment checks
    within 4 Monte Carlo SEs, and exact agreement with a dense-covariance
    construction at small dimension (M <= 40)."""
    # (a) dense oracle: AR(1) recursion == Cholesky of the full covariance
    design = simstudy.SimDesign(
        family="global-ar1", N=20, M=40, J=2, K=1,
        sigma=3.0, rho=0.7, reps=1, seed=900,
    )
    data = simstudy.generate(design, 0)
    m = design.M
    cov = design.sigma**2 * design.rho ** np.abs(
        np.subtract.outer(np.arange(m), np.arange(m))
    )
    chol = np.linalg.cholesky(cov)
    theta0 = np.asarray(design.theta0)
    dense_ok = True
    for i in range(design.N):
        rng = oracles.subject_rng(design.seed, 0, i)
        x = oracles.subject_covariates(rng, m, design.p)
        z = rng.standard_normal(m)
        dense_ok = dense_ok and np.allclose(
            data.responses[i], x @ theta0 + chol @ z, atol=1e-10
        )

    # (b) nested design: factor-wise construction == dense Kronecker factor
    kron = simstudy.SimDesign(
        family="kronecker-nested", N=20, M=40, J=4, K=1,
        sigma=2.0, rho=0.6, reps=1, seed=901,
    )
    kdata = simstudy.generate(kron, 0)
    mb = kron.M // kron.J
    s_factor = np.linalg.cholesky(simstudy.random_pd_matrix(kron.J, kron.seed))
    a_factor = kron.sigma * np.linalg.cholesky(
        kron.rho ** np.abs(np.subtract.outer(np.arange(mb), np.arange(mb)))
    )
    dense_factor = np.kron(s_factor, a_factor)
    kron_ok = True
    for i in range(kron.N):
        rng = oracles.subject_rng(kron.seed, 0, i)
        x = oracles.subject_covariates(rng, kron.M, kron.p)
        z = rng.standard_normal((kron.J, mb))
        kron_ok = kron_ok and np.allclose(
            kdata.responses[i], x @ theta0 + dense_factor @ z.reshape(-1),
            atol=1e-10,
        )

    # (c) moment bands: marginal variance and lag-1 covariance within 4
    # Monte Carlo SEs of their per-subject estimators (subjects are the
    # independent units; within-subject errors are correlated by design)
    big = simstudy.SimDesign(
        family="global-ar1", N=5000, M=6, J=2, K=1,
        sigma=6.0, rho=0.8, reps=1, seed=902,
    )
    bdata = simstudy.generate(big, 0)
    err = bdata.responses - bdata.covariates @ theta0
    v_i = np.mean(err**2, axis=1)  # per-subject variance estimate
    var = float(v_i.mean())
    var_band = 4 * float(v_i.std(ddof=1)) / np.sqrt(big.N)
    var_ok = abs(var - 36.0) <= var_band
    c_i = np.mean(err[:, :-1] * err[:, 1:], axis=1)  # per-subject lag-1 cov
    lag1 = float(c_i.mean())
    lag_band = 4 * float(c_i.std(ddof=1)) / np.sqrt(big.N)
    lag_ok = abs(lag1 - 0.8 * 36.0) <= lag_band
    ok = dense_ok and kron_ok and var_ok and lag_ok
    report(
        "criterion-9 generator fidelity",
        ok,
        f"dense AR(1) oracle: {dense_ok}, dense nested oracle: {kron_ok}, "
        f"variance {var:.2f} vs 36 (4-SE band {var_band:.2f}), "
        f"lag-1 covariance {lag1:.2f} vs {0.8 * 36.0:.1f} "
        f"(4-SE band {lag_band:.2f})",
    )
