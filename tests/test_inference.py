import numpy as np
import pytest
import scipy.stats

from blockgmm import simstudy
from blockgmm.combine import CombinedFit, assemble_vhat, combine, invert_vhat
from blockgmm.inference import (
    overid_test,
    godambe_cov,
    parameter_names,
)

import oracles
from conftest import make_ar1_design


def full_inference(bundle, blocks):
    fit = combine(bundle)
    W = invert_vhat(assemble_vhat(bundle), bundle)
    return fit, W


class TestGodambeCov:
    def test_identity_information_gives_ase_one_over_sqrt_n(self):
        dim = 4
        fit = CombinedFit(
            theta=np.zeros(2),
            zeta=np.zeros(2),
            cov_theta=np.eye(2) / 100,
            variances=np.full(dim, 1 / 100),
            N=100,
            p=2,
        )
        report = godambe_cov(fit, ("a", "b", "c", "d"))
        np.testing.assert_allclose(report.ase, 0.1)

    def test_single_block_ols_matches_dense_sandwich_oracle(self):
        # independence working structure: theta-ASE must equal the classical
        # sandwich computed densely and independently here
        design = make_ar1_design(N=120, M=6, J=1, K=1, rho=0.0, sigma=1.5)
        data = simstudy.generate(design, 0)
        bundle, blocks = simstudy.fit_dataset(data, 1, 1, "gee-independence")
        fit = combine(bundle)
        report = godambe_cov(fit, parameter_names(bundle))

        # oracle: joint (theta, sigma^2) sandwich j = S' V^{-1} S, cov = j^{-1}/N
        block = blocks[(0, 0)]
        bf = bundle.fits[(0, 0)]
        x, resid = block.design, block.y - block.design @ bf.theta_hat
        sigma2 = bf.zeta_hat[0]
        n, m, p = block.n, block.m, block.p
        scores = np.empty((n, p + 1))
        scores[:, :p] = np.einsum("nmp,nm->np", x, resid) / sigma2
        scores[:, p] = np.mean(resid**2, axis=1) - sigma2
        v = scores.T @ scores / n
        s = np.zeros((p + 1, p + 1))
        s[:p, :p] = np.einsum("nmp,nmq->pq", x, x) / (n * sigma2)
        s[:p, p] = np.einsum("nmp,nm->p", x, resid) / (n * sigma2**2)
        s[p, p] = 1.0
        j = s.T @ np.linalg.inv(v) @ s
        oracle_ase = np.sqrt(np.diag(np.linalg.inv(j)) / n)
        np.testing.assert_allclose(report.ase, oracle_ase, atol=1e-6)

        # and it is close to the classical OLS formula (statistically, not
        # exactly: the sandwich uses the empirical score covariance)
        xs = x.reshape(-1, p)
        classical = np.sqrt(sigma2 * np.diag(np.linalg.inv(xs.T @ xs)))
        np.testing.assert_allclose(report.ase[:p], classical, rtol=0.25)

    def test_report_invariants(self, fitted_bundle):
        bundle, blocks = fitted_bundle
        fit, _ = full_inference(bundle, blocks)
        report = godambe_cov(fit, parameter_names(bundle), alpha=0.05)
        assert np.all(report.ase > 0)
        assert np.all(report.ci_lower <= report.estimates)
        assert np.all(report.estimates <= report.ci_upper)
        assert np.all((report.p_values >= 0) & (report.p_values <= 1))
        half = report.ci_upper - report.estimates
        np.testing.assert_allclose(
            half, scipy.stats.norm.ppf(0.975) * report.ase, atol=1e-12
        )

    def test_names_align_with_estimates(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fit = combine(bundle)
        names = parameter_names(bundle)
        report = godambe_cov(fit, names)
        assert names[: bundle.p] == ("theta_1", "theta_2", "theta_3")
        assert "sigma2_b1g1" in names and "rho_b2g2" in names
        assert len(names) == bundle.p + bundle.d
        np.testing.assert_array_equal(
            report.estimates, np.concatenate([fit.theta, fit.zeta])
        )


class TestOveridTest:
    def test_df_formula(self, fitted_bundle):
        bundle, blocks = fitted_bundle
        fit, W = full_inference(bundle, blocks)
        stat, df, p_value = overid_test(blocks, bundle, fit, W)
        assert df == (2 * 2 - 1) * 3
        assert stat >= 0
        assert 0 <= p_value <= 1

    def test_df_27_for_5x2_blocks_p3(self):
        design = make_ar1_design(N=120, M=20, J=5, K=2)
        data = simstudy.generate(design, 0)
        bundle, blocks = simstudy.fit_dataset(data, 5, 2, "gee-independence")
        fit, W = full_inference(bundle, blocks)
        _, df, _ = overid_test(blocks, bundle, fit, W)
        assert df == 27

    def test_just_identified_df_zero(self):
        design = make_ar1_design(N=100, M=8, J=1, K=1)
        data = simstudy.generate(design, 0)
        bundle, blocks = simstudy.fit_dataset(data, 1, 1, "gee-ar1")
        fit, W = full_inference(bundle, blocks)
        stat, df, p_value = overid_test(blocks, bundle, fit, W)
        assert df == 0
        assert p_value is None


class TestGmmOracle:
    def test_descent_and_near_match(self, fitted_bundle):
        bundle, blocks = fitted_bundle
        fit, W = full_inference(bundle, blocks)
        q_start = oracles.gmm_objective(blocks, bundle, W, fit.theta, fit.zeta)
        theta_opt, zeta_opt, _ = oracles.gmm_oracle(
            blocks, bundle, W, fit.theta, fit.zeta
        )
        q_opt = oracles.gmm_objective(blocks, bundle, W, theta_opt, zeta_opt)
        assert q_opt <= q_start + 1e-14
        assert np.linalg.norm(theta_opt - fit.theta) < 0.05

    def test_just_identified_minimizer_is_block_root(self):
        design = make_ar1_design(N=100, M=8, J=1, K=1)
        data = simstudy.generate(design, 0)
        bundle, blocks = simstudy.fit_dataset(data, 1, 1, "gee-ar1")
        fit, W = full_inference(bundle, blocks)
        theta_opt, zeta_opt, _ = oracles.gmm_oracle(
            blocks, bundle, W, fit.theta, fit.zeta
        )
        block_fit = bundle.fits[(0, 0)]
        np.testing.assert_allclose(theta_opt, block_fit.theta_hat, atol=1e-5)
        np.testing.assert_allclose(zeta_opt, block_fit.zeta_hat, atol=1e-5)
