import dataclasses

import numpy as np
import pytest
import scipy.stats

from blockgmm import simstudy
from blockgmm.combine import (
    CombinedFit,
    SummaryBundle,
    WeightBlocks,
    assemble_vhat,
    combine,
    invert_vhat,
    load_bundle,
    save_bundle,
)
from blockgmm.engines import KINDS
from blockgmm.errors import CombineError, ConvergenceError
from blockgmm.inference import (
    _stacked_estfun,
    infer,
    overid_test,
    godambe_cov,
    parameter_names,
)

import oracles
from conftest import make_ar1_design, record_passes


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
        x, resid = block.X, block.y - block.X @ bf.theta_hat
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
        q = scipy.stats.norm.ppf(0.975)
        assert np.array_equal(report.ci_upper, report.estimates + q * report.ase)
        assert np.array_equal(report.ci_lower, report.estimates - q * report.ase)

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

    @pytest.fixture(scope="class", params=KINDS)
    def kind_fit(self, request):
        data = simstudy.generate(make_ar1_design(N=120, M=10, J=2, K=2), 0)
        bundle, blocks = simstudy.fit_dataset(data, 2, 2, request.param)
        return bundle, blocks, combine(bundle)

    def test_moments_match_the_data_pass(self, kind_fit):
        # the same sums in another order (see test_engines.TestMeanTerms),
        # at the combined estimates and at a point away from them
        bundle, blocks, fit = kind_fit
        for shift in (0.0, 0.2):
            theta, zeta = fit.theta + shift, fit.zeta * (1.0 - shift)
            got = _stacked_estfun(bundle, theta, zeta)
            expected = oracles.stacked_estfun_pass(blocks, bundle, theta, zeta)
            for tk, ek in zip(got, expected):
                assert np.max(np.abs(tk - ek)) <= 1e-10 * np.max(np.abs(ek))

    def test_makes_no_pass_over_the_data(self, kind_fit, monkeypatch):
        bundle, blocks, fit = kind_fit
        calls = record_passes(monkeypatch)
        stat, _, _ = overid_test(blocks, bundle, fit, fit.W)
        assert calls == []
        assert stat == overid_test(None, bundle, fit, fit.W)[0]


class TestInfer:
    def test_is_the_chain_of_its_steps(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fit, report, overid = infer(bundle, alpha=0.1)
        chained = combine(bundle)
        np.testing.assert_array_equal(fit.theta, chained.theta)
        np.testing.assert_array_equal(fit.variances, chained.variances)
        assert overid == overid_test(None, bundle, chained, chained.W)
        expected = godambe_cov(chained, parameter_names(bundle), alpha=0.1)
        assert report.names == expected.names and report.alpha == 0.1
        for name in ("estimates", "ase", "z", "p_values", "ci_lower", "ci_upper"):
            np.testing.assert_array_equal(getattr(report, name), getattr(expected, name))
        # what the simulation driver reads: the bits of theta and sqrt(variances)
        p = bundle.p
        assert report.estimates[:p].tobytes() == fit.theta.tobytes()
        assert report.ase[:p].tobytes() == np.sqrt(fit.variances[:p]).tobytes()

    def test_no_overid_for_a_bundle_from_an_archive(self, fitted_bundle, tmp_path):
        bundle, _ = fitted_bundle
        save_bundle(bundle, tmp_path / "bundle.zip")
        fit, report, overid = infer(load_bundle(tmp_path / "bundle.zip"))
        assert fit.W is None and overid is None
        np.testing.assert_array_equal(report.estimates, infer(bundle)[1].estimates)

    def test_unconverged_blocks_are_named_in_sorted_order(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fits = dict(bundle.fits)
        for key in ((1, 1), (0, 1)):
            fits[key] = dataclasses.replace(fits[key], converged=False)
        broken = SummaryBundle(plan=bundle.plan, fits=fits)
        with pytest.raises(ConvergenceError) as info:
            infer(broken)
        assert isinstance(info.value, CombineError)
        assert str(info.value) == (
            "blocks [(0, 1), (1, 1)] did not converge (pass allow_unconverged, "
            "or --allow-unconverged on the command line, to combine anyway)"
        )
        fit, _, overid = infer(broken, allow_unconverged=True)
        np.testing.assert_array_equal(fit.theta, combine(bundle).theta)
        assert overid is not None


class TestOveridRejectsBadInput:
    @pytest.fixture(scope="class")
    def fitted(self, fitted_bundle):
        bundle, _ = fitted_bundle
        return bundle, combine(bundle)

    def test_missing_weights(self, fitted):
        # what a combination from bundle archives hands over
        bundle, fit = fitted
        with pytest.raises(CombineError, match=r"no weights W_k for groups 0\.\.1"):
            overid_test(None, bundle, fit, None)

    def test_weights_for_too_few_groups(self, fitted):
        bundle, fit = fitted
        W = dataclasses.replace(fit.W, w=fit.W.w[:1])
        with pytest.raises(CombineError, match=r"weights hold 1 group\(s\), the bundle has 2"):
            overid_test(None, bundle, fit, W)

    def test_weights_of_the_wrong_shape(self, fitted):
        bundle, fit = fitted
        W = dataclasses.replace(fit.W, w=(fit.W.w[0], fit.W.w[1][:-1, :-1]))
        with pytest.raises(CombineError, match=r"weights of group 1 are \(9, 9\), the group stacks 10"):
            overid_test(None, bundle, fit, W)

    def test_block_records_from_an_archive(self, fitted, tmp_path):
        bundle, fit = fitted
        save_bundle(bundle, tmp_path / "bundle.zip")
        loaded = load_bundle(tmp_path / "bundle.zip")
        with pytest.raises(CombineError, match=r"block \(0, 0\) carries no moments"):
            overid_test(None, loaded, fit, fit.W)
        # one record among in-memory fits is named by its own key
        fits = dict(bundle.fits)
        fits[(1, 1)] = loaded.fits[(1, 1)]
        mixed = SummaryBundle(plan=bundle.plan, fits=fits)
        with pytest.raises(CombineError, match=r"block \(1, 1\) carries no moments"):
            overid_test(None, mixed, fit, fit.W)

    def test_combined_fit_of_another_bundle(self, fitted):
        bundle, fit = fitted
        short = dataclasses.replace(fit, zeta=fit.zeta[:-1])
        with pytest.raises(CombineError, match=r"combined fit has 3 \+ 7 parameters, the bundle needs 3 \+ 8"):
            overid_test(None, bundle, short, fit.W)


class TestGmmOracle:
    def test_descent_and_near_match(self, fitted_bundle):
        bundle, blocks = fitted_bundle
        fit, W = full_inference(bundle, blocks)
        q_start = oracles.gmm_objective(bundle, W, fit.theta, fit.zeta)
        theta_opt, zeta_opt, _ = oracles.gmm_oracle(bundle, W, fit.theta, fit.zeta)
        q_opt = oracles.gmm_objective(bundle, W, theta_opt, zeta_opt)
        assert q_opt <= q_start + 1e-14
        assert np.linalg.norm(theta_opt - fit.theta) < 0.05

    def test_just_identified_minimizer_is_block_root(self):
        design = make_ar1_design(N=100, M=8, J=1, K=1)
        data = simstudy.generate(design, 0)
        bundle, blocks = simstudy.fit_dataset(data, 1, 1, "gee-ar1")
        fit, W = full_inference(bundle, blocks)
        theta_opt, zeta_opt, _ = oracles.gmm_oracle(bundle, W, fit.theta, fit.zeta)
        block_fit = bundle.fits[(0, 0)]
        np.testing.assert_allclose(theta_opt, block_fit.theta_hat, atol=1e-5)
        np.testing.assert_allclose(zeta_opt, block_fit.zeta_hat, atol=1e-5)


@pytest.mark.slow
class TestOveridCalibration:
    """Today's calibration of the over-identification test on a correctly
    specified design, as the weight dimension dim_k = J p + d_k grows
    against the n_k subjects W_k is estimated from.

    gee-ar1 on kronecker-nested data, J = 4 blocks of m = 4 and K = 2
    groups (dim_k = 20, df = 21), 200 seeded replications per point.  At
    dim_k / n_k = 0.05 the test is about calibrated; by 0.5 the mean
    stat/df is about 1.8 and a true model is rejected at the 5 % level
    more than half the time.  These bands pin that behaviour; a
    finite-sample correction would move them, and must restate them.
    """

    # dim_k / n_k: (mean stat/df band, 5 % rejection-rate band); measured
    # 1.049 / 0.040, 1.188 / 0.185 and 1.797 / 0.560
    BANDS = {
        0.05: ((0.95, 1.15), (0.01, 0.10)),
        0.2: ((1.10, 1.35), (0.10, 0.30)),
        0.5: ((1.60, 2.05), (0.40, 0.70)),
    }

    def test_mean_stat_per_df_and_rejection_rate(self):
        J, K, m, dim = 4, 2, 4, 20
        means = []
        for ratio, (mean_band, reject_band) in self.BANDS.items():
            n = round(dim / ratio)
            design = simstudy.SimDesign(
                family="kronecker-nested", N=n * K, M=J * m, J=J, K=K, reps=200, seed=2024
            )
            rows = simstudy.run_replications(design)
            assert all(row["ok"] and row["overid_df"] == 21 for row in rows), ratio
            mean = np.mean([row["overid_stat"] / row["overid_df"] for row in rows])
            reject = np.mean([row["overid_p"] < 0.05 for row in rows])
            assert mean_band[0] <= mean <= mean_band[1], (ratio, mean)
            assert reject_band[0] <= reject <= reject_band[1], (ratio, reject)
            means.append(mean)
        assert means == sorted(means)


class TestScipyStatsOracle:
    """The package takes its normal and chi-square tail values from
    scipy.special; they must equal scipy.stats' own to the bit."""

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.5])
    def test_godambe_p_values_and_ci_bounds(self, alpha):
        # z from 0 through the region where the two-sided p-value underflows
        z = np.concatenate([[0.0, -0.0, 1e-300, 1.959963984540054, -40.0, 40.0],
                            np.linspace(-39.0, 39.0, 997)])
        ase = np.full(z.size, 0.01)
        est = z * ase
        fit = CombinedFit(theta=est[:3], zeta=est[3:], cov_theta=np.diag(ase[:3] ** 2),
                          variances=ase**2, N=100, p=3)
        report = godambe_cov(fit, tuple(range(z.size)), alpha=alpha)
        norm = scipy.stats.norm
        q = norm.ppf(1.0 - alpha / 2.0)
        assert np.array_equal(report.p_values, 2.0 * norm.sf(np.abs(report.z)))
        assert np.array_equal(report.ci_lower, report.estimates - q * report.ase)
        assert np.array_equal(report.ci_upper, report.estimates + q * report.ase)
        assert np.array_equal(report.p_values[4:6], [0.0, 0.0])  # |z| = 40 underflows

    def test_godambe_on_a_fitted_bundle(self, fitted_bundle):
        bundle, _ = fitted_bundle
        report = godambe_cov(combine(bundle), parameter_names(bundle))
        assert np.array_equal(report.p_values, 2.0 * scipy.stats.norm.sf(np.abs(report.z)))

    # p-values from about 1 through 0.03, 8e-10 and 9e-35 to an underflowed 0
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 3.0, 10.0, 30.0, 1e6])
    def test_overid_p_value(self, fitted_bundle, scale):
        bundle, blocks = fitted_bundle
        fit, W = full_inference(bundle, blocks)
        scaled = WeightBlocks(p=W.p, J=W.J, vhat=W.vhat, w=tuple(scale * w for w in W.w),
                              ridge_repaired=W.ridge_repaired)
        stat, df, p_value = overid_test(blocks, bundle, fit, scaled)
        assert p_value == float(scipy.stats.chi2.sf(stat, df))
        if scale == 1e6:
            assert p_value == 0.0  # the statistic is far past the chi-square tail

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.5])
    def test_summarize_coverage_quantile(self, alpha):
        # replications just inside, on and just outside the oracle's interval:
        # coverage is 2/3 only if the quantile is the oracle's to the bit
        q = scipy.stats.norm.ppf(1.0 - alpha / 2.0)
        offsets = [np.nextafter(q, 0.0), q, np.nextafter(q, np.inf)]
        rows = [{"ok": 1, "theta": [d, -d], "ase": [1.0, 1.0]} for d in offsets]
        summ = simstudy.summarize(rows, (0.0, 0.0), alpha=alpha)
        assert np.array_equal(summ.coverage, [2 / 3, 2 / 3])
