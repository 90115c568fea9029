import numpy as np
import pytest

from blockgmm import composite, gee, partition, simstudy
from blockgmm.engines import (
    NuisanceSpec,
    SolverOptions,
    eval_scores,
    fit_block,
    sample_sensitivity,
)
from blockgmm.errors import SolverError

import oracles
from conftest import make_ar1_design, near_unit_root_dataset, random_dataset


def one_block(data):
    plan = partition.make_plan(data.M, data.N, 1, 1, strategy="contiguous")
    return partition.split(data, plan)[(0, 0)]


class TestNuisanceSpec:
    def test_dimensions(self):
        assert NuisanceSpec("gee-ar1").d == 2
        assert NuisanceSpec("gee-exchangeable").d == 2
        assert NuisanceSpec("cl-ar1").d == 2
        assert NuisanceSpec("gee-independence").d == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(SolverError):
            NuisanceSpec("gee-toeplitz")


@pytest.mark.parametrize(
    "kind", ["gee-ar1", "gee-exchangeable", "gee-independence", "cl-ar1"]
)
class TestFitBlock:
    def test_fit_block_contract(self, kind):
        data, _ = random_dataset(N=60, M=6, p=3, seed=17)
        block = one_block(data)
        fit = fit_block(block, NuisanceSpec(kind))
        assert fit.converged
        assert fit.theta_hat.shape == (3,)
        assert fit.zeta_hat.shape == (fit.d,)
        assert fit.scores.shape == (60, 3 + fit.d)
        assert fit.sensitivity.shape == (3 + fit.d, 3 + fit.d)
        assert np.all(np.isfinite(fit.sensitivity))
        assert fit.final_norm <= 1e-7
        # root property restated on the stored scores
        assert np.linalg.norm(fit.scores.mean(axis=0)) == pytest.approx(
            fit.final_norm
        )

    def test_theta_theta_subblock_is_symmetric_pd_for_gee(self, kind):
        # GEE: X' R^-1 X / (n sigma^2); CL: sum_pairs X' Sigma_pair^-1 X /
        # (n sigma^2 npairs); both analytic, exactly symmetric and PD
        data, _ = random_dataset(N=50, M=6, p=3, seed=18)
        fit = fit_block(one_block(data), NuisanceSpec(kind))
        tt = fit.sensitivity[:3, :3]
        np.testing.assert_allclose(tt, tt.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(tt)) > 0

    def test_sensitivity_equals_sample_sensitivity_bitwise(self, kind, monkeypatch):
        # a GEE fit hands its design Grams to the sensitivity: one Gram pass
        # per block, and the same bits as the standalone sensitivity
        data, _ = random_dataset(N=40, M=5, p=3, seed=20)
        block = one_block(data)
        calls = []
        grams = gee._grams
        monkeypatch.setattr(gee, "_grams", lambda *args: calls.append(1) or grams(*args))
        fit = fit_block(block, NuisanceSpec(kind))
        assert len(calls) == (0 if kind == "cl-ar1" else 1)
        standalone = sample_sensitivity(block, fit.theta_hat, fit.zeta_hat, kind)
        assert fit.sensitivity.tobytes() == standalone.tobytes()


class TestSampleSensitivity:
    def test_gee_theta_block_matches_finite_differences(self):
        data, _ = random_dataset(N=50, M=6, p=3, seed=19)
        block = one_block(data)
        fit = fit_block(block, NuisanceSpec("gee-ar1"))
        analytic = gee.gee_theta_sensitivity(block, fit.zeta_hat, "ar1")

        h = 1e-6
        fd = np.empty((5, 3))
        params = np.concatenate([fit.theta_hat, fit.zeta_hat])
        for a in range(3):
            up, um = params.copy(), params.copy()
            up[a] += h
            um[a] -= h
            fp = eval_scores(block, up[:3], up[3:], "gee-ar1").mean(axis=0)
            fm = eval_scores(block, um[:3], um[3:], "gee-ar1").mean(axis=0)
            fd[:, a] = -(fp - fm) / (2 * h)
        rel = np.linalg.norm(analytic - fd[:3, :]) / np.linalg.norm(analytic)
        assert rel <= 1e-5

    def test_g1_sensitivity_to_sigma2_is_one(self):
        # g1 = mean_t(r_t^2) - sigma^2 is linear in sigma^2 with slope -1,
        # so the negative derivative is exactly +1
        data, _ = random_dataset(N=40, M=5, p=2, seed=20)
        block = one_block(data)
        fit = fit_block(block, NuisanceSpec("gee-ar1"))
        sens = sample_sensitivity(
            block, fit.theta_hat, fit.zeta_hat, "gee-ar1"
        )
        g1_row = 2  # after the p=2 psi rows
        sigma2_col = 2
        assert sens[g1_row, sigma2_col] == pytest.approx(1.0, abs=1e-6)

    def test_independence_theta_block_closed_form(self):
        data, _ = random_dataset(N=40, M=5, p=2, seed=22)
        block = one_block(data)
        fit = fit_block(block, NuisanceSpec("gee-independence"))
        expected = np.einsum(
            "nmp,nmq->pq", block.design, block.design
        ) / (block.n * fit.zeta_hat[0])
        np.testing.assert_allclose(fit.sensitivity[:2, :2], expected, rtol=1e-10)

    def test_fd_step_shrinks_near_tiny_variance(self):
        # a noiseless block has sigma^2 ~ 1e-16; the central-difference
        # oracle must not step the variance negative, and the closed form
        # stays finite there too
        data, theta0 = random_dataset(N=30, M=5, p=3, seed=23)
        from blockgmm.dataio import Dataset

        clean = Dataset(
            responses=data.covariates @ theta0,
            covariates=data.covariates,
            subject_ids=data.subject_ids,
        )
        block = one_block(clean)
        zeta = np.array([1e-16, 0.0])
        assert np.all(np.isfinite(oracles.fd_sensitivity(block, theta0, zeta, "gee-ar1")))
        assert np.all(np.isfinite(sample_sensitivity(block, theta0, zeta, "gee-ar1")))

    @pytest.mark.parametrize("kind", ["gee-ar1", "gee-exchangeable", "gee-independence"])
    def test_gee_matches_central_differences_everywhere(self, kind):
        # every row and column of the closed form against the all-numeric
        # oracle, on 20 random blocks at points off the root, where no
        # column vanishes
        rng = np.random.default_rng(610)
        worst = 0.0
        for trial in range(20):
            p = int(rng.integers(1, 4))
            design = make_ar1_design(
                N=int(rng.integers(40, 120)),
                M=int(rng.integers(2, 12)),
                theta0=tuple(rng.uniform(-2.0, 2.0, p)),
                sigma=float(rng.uniform(0.5, 3.0)),
                rho=float(rng.uniform(-0.3, 0.7)),
                seed=610 + trial,
            )
            block = one_block(simstudy.generate(design, 0))
            fit = fit_block(block, NuisanceSpec(kind))
            theta = fit.theta_hat + rng.normal(0.0, 0.3, p)
            zeta = fit.zeta_hat * rng.uniform(0.7, 1.3, fit.d)
            analytic = sample_sensitivity(block, theta, zeta, kind)
            fd = oracles.fd_sensitivity(block, theta, zeta, kind)
            rows = np.max(np.abs(fd), axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / rows)))
        assert worst <= 1e-5


class TestRhoClamp:
    def test_clamped_gee_fit_is_not_converged(self):
        fit = fit_block(one_block(near_unit_root_dataset()), NuisanceSpec("gee-ar1"))
        assert fit.rho_clamped
        assert fit.zeta_hat[1] == gee.RHO_LIMIT
        assert not fit.converged

    def test_clamped_cl_fit_is_not_converged(self, monkeypatch):
        # Newton does not reach a root beyond the clamp on such data, so the
        # solver's clamped outcome is stubbed: (theta, zeta, converged,
        # iterations, rho_clamped)
        def clamped_solution(block, tol, max_iter):
            theta = np.array([0.5, 1.0, 1.5])
            return theta, np.array([1.0, composite.RHO_LIMIT]), True, 4, True

        monkeypatch.setattr(composite, "fit_cl_block", clamped_solution)
        fit = fit_block(one_block(near_unit_root_dataset()), NuisanceSpec("cl-ar1"))
        assert fit.rho_clamped
        assert not fit.converged


class TestSolverOptions:
    def test_iteration_cap_returns_unconverged_fit(self):
        data, _ = random_dataset(N=60, M=6, p=3, seed=24)
        block = one_block(data)
        fit = fit_block(
            block, NuisanceSpec("gee-ar1"), SolverOptions(tol=1e-15, max_iter=1)
        )
        assert not fit.converged
        assert fit.iterations == 1
