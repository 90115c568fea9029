import dataclasses
import importlib
import io
import zipfile

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockgmm import inference, simstudy
from blockgmm.combine import (
    GroupSummary,
    SummaryBundle,
    _condition,
    _BLOCK_TABLE,
    _runs,
    _stack_sensitivities,
    assemble_vhat,
    build_C,
    combine,
    invert_vhat,
    load_bundle,
    merge_bundles,
    save_bundle,
    split_bundle,
)
from blockgmm.dataio import Dataset
from blockgmm.engines import KINDS, BlockFit, BlockRecord
from blockgmm.errors import BlockGmmError, CombineError
from blockgmm.partition import PartitionPlan, make_plan

import oracles
from conftest import make_ar1_design

# the module; the package binds the name ``combine`` to the function
combine_module = importlib.import_module("blockgmm.combine")


def synthetic_bundle(scores_by_block, sens_by_block, theta_by_block,
                     zeta_by_block, J, K):
    """Bundle from raw per-block arrays (one subject group size from scores)."""
    n_k = {k: scores_by_block[(0, k)].shape[0] for k in range(K)}
    N = sum(n_k.values())
    M = 2 * J
    plan = make_plan(M, N, J, K, strategy="contiguous")
    fits = {}
    for (j, k), scores in scores_by_block.items():
        theta = np.asarray(theta_by_block[(j, k)], dtype=float)
        zeta = np.asarray(zeta_by_block[(j, k)], dtype=float)
        fits[(j, k)] = BlockFit(
            j=j,
            k=k,
            kind="gee-ar1",
            theta_hat=theta,
            zeta_hat=zeta,
            scores=np.asarray(scores, dtype=float),
            sensitivity=np.asarray(sens_by_block[(j, k)], dtype=float),
            converged=True,
            iterations=1,
            final_norm=0.0,
            moments=None,
        )
    return oracles.FitBundle.of(plan, fits)


def random_bundle(J, K, p, seed):
    """Well-posed random bundle: unequal group sizes and a random mix of
    d=1 and d=2 blocks, with diagonally dominant sensitivities."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["gee-independence", "gee-ar1"], size=(J, K))
    sizes = []
    for k in range(K):
        dim = J * p + sum(1 if kind == "gee-independence" else 2 for kind in kinds[:, k])
        sizes.append(dim + int(rng.integers(2, 40)))
    plan = PartitionPlan(
        block_sizes=(2,) * J, group_sizes=tuple(sizes), strategy="contiguous", seed=seed
    )
    fits = {}
    for k in range(K):
        for j in range(J):
            kind = str(kinds[j, k])
            dim = p + (1 if kind == "gee-independence" else 2)
            fits[(j, k)] = BlockFit(
                j=j,
                k=k,
                kind=kind,
                theta_hat=rng.standard_normal(p),
                zeta_hat=rng.uniform(0.5, 2.0, dim - p),
                scores=rng.standard_normal((sizes[k], dim)),
                sensitivity=np.eye(dim) * rng.uniform(1.0, 3.0, dim)
                + 0.3 * rng.standard_normal((dim, dim)),
                converged=True,
                iterations=1,
                final_norm=0.0,
                moments=None,
            )
    return oracles.FitBundle.of(plan, fits)


def stacked_scores(bundle, k):
    """Group k's per-subject score rows stacked as V_k lays them out:
    (n_k, Jp + d_k), the psi columns of blocks 1..J, then their g columns."""
    fits = [bundle.block_fits[(j, k)] for j in range(bundle.J)]
    p = bundle.p
    return np.hstack([fit.scores[:, :p] for fit in fits] + [fit.scores[:, p:] for fit in fits])


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestAssembleVhat:
    def test_scalar_plus_minus_one(self):
        bundle = synthetic_bundle(
            {(0, 0): np.array([[1.0], [-1.0]])},
            {(0, 0): np.array([[1.0]])},
            {(0, 0): [0.0]},
            {(0, 0): []},
            J=1,
            K=1,
        )
        vhat = assemble_vhat(bundle)
        np.testing.assert_allclose(vhat[0], [[1.0]])

    def test_all_zero_scores_are_not_positive_definite(self):
        # V_k is the zero matrix, which its group summary cannot invert
        with pytest.raises(CombineError, match="group 0 score covariance is not positive definite"):
            synthetic_bundle(
                {(0, 0): np.zeros((3, 2))},
                {(0, 0): np.eye(2)},
                {(0, 0): [0.0]},
                {(0, 0): [1.0]},
                J=1,
                K=1,
            )

    def test_loaded_bundle_has_the_bits_of_vhat(self, fitted_bundle):
        bundle, _ = fitted_bundle
        buf = io.BytesIO()
        save_bundle(bundle, buf)
        buf.seek(0)
        for mine, theirs in zip(assemble_vhat(load_bundle(buf)), assemble_vhat(bundle)):
            assert mine.tobytes() == theirs.tobytes()

    def test_missing_group_is_a_combine_error(self, fitted_bundle):
        bundle, _ = fitted_bundle
        with pytest.raises(CombineError, match="missing groups 1 "):
            assemble_vhat(split_bundle(bundle)[0])

    def test_is_the_group_summary_vhat(self, fitted_bundle):
        # tau' tau / N, made exactly symmetric where it is formed
        bundle, _ = fitted_bundle
        for k, vhat in enumerate(assemble_vhat(bundle)):
            tau = stacked_scores(bundle, k)
            assert vhat is bundle.groups[k].vhat
            dense = tau.T @ tau / bundle.plan.N
            np.testing.assert_array_equal(vhat, 0.5 * (dense + dense.T))
            assert vhat.tobytes() == vhat.T.copy().tobytes()

    def test_matches_dense_brute_force(self, fitted_bundle):
        # group-blocked storage equals the dense (1/N) sum tau tau' with
        # group-masked rows, computed naively
        bundle, _ = fitted_bundle
        N = bundle.plan.N
        dims = [stacked_scores(bundle, k).shape[1] for k in range(bundle.K)]
        total_dim = sum(dims)
        tau = np.zeros((N, total_dim))
        for k in range(bundle.K):
            rows = bundle.plan.subject_indices(k)
            off = sum(dims[:k])
            tau[rows, off : off + dims[k]] = stacked_scores(bundle, k)
        dense = tau.T @ tau / N
        vhat = assemble_vhat(bundle)
        for k in range(bundle.K):
            off = sum(dims[:k])
            np.testing.assert_allclose(
                dense[off : off + dims[k], off : off + dims[k]],
                vhat[k],
                atol=1e-12,
            )
        # cross-group blocks are exactly zero
        off0, off1 = 0, dims[0]
        assert np.all(dense[:off1, off1:] == 0.0)


class TestInvertVhat:
    def test_identity_inverse(self):
        bundle = synthetic_bundle(
            {(0, 0): np.array([[1.0], [-1.0]])},
            {(0, 0): np.array([[1.0]])},
            {(0, 0): [0.0]},
            {(0, 0): []},
            J=1,
            K=1,
        )
        W = invert_vhat((np.eye(1),), bundle)
        np.testing.assert_allclose(W[0], np.eye(1))

    def test_hand_inverse_2x2(self, fitted_bundle):
        bundle, _ = fitted_bundle
        vk = np.array([[2.0, 1.0], [1.0, 2.0]])
        W = invert_vhat((vk,) * bundle.K, bundle)
        np.testing.assert_allclose(
            W[0], [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=1e-12
        )

    def test_w_times_v_is_identity_on_random_pd(self, fitted_bundle):
        bundle, _ = fitted_bundle
        rng = np.random.default_rng(5)
        vs = []
        for _ in range(bundle.K):
            g = rng.standard_normal((7, 7))
            vs.append(g @ g.T + 7 * np.eye(7))
        W = invert_vhat(tuple(vs), bundle)
        for k in range(bundle.K):
            np.testing.assert_allclose(
                W[k] @ vs[k], np.eye(7), atol=1e-10
            )

    def test_indefinite_block_is_a_hard_error(self, fitted_bundle):
        bundle, _ = fitted_bundle
        bad = np.diag([1.0, -0.5])
        with pytest.raises(CombineError, match="not positive definite"):
            invert_vhat((bad,) * bundle.K, bundle)

    @pytest.mark.parametrize(
        "vk", [np.zeros((3, 3)), np.diag([1e-4, 1e-4, -1e-11])], ids=["zero", "tiny-negative"]
    )
    def test_singular_block_names_its_group(self, fitted_bundle, vk):
        bundle, _ = fitted_bundle
        good = np.eye(3)
        with pytest.raises(CombineError, match="group 1 score covariance is not positive definite"):
            invert_vhat((good, vk) + (good,) * (bundle.K - 2), bundle)

    def test_fitted_vhat_inverts_cleanly(self, fitted_bundle):
        bundle, _ = fitted_bundle
        vhat = assemble_vhat(bundle)
        W = invert_vhat(vhat, bundle)
        for k in range(bundle.K):
            dim = vhat[k].shape[0]
            resid = W[k] @ vhat[k] - np.eye(dim)
            assert np.linalg.norm(resid) / np.sqrt(dim) <= 1e-8
            np.testing.assert_allclose(W[k], W[k].T, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 40), extra=st.integers(1, 60), seed=st.integers(0, 10**6))
    def test_matches_scipy_cholesky_inverse(self, dim, extra, seed):
        # a score covariance tau' tau / n with columns on scales 1e-4 .. 1e4;
        # scipy's cho_solve on the package's own Cholesky factor is the
        # oracle, in the tests only.  Sharing the factor makes the bound
        # measure the inverse alone: scipy's and numpy's factors differ by
        # up to 6e-12 where the scaled condition nears 1e6.  V_k is exactly
        # symmetric where it is formed, as here
        rng = np.random.default_rng(seed)
        n = dim + extra
        tau = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-4, 4, dim)
        vk = tau.T @ tau / n
        vk = 0.5 * (vk + vk.T)
        (w,) = invert_vhat((vk,), SummaryBundle(plan=make_plan(2, n, 1, 1), groups={}))
        assert np.array_equal(w, w.T)
        factor = np.linalg.cholesky(vk)
        expected = scipy.linalg.cho_solve((factor, True), np.eye(dim))
        assert max_rel(w, expected) <= 3e-15

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_block_names_its_group(self, fitted_bundle, bad):
        bundle, _ = fitted_bundle
        vk = np.eye(3)
        vk[1, 2] = vk[2, 1] = bad
        with pytest.raises(CombineError, match="group 1 score covariance is not finite"):
            invert_vhat((np.eye(3), vk) + (np.eye(3),) * (bundle.K - 2), bundle)

    @pytest.mark.parametrize("score", [np.inf, np.nan, 1e200], ids=["inf", "nan", "1e200"])
    def test_non_finite_or_overflowing_score_names_its_group(self, score):
        # 1e200 squared overflows in V_k = tau' tau / N
        bundle = random_bundle(2, 3, 2, seed=5)
        fits = dict(bundle.block_fits)
        scores = fits[(1, 2)].scores.copy()
        scores[4, -1] = score
        fits[(1, 2)] = dataclasses.replace(fits[(1, 2)], scores=scores)
        with pytest.raises(CombineError, match="group 2 score covariance is not finite"):
            SummaryBundle.from_fits(bundle.plan, fits)


class TestSubsetV:
    # the W_k accessor of the dense oracle
    def test_psipsi_tiling_reproduces_inverse_partition(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        p, J = bundle.p, bundle.J
        for k in range(bundle.K):
            tiled = np.block(
                [
                    [oracles.subset_v(bundle, W, i, j, k, "psipsi") for j in range(J)]
                    for i in range(J)
                ]
            )
            np.testing.assert_array_equal(
                tiled, W[k][: J * p, : J * p]
            )

    def test_gg_diagonal_subset_is_principal_and_symmetric(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        sub = oracles.subset_v(bundle, W, 1, 1, 0, "gg")
        assert sub.shape == (2, 2)
        np.testing.assert_allclose(sub, sub.T, atol=1e-10)

    def test_unknown_kind_rejected(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        with pytest.raises(ValueError):
            oracles.subset_v(bundle, W, 0, 0, 0, "pg")


class TestBuildC:
    def test_lemma_identity_on_fitted_bundle(self, fitted_bundle):
        # the per-group informations, scattered into (p+d)^2, reproduce both
        # the dense C-matrix sum and the weighted-sensitivity information
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        lhs = oracles.arrowhead_information(bundle)
        for rhs in (oracles.combined_information(bundle, W), oracles.godambe_direct(bundle, W)):
            rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert rel <= 1e-8

    def test_rhs_matches_dense_c_sum(self, fitted_bundle):
        # r_k = sum_i C_{k,i} (theta_ik, zeta_list) on the rows of group k
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        p, zetas = bundle.p, oracles.zeta_list(bundle)
        for k in range(bundle.K):
            dense = sum(
                oracles.build_C(bundle, W, k, i)[0]
                @ np.concatenate([bundle.fits[(i, k)].theta_hat, zetas])
                for i in range(bundle.J)
            )
            rows = np.r_[0:p, p + oracles.group_offset(bundle, k) : p + oracles.group_offset(bundle, k + 1)]
            r = bundle.groups[k].rhs
            np.testing.assert_allclose(r, dense[rows], rtol=1e-10, atol=1e-12 * np.abs(dense).max())
            outside = np.setdiff1d(np.arange(dense.size), rows)
            assert np.all(dense[outside] == 0.0)

    def test_condensed_form_drops_only_zero_columns(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        p, d = bundle.p, bundle.d
        rng = np.random.default_rng(8)
        for k in range(bundle.K):
            for i in range(bundle.J):
                c, c_star = oracles.build_C(bundle, W, k, i)
                off = p + oracles.zeta_offset(bundle, i, k)
                d_ik = bundle.fits[(i, k)].d
                # any test vector: C @ v depends only on the kept coordinates
                v = rng.standard_normal(p + d)
                v_kept = np.concatenate([v[:p], v[off : off + d_ik]])
                np.testing.assert_allclose(c @ v, c_star @ v_kept, atol=1e-10)
                # dropped columns really are zero
                dropped = [
                    col
                    for col in range(p, p + d)
                    if not off <= col < off + d_ik
                ]
                assert np.all(c[:, dropped] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        ds=st.lists(st.integers(0, 2), min_size=1, max_size=6),
        p=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    def test_one_scatter_is_bit_equal_to_the_block_loop(self, ds, p, seed):
        # mixed d_jk, d = 0 and J = 1 included
        rng = np.random.default_rng(seed)
        fits = [
            BlockFit(
                j=j, k=0, kind="gee-ar1", theta_hat=rng.standard_normal(p),
                zeta_hat=rng.standard_normal(d), scores=np.zeros((1, p + d)),
                sensitivity=rng.standard_normal((p + d, p + d)), converged=True,
                iterations=1, final_norm=0.0, moments=None,
            )
            for j, d in enumerate(ds)
        ]
        dim = len(ds) * p + sum(ds)
        g = rng.standard_normal((dim, dim))
        vhat = g @ g.T + dim * np.eye(dim)
        info, rhs, s, v = oracles.group_information(fits, np.linalg.inv(vhat))
        mine_s, mine_v = _stack_sensitivities(fits)
        for mine, theirs in ((mine_s, s), (mine_v, v)):
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
        # the solve with V_k against the explicit inverse: round-off only
        mine_info, mine_rhs = build_C(fits, vhat)
        assert mine_info.shape == info.shape and mine_rhs.shape == rhs.shape
        if info.size:
            assert max_rel(mine_info, info) <= 1e-12 and max_rel(mine_rhs, rhs) <= 1e-12

    def test_single_block_c_is_whole_information(self):
        design = make_ar1_design(N=80, M=6, J=1, K=1)
        data = simstudy.generate(design, 0)
        bundle, _ = oracles.fit_bundle(data, 1, 1, "gee-ar1")
        W = invert_vhat(assemble_vhat(bundle), bundle)
        info = bundle.groups[0].info
        np.testing.assert_allclose(info, oracles.godambe_direct(bundle, W), atol=1e-10)


class TestCombine:
    def test_fit_carries_no_weights(self, fitted_bundle):
        # W_k is applied by solves with V_k; neither the fit nor a group
        # summary keeps an explicit inverse
        bundle, _ = fitted_bundle
        fit = combine(bundle)
        assert [f.name for f in dataclasses.fields(fit)] == [
            "theta", "zeta", "cov_theta", "variances", "N", "p", "diagnostics",
        ]
        assert [f.name for f in dataclasses.fields(GroupSummary)] == [
            "n", "vhat", "info", "rhs", "blocks",
        ]

    def test_degenerate_single_block(self):
        design = make_ar1_design(N=100, M=8, J=1, K=1)
        data = simstudy.generate(design, 0)
        bundle, _ = simstudy.fit_dataset(data, 1, 1, "gee-ar1")
        fit = combine(bundle)
        block_fit = bundle.fits[(0, 0)]
        np.testing.assert_allclose(fit.theta, block_fit.theta_hat, atol=1e-8)
        np.testing.assert_allclose(fit.zeta, block_fit.zeta_hat, atol=1e-8)

    def test_inverse_variance_meta_analysis_reduction(self):
        # two independent scalar blocks with no nuisance parameters:
        # the combiner must reduce to inverse-variance weighting
        s1, s2 = 1.5, 0.5  # score scales -> variances s^2
        a1, a2 = 2.0, 3.0  # sensitivities
        th1, th2 = 0.8, 1.2
        scores = {
            (0, 0): s1 * np.array([[1.0], [-1.0], [1.0], [-1.0]]),
            (1, 0): s2 * np.array([[1.0], [1.0], [-1.0], [-1.0]]),
        }
        sens = {(0, 0): np.array([[a1]]), (1, 0): np.array([[a2]])}
        bundle = synthetic_bundle(
            scores,
            sens,
            {(0, 0): [th1], (1, 0): [th2]},
            {(0, 0): [], (1, 0): []},
            J=2,
            K=1,
        )
        fit = combine(bundle)
        w1 = a1**2 / s1**2
        w2 = a2**2 / s2**2
        expected = (w1 * th1 + w2 * th2) / (w1 + w2)
        np.testing.assert_allclose(fit.theta, [expected], atol=1e-12)

    def test_cov_theta_is_psd_and_variances_positive(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fit = combine(bundle)
        np.testing.assert_allclose(fit.cov_theta, fit.cov_theta.T, rtol=1e-12)
        eigs = np.linalg.eigvalsh(0.5 * (fit.cov_theta + fit.cov_theta.T))
        assert eigs.min() >= -1e-10 * np.trace(fit.cov_theta)
        assert fit.variances.shape == (bundle.p + bundle.d,)
        assert np.all(fit.variances > 0)
        np.testing.assert_array_equal(fit.variances[: bundle.p], np.diag(fit.cov_theta))

    @settings(max_examples=60, deadline=None)
    @given(J=st.integers(1, 4), K=st.integers(1, 4), p=st.integers(1, 3),
           seed=st.integers(0, 10**6))
    def test_matches_dense_oracle_combine(self, J, K, p, seed):
        bundle = random_bundle(J, K, p, seed)
        fit = combine(bundle)
        theta, zeta, cov = oracles.dense_combine(bundle)
        assert max_rel(fit.theta, theta) <= 1e-12
        assert max_rel(fit.zeta, zeta) <= 1e-12
        assert max_rel(fit.variances, np.diag(cov)) <= 1e-12
        assert max_rel(fit.cov_theta, cov[:p, :p]) <= 1e-12

    def test_matches_dense_oracle_on_fitted_bundle(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fit = combine(bundle)
        theta, zeta, cov = oracles.dense_combine(bundle)
        p = bundle.p
        assert max_rel(fit.theta, theta) <= 1e-12
        assert max_rel(fit.zeta, zeta) <= 1e-12
        assert max_rel(fit.variances, np.diag(cov)) <= 1e-12
        assert max_rel(fit.cov_theta, cov[:p, :p]) <= 1e-12

    def test_diagnostics_condition_numbers(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fit = combine(bundle)
        _, _, cov = oracles.dense_combine(bundle)
        p = bundle.p
        # the theta Schur complement is N * cov_theta^{-1}
        expected = np.linalg.cond(cov[:p, :p])
        assert abs(fit.diagnostics["theta_schur_condition"] / expected - 1) <= 1e-8
        info = oracles.combined_information(bundle, invert_vhat(assemble_vhat(bundle), bundle))
        conds = fit.diagnostics["nuisance_condition"]
        assert len(conds) == bundle.K
        for k in range(bundle.K):
            lo, hi = p + oracles.group_offset(bundle, k), p + oracles.group_offset(bundle, k + 1)
            nuisance = info[lo:hi, lo:hi]
            expected = np.linalg.cond(0.5 * (nuisance + nuisance.T))
            assert abs(conds[k] / expected - 1) <= 1e-8
        assert "information_condition" not in fit.diagnostics

    def test_diagnostics_weight_dimension_ratio(self, ar1_dataset):
        # 3 groups of 67, 67 and 66 subjects; each W_k weights J * p + d_k =
        # 2 * 3 + 2 * 1 estimating functions under gee-independence
        bundle, _ = simstudy.fit_dataset(ar1_dataset, 2, 3, "gee-independence")
        fit = combine(bundle)
        assert fit.diagnostics["weight_dim_ratio"] == (8 / 67, 8 / 67, 8 / 66)
        assert [bundle.groups[k].vhat.shape[0] for k in range(3)] == [8, 8, 8]
        buf = io.BytesIO()
        save_bundle(bundle, buf)
        loaded = combine(load_bundle(buf))
        assert loaded.diagnostics["weight_dim_ratio"] == fit.diagnostics["weight_dim_ratio"]

    def test_singular_nuisance_block_names_its_group(self):
        bundle = random_bundle(2, 3, 2, seed=4)
        fits = dict(bundle.block_fits)
        bad = fits[(0, 1)]
        fits[(0, 1)] = dataclasses.replace(bad, sensitivity=np.zeros_like(bad.sensitivity))
        with pytest.raises(CombineError, match="nuisance block of group 1 is not positive definite"):
            combine(SummaryBundle.from_fits(bundle.plan, fits))

    def test_singular_theta_schur_complement_is_named(self):
        bundle = random_bundle(2, 2, 2, seed=6)
        fits = {}
        for key, fit in bundle.block_fits.items():
            sens = fit.sensitivity.copy()
            sens[:, : fit.p] = 0.0  # no block informs theta
            fits[key] = dataclasses.replace(fit, sensitivity=sens)
        with pytest.raises(CombineError, match="theta Schur complement is not positive definite"):
            combine(SummaryBundle.from_fits(bundle.plan, fits))

    def test_combined_estimates_near_block_estimates(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fit = combine(bundle)
        block_thetas = np.array(
            [f.theta_hat for f in bundle.fits.values()]
        )
        assert np.all(fit.theta >= block_thetas.min(axis=0) - 0.2)
        assert np.all(fit.theta <= block_thetas.max(axis=0) + 0.2)

    def test_unconverged_block_blocks_combination(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fits = dict(bundle.block_fits)
        fits[(0, 0)] = dataclasses.replace(fits[(0, 0)], converged=False)
        broken = SummaryBundle.from_fits(bundle.plan, fits)
        with pytest.raises(CombineError, match="did not converge"):
            combine(broken)
        fit = combine(broken, allow_unconverged=True)
        assert np.all(np.isfinite(fit.theta))

    @pytest.mark.parametrize("kind, top", [
        *(("gee-ar1", top) for top in (1e40, 1e60, 1e75)),
        *(("gee-exchangeable", top) for top in (1e40, 1e60, 1e75)),
        ("cl-ar1", 1e40),
    ])
    def test_nuisance_condition_of_huge_responses_is_never_negative(self, kind, top):
        # D_k passes Cholesky, yet eigvalsh puts its smallest eigenvalue at 0 or
        # just below: the condition is then inf, without a divide-by-zero warning
        data = simstudy.generate(make_ar1_design(N=80, M=8, J=2, K=2, seed=55), 0)
        scale = top / np.abs(data.responses).max()
        huge = Dataset(data.responses * scale, data.covariates, data.subject_ids)
        bundle, _ = simstudy.fit_dataset(huge, 2, 2, kind)
        conditions = combine(bundle, allow_unconverged=True).diagnostics["nuisance_condition"]
        assert all(c >= 1.0 for c in conditions)

    @pytest.mark.parametrize("smallest", [0.0, -5e-14])
    def test_condition_without_a_positive_eigenvalue_is_inf(self, smallest):
        assert _condition(np.diag([smallest, 1.0])) == np.inf
        assert _condition(np.diag([2.0, 1.0])) == 2.0

    def test_missing_block_is_an_error(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fits = dict(bundle.block_fits)
        fits.pop((1, 0))
        with pytest.raises(CombineError, match=r"bundle has no block \(1, 0\) for group 0"):
            SummaryBundle.from_fits(bundle.plan, fits)
        fits = {(j, k + 1): fit for (j, k), fit in bundle.block_fits.items()}
        with pytest.raises(CombineError, match="block fits of group 2, the plan has 2 groups"):
            SummaryBundle.from_fits(bundle.plan, fits)

    def test_missing_groups_are_named_compactly(self):
        # 2 of many-blocks' 20 x 20 groups: the message names runs of groups
        bundle = random_bundle(20, 20, 1, seed=9)
        part = merge_bundles(split_bundle(bundle)[:2])
        with pytest.raises(CombineError) as info:
            combine(part)
        message = str(info.value)
        assert message == (
            "bundle holds 2 of the plan's 20 groups; missing groups 2..19 "
            "(first missing block (0, 2))"
        )
        assert _runs([0, 2, 3, 4, 7, 9, 10]) == "0, 2..4, 7, 9..10"


def same_bits(a, b) -> bool:
    """Whether two summary values hold the same bits, field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, str):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestOneWeightPath:
    """W_k = V_k^{-1} is applied by solves with V_k and formed nowhere on
    the fit, load or test path; a group summary is what its archive
    stores."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls, inverse = [], combine_module._cholesky_inverse

        def counted(vk):
            calls.append(vk.shape)
            return inverse(vk)

        monkeypatch.setattr(combine_module, "_cholesky_inverse", counted)
        return calls

    def test_only_the_combination_inverts(self, inversions, tmp_path):
        data = simstudy.generate(make_ar1_design(N=120, M=8, J=2, K=3, seed=4), 0)
        bundle, _ = simstudy.fit_dataset(data, 2, 3, "gee-ar1")
        assert inversions == []
        save_bundle(bundle, tmp_path / "bundle.zip")
        loaded = load_bundle(tmp_path / "bundle.zip")
        assert inversions == []
        inference.infer(loaded)
        # each D_k, then the theta Schur complement
        assert inversions == [(4, 4)] * 3 + [(3, 3)]
        for k, summary in bundle.groups.items():
            for f in dataclasses.fields(GroupSummary):
                assert same_bits(getattr(loaded.groups[k], f.name), getattr(summary, f.name))

    @pytest.mark.parametrize("kind", KINDS)
    def test_solves_match_the_explicit_inverse(self, kind):
        # I_k, r_k and the over-id statistic against S_k' W_k S_k,
        # S_k' W_k v_k and N T_N' W T_N with the explicit W_k
        data = simstudy.generate(make_ar1_design(N=120, M=10, J=2, K=2, seed=8), 0)
        bundle, _ = oracles.fit_bundle(data, 2, 2, kind)
        W = invert_vhat(assemble_vhat(bundle), bundle)
        for k, summary in bundle.groups.items():
            fits = [bundle.block_fits[(j, k)] for j in range(bundle.J)]
            info, rhs, _, _ = oracles.group_information(fits, W[k])
            assert max_rel(summary.info, info) <= 1e-12
            assert max_rel(summary.rhs, rhs) <= 1e-12
        fit = combine(bundle)
        stat = inference.overid_test(None, bundle, fit)[0]
        expected = fit.N * oracles.gmm_objective(bundle, W, fit.theta, fit.zeta)
        assert abs(stat - expected) <= 1e-12 * expected


class TestBundleSerialization:
    def test_save_load_round_trip(self, fitted_bundle, tmp_path):
        bundle, _ = fitted_bundle
        path = tmp_path / "bundle.zip"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert set(loaded.fits) == set(bundle.fits)
        for key, fit in bundle.fits.items():
            other = loaded.fits[key]
            assert type(other) is BlockRecord and type(fit) is BlockRecord
            assert other.theta_hat.tobytes() == fit.theta_hat.tobytes()
            assert other.zeta_hat.tobytes() == fit.zeta_hat.tobytes()
            for name in ("j", "k", "kind", "converged", "iterations", "final_norm",
                         "rho_clamped"):
                assert getattr(other, name) == getattr(fit, name)
            assert type(other.moments) is type(fit.moments)
            for mine, theirs in zip(other.moments, fit.moments):
                assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()
        assert sorted(loaded.groups) == list(range(bundle.K))
        for k, summary in loaded.groups.items():
            built = bundle.groups[k]
            assert summary.n == built.n == bundle.plan.group_sizes[k]
            for name in ("vhat", "info", "rhs"):
                assert getattr(summary, name).tobytes() == getattr(built, name).tobytes()
        combined_a = combine(bundle)
        combined_b = combine(loaded)
        assert combined_a.theta.tobytes() == combined_b.theta.tobytes()
        assert combined_a.zeta.tobytes() == combined_b.zeta.tobytes()
        assert combined_a.cov_theta.tobytes() == combined_b.cov_theta.tobytes()
        assert combined_a.variances.tobytes() == combined_b.variances.tobytes()
        assert inference.overid_test(None, loaded, combined_b) == (
            inference.overid_test(None, bundle, combined_a, None)
        )

    def test_zero_score_column_is_not_positive_definite(self, fitted_bundle):
        # a zero score column makes V_k singular: its group has no weights
        bundle, _ = fitted_bundle
        fits = dict(bundle.block_fits)
        scores = fits[(1, 1)].scores.copy()
        scores[:, -1] = 0.0
        fits[(1, 1)] = dataclasses.replace(fits[(1, 1)], scores=scores)
        with pytest.raises(CombineError, match="group 1 score covariance is not positive definite"):
            SummaryBundle.from_fits(bundle.plan, fits)

    def test_archive_holds_group_summaries_and_no_scores(self, fitted_bundle):
        bundle, _ = fitted_bundle
        buf = io.BytesIO()
        save_bundle(bundle, buf)
        with zipfile.ZipFile(buf) as zf:
            names = sorted(zf.namelist())
            meta = zf.read("meta.txt").decode()
            methods = {info.compress_type for info in zf.infolist()}
            table = np.frombuffer(zf.read("blocks.bin"), _BLOCK_TABLE)
            numbers = np.frombuffer(zf.read("numbers.bin"), "<f8")
        assert names == ["blocks.bin", "meta.txt", "numbers.bin", "plan.txt"]
        assert meta == "format = 4\np = 3\n"
        # members are stored, not deflated: the summaries are float64
        # arrays that deflate barely shrinks
        assert methods == {zipfile.ZIP_STORED}
        assert table.tolist() == [
            (k, j, b"gee-ar1", fit.converged, fit.iterations, fit.final_norm, fit.rho_clamped)
            for (j, k), fit in bundle.fits.items()
        ]
        # per group: V_k's upper triangle, I_k, r_k, and per block theta,
        # zeta and the GEE moments (start, three Grams, cross sums, totals)
        p, J, d = 3, 2, 2
        dim, q = J * p + J * d, p + J * d
        per_block = p + d + p + 3 * p * p + 3 * p + 3
        assert numbers.shape == (bundle.K * (dim * (dim + 1) // 2 + q * q + q + J * per_block),)

    def test_archive_size_does_not_grow_with_n(self):
        # N enters the archive only as group sizes, which have the same digits here
        sizes = []
        for N in (300, 900):
            design = make_ar1_design(N=N, M=8, J=2, K=3, seed=21)
            bundle, _ = simstudy.fit_dataset(simstudy.generate(design, 0), 2, 3, "gee-ar1")
            buf = io.BytesIO()
            save_bundle(bundle, buf)
            with zipfile.ZipFile(buf) as zf:
                sizes.append({info.filename: info.file_size for info in zf.infolist()})
        assert len(sizes[0]) == 4  # plan, meta, the block table and the numbers
        assert sizes[0] == sizes[1]

    @settings(max_examples=25, deadline=None)
    @given(
        J=st.integers(1, 3),
        K=st.integers(1, 3),
        kind=st.sampled_from(["gee-ar1", "gee-exchangeable", "gee-independence", "cl-ar1"]),
        strategy=st.sampled_from(["contiguous", "seeded-random"]),
        seed=st.integers(0, 10**6),
    )
    def test_file_round_trip_combines_bit_equal_to_memory(self, J, K, kind, strategy, seed):
        design = make_ar1_design(N=30 * K, M=3 * J + 2, seed=seed)
        bundle, _ = simstudy.fit_dataset(
            simstudy.generate(design, 0), J, K, kind, strategy=strategy, seed=seed
        )
        loaded = []
        for part in split_bundle(bundle):  # each part builds its own summary
            buf = io.BytesIO()
            save_bundle(part, buf)
            loaded.append(load_bundle(buf))
        merged = merge_bundles(loaded)
        from_files = combine(merged)
        in_memory = combine(bundle)
        for name in ("theta", "zeta", "cov_theta", "variances"):
            assert getattr(from_files, name).tobytes() == getattr(in_memory, name).tobytes()
        for k, summary in merged.groups.items():
            assert summary.vhat.tobytes() == bundle.groups[k].vhat.tobytes()
        assert inference.overid_test(None, merged, from_files, None) == (
            inference.overid_test(None, bundle, in_memory, None)
        )

    def test_saved_archives_are_byte_identical(self, fitted_bundle, tmp_path):
        bundle, _ = fitted_bundle
        a, b = tmp_path / "a.zip", tmp_path / "b.zip"
        save_bundle(bundle, a)
        save_bundle(bundle, b)
        assert a.read_bytes() == b.read_bytes()

    def test_split_and_merge_round_trip(self, fitted_bundle, tmp_path):
        bundle, _ = fitted_bundle
        parts = split_bundle(bundle)
        assert len(parts) == bundle.K
        paths = []
        for idx, part in enumerate(parts):
            path = tmp_path / f"part{idx}.zip"
            save_bundle(part, path)
            paths.append(path)
        merged = merge_bundles([load_bundle(p) for p in paths])
        original = combine(bundle)
        recombined = combine(merged)
        assert original.theta.tobytes() == recombined.theta.tobytes()
        assert original.zeta.tobytes() == recombined.zeta.tobytes()
        assert original.cov_theta.tobytes() == recombined.cov_theta.tobytes()
        assert original.variances.tobytes() == recombined.variances.tobytes()

    def test_merge_rejects_mismatched_plans(self, fitted_bundle):
        bundle, _ = fitted_bundle
        design = make_ar1_design(N=bundle.plan.N, M=bundle.plan.M, J=2, K=2,
                                 seed=999)
        other, _ = simstudy.fit_dataset(
            simstudy.generate(design, 0), 2, 2, "gee-ar1",
            strategy="seeded-random", seed=999,
        )
        with pytest.raises(CombineError, match="different plans"):
            merge_bundles([split_bundle(bundle)[0], split_bundle(other)[1]])

    def test_merge_rejects_duplicate_blocks(self, fitted_bundle):
        bundle, _ = fitted_bundle
        part = split_bundle(bundle)[0]
        with pytest.raises(CombineError, match=r"duplicate groups across bundles: \[0\]"):
            merge_bundles([part, part])

    @settings(max_examples=150, deadline=None)
    @given(member=st.integers(0, 10**6), edit=st.integers(0, 10**6), byte=st.integers(0, 255),
           mode=st.sampled_from(["overwrite", "truncate", "insert"]))
    def test_damaged_archive_member_is_a_package_error(self, fitted_bundle, member, edit,
                                                       byte, mode):
        bundle, _ = fitted_bundle
        buf = io.BytesIO()
        save_bundle(bundle, buf)
        with zipfile.ZipFile(buf) as zf:
            members = {info.filename: zf.read(info) for info in zf.infolist()}
        name = sorted(members)[member % len(members)]
        payload = bytearray(members[name])
        pos = edit % len(payload)
        if mode == "overwrite":
            payload[pos] = byte
        elif mode == "truncate":
            del payload[pos:]
        else:
            payload.insert(pos, byte)
        damaged = io.BytesIO()
        with zipfile.ZipFile(damaged, "w") as zf:
            for other, data in members.items():
                zf.writestr(other, bytes(payload) if other == name else data)
        damaged.seek(0)
        # what loads is combined and tested, as blockgmm combine does
        try:
            loaded = load_bundle(damaged)
            fit = combine(loaded, allow_unconverged=True)
            inference.overid_test(None, loaded, fit, None)
        except BlockGmmError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(edit=st.integers(0, 10**6), byte=st.integers(0, 255))
    # a byte of numbers.bin
    @example(edit=900, byte=0)
    def test_damaged_archive_bytes_are_a_package_error(self, fitted_bundle, edit, byte):
        # headers, offsets and flags of the zip container itself, and the
        # stored member payloads, whose every changed byte fails the CRC-32
        bundle, _ = fitted_bundle
        buf = io.BytesIO()
        save_bundle(bundle, buf)
        payload = bytearray(buf.getvalue())
        pos = edit % len(payload)
        with zipfile.ZipFile(buf) as zf:
            hit = [
                info.filename for info in zf.infolist()
                if 0 <= pos - (info.header_offset + 30 + len(info.filename) + len(info.extra))
                < info.compress_size
            ]
        changed = payload[pos] != byte
        payload[pos] = byte
        if hit and changed:
            with pytest.raises(CombineError, match=f"member {hit[0]} is corrupt.*Bad CRC-32"):
                load_bundle(io.BytesIO(bytes(payload)))
            return
        try:
            combine(load_bundle(io.BytesIO(bytes(payload))))
        except BlockGmmError:
            pass

    def test_summary_overflowing_at_scale_is_a_combine_error(self, fitted_bundle):
        bundle, _ = fitted_bundle
        buf = io.BytesIO()
        save_bundle(bundle, buf)
        loaded = load_bundle(buf)
        loaded.groups[1] = dataclasses.replace(loaded.groups[1], info=loaded.groups[1].info * 1e305)
        with pytest.raises(CombineError, match="group 1 summary overflows"):
            combine(loaded)
