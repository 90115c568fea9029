import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgmm import simstudy
from blockgmm.combine import (
    SummaryBundle,
    assemble_vhat,
    build_C,
    combine,
    combined_information,
    godambe_direct,
    group_scores,
    invert_vhat,
    load_bundle,
    merge_bundles,
    save_bundle,
    split_bundle,
    subset_v,
)
from blockgmm.engines import BlockFit
from blockgmm.errors import BlockGmmError, CombineError
from blockgmm.partition import make_plan

from conftest import make_ar1_design


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
        )
    return SummaryBundle(plan=plan, fits=fits)


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

    def test_all_zero_scores_give_zero_matrix(self):
        bundle = synthetic_bundle(
            {(0, 0): np.zeros((3, 2))},
            {(0, 0): np.eye(2)},
            {(0, 0): [0.0]},
            {(0, 0): [1.0]},
            J=1,
            K=1,
        )
        np.testing.assert_array_equal(assemble_vhat(bundle)[0], np.zeros((2, 2)))

    def test_matches_dense_brute_force(self, fitted_bundle):
        # group-blocked storage equals the dense (1/N) sum tau tau' with
        # group-masked rows, computed naively
        bundle, _ = fitted_bundle
        N = bundle.plan.N
        dims = [group_scores(bundle, k).shape[1] for k in range(bundle.K)]
        total_dim = sum(dims)
        tau = np.zeros((N, total_dim))
        for k in range(bundle.K):
            rows = bundle.plan.subject_indices(k)
            off = sum(dims[:k])
            tau[rows, off : off + dims[k]] = group_scores(bundle, k)
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
        np.testing.assert_allclose(W.w[0], np.eye(1))

    def test_hand_inverse_2x2(self, fitted_bundle):
        bundle, _ = fitted_bundle
        vk = np.array([[2.0, 1.0], [1.0, 2.0]])
        W = invert_vhat((vk,) * bundle.K, bundle)
        np.testing.assert_allclose(
            W.w[0], [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=1e-12
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
                W.w[k] @ vs[k], np.eye(7), atol=1e-10
            )

    def test_indefinite_block_is_a_hard_error(self, fitted_bundle):
        bundle, _ = fitted_bundle
        bad = np.diag([1.0, -0.5])
        with pytest.raises(CombineError, match="not positive definite"):
            invert_vhat((bad,) * bundle.K, bundle)

    def test_fitted_vhat_inverts_cleanly(self, fitted_bundle):
        bundle, _ = fitted_bundle
        vhat = assemble_vhat(bundle)
        W = invert_vhat(vhat, bundle)
        for k in range(bundle.K):
            dim = vhat[k].shape[0]
            resid = W.w[k] @ vhat[k] - np.eye(dim)
            assert np.linalg.norm(resid) / np.sqrt(dim) <= 1e-8
            np.testing.assert_allclose(W.w[k], W.w[k].T, atol=1e-10)


class TestSubsetV:
    def test_psipsi_tiling_reproduces_inverse_partition(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        p, J = bundle.p, bundle.J
        for k in range(bundle.K):
            tiled = np.block(
                [
                    [subset_v(W, i, j, k, "psipsi") for j in range(J)]
                    for i in range(J)
                ]
            )
            np.testing.assert_array_equal(
                tiled, W.w[k][: J * p, : J * p]
            )

    def test_gg_diagonal_subset_is_principal_and_symmetric(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        sub = subset_v(W, 1, 1, 0, "gg")
        assert sub.shape == (2, 2)
        np.testing.assert_allclose(sub, sub.T, atol=1e-10)

    def test_unknown_kind_rejected(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        with pytest.raises(CombineError):
            subset_v(W, 0, 0, 0, "pg")


class TestBuildC:
    def test_lemma_identity_on_fitted_bundle(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        lhs = combined_information(bundle, W)
        rhs = godambe_direct(bundle, W)
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert rel <= 1e-8

    def test_condensed_form_drops_only_zero_columns(self, fitted_bundle):
        bundle, _ = fitted_bundle
        W = invert_vhat(assemble_vhat(bundle), bundle)
        p, d = bundle.p, bundle.d
        rng = np.random.default_rng(8)
        for k in range(bundle.K):
            for i in range(bundle.J):
                c, c_star = build_C(bundle, W, k, i)
                off = p + bundle.zeta_offset(i, k)
                d_ik = bundle.d_jk(i, k)
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

    def test_single_block_c_is_whole_information(self):
        design = make_ar1_design(N=80, M=6, J=1, K=1)
        data = simstudy.generate(design, 0)
        bundle, _ = simstudy.fit_dataset(data, 1, 1, "gee-ar1")
        W = invert_vhat(assemble_vhat(bundle), bundle)
        c, _ = build_C(bundle, W, 0, 0)
        np.testing.assert_allclose(c, godambe_direct(bundle, W), atol=1e-10)


class TestCombine:
    def test_fit_carries_its_weights(self, fitted_bundle):
        bundle, _ = fitted_bundle
        rebuilt = invert_vhat(assemble_vhat(bundle), bundle)
        W = combine(bundle).W
        assert W.ridge_repaired == rebuilt.ridge_repaired
        for mine, theirs in zip(W.w + W.vhat, rebuilt.w + rebuilt.vhat):
            np.testing.assert_array_equal(mine, theirs)

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

    def test_godambe_is_psd_and_cov_positive(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fit = combine(bundle)
        sym = 0.5 * (fit.godambe + fit.godambe.T)
        eigs = np.linalg.eigvalsh(sym)
        assert eigs.min() >= -1e-10 * np.trace(sym)
        assert np.all(np.diag(fit.cov) > 0)

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
        fits = dict(bundle.fits)
        bad = fits[(0, 0)]
        fits[(0, 0)] = BlockFit(
            **{
                **{f: getattr(bad, f) for f in (
                    "j", "k", "kind", "theta_hat", "zeta_hat", "scores",
                    "sensitivity", "iterations", "final_norm",
                )},
                "converged": False,
            }
        )
        broken = SummaryBundle(plan=bundle.plan, fits=fits)
        with pytest.raises(CombineError, match="did not converge"):
            combine(broken)
        fit = combine(broken, allow_unconverged=True)
        assert np.all(np.isfinite(fit.theta))

    def test_missing_block_is_an_error(self, fitted_bundle):
        bundle, _ = fitted_bundle
        fits = dict(bundle.fits)
        fits.pop((0, 0))
        with pytest.raises(CombineError, match="plan needs"):
            combine(SummaryBundle(plan=bundle.plan, fits=fits))


class TestBundleSerialization:
    def test_save_load_round_trip(self, fitted_bundle, tmp_path):
        bundle, _ = fitted_bundle
        path = tmp_path / "bundle.zip"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert set(loaded.fits) == set(bundle.fits)
        for key, fit in bundle.fits.items():
            other = loaded.fits[key]
            np.testing.assert_array_equal(other.theta_hat, fit.theta_hat)
            np.testing.assert_array_equal(other.zeta_hat, fit.zeta_hat)
            np.testing.assert_array_equal(other.scores, fit.scores)
            np.testing.assert_array_equal(other.sensitivity, fit.sensitivity)
            assert other.kind == fit.kind
            assert other.converged == fit.converged
            assert other.final_norm == fit.final_norm
        combined_a = combine(bundle)
        combined_b = combine(loaded)
        np.testing.assert_array_equal(combined_a.theta, combined_b.theta)
        np.testing.assert_array_equal(combined_a.godambe, combined_b.godambe)

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
        np.testing.assert_array_equal(original.theta, recombined.theta)
        np.testing.assert_array_equal(original.zeta, recombined.zeta)
        np.testing.assert_array_equal(original.godambe, recombined.godambe)

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
        with pytest.raises(CombineError, match="duplicate"):
            merge_bundles([part, part])

    @pytest.mark.filterwarnings("ignore:Reading `.npy`:UserWarning")
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
        try:
            load_bundle(damaged)
        except BlockGmmError:
            pass
