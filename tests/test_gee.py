import numpy as np
import pytest

from blockgmm import engines, gee, partition, simstudy
from blockgmm.errors import NumericDomainError, SolverError

import oracles
from conftest import make_ar1_design, random_dataset


def one_block(data):
    plan = partition.make_plan(data.M, data.N, 1, 1, strategy="contiguous")
    return partition.split(data, plan)[(0, 0)]


def fit_alone(block, structure):
    """The stacked solver on a stack of one block: (theta, zeta, converged,
    iterations, rho_clamped)."""
    moments = gee.stack_moments(engines.block_moments([block], f"gee-{structure}"))
    sol = gee.fit_gee_block(moments, structure, [(block.j, block.k)])
    return (sol.theta[0], sol.zeta[0], bool(sol.converged[0]), int(sol.iterations[0]),
            bool(sol.clamped[0]))


def slab_scores(block, theta, zeta, structure):
    """The scores of one block from the slab kernel, as a slab of one."""
    return gee.gee_scores(block.y[None], block.X[None], theta[None], zeta[None], structure)[0]


def rinv_matrix(structure, rho, m):
    """The production R(rho)^-1, applied by slices to the rows of I_m."""
    w, _ = gee._weights(structure, rho, m)
    return gee._apply_inverse(structure, w, np.eye(m))


def drinv_matrix(structure, rho, m):
    """The production dR^-1/drho, applied the same way."""
    _, dw = gee._weights(structure, rho, m)
    return gee._apply_inverse(structure, dw, np.eye(m))


def signed_zero_residuals(m, seed, B=3, n=7):
    """(B, n, m) residuals, about a fifth of them +0 and a fifth -0, with a
    -0 at the second and the next-to-last position of subject (0, 0), where
    the shift's first and last positions read them."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((B, n, m))
    r[rng.random(r.shape) < 0.2] = 0.0
    r[rng.random(r.shape) < 0.2] = -0.0
    r[0, 0, 1] = r[0, 0, m - 2] = -0.0
    return r


FLAT_M = pytest.mark.parametrize("m", [2, 3, 5, 50])  # at m = 2 every position is an end


class TestFlatOperators:
    """The basis operators run on a slab's rows laid end to end, with every
    subject's two end positions rewritten; subject by subject, position by
    position, bit for bit."""

    @FLAT_M
    def test_shift_matches_the_subject_loop(self, m):
        r = signed_zero_residuals(m, seed=m)
        for rows in (r, r[1]):  # a slab and one block
            assert gee._shift(rows).tobytes() == oracles.shift_loop(rows).tobytes()
        # -0 + 0 is +0 at the last position; the first position keeps -0
        assert np.signbit(oracles.shift_loop(r)[0, 0, 0])
        assert not np.signbit(oracles.shift_loop(r)[0, 0, m - 1])

    @FLAT_M
    @pytest.mark.parametrize("structure", ["ar1", "exchangeable", "independence"])
    def test_apply_basis_matches_the_subject_loop(self, structure, m):
        r = signed_zero_residuals(m, seed=10 + m)
        mine, theirs = gee._apply_basis(structure, r), oracles.apply_basis_loop(structure, r)
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @FLAT_M
    @pytest.mark.parametrize("structure", ["ar1", "exchangeable", "independence"])
    def test_apply_inverse_matches_the_subject_loop(self, structure, m):
        # each block at its own rho, of both signs; the weights and their
        # derivatives in rho (which have negative terms) alike
        r = signed_zero_residuals(m, seed=20 + m)
        rho = np.array([0.4, -0.015, 0.0])  # exchangeable at m = 50 needs rho > -1/49
        for w in gee._weights(structure, rho, np.full(3, m)):
            mine = gee._apply_inverse(structure, w, r)
            assert mine.tobytes() == oracles.apply_inverse_loop(structure, w, r).tobytes()


class TestCorrInverse:
    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.3, 0.95])
    @pytest.mark.parametrize("m", [2, 3, 10])
    def test_ar1_matches_dense_inverse(self, rho, m):
        corr = rho ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        np.testing.assert_allclose(
            rinv_matrix("ar1", rho, m), np.linalg.inv(corr), atol=1e-10
        )

    @pytest.mark.parametrize(
        "rho,m", [(-0.2, 2), (-0.2, 5), (0.0, 5), (0.6, 5), (0.6, 12)]
    )
    def test_exchangeable_matches_dense_inverse(self, rho, m):
        corr = np.full((m, m), rho) + (1 - rho) * np.eye(m)
        np.testing.assert_allclose(
            rinv_matrix("exchangeable", rho, m),
            np.linalg.inv(corr),
            atol=1e-10,
        )

    def test_independence_is_identity(self):
        np.testing.assert_array_equal(rinv_matrix("independence", 0.4, 4), np.eye(4))

    def test_out_of_domain_rho_raises(self):
        with pytest.raises(NumericDomainError):
            rinv_matrix("ar1", 1.0, 3)
        with pytest.raises(NumericDomainError):
            rinv_matrix("exchangeable", -0.9, 3)  # 1+(m-1)rho < 0

    @pytest.mark.parametrize(
        "structure,rho,m",
        [("ar1", -0.6, 2), ("ar1", 0.0, 7), ("ar1", 0.8, 9),
         ("exchangeable", -0.2, 5), ("exchangeable", 0.0, 3), ("exchangeable", 0.7, 8)],
    )
    def test_derivative_matches_dense_oracle(self, structure, rho, m):
        h = 1e-6
        fd = (
            oracles.corr_inverse(structure, rho + h, m)
            - oracles.corr_inverse(structure, rho - h, m)
        ) / (2 * h)
        np.testing.assert_allclose(drinv_matrix(structure, rho, m), fd, atol=1e-7)
        np.testing.assert_allclose(
            rinv_matrix(structure, rho, m), oracles.corr_inverse(structure, rho, m),
            atol=1e-12,
        )

    @pytest.mark.parametrize("structure", ["ar1", "exchangeable", "independence"])
    def test_gram_forms_match_dense_quadratic_forms(self, structure):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((7, 6, 3))
        rho = 0.45
        w, _ = gee._weights(structure, rho, 6)
        rinv = oracles.corr_inverse(structure, rho, 6)
        dense = np.einsum("ntp,ts,nsq->pq", Z, rinv, Z)
        np.testing.assert_allclose(
            np.tensordot(w, gee._grams(structure, Z), axes=1), dense, rtol=1e-12
        )


class TestFitGeeBlock:
    def test_noiseless_block_recovers_least_squares(self):
        data, theta0 = random_dataset(N=40, M=6, p=3, seed=5, sigma=1.0)
        # overwrite responses with an exact linear signal plus tiny noise
        rng = np.random.default_rng(0)
        responses = data.covariates @ theta0 + 1e-8 * rng.standard_normal(
            data.responses.shape
        )
        block = one_block(
            type(data)(
                responses=responses,
                covariates=data.covariates,
                subject_ids=data.subject_ids,
            )
        )
        theta, _, converged, _, _ = fit_alone(block, "ar1")
        assert converged
        np.testing.assert_allclose(theta, theta0, atol=1e-6)

    def test_independence_equals_ols_closed_form(self):
        data, _ = random_dataset(N=30, M=5, p=3, seed=6)
        block = one_block(data)
        theta, zeta, converged, _, _ = fit_alone(block, "independence")
        assert converged
        x = block.X.reshape(-1, 3)
        y = block.y.reshape(-1)
        ols = np.linalg.solve(x.T @ x, x.T @ y)
        np.testing.assert_allclose(theta, ols, atol=1e-10)
        resid = y - x @ ols
        np.testing.assert_allclose(zeta[0], np.mean(resid**2), atol=1e-10)

    def test_recovers_ar1_nuisance_parameters(self):
        # sigma = 4, rho = 0.8: replicated fits stay within 3 Monte Carlo SEs
        design = make_ar1_design(N=150, M=10, sigma=4.0, rho=0.8, seed=77)
        rhos, sig2s = [], []
        for rep in range(60):
            block = one_block(simstudy.generate(design, rep))
            _, zeta, converged, _, _ = fit_alone(block, "ar1")
            assert converged
            sig2s.append(zeta[0])
            rhos.append(zeta[1])
        rho_se = np.std(rhos, ddof=1) / np.sqrt(len(rhos))
        sig_se = np.std(sig2s, ddof=1) / np.sqrt(len(sig2s))
        assert abs(np.mean(rhos) - 0.8) <= 3 * rho_se
        assert abs(np.mean(sig2s) - 16.0) <= 3 * sig_se

    def test_exchangeable_recovers_compound_symmetry(self):
        rng = np.random.default_rng(11)
        N, m, rho, sigma2 = 400, 6, 0.4, 2.0
        corr = np.full((m, m), rho) + (1 - rho) * np.eye(m)
        chol = np.linalg.cholesky(sigma2 * corr)
        covariates = np.empty((N, m, 2))
        covariates[:, :, 0] = 1.0
        covariates[:, :, 1] = rng.standard_normal((N, m))
        theta0 = np.array([1.0, -0.5])
        responses = covariates @ theta0 + rng.standard_normal((N, m)) @ chol.T
        from blockgmm.dataio import Dataset

        block = one_block(
            Dataset(responses=responses, covariates=covariates,
                    subject_ids=tuple(range(N)))
        )
        theta, zeta, converged, _, _ = fit_alone(block, "exchangeable")
        assert converged
        np.testing.assert_allclose(theta, theta0, atol=0.1)
        assert abs(zeta[0] - sigma2) < 0.3
        assert abs(zeta[1] - rho) < 0.1

    def test_root_property_at_solution(self, ar1_dataset):
        block = one_block(ar1_dataset)
        for structure in ("ar1", "exchangeable", "independence"):
            theta, zeta, converged, _, _ = fit_alone(block, structure)
            assert converged
            (scores,) = engines.eval_scores([block], theta, [zeta], f"gee-{structure}")
            assert np.linalg.norm(scores.mean(axis=0)) <= 1e-7

    @pytest.mark.parametrize("structure", ["ar1", "exchangeable", "independence"])
    def test_matches_dense_oracle_fit(self, structure):
        # rho of both signs, M = 2 and a single-covariate design
        for seed, (M, p, rho) in enumerate([(8, 3, 0.6), (2, 3, -0.4), (6, 1, 0.0), (11, 2, -0.7)]):
            design = make_ar1_design(
                N=120, M=M, J=1, theta0=(0.3, 0.6, 0.8)[:p], rho=rho, seed=900 + seed
            )
            block = one_block(simstudy.generate(design, 0))
            theta, zeta, converged, iterations, clamped = fit_alone(block, structure)
            o_theta, o_zeta, o_converged, o_iterations, o_clamped = (
                oracles.dense_fit_gee_block(block, structure)
            )
            np.testing.assert_allclose(theta, o_theta, rtol=1e-10)
            np.testing.assert_allclose(zeta, o_zeta, rtol=1e-10)
            assert (converged, iterations, clamped) == (o_converged, o_iterations, o_clamped)

    @pytest.mark.parametrize("structure", ["ar1", "exchangeable", "independence"])
    def test_small_sigma_nuisance_matches_dense_oracle(self, structure):
        # residuals 1e-6 next to a mean near 100: moments taken from a Gram
        # quadratic form in (-theta, 1) would cancel to noise here
        design = make_ar1_design(N=200, M=10, J=1, K=1, theta0=(30.0, 60.0, 80.0),
                                 sigma=1e-6, rho=0.5, seed=31)
        block = one_block(simstudy.generate(design, 0))
        _, zeta, converged, _, _ = fit_alone(block, structure)
        _, o_zeta, *_ = oracles.dense_fit_gee_block(block, structure)
        assert converged
        np.testing.assert_allclose(zeta, o_zeta, rtol=1e-8)

    @pytest.mark.parametrize("structure", ["ar1", "exchangeable", "independence"])
    @pytest.mark.parametrize(
        "shape",
        [
            # 20 blocks of n = 200 subjects by m = 5 responses
            dict(family="kronecker-nested", N=800, M=25, J=5, K=4, sigma=4.0, rho=0.8),
            # 12 blocks of n = 500 by m = 50
            dict(family="global-ar1", N=1000, M=300, J=6, K=2, sigma=6.0, rho=0.8),
        ],
        ids=["many-small", "paper-scale"],
    )
    def test_quadratic_form_moments_match_residual_moments(self, structure, shape):
        # moment totals from the r0 quadratic forms against the alternation
        # that takes them from the residuals of every iterate
        design = simstudy.SimDesign(reps=1, seed=1100, **shape)
        data = simstudy.generate(design, 0)
        plan = partition.make_plan(data.M, data.N, design.J, design.K, strategy="contiguous")
        for block in partition.split(data, plan).values():
            theta, zeta, converged, iterations, clamped = fit_alone(block, structure)
            o_theta, o_zeta, o_converged, o_iterations, o_clamped = (
                oracles.residual_fit_gee_block(block, structure)
            )
            np.testing.assert_allclose(theta, o_theta, rtol=1e-12)
            np.testing.assert_allclose(zeta, o_zeta, rtol=1e-12)
            assert (converged, iterations, clamped) == (o_converged, o_iterations, o_clamped)

    def test_fit_keeps_the_block_moments(self, ar1_dataset):
        block = one_block(ar1_dataset)
        moments = engines.fit_block(block, "gee-ar1").moments
        [rebuilt] = engines.block_moments([block], "gee-ar1")
        for field in ("start", "grams", "cross", "totals"):
            assert getattr(moments, field).tobytes() == getattr(rebuilt, field).tobytes()
        assert moments.grams.tobytes() == gee._grams("ar1", block.X).tobytes()
        assert (moments.n, moments.m) == (block.n, block.m)

    def test_too_few_subjects_raises(self):
        data, _ = random_dataset(N=4, M=4, p=3, seed=7)
        block = one_block(data)
        with pytest.raises(SolverError, match="too small"):
            engines.fit_block(block, "gee-ar1")

    def test_too_few_subjects_in_a_stack_names_the_block(self):
        # the second of three stacked blocks has n = 5 = p + d
        blocks = [
            partition.BlockData(j, k, b.y, b.X, b.subject_indices)
            for (j, k), b in zip(
                [(0, 0), (3, 1), (0, 2)],
                (one_block(random_dataset(N=n, M=4, p=3, seed=7 + n)[0]) for n in (30, 5, 6)),
            )
        ]
        with pytest.raises(SolverError) as info:
            engines.solve_blocks(blocks, "gee-ar1")
        assert str(info.value) == "block (3, 1): n=5 too small for p+d=5 parameters"

    def test_singular_block_in_a_stack_names_the_block(self):
        # the second block's Gram loses its last row and column after its
        # start was taken, so the stacked solve, not the start, meets it
        blocks = [one_block(random_dataset(N=30, M=4, p=3, seed=s)[0]) for s in (1, 2)]
        moments = engines.block_moments(blocks, "gee-independence")
        grams = moments[1].grams.copy()
        grams[0, :, 2] = grams[0, 2, :] = 0.0
        moments[1] = moments[1]._replace(grams=grams)
        with pytest.raises(SolverError) as info:
            gee.fit_gee_block(gee.stack_moments(moments), "independence", [(0, 0), (2, 1)])
        assert str(info.value) == "singular weighted normal equations in block (2, 1)"
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def assert_scores_match_the_oracle(blocks, keys, theta, zeta, structure):
    """The slab kernel's scores of the blocks ``keys``, in that order and
    each at its own row of theta and zeta, against the per-block oracle."""
    scores = engines.eval_scores([blocks[key] for key in keys], theta, zeta, f"gee-{structure}")
    for b, key in enumerate(keys):
        expected = oracles.gee_scores(blocks[key], theta[b], zeta[b], structure)
        scale = np.abs(expected).max()
        assert np.abs(scores[b] - expected).max() <= 1e-13 * scale, key


class TestGeeScores:
    @pytest.mark.parametrize("structure", ["ar1", "exchangeable", "independence"])
    def test_slab_kernel_matches_the_per_block_oracle(self, structure):
        # M = 11 on J = 3 gives blocks of 4, 4 and 3 responses, so each group
        # has two buckets, and the slab of 4-response blocks holds two blocks
        # at their own theta, sigma^2 and rho, with rho of both signs
        data = simstudy.generate(make_ar1_design(N=60, M=11, J=3, K=2, seed=41), 0)
        blocks = partition.split(data, partition.make_plan(11, 60, 3, 2, strategy="contiguous"))
        keys = sorted(blocks)
        assert blocks[(0, 1)].bucket is blocks[(1, 1)].bucket
        assert blocks[(1, 1)].bucket is not blocks[(2, 1)].bucket
        rng = np.random.default_rng(41)
        B = len(keys)
        theta = rng.normal(0.5, 0.3, (B, 3))
        rho = rng.uniform(0.1, 0.3, B) * np.where(np.arange(B) % 2, -1.0, 1.0)
        zeta = np.column_stack([rng.uniform(0.5, 3.0, B), rho])[:, : gee.nuisance_dim(structure)]
        assert_scores_match_the_oracle(blocks, keys, theta, zeta, structure)

    @pytest.mark.parametrize("structure", ["ar1", "exchangeable", "independence"])
    def test_shuffled_list_of_a_random_plan_matches_the_per_block_oracle(self, structure):
        # a seeded-random plan of M = 23 on J = 5 (blocks of 5 and 4
        # responses) passed in shuffled order, so each bucket's share of the
        # list is out of slot order and taken by an index, not a slice
        data = simstudy.generate(make_ar1_design(N=150, M=23, J=5, K=3, rho=-0.3, seed=43), 0)
        plan = partition.make_plan(23, 150, 5, 3, strategy="seeded-random", seed=43)
        blocks = partition.split(data, plan)
        rng = np.random.default_rng(43)
        keys = [key for _, key in sorted(zip(rng.permutation(len(blocks)), sorted(blocks)))]
        B = len(keys)
        theta = rng.normal(0.5, 0.3, (B, 3))
        rho = rng.uniform(-0.2, 0.6, B)
        zeta = np.column_stack([rng.uniform(0.5, 3.0, B), rho])[:, : gee.nuisance_dim(structure)]
        assert_scores_match_the_oracle(blocks, keys, theta, zeta, structure)

    def test_independence_unit_variance_scores_are_xt_resid(self):
        data, _ = random_dataset(N=8, M=4, p=2, seed=8)
        block = one_block(data)
        theta = np.array([0.5, -0.2])
        scores = slab_scores(block, theta, np.array([1.0]), "independence")
        resid = block.y - block.X @ theta
        expected = np.einsum("nmp,nm->np", block.X, resid)
        np.testing.assert_allclose(scores[:, :2], expected, atol=1e-12)

    def test_invalid_sigma2_raises(self):
        data, _ = random_dataset(N=8, M=4, p=2, seed=8)
        block = one_block(data)
        with pytest.raises(NumericDomainError):
            slab_scores(block, np.zeros(2), np.array([-1.0, 0.2]), "ar1")

    def test_scores_unbiased_at_true_parameters(self):
        # mean of each score column at the truth is 0 within 4 SEs
        rng = np.random.default_rng(21)
        N, m, rho, sigma = 100_000, 4, 0.5, 1.5
        innov = sigma * np.sqrt(1 - rho * rho)
        z = rng.standard_normal((N, m))
        err = np.empty((N, m))
        err[:, 0] = sigma * z[:, 0]
        for t in range(1, m):
            err[:, t] = rho * err[:, t - 1] + innov * z[:, t]
        covariates = np.empty((N, m, 2))
        covariates[:, :, 0] = 1.0
        covariates[:, :, 1] = rng.standard_normal((N, m))
        theta0 = np.array([0.3, 0.6])
        from blockgmm.dataio import Dataset

        block = one_block(
            Dataset(
                responses=covariates @ theta0 + err,
                covariates=covariates,
                subject_ids=tuple(range(N)),
            )
        )
        scores = slab_scores(block, theta0, np.array([sigma**2, rho]), "ar1")
        means = scores.mean(axis=0)
        ses = scores.std(axis=0, ddof=1) / np.sqrt(N)
        assert np.all(np.abs(means) <= 4 * ses)

    def test_permuting_subjects_permutes_score_rows(self, ar1_dataset):
        block = one_block(ar1_dataset)
        theta, zeta, *_ = fit_alone(block, "ar1")
        scores = slab_scores(block, theta, zeta, "ar1")
        perm = np.random.default_rng(3).permutation(block.n)
        permuted = partition.BlockData(
            j=0,
            k=0,
            y=block.y[perm],
            X=block.X[perm],
            subject_indices=block.subject_indices[perm],
        )
        theta2, zeta2, *_ = fit_alone(permuted, "ar1")
        np.testing.assert_allclose(theta2, theta, atol=1e-9)
        np.testing.assert_allclose(zeta2, zeta, atol=1e-9)
        scores2 = slab_scores(permuted, theta2, zeta2, "ar1")
        np.testing.assert_allclose(scores2, scores[perm], atol=1e-8)
