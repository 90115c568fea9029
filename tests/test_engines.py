import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgmm import composite, engines, gee, partition, simstudy
from blockgmm.dataio import Dataset
from blockgmm.engines import (
    KINDS,
    SolverOptions,
    block_means,
    block_moments,
    eval_scores,
    fit_block,
    nuisance_dim,
    sample_sensitivity,
    solve_blocks,
)
from blockgmm.errors import NumericDomainError, SolverError

import oracles
from conftest import (
    column_subset,
    make_ar1_design,
    near_unit_root_dataset,
    random_dataset,
    record_passes,
)


def one_block(data):
    plan = partition.make_plan(data.M, data.N, 1, 1, strategy="contiguous")
    return partition.split(data, plan)[(0, 0)]


def signal_block(data, theta0, noise, seed=2):
    """One block of data's design with responses X theta0 plus normal noise
    at ``noise`` times the root mean square of the signal."""
    signal = data.covariates @ theta0
    rng = np.random.default_rng(seed)
    scale = noise * np.sqrt(np.mean(signal**2))
    return one_block(
        Dataset(
            responses=signal + scale * rng.standard_normal(signal.shape),
            covariates=data.covariates,
            subject_ids=data.subject_ids,
        )
    )


class TestKinds:
    def test_dimensions(self):
        assert nuisance_dim("gee-ar1") == 2
        assert nuisance_dim("gee-exchangeable") == 2
        assert nuisance_dim("cl-ar1") == 2
        assert nuisance_dim("gee-independence") == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda block: nuisance_dim("gee-toeplitz"),
            lambda block: solve_blocks([block], "gee-toeplitz"),
            lambda block: fit_block(block, "gee-toeplitz"),
            lambda block: block_moments([block], "gee-toeplitz"),
            lambda block: eval_scores([block], np.zeros(3), [np.ones(2)], "gee-toeplitz"),
            lambda block: sample_sensitivity(block, np.zeros(3), np.ones(2), "gee-toeplitz"),
        ],
        ids=["nuisance_dim", "solve_blocks", "fit_block", "block_moments", "eval_scores",
             "sample_sensitivity"],
    )
    def test_unknown_kind_rejected(self, call):
        block = one_block(random_dataset(N=20, M=4, p=3, seed=17)[0])
        with pytest.raises(SolverError, match="unknown solver kind 'gee-toeplitz'"):
            call(block)


@pytest.mark.parametrize(
    "kind", ["gee-ar1", "gee-exchangeable", "gee-independence", "cl-ar1"]
)
class TestFitBlock:
    def test_fit_block_contract(self, kind):
        data, _ = random_dataset(N=60, M=6, p=3, seed=17)
        block = one_block(data)
        fit = fit_block(block, kind)
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
        fit = fit_block(one_block(data), kind)
        tt = fit.sensitivity[:3, :3]
        np.testing.assert_allclose(tt, tt.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(tt)) > 0

    def test_sensitivity_equals_sample_sensitivity_bitwise(self, kind, monkeypatch):
        # both kernels iterate on their block moments and take the
        # sensitivity from them, so the per-subject scores at the solution
        # are the one residual pass after the start: a GEE fit makes one
        # Gram build and one pass over the start residuals r0 for its
        # moments, CL builds its lag moments with r0 in one step.  Both give
        # the same bits as the standalone sensitivity
        data, _ = random_dataset(N=40, M=5, p=3, seed=20)
        block = one_block(data)
        calls = record_passes(monkeypatch)
        fit = fit_block(block, kind)
        assert kind != "cl-ar1" or fit.iterations > 1
        if kind == "cl-ar1":
            assert calls == ["lag moments", "residual pass"]
        else:
            assert calls == ["grams", "residual pass", "residual pass"]
        standalone = sample_sensitivity(block, fit.theta_hat, fit.zeta_hat, kind)
        assert fit.sensitivity.tobytes() == standalone.tobytes()


@st.composite
def kernel_points(draw):
    """A kind, a one-block split (M in [2, 12], 1 to 3 covariates, all of
    them or a column subset) and a point (theta, zeta) off the root."""
    kind = draw(st.sampled_from(KINDS))
    M = draw(st.integers(2, 12))
    q = draw(st.integers(1, 3))
    cols = draw(
        st.none()
        | st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True).map(
            lambda c: tuple(sorted(c))
        )
    )
    N = draw(st.integers(4, 40))
    data, _ = random_dataset(
        N=N, M=M, p=q, seed=draw(st.integers(0, 2**16)), sigma=draw(st.floats(0.2, 3.0))
    )
    plan = partition.make_plan(M, N, 1, 1, strategy="contiguous")
    block = partition.split(column_subset(data, cols), plan)[(0, 0)]
    moments = block_moments([block], kind)[0]
    offset = draw(st.lists(st.floats(-1.0, 1.0), min_size=block.p, max_size=block.p))
    theta = moments.start + np.array(offset)
    rho = draw(st.just(0.0) | st.floats(-0.97, 0.97))
    if kind == "gee-exchangeable":
        rho = max(rho, -0.9 / (M - 1))  # keeps 1 + (M - 1) rho >= 0.1
    zeta = np.array([draw(st.floats(0.2, 5.0)), rho][: nuisance_dim(kind)])
    return kind, block, moments, theta, zeta


class TestMeanTerms:
    # The moments and the data pass add the same terms in a different
    # order: sums at the start with corrections in delta = theta - start
    # against sums of the residuals at theta.  So they agree to round-off.
    # For GEE a sum runs over at most N * M = 480 products; its weights are
    # at most (1 + rho^2) / (1 - rho^2), about 33 at |rho| = 0.97, and its
    # rho column carries dw, at most about (1 / (1 - rho^2))^2 = 300 (1 / 0.1^2
    # = 100 for exchangeable); 480 * 300 * eps (2.2e-16) = 3.2e-11, hence
    # 1e-10.  For CL the TestLagSumTerms bound of 4.4e-12 is below it.  A
    # wrong term would move an entry at order one.
    TOL = 1e-10

    @settings(max_examples=300, deadline=None)
    @given(point=kernel_points())
    def test_mean_and_jacobian_match_the_data_pass(self, point):
        kind, block, moments, theta, zeta = point
        means, jacs = block_means([moments], theta, [zeta], kind, jacobian=True)
        mean, jac = means[0], jacs[0]
        expected_mean, expected_jac = oracles.pass_terms(block, theta, zeta, kind)
        assert np.max(np.abs(mean - expected_mean)) <= self.TOL * np.max(
            np.abs(expected_mean)
        )
        rows = np.max(np.abs(expected_jac), axis=1, keepdims=True)
        assert np.max(np.abs(jac - expected_jac) / rows) <= self.TOL
        means, none = block_means([moments], theta, [zeta], kind)
        assert none is None
        assert means[0].tobytes() == mean.tobytes()


class TestSampleSensitivity:
    def test_gee_theta_block_matches_finite_differences(self):
        data, _ = random_dataset(N=50, M=6, p=3, seed=19)
        block = one_block(data)
        fit = fit_block(block, "gee-ar1")
        analytic = oracles.gee_theta_sensitivity(block, fit.zeta_hat, "ar1")

        h = 1e-6
        fd = np.empty((5, 3))
        params = np.concatenate([fit.theta_hat, fit.zeta_hat])
        for a in range(3):
            up, um = params.copy(), params.copy()
            up[a] += h
            um[a] -= h
            fp = eval_scores([block], up[:3], [up[3:]], "gee-ar1")[0].mean(axis=0)
            fm = eval_scores([block], um[:3], [um[3:]], "gee-ar1")[0].mean(axis=0)
            fd[:, a] = -(fp - fm) / (2 * h)
        rel = np.linalg.norm(analytic - fd[:3, :]) / np.linalg.norm(analytic)
        assert rel <= 1e-5

    def test_g1_sensitivity_to_sigma2_is_one(self):
        # g1 = mean_t(r_t^2) - sigma^2 is linear in sigma^2 with slope -1,
        # so the negative derivative is exactly +1
        data, _ = random_dataset(N=40, M=5, p=2, seed=20)
        block = one_block(data)
        fit = fit_block(block, "gee-ar1")
        sens = sample_sensitivity(
            block, fit.theta_hat, fit.zeta_hat, "gee-ar1"
        )
        g1_row = 2  # after the p=2 psi rows
        sigma2_col = 2
        assert sens[g1_row, sigma2_col] == pytest.approx(1.0, abs=1e-6)

    def test_independence_theta_block_closed_form(self):
        data, _ = random_dataset(N=40, M=5, p=2, seed=22)
        block = one_block(data)
        fit = fit_block(block, "gee-independence")
        expected = np.einsum(
            "nmp,nmq->pq", block.X, block.X
        ) / (block.n * fit.zeta_hat[0])
        np.testing.assert_allclose(fit.sensitivity[:2, :2], expected, rtol=1e-10)

    def test_fd_step_shrinks_near_tiny_variance(self):
        # at sigma^2 = 1e-16 the central-difference oracle must not step the
        # variance negative on a noiseless block, and the closed form stays
        # finite there too.  The closed form builds the block's moments,
        # which reject an exact fit (TestExactFit), so it is taken on the
        # same design with noise at 1e-6 of the signal
        data, theta0 = random_dataset(N=30, M=5, p=3, seed=23)
        zeta = np.array([1e-16, 0.0])
        clean = signal_block(data, theta0, 0.0)
        assert np.all(np.isfinite(oracles.fd_sensitivity(clean, theta0, zeta, "gee-ar1")))
        near = signal_block(data, theta0, 1e-6)
        assert np.all(np.isfinite(sample_sensitivity(near, theta0, zeta, "gee-ar1")))

    @pytest.mark.parametrize("kind", ["gee-ar1", "gee-exchangeable", "gee-independence"])
    def test_gee_matches_central_differences_everywhere(self, kind):
        # every row and column of the closed form against the all-numeric
        # oracle, on 20 random blocks at points off the root, where no
        # column vanishes
        rng = np.random.default_rng(610)
        worst = 0.0
        for trial in range(20):
            p = int(rng.integers(1, 4))
            # one block of the whole response (the generator reads no J)
            design = make_ar1_design(
                N=int(rng.integers(40, 120)),
                M=int(rng.integers(2, 12)),
                J=1,
                theta0=tuple(rng.uniform(-2.0, 2.0, p)),
                sigma=float(rng.uniform(0.5, 3.0)),
                rho=float(rng.uniform(-0.3, 0.7)),
                seed=610 + trial,
            )
            block = one_block(simstudy.generate(design, 0))
            fit = fit_block(block, kind)
            theta = fit.theta_hat + rng.normal(0.0, 0.3, p)
            zeta = fit.zeta_hat * rng.uniform(0.7, 1.3, fit.d)
            analytic = sample_sensitivity(block, theta, zeta, kind)
            fd = oracles.fd_sensitivity(block, theta, zeta, kind)
            rows = np.max(np.abs(fd), axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / rows)))
        assert worst <= 1e-5



@pytest.mark.parametrize("kind", KINDS)
class TestExactFit:
    # responses that are an exact linear fit of the covariates leave start
    # residuals at round-off: the moments reject the block before any
    # iteration can report a fit with sigma^2 ~ 1e-32 or overflow
    def test_exact_fit_is_rejected_without_a_warning(self, kind):
        data, theta0 = random_dataset(N=30, M=5, p=3, seed=1)
        block = signal_block(data, theta0, 0.0)
        message = r"block \(0, 0\): the responses are an exact linear fit of the covariates"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=message):
                fit_block(block, kind)

    def test_noisy_fit_is_accepted(self, kind):
        # noise at 1e-6 of the signal is far above the bound: every kind
        # builds its moments, and the GEE kinds converge.  The CL Newton
        # tests its score against an absolute tolerance that round-off in
        # its 1 / sigma^2 terms keeps it from meeting at this sigma^2 (about
        # 3e-12), so CL is fitted at 1e-4
        data, theta0 = random_dataset(N=30, M=5, p=3, seed=1)
        block_moments([signal_block(data, theta0, 1e-6)], kind)
        noise = 1e-4 if kind == "cl-ar1" else 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_block(signal_block(data, theta0, noise), kind)
        assert fit.converged
        np.testing.assert_allclose(fit.theta_hat, theta0, atol=1e-3)


def hand_block(j, k, n, m, seed, p=3):
    """A hand-built block (j, k) of n subjects and m responses."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m, p))
    y = X @ np.array([0.3, 0.6, 0.8][:p]) + rng.standard_normal((n, m))
    return partition.BlockData(j=j, k=k, y=y, X=X, subject_indices=np.arange(n))


class TestBlockShape:
    # solve_blocks checks every block's shape before any data pass, for
    # every kind, and names the first bad block in list order
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_response_needs_no_rho(self, kind):
        block = hand_block(0, 2, n=40, m=1, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if nuisance_dim(kind) == 1:
                assert fit_block(block, kind).converged
                return
            with pytest.raises(SolverError) as info:
                fit_block(block, kind)
        assert str(info.value) == f"block (0, 2): m=1 too small; {kind} needs m >= 2 for rho"

    @pytest.mark.parametrize(
        "entry", ["block_moments", "block_means", "sample_sensitivity", "eval_scores"]
    )
    @pytest.mark.parametrize("kind", ["gee-ar1", "gee-exchangeable", "cl-ar1"])
    def test_one_response_is_named_by_the_moments_too(self, kind, entry):
        # the entry points that take a block without solve_blocks name an
        # m = 1 block under a kind with a rho, with solve_blocks' error
        block = hand_block(0, 2, n=40, m=1, seed=3)
        theta, zeta = np.array([0.3, 0.6, 0.8]), np.array([1.0, 0.2])
        call = {
            "block_moments": lambda: block_moments([block], kind),
            "block_means": lambda: block_means(block_moments([block], kind), theta, [zeta], kind),
            "sample_sensitivity": lambda: sample_sensitivity(block, theta, zeta, kind),
            "eval_scores": lambda: eval_scores([block], theta, [zeta], kind),
        }[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError) as info:
                call()
        assert str(info.value) == f"block (0, 2): m=1 too small; {kind} needs m >= 2 for rho"

    @pytest.mark.parametrize("kind", KINDS)
    def test_too_few_subjects_in_a_stack_names_the_first(self, kind):
        # the second and third blocks have n = p + d and n = p + d - 1
        d = nuisance_dim(kind)
        blocks = [
            hand_block(j, k, n, 4, seed=7 + n)
            for (j, k), n in zip([(0, 0), (3, 1), (0, 2)], (30, 3 + d, 2 + d))
        ]
        with pytest.raises(SolverError) as info:
            solve_blocks(blocks, kind)
        assert str(info.value) == f"block (3, 1): n={3 + d} too small for p+d={3 + d} parameters"

    @pytest.mark.parametrize("kind", KINDS)
    def test_shape_is_checked_before_the_moments(self, kind):
        # an exact fit in the first block, too few subjects in the second
        data, theta0 = random_dataset(N=30, M=5, p=3, seed=1)
        exact = signal_block(data, theta0, 0.0)
        small = hand_block(1, 0, n=3, m=5, seed=4)
        with pytest.raises(SolverError, match=r"^block \(1, 0\): n=3 too small"):
            solve_blocks([exact, small], kind)


def stack_of_blocks():
    """Twelve blocks in sorted key order, as fit_dataset stacks them: M = 7
    on J = 3 gives response blocks of 3, 2 and 2 (two buckets per group),
    N = 130 on K = 4 groups of 33, 33, 32 and 32 subjects."""
    data, _ = random_dataset(N=130, M=7, p=2, seed=23)
    plan = partition.make_plan(data.M, data.N, 3, 4, strategy="seeded-random", seed=4)
    blocks = partition.split(data, plan)
    return [blocks[key] for key in sorted(blocks)]


def poisoned_jacobians(monkeypatch, entries):
    """Make the Jacobians of every solve non-finite at ``entries``, rows of
    (block, r, c, value) in stack order."""
    original = engines.block_means

    def block_means(moments, theta, zetas, kind, jacobian=False):
        rows, jac = original(moments, theta, zetas, kind, jacobian)
        if jacobian:
            jac = jac.copy()
            for b, r, c, value in entries:
                jac[b, r, c] = value
        return rows, jac

    monkeypatch.setattr(engines, "block_means", block_means)


class TestFinalNorm:
    """solve_blocks forms every block's final norm from one mean per slab
    of scores; fit_block only packages a row."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_final_norm_is_the_norm_of_the_mean_score(self, kind):
        blocks = stack_of_blocks()
        rows = solve_blocks(blocks, kind)
        stacked = [fit_block(block, kind, solution=row) for block, row in zip(blocks, rows)]
        alone = [fit_block(block, kind) for block in blocks]  # stacks of one
        for fit in stacked + alone:
            expected = np.float64(np.linalg.norm(fit.scores.mean(axis=0)))
            assert np.float64(fit.final_norm).tobytes() == expected.tobytes()
            assert type(fit.final_norm) is float
        assert [fit.final_norm for fit in stacked] == [fit.final_norm for fit in alone]
        assert [row.final_norm for row in rows] == [fit.final_norm for fit in stacked]

    def test_a_row_is_only_packaged(self):
        # the row's sensitivity and norm are taken as they are
        block = one_block(random_dataset(N=60, M=6, p=3, seed=17)[0])
        row = solve_blocks([block], "gee-ar1")[0]
        row = row._replace(sensitivity=np.full_like(row.sensitivity, np.nan), final_norm=-1.0)
        fit = fit_block(block, "gee-ar1", solution=row)
        assert fit.sensitivity is row.sensitivity and fit.final_norm == -1.0


class TestFiniteSensitivity:
    """solve_blocks checks the stacked sensitivities at once and names the
    first non-finite entry of the first block that has one."""

    @pytest.mark.parametrize("kind", ["gee-ar1", "cl-ar1"])
    def test_first_non_finite_entry_is_named(self, kind, monkeypatch):
        # a stack of one poisoned at (3, 0) and at (1, 2): the message names
        # the first in row-major order
        block = one_block(random_dataset(N=60, M=6, p=3, seed=17)[0])
        poisoned_jacobians(monkeypatch, [(0, 3, 0, np.inf), (0, 1, 2, np.nan)])
        message = r"^non-finite sensitivity entry at \(1, 2\)$"
        with pytest.raises(NumericDomainError, match=message):
            fit_block(block, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_non_finite_block_is_named(self, kind, monkeypatch):
        # blocks 5 and 9 of the stack are poisoned; block 5's first entry in
        # row-major order, (1, 2), is named, as fit_block named it alone
        blocks = stack_of_blocks()
        poisoned_jacobians(monkeypatch, [(5, 2, 0, np.inf), (5, 1, 2, np.nan), (9, 0, 0, -np.inf)])
        with pytest.raises(NumericDomainError, match=r"^non-finite sensitivity entry at \(1, 2\)$"):
            solve_blocks(blocks, kind)


class TestRhoClamp:
    def test_clamped_gee_fit_is_not_converged(self):
        fit = fit_block(one_block(near_unit_root_dataset()), "gee-ar1")
        assert fit.rho_clamped
        assert fit.zeta_hat[1] == gee.RHO_LIMIT
        assert not fit.converged

    def test_clamped_cl_fit_is_not_converged(self, monkeypatch):
        # Newton does not reach a root beyond the clamp on such data, so the
        # solver's clamped outcome is stubbed: (theta, zeta, converged,
        # iterations, rho_clamped)
        def clamped_solution(moments, key, tol, max_iter):
            theta = np.array([0.5, 1.0, 1.5])
            return theta, np.array([1.0, composite.RHO_LIMIT]), True, 4, True

        monkeypatch.setattr(composite, "fit_cl_block", clamped_solution)
        fit = fit_block(one_block(near_unit_root_dataset()), "cl-ar1")
        assert fit.rho_clamped
        assert not fit.converged


class TestSolverOptions:
    def test_iteration_cap_returns_unconverged_fit(self):
        data, _ = random_dataset(N=60, M=6, p=3, seed=24)
        block = one_block(data)
        fit = fit_block(
            block, "gee-ar1", SolverOptions(tol=1e-15, max_iter=1)
        )
        assert not fit.converged
        assert fit.iterations == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("tol", float("nan"), "tol = nan is not a finite number > 0"),
            ("tol", float("inf"), "tol = inf is not a finite number > 0"),
            ("tol", -1.0, "tol = -1.0 is not a finite number > 0"),
            ("tol", 0.0, "tol = 0.0 is not a finite number > 0"),
            ("tol", "1e-8", "tol = '1e-8' is not a finite number > 0"),
            ("max_iter", 0, "max_iter = 0 is not an integer >= 1"),
            ("max_iter", -5, "max_iter = -5 is not an integer >= 1"),
            ("max_iter", 2.5, "max_iter = 2.5 is not an integer >= 1"),
            ("max_iter", 100.0, "max_iter = 100.0 is not an integer >= 1"),
            ("tol", True, "tol = True is not a finite number > 0"),
            ("max_iter", True, "max_iter = True is not an integer >= 1"),
        ],
        ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "tol-string", "max_iter-0",
             "max_iter-negative", "max_iter-fraction", "max_iter-float", "tol-bool",
             "max_iter-bool"],
    )
    def test_bad_option_is_a_solver_error_naming_it(self, field, value, message):
        with pytest.raises(SolverError) as info:
            SolverOptions(**{field: value})
        assert str(info.value) == message

    def test_numpy_scalars_are_accepted(self):
        opts = SolverOptions(tol=np.float64(1e-10), max_iter=np.int64(5))
        assert (opts.tol, opts.max_iter) == (1e-10, 5)
