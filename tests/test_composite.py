import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgmm import composite, partition, simstudy
from blockgmm.engines import fit_block, sample_sensitivity
from blockgmm.errors import NumericDomainError, SolverError

import oracles
from conftest import column_subset, make_ar1_design, random_dataset


def one_block(data):
    plan = partition.make_plan(data.M, data.N, 1, 1, strategy="contiguous")
    return partition.split(data, plan)[(0, 0)]


def fit_cl(block):
    """The CL solve of one block from its lag moments: (theta, zeta,
    converged, iterations, rho_clamped)."""
    return composite.fit_cl_block(composite._lag_moments(block), (block.j, block.k))


def pairwise_loglik(block, theta, sigma2, rho):
    """Direct mean pairwise bivariate-normal log-likelihood (oracle)."""
    resid = block.y - block.X @ theta
    total = 0.0
    m = block.m
    npairs = m * (m - 1) / 2
    for r in range(m - 1):
        for t in range(r + 1, m):
            c = rho ** (t - r)
            a, b = resid[:, r], resid[:, t]
            q = a * a - 2 * c * a * b + b * b
            ll = (
                -np.log(2 * np.pi)
                - np.log(sigma2)
                - 0.5 * np.log(1 - c * c)
                - q / (2 * sigma2 * (1 - c * c))
            )
            total += ll.mean()
    return total / npairs


def pair_loop_scores(block, theta, zeta):
    """Per-subject averaged pair scores by a loop over all m(m-1)/2 pairs
    (oracle for the lag-vectorised kernel)."""
    sigma2, rho = float(zeta[0]), float(zeta[1])
    n, m, p = block.n, block.m, block.p
    X = block.X
    resid = block.y - X @ theta
    grad_theta = np.zeros((n, p))
    grad_v = np.zeros(n)
    grad_rho = np.zeros(n)
    npairs = m * (m - 1) // 2
    for r in range(m - 1):
        a = resid[:, r]
        xa = X[:, r, :]
        for t in range(r + 1, m):
            b = resid[:, t]
            xb = X[:, t, :]
            lag = t - r
            c = rho**lag
            omc = 1.0 - c * c
            q = a * a - 2.0 * c * a * b + b * b
            grad_theta += ((a - c * b)[:, None] * xa + (b - c * a)[:, None] * xb) / (
                sigma2 * omc
            )
            grad_v += -1.0 / sigma2 + q / (2.0 * sigma2 * sigma2 * omc)
            dc = c / omc + a * b / (sigma2 * omc) - q * c / (sigma2 * omc * omc)
            grad_rho += dc * lag * rho ** (lag - 1)
    out = np.empty((n, p + 2))
    out[:, :p] = grad_theta / npairs
    out[:, p] = grad_v / npairs
    out[:, p + 1] = grad_rho / npairs
    return out


def pair_loop_mean_score_u(block, u):
    """Oracle mean score in u = (theta, log sigma, atanh rho)."""
    p = block.p
    sigma = np.exp(u[p])
    rho = np.tanh(u[p + 1])
    s = pair_loop_scores(block, u[:p], np.array([sigma * sigma, rho])).mean(axis=0)
    s[p] *= 2.0 * sigma * sigma
    s[p + 1] *= 1.0 - rho * rho
    return s


def jacobian_fd(block, u, h=1e-6):
    """Central-difference Jacobian of the oracle u-scale mean score."""
    dim = u.size
    jac = np.empty((dim, dim))
    for a in range(dim):
        step = h * max(1.0, abs(u[a]))
        up, um = u.copy(), u.copy()
        up[a] += step
        um[a] -= step
        jac[:, a] = (
            pair_loop_mean_score_u(block, up) - pair_loop_mean_score_u(block, um)
        ) / (2.0 * step)
    return jac


def sensitivity_fd(block, theta, zeta, h=1e-6):
    """Negative central-difference Jacobian of the oracle mean score on the
    natural (theta, sigma^2, rho) scale."""
    params = np.concatenate([theta, zeta])
    dim = params.size
    p = block.p
    sens = np.empty((dim, dim))
    for a in range(dim):
        step = h * max(1.0, abs(params[a]))
        up, um = params.copy(), params.copy()
        up[a] += step
        um[a] -= step
        fp = pair_loop_scores(block, up[:p], up[p:]).mean(axis=0)
        fm = pair_loop_scores(block, um[:p], um[p:]).mean(axis=0)
        sens[:, a] = -(fp - fm) / (2.0 * step)
    return sens


def random_cl_blocks(count, seed):
    """Single blocks of random size, variance and correlation with their
    pairwise-CL fits (criterion 6's design ranges)."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        design = make_ar1_design(
            N=int(rng.integers(40, 120)),
            M=int(rng.integers(4, 12)),
            J=1,
            K=1,
            sigma=float(rng.uniform(0.5, 3.0)),
            rho=float(rng.uniform(-0.3, 0.7)),
            seed=seed + trial,
        )
        block = one_block(simstudy.generate(design, 0))
        theta, zeta, converged, *_ = fit_cl(block)
        assert converged
        yield block, theta, zeta


def mean_terms(block, theta, zeta):
    """Mean score row and exact Hessian at (theta, zeta) from the block's
    lag moments."""
    return composite._mean_terms(composite._lag_moments(block), theta, zeta, hessian=True)


def relative_error(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


class TestLagVectorisedKernel:
    @pytest.mark.parametrize(
        "M, rho", [(2, 0.45), (7, -0.6), (6, 0.0), (12, 0.93), (9, -0.97)]
    )
    def test_scores_match_pair_loop(self, M, rho):
        data, theta0 = random_dataset(N=35, M=M, p=3, seed=40 + M)
        block = one_block(data)
        theta, zeta = theta0 + 0.2, np.array([1.7, rho])
        expected = pair_loop_scores(block, theta, zeta)
        assert relative_error(composite.cl_scores(block, theta, zeta), expected) <= 1e-12

    def test_scores_match_pair_loop_on_every_block_of_a_split(self, ar1_dataset):
        plan = partition.make_plan(
            ar1_dataset.M, ar1_dataset.N, 3, 2, strategy="seeded-random", seed=4
        )
        blocks = partition.split(column_subset(ar1_dataset, (0, 2)), plan)
        assert len(blocks) == 6
        for block in blocks.values():
            theta, zeta = np.array([0.2, 0.9]), np.array([3.5, 0.45])
            expected = pair_loop_scores(block, theta, zeta)
            assert relative_error(composite.cl_scores(block, theta, zeta), expected) <= 1e-12

    def test_hessian_at_rho_zero_is_finite_and_exact(self):
        data, theta0 = random_dataset(N=40, M=5, p=2, seed=41)
        block = one_block(data)
        theta, zeta = theta0 - 0.1, np.array([0.8, 0.0])
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _, hess = mean_terms(block, theta, zeta)
        assert relative_error(-hess, sensitivity_fd(block, theta, zeta)) <= 1e-5

    def test_hessian_is_symmetric(self):
        data, theta0 = random_dataset(N=40, M=8, p=3, seed=42)
        block = one_block(data)
        _, hess = mean_terms(block, theta0, np.array([1.1, -0.4]))
        np.testing.assert_array_equal(hess, hess.T)


@st.composite
def cl_points(draw):
    """A one-block split (M in [2, 12], 1 to 3 covariates, all of them or a
    column subset) and a point (theta, sigma^2, rho) off the root."""
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
    moments = composite._lag_moments(block)
    offset = draw(st.lists(st.floats(-1.0, 1.0), min_size=block.p, max_size=block.p))
    theta = moments.start + np.array(offset)
    rho = draw(st.just(0.0) | st.floats(-0.97, 0.97))
    zeta = np.array([draw(st.floats(0.2, 5.0)), rho])
    return block, moments, theta, zeta


class TestLagSumTerms:
    # The lag-sum terms and the data-pass oracle add the same pair terms in
    # a different order: lag sums of [X, r0] with corrections in delta
    # against residual sums at theta.  So they agree to round-off: at most
    # 66 pair terms (M = 12) of float64 (eps 2.2e-16), amplified by at most
    # 1 / (1 - rho^2)^2, about 300 at |rho| = 0.97, in the rho entries, or
    # 66 * 300 * eps = 4.4e-12; hence 1e-11.  The worst seen over 3 000
    # random points was 5e-15 (score, relative to its largest entry) and
    # 1.1e-13 (Hessian, relative to each row's largest entry), while a
    # wrong term would move an entry at order one.
    TOL = 1e-11

    @settings(max_examples=200, deadline=None)
    @given(point=cl_points())
    def test_mean_score_and_hessian_match_the_data_pass(self, point):
        block, moments, theta, zeta = point
        score, hess = composite._mean_terms(moments, theta, zeta, hessian=True)
        expected_score, expected_hess = oracles.cl_pass_terms(block, theta, zeta)
        assert np.max(np.abs(score - expected_score)) <= self.TOL * np.max(
            np.abs(expected_score)
        )
        rows = np.max(np.abs(expected_hess), axis=1, keepdims=True)
        assert np.max(np.abs(hess - expected_hess) / rows) <= self.TOL


class TestAnalyticDerivatives:
    def test_sensitivity_matches_finite_differences_on_random_blocks(self):
        worst = 0.0
        for block, theta, zeta in random_cl_blocks(20, seed=640):
            analytic = sample_sensitivity(block, theta, zeta, "cl-ar1")
            worst = max(worst, relative_error(analytic, sensitivity_fd(block, theta, zeta)))
        assert worst <= 1e-5, worst

    def test_newton_jacobian_matches_finite_differences_on_random_blocks(self):
        rng = np.random.default_rng(660)
        worst = 0.0
        for block, theta, zeta in random_cl_blocks(20, seed=660):
            # away from the root as well, where the reparameterization's
            # second-derivative terms are non-zero
            u = np.concatenate(
                [theta, [0.5 * np.log(zeta[0]), np.arctanh(zeta[1])]]
            ) + rng.uniform(-0.3, 0.3, block.p + 2)
            moments = composite._lag_moments(block)
            _, jac = composite._u_terms(moments, u, hessian=True)
            worst = max(worst, relative_error(jac, jacobian_fd(block, u)))
        assert worst <= 1e-5, worst


class TestClScores:
    def test_score_is_gradient_of_pairwise_loglik(self):
        data, _ = random_dataset(N=25, M=5, p=2, seed=13)
        block = one_block(data)
        theta = np.array([0.4, 0.9])
        sigma2, rho = 1.3, 0.35
        scores = composite.cl_scores(block, theta, np.array([sigma2, rho]))
        mean_score = scores.mean(axis=0)

        h = 1e-6
        grad = np.empty(4)
        params = np.array([theta[0], theta[1], sigma2, rho])

        def ll(v):
            return pairwise_loglik(block, v[:2], v[2], v[3])

        for a in range(4):
            up, um = params.copy(), params.copy()
            up[a] += h
            um[a] -= h
            grad[a] = (ll(up) - ll(um)) / (2 * h)
        np.testing.assert_allclose(mean_score, grad, rtol=1e-5, atol=1e-7)

    def test_domain_violations_raise(self):
        data, _ = random_dataset(N=10, M=4, p=2, seed=14)
        block = one_block(data)
        with pytest.raises(NumericDomainError):
            composite.cl_scores(block, np.zeros(2), np.array([-1.0, 0.1]))
        with pytest.raises(NumericDomainError):
            composite.cl_scores(block, np.zeros(2), np.array([1.0, 1.0]))


class TestFitClBlock:
    def test_m2_matches_exact_bivariate_mle(self):
        design = make_ar1_design(N=120, M=2, J=1, K=1, sigma=1.5, rho=0.4, seed=31)
        block = one_block(simstudy.generate(design, 0))
        theta, zeta, converged, *_ = fit_cl(block)
        assert converged

        # oracle: direct maximization of the exact bivariate log-likelihood
        def negll(u):
            sigma2 = np.exp(2 * u[3])
            rho = np.tanh(u[4])
            return -pairwise_loglik(block, u[:3], sigma2, rho)

        u0 = np.concatenate(
            [theta + 0.05, [0.5 * np.log(zeta[0]) + 0.1, np.arctanh(zeta[1]) - 0.1]]
        )
        res = scipy.optimize.minimize(
            negll, u0, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000},
        )
        np.testing.assert_allclose(theta, res.x[:3], atol=1e-6)

    def test_rho_zero_data_agrees_with_ols(self):
        design = make_ar1_design(N=400, M=6, J=1, K=1, sigma=2.0, rho=0.0, seed=32)
        block = one_block(simstudy.generate(design, 0))
        theta, zeta, converged, *_ = fit_cl(block)
        assert converged
        x = block.X.reshape(-1, 3)
        y = block.y.reshape(-1)
        ols = np.linalg.solve(x.T @ x, x.T @ y)
        se = np.sqrt(
            np.mean((y - x @ ols) ** 2) * np.diag(np.linalg.inv(x.T @ x))
        )
        assert np.all(np.abs(theta - ols) <= 3 * se)
        assert abs(zeta[1]) < 0.1

    def test_root_property_at_solution(self, ar1_dataset):
        block = one_block(ar1_dataset)
        theta, zeta, converged, *_ = fit_cl(block)
        assert converged
        scores = composite.cl_scores(block, theta, zeta)
        # the solver works on the rescaled (log sigma, atanh rho) score;
        # both vanish together at an interior root
        assert np.linalg.norm(scores.mean(axis=0)) <= 1e-6

    def test_recovers_true_parameters(self):
        design = make_ar1_design(N=300, M=8, J=1, K=1, sigma=2.0, rho=0.6, seed=33)
        block = one_block(simstudy.generate(design, 0))
        theta, zeta, converged, *_ = fit_cl(block)
        assert converged
        np.testing.assert_allclose(theta, design.theta0, atol=0.15)
        assert abs(zeta[0] - 4.0) < 0.6
        assert abs(zeta[1] - 0.6) < 0.08

    def test_too_few_subjects_raises(self):
        data, _ = random_dataset(N=4, M=4, p=3, seed=15)
        with pytest.raises(SolverError, match="too small"):
            fit_block(one_block(data), "cl-ar1")
