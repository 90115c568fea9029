import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgmm import partition, simstudy
from blockgmm.combine import combine, save_bundle
from blockgmm.dataio import Dataset
from blockgmm.engines import KINDS, fit_block, nuisance_dim
from blockgmm.errors import BlockGmmError, DataError, SolverError

import oracles
from conftest import column_subset, make_ar1_design, near_unit_root_dataset


class TestRandomPdMatrix:
    def test_one_by_one_is_unit(self):
        np.testing.assert_array_equal(simstudy.random_pd_matrix(1, 0), [[1.0]])

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_positive_definite_unit_diagonal(self, seed):
        s = simstudy.random_pd_matrix(5, seed)
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-12)
        np.testing.assert_allclose(s, s.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(s)) > 0

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            simstudy.random_pd_matrix(4, 3), simstudy.random_pd_matrix(4, 3)
        )
        assert not np.array_equal(
            simstudy.random_pd_matrix(4, 3), simstudy.random_pd_matrix(4, 4)
        )


class TestSimDesignValidation:
    def test_kronecker_requires_divisible_m(self):
        with pytest.raises(DataError, match="divisible"):
            simstudy.SimDesign(family="kronecker-nested", M=10, J=3)

    def test_rho_domain(self):
        with pytest.raises(DataError, match="rho"):
            simstudy.SimDesign(family="global-ar1", rho=1.0)

    def test_reps_positive(self):
        with pytest.raises(DataError, match="reps"):
            simstudy.SimDesign(family="global-ar1", reps=0)

    def test_unknown_family(self):
        with pytest.raises(DataError, match="family"):
            simstudy.SimDesign(family="toeplitz")

    @pytest.mark.parametrize("overrides, message", [
        (dict(N=0), "N must be >= 1, got 0"),
        (dict(M=-2), "M must be >= 1, got -2"),
        (dict(J=0), "J must be >= 1, got 0"),
        (dict(K=0), "K must be >= 1, got 0"),
        (dict(theta0=()), "theta0 is empty"),
        (dict(sigma=0.0), "sigma must be finite and positive, got 0.0"),
        (dict(sigma=float("nan")), "sigma must be finite and positive, got nan"),
        (dict(sigma=float("inf")), "sigma must be finite and positive, got inf"),
    ], ids=["N", "M", "J", "K", "theta0", "sigma-zero", "sigma-nan", "sigma-inf"])
    @pytest.mark.parametrize("family", simstudy.FAMILIES)
    def test_bad_field_is_named_when_the_design_is_built(self, family, overrides, message):
        # not a ZeroDivisionError, an IndexError or a failure of every replication
        with pytest.raises(DataError, match=f"^{message}"):
            simstudy.SimDesign(family=family, **overrides)

    @pytest.mark.parametrize("field, message", [
        ("method", "unknown method 'foo'"),
        ("working", "unknown working structure 'foo'"),
    ])
    def test_unknown_method_or_working(self, field, message):
        # rejected when the design is built, not by every replication
        with pytest.raises(SolverError, match=message):
            simstudy.SimDesign(family="global-ar1", **{field: "foo"})

    @pytest.mark.parametrize("method, working, kind", [
        ("gee", "ar1", "gee-ar1"),
        ("gee", "independence", "gee-independence"),
        ("cl", "ar1", "cl-ar1"),
        ("cl", "exchangeable", "cl-ar1"),
    ])
    def test_kind(self, method, working, kind):
        assert simstudy.SimDesign(method=method, working=working).kind == kind


class TestGenerators:
    def test_seed_stability(self):
        design = make_ar1_design(N=20, M=6)
        a = simstudy.generate(design, rep=2)
        b = simstudy.generate(design, rep=2)
        c = simstudy.generate(design, rep=3)
        np.testing.assert_array_equal(a.responses, b.responses)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        assert not np.array_equal(a.responses, c.responses)

    @pytest.mark.parametrize(
        "seed, reps",
        [(12345, (0, 3)), (2**32, (2**32, 2**32 + 7)), (2**64 - 1, (1, 2**64 + 5))],
        ids=["small", "two-word", "wide"],
    )
    @pytest.mark.parametrize(
        "family, overrides",
        [
            ("global-ar1", dict()),
            ("global-ar1", dict(rho=-0.6)),
            ("global-ar1", dict(rho=0.0)),
            ("global-ar1", dict(theta0=(0.7,))),
            ("global-ar1", dict(M=2, J=1)),
            ("kronecker-nested", dict()),
            ("kronecker-nested", dict(theta0=(0.7,), M=20, J=4)),
            ("kronecker-nested", dict(theta0=(0.2, 0.4), M=9, J=3, rho=-0.3)),
            ("kronecker-nested", dict(M=5, J=5)),
        ],
        ids=["ar1", "ar1-negative-rho", "ar1-zero-rho", "ar1-p1", "ar1-M2",
             "kron", "kron-p1", "kron-p2", "kron-m1"],
    )
    def test_generator_is_bit_identical_to_subject_loop(self, family, overrides, seed, reps):
        design = make_ar1_design(N=40, family=family, seed=seed, **overrides)
        loop_gen = {"global-ar1": oracles.gen_ar1_loop,
                    "kronecker-nested": oracles.gen_kronecker_loop}[family]
        for rep in reps:
            fast = simstudy.generate(design, rep)
            loop = loop_gen(design, rep)
            assert fast.responses.tobytes() == loop.responses.tobytes()
            assert fast.covariates.tobytes() == loop.covariates.tobytes()
            assert fast.subject_ids == loop.subject_ids

    # SHA-256 of responses then covariates (little-endian float64), recorded
    # from the per-subject SeedSequence generators: a stream change shows
    # here even if the oracle loops above change along with the generators
    @pytest.mark.parametrize(
        "design, rep, digest",
        [
            (simstudy.SimDesign(family="kronecker-nested", N=25, M=12, J=3, K=1,
                                seed=7, reps=1), 2,
             "ba777b78d7fba1f73901ef1dc5365dd7bb8c19ec12578e3ade91bcf3be132932"),
            (simstudy.SimDesign(family="global-ar1", N=25, M=10, J=2, K=1,
                                seed=2**33 + 5, reps=1), 2**32 + 1,
             "7c86d648d22bb1f521fe19c73085f7ea0ba1b611768c27297e398ab5547f824d"),
        ],
        ids=["kronecker-nested", "global-ar1"],
    )
    def test_generated_bytes_are_pinned(self, design, rep, digest):
        data = simstudy.generate(design, rep)
        sha = hashlib.sha256()
        for values in (data.responses, data.covariates):
            sha.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
        assert sha.hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        rep=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_subject_states_equal_numpy_seed_sequences(self, seed, rep, data):
        n = data.draw(st.integers(1, 300), label="n")
        i = data.draw(st.integers(0, n - 1), label="i")
        states = simstudy.subject_states(seed, rep, n)
        assert states.shape == (n, 4) and states.dtype == np.uint64
        for k in {0, n - 1, i}:
            seq = np.random.SeedSequence([seed, rep, k])
            np.testing.assert_array_equal(states[k], seq.generate_state(4, np.uint64))
        # and the subject's stream is numpy's default_rng for that sequence
        design = make_ar1_design(N=n, M=3, theta0=(0.1, 0.2), seed=seed)
        expected = np.random.default_rng(np.random.SeedSequence([seed, rep, i])).standard_normal(6)
        draws = dict(simstudy._subject_draws(design, rep))
        np.testing.assert_array_equal(draws[i], expected)

    def test_ar1_recursion_equals_dense_cholesky_construction(self):
        # generator fidelity against the dense covariance oracle (M <= 40):
        # reconstruct the same errors from the same z using the Cholesky
        # factor of the full AR(1) covariance matrix
        design = simstudy.SimDesign(
            family="global-ar1", N=15, M=24, J=2, K=1,
            sigma=3.0, rho=0.7, reps=1, seed=99,
        )
        data = simstudy.generate(design, rep=0)
        m = design.M
        cov = design.sigma**2 * design.rho ** np.abs(
            np.subtract.outer(np.arange(m), np.arange(m))
        )
        chol = np.linalg.cholesky(cov)
        theta0 = np.asarray(design.theta0)
        for i in range(design.N):
            rng = oracles.subject_rng(design.seed, 0, i)
            x = oracles.subject_covariates(rng, m, design.p)
            z = rng.standard_normal(m)
            expected = x @ theta0 + chol @ z
            np.testing.assert_allclose(data.responses[i], expected, atol=1e-10)

    def test_kronecker_equals_factorwise_construction(self):
        # L_S Z L_A' flattened must equal the dense kron(L_S, L_A) @ vec(Z)
        design = simstudy.SimDesign(
            family="kronecker-nested", N=10, M=12, J=3, K=1,
            sigma=2.0, rho=0.5, reps=1, seed=17,
        )
        data = simstudy.generate(design, rep=0)
        m = design.M // design.J
        s_factor = np.linalg.cholesky(
            simstudy.random_pd_matrix(design.J, design.seed)
        )
        a_factor = design.sigma * np.linalg.cholesky(
            design.rho ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        )
        dense_factor = np.kron(s_factor, a_factor)
        theta0 = np.asarray(design.theta0)
        for i in range(design.N):
            rng = oracles.subject_rng(design.seed, 0, i)
            x = oracles.subject_covariates(rng, design.M, design.p)
            z = rng.standard_normal((design.J, m))
            expected = x @ theta0 + dense_factor @ z.reshape(-1)
            np.testing.assert_allclose(data.responses[i], expected, atol=1e-10)

    def test_ar1_moments_match_target(self):
        design = simstudy.SimDesign(
            family="global-ar1", N=4000, M=6, J=2, K=1,
            sigma=6.0, rho=0.8, reps=1, seed=5,
        )
        data = simstudy.generate(design, rep=0)
        err = data.responses - data.covariates @ np.asarray(design.theta0)
        n = design.N
        var = err.var(axis=0, ddof=1)
        # 4-SE bands (variance of a sample variance of normals: 2 sigma^4 / n)
        var_se = np.sqrt(2.0 / n) * 36.0
        assert np.all(np.abs(var - 36.0) <= 4 * var_se)
        lag2 = np.mean(
            [np.corrcoef(err[:, t], err[:, t + 2])[0, 1] for t in range(4)]
        )
        assert abs(lag2 - 0.64) <= 4 / np.sqrt(n)

    def test_kronecker_cross_block_covariance(self):
        design = simstudy.SimDesign(
            family="kronecker-nested", N=4000, M=8, J=2, K=1,
            sigma=4.0, rho=0.8, reps=1, seed=6,
        )
        data = simstudy.generate(design, rep=0)
        err = data.responses - data.covariates @ np.asarray(design.theta0)
        s = simstudy.random_pd_matrix(2, design.seed)
        # same within-block position, different blocks: cov = S_{12} sigma^2
        c = np.cov(err[:, 0], err[:, 4])[0, 1]
        assert abs(c - s[0, 1] * 16.0) <= 4 * 16.0 / np.sqrt(design.N)
        # lag-1 within-block correlation ~ rho
        lag1 = np.corrcoef(err[:, 0], err[:, 1])[0, 1]
        assert abs(lag1 - 0.8) <= 4 / np.sqrt(design.N)


class TestFitDataset:
    @settings(max_examples=25, deadline=None)
    @given(
        J=st.integers(1, 3),
        K=st.integers(1, 3),
        kind=st.sampled_from(["gee-ar1", "gee-exchangeable", "gee-independence", "cl-ar1"]),
        strategy=st.sampled_from(["contiguous", "seeded-random"]),
        seed=st.integers(0, 10**6),
    )
    def test_permuting_subjects_within_groups_keeps_estimates(
        self, J, K, kind, strategy, seed
    ):
        design = make_ar1_design(N=30 * K, M=3 * J + 2, seed=seed)
        data = simstudy.generate(design, 0)
        plan = partition.make_plan(data.M, data.N, J, K, strategy=strategy, seed=seed)
        perm = np.arange(data.N)
        rng = np.random.default_rng(seed)
        for k in range(K):
            rows = plan.subject_indices(k)
            perm[rows] = rng.permutation(rows)
        shuffled = Dataset(
            responses=data.responses[perm],
            covariates=data.covariates[perm],
            subject_ids=tuple(data.subject_ids[i] for i in perm),
        )
        fits = []
        for dataset in (data, shuffled):
            bundle, _ = simstudy.fit_dataset(dataset, J, K, kind, strategy=strategy, seed=seed)
            fit = combine(bundle)
            fits.append((fit.theta, np.sqrt(fit.variances[: design.p])))
        for a, b in zip(*fits):
            np.testing.assert_allclose(b, a, rtol=1e-10, atol=0)


def _bundle_bytes(bundle) -> bytes:
    buf = io.BytesIO()
    save_bundle(bundle, buf)
    return buf.getvalue()


@st.composite
def stacked_fits(draw):
    """A kind and a dataset whose J response blocks differ in size (M not a
    multiple of J); in some GEE cases block 0 is a near-unit-root process
    that the solver clamps, so the stack's blocks stop at different
    iterations (CL Newton finds no root on such data)."""
    kind = draw(st.sampled_from(KINDS))
    J = draw(st.integers(2, 4))
    K = draw(st.integers(1, 3))
    M = J * draw(st.integers(2, 3)) + draw(st.integers(1, J - 1))
    N = K * draw(st.integers(12, 30))
    seed = draw(st.integers(0, 10**6))
    data = simstudy.generate(make_ar1_design(N=N, M=M, J=J, K=K, seed=seed), 0)
    if kind != "cl-ar1" and draw(st.booleans()):
        m0 = partition.make_plan(M, N, J, K).block_sizes[0]
        near = near_unit_root_dataset(N=N, M=m0, seed=seed % 1000)
        responses, covariates = data.responses.copy(), data.covariates.copy()
        responses[:, :m0], covariates[:, :m0] = near.responses, near.covariates
        data = Dataset(responses=responses, covariates=covariates, subject_ids=data.subject_ids)
    return kind, data, J, K, draw(st.sampled_from(["contiguous", "seeded-random"])), seed


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestStackedSolve:
    @settings(max_examples=30, deadline=None)
    @given(case=stacked_fits())
    def test_a_block_fit_does_not_depend_on_its_stack(self, case):
        kind, data, J, K, strategy, seed = case
        bundle, blocks = simstudy.fit_dataset(data, J, K, kind, strategy=strategy, seed=seed)
        for key, fit in bundle.fits.items():
            alone = fit_block(blocks[key], kind)
            for field in ("theta_hat", "zeta_hat", "scores", "sensitivity"):
                assert _same_bits(getattr(fit, field), getattr(alone, field)), (key, field)
            assert len(fit.moments) == len(alone.moments)
            for ours, theirs in zip(fit.moments, alone.moments):
                assert _same_bits(ours, theirs), key
            assert (fit.iterations, fit.converged, fit.rho_clamped) == (
                alone.iterations, alone.converged, alone.rho_clamped
            )

    @pytest.mark.parametrize("kind", ["gee-ar1", "gee-exchangeable"])
    def test_blocks_leave_the_stack_at_different_iterations(self, kind):
        # block 0 holds a near-unit-root process; every block still has its
        # solo bits, iteration count and flags (an independence alternation
        # stops after its first step on every block)
        N, m0 = 100, 6
        data = simstudy.generate(make_ar1_design(N=N, M=11, seed=9), 0)
        near = near_unit_root_dataset(N=N, M=m0)
        responses, covariates = data.responses.copy(), data.covariates.copy()
        responses[:, :m0], covariates[:, :m0] = near.responses, near.covariates
        data = Dataset(responses=responses, covariates=covariates, subject_ids=data.subject_ids)
        bundle, blocks = simstudy.fit_dataset(data, 2, 2, kind)
        records = set()
        for key, fit in bundle.fits.items():
            alone = fit_block(blocks[key], kind)
            assert _same_bits(fit.theta_hat, alone.theta_hat)
            assert _same_bits(fit.zeta_hat, alone.zeta_hat)
            assert _same_bits(fit.sensitivity, alone.sensitivity)
            records.add((fit.iterations, fit.rho_clamped))
            assert (fit.iterations, fit.rho_clamped) == (alone.iterations, alone.rho_clamped)
        assert len(records) > 1
        if kind == "gee-ar1":
            assert bundle.fits[(0, 0)].rho_clamped and not bundle.fits[(1, 0)].rho_clamped


class TestBadBlockInAStack:
    """A bad block among good ones raises the SolverError its solo fit
    raises, naming it, and no numpy error escapes."""

    @staticmethod
    def _solo_error(data, J, K, key, kind):
        plan = partition.make_plan(data.M, data.N, J, K, strategy="contiguous")
        with pytest.raises(SolverError) as info:
            fit_block(partition.split(data, plan)[key], kind)
        return str(info.value)

    @pytest.mark.parametrize("kind", ["gee-ar1", "gee-exchangeable", "gee-independence"])
    def test_singular_normal_equations(self, kind):
        data = simstudy.generate(make_ar1_design(N=60, M=8, seed=3), 0)
        covariates = data.covariates.copy()
        covariates[30:, :, 2] = 0.0  # a zero covariate column in group 1
        data = Dataset(
            responses=data.responses, covariates=covariates, subject_ids=data.subject_ids
        )
        with pytest.raises(SolverError) as info:
            simstudy.fit_dataset(data, 2, 2, kind)
        assert str(info.value) == "singular weighted normal equations in block (0, 1)"
        assert str(info.value) == self._solo_error(data, 2, 2, (0, 1), kind)

    @pytest.mark.parametrize("kind", ["gee-ar1", "gee-exchangeable", "gee-independence"])
    def test_too_few_subjects(self, kind):
        # groups of 6 and 5 subjects: group 1 has n = 5 <= p + d for d = 2,
        # and for d = 1 a third group of 4 = p + d does
        K = 2 if nuisance_dim(kind) == 2 else 3
        N = 11 if K == 2 else 14
        data = simstudy.generate(make_ar1_design(N=N, M=8, seed=4), 0)
        sizes = partition.make_plan(data.M, N, 2, K, strategy="contiguous").group_sizes
        bad = max(k for k in range(K) if sizes[k] <= 3 + nuisance_dim(kind))
        with pytest.raises(SolverError) as info:
            simstudy.fit_dataset(data, 2, K, kind)
        assert str(info.value).startswith(f"block (0, {bad}): n={sizes[bad]} too small")
        assert str(info.value) == self._solo_error(data, 2, K, (0, bad), kind)


class TestWorkerInvariance:
    @settings(max_examples=10, deadline=None)
    @given(
        J=st.integers(1, 3),
        K=st.integers(1, 3),
        kind=st.sampled_from(KINDS),
        strategy=st.sampled_from(["contiguous", "seeded-random"]),
        seed=st.integers(0, 10**6),
        cols=st.sampled_from([None, (2, 0), (1,)]),
    )
    def test_bundle_bytes_equal_for_one_and_two_workers(self, J, K, kind, strategy, seed, cols):
        data = simstudy.generate(make_ar1_design(N=20 * K, M=3 * J + 1, seed=seed), 0)
        data = column_subset(data, cols)
        serial, _ = simstudy.fit_dataset(data, J, K, kind, strategy=strategy, seed=seed)
        parallel, _ = simstudy.fit_dataset(
            data, J, K, kind, strategy=strategy, seed=seed, workers=2
        )
        assert _bundle_bytes(parallel) == _bundle_bytes(serial)

    def test_one_group_is_still_cut_into_two_chunks(self, monkeypatch):
        # K = 1, J = 3: the three blocks go to two worker processes as
        # chunks of one and two blocks
        mapped = []

        class Pool(simstudy.ProcessPoolExecutor):
            def __init__(self, max_workers):
                mapped.append(max_workers)
                super().__init__(max_workers=max_workers)

            def map(self, fn, jobs):
                jobs = list(jobs)
                mapped.append([len(chunk) for chunk, _, _ in jobs])
                return super().map(fn, jobs)

        monkeypatch.setattr(simstudy, "ProcessPoolExecutor", Pool)
        data = simstudy.generate(make_ar1_design(N=40, M=9, seed=8), 0)
        serial, _ = simstudy.fit_dataset(data, 3, 1, "gee-ar1")
        assert mapped == []
        parallel, _ = simstudy.fit_dataset(data, 3, 1, "gee-ar1", workers=2)
        assert mapped == [2, [1, 2]]
        assert _bundle_bytes(parallel) == _bundle_bytes(serial)


class TestRunReplications:
    def test_deterministic_across_worker_counts(self):
        design = make_ar1_design(N=60, M=6, J=2, K=2, reps=2)
        serial = simstudy.run_replications(design, workers=1)
        parallel = simstudy.run_replications(design, workers=2)
        for a, b in zip(serial, parallel):
            assert a["rep"] == b["rep"]
            assert a["theta"] == b["theta"]
            assert a["ase"] == b["ase"]
            assert a["overid_stat"] == b["overid_stat"]

    def test_smoke_design_has_zero_failures(self):
        design = make_ar1_design(N=200, M=20, J=2, K=2, reps=2)
        rows = simstudy.run_replications(design)
        assert all(r["ok"] for r in rows)
        assert [r["rep"] for r in rows] == [0, 1]


class TestGridPlotData:
    M_VALUES, K_VALUES = (4, 6), (1, 2, 3)

    @staticmethod
    def _design(family):
        return simstudy.SimDesign(
            family=family, N=60, M=4, J=2, K=1, sigma=2.0, rho=0.5, reps=3, seed=21
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family", simstudy.FAMILIES)
    def test_rows_equal_one_study_per_cell(self, family, workers):
        design = self._design(family)
        grid = simstudy.grid_plot_data(design, self.M_VALUES, self.K_VALUES, workers=workers)
        expected = []
        for m in self.M_VALUES:
            for k in self.K_VALUES:
                cell = replace(design, M=m, K=k)
                summ = simstudy.summarize(simstudy.run_replications(cell), cell.theta0)
                expected += [{"M": m, "K": k, **row} for row in summ.rows()]
        assert grid == expected

    def test_each_dataset_is_generated_once_for_every_k(self, monkeypatch):
        calls = []
        generate = simstudy.generate

        def counted(design, rep=0):
            calls.append((design.M, rep))
            return generate(design, rep)

        monkeypatch.setattr(simstudy, "generate", counted)
        design = self._design("global-ar1")
        simstudy.grid_plot_data(design, self.M_VALUES, self.K_VALUES)
        assert calls == [(m, rep) for m in self.M_VALUES for rep in range(design.reps)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_main_study_rides_in_the_grid(self, monkeypatch, workers):
        # the main M = 4 is in the grid and (4, 2) is a cell: its datasets
        # are generated once, and the cell's summary is the main study's
        calls = []
        generate = simstudy.generate

        def counted(design, rep=0):
            calls.append((design.M, rep))
            return generate(design, rep)

        monkeypatch.setattr(simstudy, "generate", counted)
        design = replace(self._design("kronecker-nested"), K=2)
        rows, grid = simstudy.run_study(design, self.M_VALUES, self.K_VALUES, workers=workers)
        if workers == 1:
            assert calls == [(m, rep) for m in self.M_VALUES for rep in range(design.reps)]
        strip = [{**row, "walltime": None} for row in rows]
        assert strip == [{**row, "walltime": None}
                         for row in simstudy.run_replications(design, workers=workers)]
        assert grid == simstudy.grid_plot_data(design, self.M_VALUES, self.K_VALUES)
        main = simstudy.summarize(rows, design.theta0).rows()
        assert [row for row in grid if (row["M"], row["K"]) == (4, 2)] == [
            {"M": 4, "K": 2, **row} for row in main
        ]
        assert simstudy.run_study(design, self.M_VALUES, ())[1] is None

    def test_one_pool_for_the_whole_grid(self, monkeypatch):
        opened = []

        class Pool(simstudy.ProcessPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simstudy, "ProcessPoolExecutor", Pool)
        simstudy.grid_plot_data(self._design("global-ar1"), self.M_VALUES, self.K_VALUES,
                                workers=2)
        assert opened == [2]

    def test_a_failed_fit_fails_only_its_own_cell(self):
        # K = 50 > N = 20 subjects: every replication of that cell fails
        design = make_ar1_design(N=20, M=6, J=2, K=1, reps=2)
        rows = simstudy._one_rep(([replace(design, K=1), replace(design, K=50)], 0))
        assert [r["ok"] for r in rows] == [1, 0]
        assert rows[1]["error"].startswith("K=50")
        with pytest.raises(DataError) as info:
            simstudy.grid_plot_data(design, [6], [1, 50])
        assert str(info.value) == (
            "grid cell M=6, K=50: no successful replications to summarize"
        )


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3, 1.5, None, True])
    def test_fit_dataset_rejects_non_count(self, workers):
        data = simstudy.generate(make_ar1_design(N=40, M=4), 0)
        with pytest.raises(BlockGmmError, match=f"workers = {workers!r} is not a count >= 1"):
            simstudy.fit_dataset(data, 2, 2, "gee-ar1", workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_run_replications_rejects_non_count(self, workers):
        design = make_ar1_design(N=40, M=4, reps=1)
        with pytest.raises(BlockGmmError, match=f"workers = {workers} is not a count >= 1"):
            simstudy.run_replications(design, workers=workers)


class TestSummarize:
    def test_all_estimates_at_truth(self):
        rows = [
            {"rep": r, "ok": 1, "theta": [0.3, 0.6], "ase": [0.1, 0.1]}
            for r in range(3)
        ]
        summ = simstudy.summarize(rows, (0.3, 0.6))
        np.testing.assert_array_equal(summ.bias, 0.0)
        np.testing.assert_array_equal(summ.rmse, 0.0)
        np.testing.assert_array_equal(summ.ese, 0.0)
        np.testing.assert_array_equal(summ.coverage, 1.0)

    def test_two_symmetric_reps(self):
        a = 0.2
        rows = [
            {"rep": 0, "ok": 1, "theta": [0.5 + a], "ase": [1.0]},
            {"rep": 1, "ok": 1, "theta": [0.5 - a], "ase": [1.0]},
        ]
        summ = simstudy.summarize(rows, (0.5,))
        np.testing.assert_allclose(summ.bias, [0.0], atol=1e-15)
        np.testing.assert_allclose(summ.rmse, [a])
        np.testing.assert_allclose(summ.ese, [a * np.sqrt(2)])

    def test_decomposition_identity(self):
        rng = np.random.default_rng(9)
        rows = [
            {
                "rep": r,
                "ok": 1,
                "theta": list(0.5 + 0.1 * rng.standard_normal(2)),
                "ase": [0.1, 0.1],
            }
            for r in range(40)
        ]
        summ = simstudy.summarize(rows, (0.5, 0.5))
        reps = summ.reps
        lhs = summ.rmse**2
        rhs = summ.bias**2 + (reps - 1) / reps * summ.ese**2
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_failed_reps_are_excluded_and_counted(self):
        rows = [
            {"rep": 0, "ok": 1, "theta": [0.5], "ase": [0.1]},
            {"rep": 1, "ok": 0, "theta": [float("nan")], "ase": [float("nan")]},
        ]
        summ = simstudy.summarize(rows, (0.5,))
        assert summ.reps == 1 and summ.failures == 1
        assert summ.failure_rate == 0.5

    def test_no_successes_is_an_error(self):
        rows = [{"rep": 0, "ok": 0, "theta": [np.nan], "ase": [np.nan]}]
        with pytest.raises(DataError, match="no successful"):
            simstudy.summarize(rows, (0.5,))
