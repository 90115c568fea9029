"""The subject group's bucket as the unit of the GEE data passes.

``partition.split`` gathers each subject group once per run of
equal-size response blocks, and a block's arrays are views of that
bucket; ``engines.solve_blocks`` takes the GEE moments of a bucket's
blocks in one batched pass.  A block keeps its bits whether it is fitted
alone (a hand-built block, a bucket of one), in its bucket or in
``fit_dataset``, and a bad block in a bucket is named as it is alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgmm import partition, simstudy
from blockgmm.dataio import Dataset
from blockgmm.engines import (
    KINDS,
    block_moments,
    fit_block,
    sample_sensitivity,
    solve_blocks,
)
from blockgmm.errors import NumericDomainError, SolverError

import oracles
from conftest import column_subset, make_ar1_design


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _alone(block) -> partition.BlockData:
    """The block rebuilt from copies of its arrays: a bucket of one."""
    return partition.BlockData(
        j=block.j, k=block.k, y=block.y.copy(), X=block.X.copy(),
        subject_indices=block.subject_indices,
    )


def _buckets(blocks) -> list:
    """The distinct buckets of a split, in first-seen order."""
    return list({id(block.bucket): block.bucket for block in blocks.values()}.values())


@st.composite
def two_bucket_fits(draw):
    """A kind, a strategy and a dataset on a column subset (or all
    columns) whose M is not a multiple of J, so that every group has two
    buckets."""
    kind = draw(st.sampled_from(KINDS))
    J = draw(st.integers(2, 4))
    K = draw(st.integers(1, 3))
    M = J * draw(st.integers(2, 3)) + draw(st.integers(1, J - 1))
    N = K * draw(st.integers(14, 30))
    seed = draw(st.integers(0, 10**6))
    cols = draw(st.sampled_from([None, (0, 2), (2, 1, 0), (1, 0)]))
    strategy = draw(st.sampled_from(partition.GROUP_STRATEGIES))
    # the global-ar1 generator reads neither J nor K, so the design takes
    # J = K = 1: its groups may be too small for their weights, and the
    # tests compare block fits only
    data = simstudy.generate(make_ar1_design(N=N, M=M, J=1, K=1, seed=seed), 0)
    return kind, column_subset(data, cols), J, K, strategy, seed


class TestBucketBits:
    @settings(max_examples=25, deadline=None)
    @given(case=two_bucket_fits())
    def test_alone_in_its_bucket_and_in_fit_dataset(self, case):
        kind, data, J, K, strategy, seed = case
        plan = partition.make_plan(data.M, data.N, J, K, strategy=strategy, seed=seed)
        blocks = partition.split(data, plan)
        stacked = oracles.stacked_fits(blocks, kind)
        in_bucket = {}
        for bucket in _buckets(blocks):
            members = [blocks[key] for key in bucket.keys]
            rows = solve_blocks(members, kind)
            in_bucket.update(
                ((block.j, block.k), fit_block(block, kind, None, row))
                for block, row in zip(members, rows)
            )
        assert in_bucket.keys() == stacked.keys()
        for key, fit in stacked.items():
            alone_block = _alone(blocks[key])
            alone = fit_block(alone_block, kind)
            for other in (in_bucket[key], alone):
                for field in ("theta_hat", "zeta_hat", "scores", "sensitivity"):
                    assert _same_bits(getattr(fit, field), getattr(other, field)), (key, field)
                assert len(fit.moments) == len(other.moments)
                for ours, theirs in zip(fit.moments, other.moments):
                    assert _same_bits(ours, theirs), key
                assert (fit.iterations, fit.converged, fit.rho_clamped, fit.final_norm) == (
                    other.iterations, other.converged, other.rho_clamped, other.final_norm
                )
            for ours, theirs in zip(fit.moments, block_moments([alone_block], kind)[0]):
                assert _same_bits(ours, theirs), key
            sens = sample_sensitivity(alone_block, fit.theta_hat, fit.zeta_hat, kind)
            assert _same_bits(sens, fit.sensitivity), key

    @settings(max_examples=20, deadline=None)
    @given(case=two_bucket_fits())
    def test_a_chunk_holding_part_of_a_bucket(self, case):
        # the blocks of a sorted-key chunk, as a worker gets them: each
        # bucket's share of the chunk is a slice of it
        kind, data, J, K, strategy, seed = case
        if kind == "cl-ar1":
            kind = "gee-ar1"
        plan = partition.make_plan(data.M, data.N, J, K, strategy=strategy, seed=seed)
        blocks = partition.split(data, plan)
        keys = sorted(blocks)
        whole = dict(zip(keys, solve_blocks([blocks[key] for key in keys], kind)))
        cut = len(keys) // 2 + len(keys) % 2  # J >= 2, so both parts hold a block
        for part in (keys[:cut], keys[cut:]):
            for key, row in zip(part, solve_blocks([blocks[key] for key in part], kind)):
                for ours, theirs in zip(row, whole[key]):
                    if isinstance(ours, tuple):
                        assert all(_same_bits(a, b) for a, b in zip(ours, theirs)), key
                    else:
                        assert _same_bits(ours, theirs), key


class TestBucketMemory:
    @pytest.mark.parametrize("cols", [None, (2, 0)])
    @pytest.mark.parametrize("strategy", partition.GROUP_STRATEGIES)
    def test_a_group_shares_one_bucket_per_size(self, strategy, cols):
        data = simstudy.generate(make_ar1_design(N=45, M=11, seed=5), 0)
        plan = partition.make_plan(11, 45, 3, 3, strategy=strategy, seed=5)
        assert plan.block_sizes == (4, 4, 3)
        blocks = partition.split(column_subset(data, cols), plan)
        for k in range(plan.K):
            group = [blocks[(j, k)] for j in range(plan.J)]
            by_size = {}
            for block in group:
                by_size.setdefault(block.m, set()).add(id(block.bucket))
                for name in ("y", "X"):
                    assert np.shares_memory(getattr(block, name), getattr(block.bucket, name))
                assert block.y.flags.c_contiguous and block.X.flags.c_contiguous
            assert {m: len(ids) for m, ids in by_size.items()} == {4: 1, 3: 1}
            a, b = group[0], group[1]
            assert a.bucket is b.bucket and (a.slot, b.slot) == (0, 1)
            assert np.shares_memory(a.bucket.y, b.y)
            assert not np.shares_memory(group[0].bucket.y, group[2].bucket.y)
        assert not np.shares_memory(blocks[(0, 0)].bucket.X, blocks[(0, 1)].bucket.X)

    def test_a_pickled_block_keeps_its_views_and_layout(self):
        # a worker's blocks have the strides, and so the fits, of the serial ones
        import pickle

        data = simstudy.generate(make_ar1_design(N=30, M=8, seed=6), 0)
        plan = partition.make_plan(8, 30, 2, 2, strategy="contiguous")
        blocks = partition.split(data, plan)
        a, b = pickle.loads(pickle.dumps([blocks[(0, 1)], blocks[(1, 1)]]))
        assert a.bucket is b.bucket
        assert np.shares_memory(a.y, b.bucket.y) and np.shares_memory(b.X, a.bucket.X)
        for ours, theirs in ((a, blocks[(0, 1)]), (b, blocks[(1, 1)])):
            for name in ("y", "X"):
                got, want = getattr(ours, name), getattr(theirs, name)
                assert _same_bits(got, want) and got.strides == want.strides, name


class TestBadBlockInABucket:
    """J = 3, K = 2 on M = 9: each group's three blocks share one bucket."""

    @staticmethod
    def _data(exact=(), zero=(), huge=()):
        data = simstudy.generate(make_ar1_design(N=60, M=9, seed=3), 0)
        plan = partition.make_plan(9, 60, 3, 2, strategy="contiguous")
        responses, covariates = data.responses.copy(), data.covariates.copy()
        for j, k in zero:
            rows, cols = plan.subject_indices(k), plan.response_indices(j)
            covariates[np.ix_(rows, cols, [2])] = 0.0
        for j, k in exact:
            rows, cols = plan.subject_indices(k), plan.response_indices(j)
            block = covariates[np.ix_(rows, cols)]
            responses[np.ix_(rows, cols)] = block @ np.array([0.3, 0.6, 0.8])
        for j, k in huge:
            # finite responses whose squares overflow
            rows, cols = plan.subject_indices(k), plan.response_indices(j)
            responses[np.ix_(rows, cols)] *= 1e156
        data = Dataset(responses=responses, covariates=covariates, subject_ids=data.subject_ids)
        return data, plan

    @staticmethod
    def _error(call, error=SolverError) -> str:
        with pytest.raises(error) as info:
            call()
        return str(info.value)

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_fit_is_named(self, kind):
        data, plan = self._data(exact=[(1, 1)])
        blocks = partition.split(data, plan)
        assert blocks[(1, 1)].bucket is blocks[(0, 1)].bucket
        fitted = self._error(lambda: simstudy.fit_dataset(data, 3, 2, kind))
        assert fitted.startswith("block (1, 1): the responses are an exact linear fit")
        assert fitted == self._error(lambda: fit_block(_alone(blocks[(1, 1)]), kind))
        bucket = [blocks[key] for key in blocks[(1, 1)].bucket.keys]
        assert fitted == self._error(lambda: solve_blocks(bucket, kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_overflowing_sums_of_squares_are_named(self, kind):
        # inf <= 1e-20 * inf holds, so the overflow is checked before the exact fit
        data, plan = self._data(huge=[(1, 1)])
        blocks = partition.split(data, plan)
        fitted = self._error(lambda: simstudy.fit_dataset(data, 3, 2, kind), NumericDomainError)
        assert fitted.startswith("block (1, 1): the sums of squares of the responses overflow")
        alone = self._error(lambda: fit_block(_alone(blocks[(1, 1)]), kind), NumericDomainError)
        assert fitted == alone
        bucket = [blocks[key] for key in blocks[(1, 1)].bucket.keys]
        assert fitted == self._error(lambda: solve_blocks(bucket, kind), NumericDomainError)

    def test_an_overflow_in_an_earlier_bucket_names_the_first_bad_block(self):
        # group 0's bucket is passed first and overflows in block (1, 0), but
        # block (0, 1) comes first in sorted order
        data, _ = self._data(exact=[(0, 1)], huge=[(1, 0)])
        fitted = self._error(lambda: simstudy.fit_dataset(data, 3, 2, "gee-ar1"))
        assert fitted.startswith("block (0, 1): the responses are an exact linear fit")

    @pytest.mark.parametrize("kind", ["gee-ar1", "gee-exchangeable", "gee-independence"])
    def test_singular_design_is_named(self, kind):
        data, plan = self._data(zero=[(2, 0)])
        blocks = partition.split(data, plan)
        fitted = self._error(lambda: simstudy.fit_dataset(data, 3, 2, kind))
        assert fitted == "singular weighted normal equations in block (2, 0)"
        assert fitted == self._error(lambda: fit_block(_alone(blocks[(2, 0)]), kind))
        bucket = [blocks[key] for key in blocks[(2, 0)].bucket.keys]
        assert fitted == self._error(lambda: solve_blocks(bucket, kind))

    @pytest.mark.parametrize(
        "exact, zero, named",
        [
            # sorted keys run (0, 0), (0, 1), (1, 0), ...: the first bad one is named
            ([(2, 0)], [(1, 1)], "singular weighted normal equations in block (1, 1)"),
            ([(1, 1)], [(2, 0)], "block (1, 1): the responses are an exact linear fit"),
            ([(2, 1)], [(2, 0)], "singular weighted normal equations in block (2, 0)"),
            ([(0, 0)], [(1, 0)], "block (0, 0): the responses are an exact linear fit"),
        ],
    )
    def test_the_first_bad_block_in_sorted_order_is_named(self, exact, zero, named):
        data, _ = self._data(exact=exact, zero=zero)
        assert self._error(lambda: simstudy.fit_dataset(data, 3, 2, "gee-ar1")).startswith(named)
