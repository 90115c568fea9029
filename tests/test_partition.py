import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgmm import partition, simstudy
from blockgmm.errors import PlanError

import oracles
from conftest import random_dataset


class TestMakePlan:
    def test_near_equal_block_sizes_ceiling_first(self):
        plan = partition.make_plan(M=10, N=6, J=3, K=2, strategy="contiguous")
        assert plan.block_sizes == (4, 3, 3)
        assert plan.group_sizes == (3, 3)

    def test_blocks_are_contiguous_in_entry_order(self):
        plan = partition.make_plan(M=7, N=4, J=2, K=1, strategy="contiguous")
        np.testing.assert_array_equal(plan.response_indices(0), [0, 1, 2, 3])
        np.testing.assert_array_equal(plan.response_indices(1), [4, 5, 6])

    def test_contiguous_groups(self):
        plan = partition.make_plan(M=4, N=5, J=1, K=2, strategy="contiguous")
        np.testing.assert_array_equal(plan.subject_indices(0), [0, 1, 2])
        np.testing.assert_array_equal(plan.subject_indices(1), [3, 4])

    def test_seeded_random_groups_are_reproducible(self):
        a = partition.make_plan(M=4, N=50, J=1, K=3, strategy="seeded-random", seed=9)
        b = partition.make_plan(M=4, N=50, J=1, K=3, strategy="seeded-random", seed=9)
        c = partition.make_plan(M=4, N=50, J=1, K=3, strategy="seeded-random", seed=10)
        assert a == b and a != c
        for k in range(3):
            np.testing.assert_array_equal(a.subject_indices(k), b.subject_indices(k))
        assert not np.array_equal(a.subject_indices(0), c.subject_indices(0))

    def test_rejects_blocks_smaller_than_two(self):
        with pytest.raises(PlanError, match="J=3 blocks of >= 2 responses"):
            partition.make_plan(M=5, N=4, J=3, K=1)

    def test_rejects_more_groups_than_subjects(self):
        with pytest.raises(PlanError, match="K=3 groups need 1 <= K <= N"):
            partition.make_plan(M=4, N=2, J=1, K=3)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(PlanError, match="strategy"):
            partition.make_plan(M=4, N=4, J=1, K=1, strategy="alphabetical")

    @settings(max_examples=50, deadline=None)
    @given(
        M=st.integers(2, 40),
        N=st.integers(1, 60),
        J=st.integers(1, 6),
        K=st.integers(1, 6),
        seed=st.integers(0, 10),
    )
    def test_plan_invariants(self, M, N, J, K, seed):
        if 2 * J > M or K > N:
            return
        plan = partition.make_plan(M, N, J, K, strategy="seeded-random", seed=seed)
        assert sum(plan.block_sizes) == M
        assert sum(plan.group_sizes) == N
        assert max(plan.block_sizes) - min(plan.block_sizes) <= 1
        assert max(plan.group_sizes) - min(plan.group_sizes) <= 1
        assert min(plan.block_sizes) >= 2
        for j in range(J):
            assert plan.response_indices(j).size == plan.block_sizes[j]
        for k in range(K):
            assert plan.subject_indices(k).size == plan.group_sizes[k]


class TestSplit:
    def test_block_shapes(self):
        data, _ = random_dataset(N=10, M=9, p=2, seed=1)
        plan = partition.make_plan(9, 10, J=3, K=2, strategy="contiguous")
        blocks = partition.split(data, plan)
        assert set(blocks) == {(j, k) for j in range(3) for k in range(2)}
        assert blocks[(0, 0)].y.shape == (5, 3)
        assert blocks[(0, 1)].y.shape == (5, 3)
        assert blocks[(0, 0)].X.shape == (5, 3, 2)

    def test_rows_align_across_blocks_of_a_group(self):
        data, _ = random_dataset(N=12, M=6, p=2, seed=2)
        plan = partition.make_plan(6, 12, J=2, K=3, strategy="seeded-random", seed=4)
        blocks = partition.split(data, plan)
        for k in range(3):
            np.testing.assert_array_equal(
                blocks[(0, k)].subject_indices, blocks[(1, k)].subject_indices
            )
            assert np.all(np.diff(blocks[(0, k)].subject_indices) > 0)

    @settings(max_examples=25, deadline=None)
    @given(
        N=st.integers(2, 30),
        M=st.integers(4, 20),
        J=st.integers(1, 4),
        K=st.integers(1, 4),
        seed=st.integers(0, 5),
    )
    def test_split_reassemble_round_trip(self, N, M, J, K, seed):
        if 2 * J > M or K > N:
            return
        data, _ = random_dataset(N=N, M=M, p=2, seed=seed)
        plan = partition.make_plan(M, N, J, K, strategy="seeded-random", seed=seed)
        blocks = partition.split(data, plan)
        np.testing.assert_array_equal(
            oracles.reassemble(blocks, plan), data.responses
        )

    def test_theta_cols_selects_design_columns(self):
        data, _ = random_dataset(N=6, M=4, p=3, seed=3)
        plan = partition.make_plan(4, 6, J=1, K=1, strategy="contiguous")
        blocks = partition.split(data, plan, theta_cols=(0, 2))
        assert blocks[(0, 0)].p == 2
        np.testing.assert_array_equal(
            blocks[(0, 0)].design, data.covariates[:, :, [0, 2]]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        block_sizes=st.lists(st.integers(2, 7), min_size=1, max_size=5),
        group_sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        strategy=st.sampled_from(partition.GROUP_STRATEGIES),
        seed=st.integers(0, 2**20),
        q=st.integers(1, 4),
        data=st.data(),
    )
    def test_blocks_equal_ix_gather_oracle(
        self, block_sizes, group_sizes, strategy, seed, q, data
    ):
        theta_cols = data.draw(
            st.none() | st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True)
        )
        plan = partition.PartitionPlan(
            block_sizes=tuple(block_sizes), group_sizes=tuple(group_sizes),
            strategy=strategy, seed=seed,
        )
        dataset, _ = random_dataset(N=plan.N, M=plan.M, p=q, seed=seed % 97)
        blocks = partition.split(dataset, plan, theta_cols=theta_cols)
        expected = oracles.ix_split(dataset, plan, theta_cols)
        assert blocks.keys() == expected.keys()
        for key, (y, X, design) in expected.items():
            block = blocks[key]
            for got, want in ((block.y, y), (block.X, X), (block.design, design)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert block.y.flags.c_contiguous and block.X.flags.c_contiguous

    @pytest.mark.parametrize(
        "theta_cols, message",
        [
            ((), "theta_cols is empty"),
            ((0, 0), r"theta_cols \(0, 0\) repeats a column"),
            ((1.5,), r"theta_cols must be integers, got \(1.5,\)"),
            ((0, 3), r"theta_cols \(0, 3\) out of range for q=3"),
        ],
        ids=["empty", "duplicated", "non-integer", "out-of-range"],
    )
    def test_bad_theta_cols_are_a_plan_error(self, theta_cols, message):
        data, _ = random_dataset(N=20, M=4, p=3, seed=3)
        with pytest.raises(PlanError, match=message):
            simstudy.fit_dataset(data, 2, 2, "gee-ar1", theta_cols=theta_cols)

    def test_numpy_integer_theta_cols_are_accepted(self):
        data, _ = random_dataset(N=6, M=4, p=3, seed=3)
        plan = partition.make_plan(4, 6, J=1, K=1, strategy="contiguous")
        block = partition.split(data, plan, theta_cols=np.array([2, 0]))[(0, 0)]
        assert block.theta_cols == (2, 0)
        np.testing.assert_array_equal(block.design, data.covariates[:, :, [2, 0]])

    def test_dimension_mismatch_is_an_error(self):
        data, _ = random_dataset(N=6, M=4, p=2, seed=3)
        plan = partition.make_plan(6, 6, J=1, K=1, strategy="contiguous")
        with pytest.raises(PlanError, match="do not match"):
            partition.split(data, plan)


class TestPlanSerialization:
    def test_save_load_round_trip(self, tmp_path):
        plan = partition.make_plan(10, 17, J=3, K=4, strategy="seeded-random", seed=6)
        path = tmp_path / "plan.txt"
        oracles.save_plan(plan, path)
        loaded = oracles.load_plan(path)
        assert loaded == plan
        for k in range(plan.K):
            np.testing.assert_array_equal(loaded.subject_indices(k), plan.subject_indices(k))

    def test_text_holds_sizes_strategy_and_seed_only(self):
        plan = partition.make_plan(7, 9, J=2, K=3, strategy="seeded-random", seed=2)
        assert partition.format_plan(plan) == (
            "strategy = seeded-random\nseed = 2\nblock_sizes = 4,3\ngroup_sizes = 3,3,3\n"
        )

    def test_file_holds_the_formatted_text(self, tmp_path):
        plan = partition.make_plan(7, 9, J=2, K=3, strategy="seeded-random", seed=2)
        path = tmp_path / "plan.txt"
        oracles.save_plan(plan, path)
        text = path.read_text()
        assert text == partition.format_plan(plan)
        again = partition.parse_plan(text, "plan")
        assert partition.format_plan(again) == text

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed = 2", "seed = two", "plan: plan field seed = 'two' is not an integer"),
            ("seed = 2", "seed = 1,2", "plan: plan field seed = '1,2' is not an integer"),
            ("seed = 2", "seed = -1", "plan: seed must be >= 0, got -1"),
            ("block_sizes = 4,3", "block_sizes = 4,x", "block_sizes = '4,x' is not a list"),
            ("block_sizes = 4,3", "block_sizes = 4,2.5", "block_sizes = '4,2.5' is not a list"),
            ("group_sizes = 3,3,3", "group_sizes = 3,3.0,3", "group_sizes = '3,3.0,3' is not"),
            ("block_sizes = 4,3", "block_sizes = 6,1", "every block needs >= 2 responses"),
            ("group_sizes = 3,3,3", "group_sizes = 9,0", "every group needs >= 1 subject"),
            ("strategy = seeded-random", "strategy = alphabetical",
             "plan: unknown group strategy 'alphabetical'"),
        ],
    )
    def test_malformed_plan_text_is_an_error(self, old, new, message):
        text = partition.format_plan(
            partition.make_plan(7, 9, J=2, K=3, strategy="seeded-random", seed=2)
        )
        assert old in text
        with pytest.raises(PlanError, match=message):
            partition.parse_plan(text.replace(old, new, 1), "plan")

    def test_missing_field_is_an_error(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("strategy = contiguous\nseed = 0\nblock_sizes = 2\n")
        with pytest.raises(PlanError, match="missing plan field 'group_sizes'"):
            oracles.load_plan(path)

    @settings(max_examples=100, deadline=None)
    @given(
        block_sizes=st.lists(st.integers(2, 9), min_size=1, max_size=6),
        group_sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        strategy=st.sampled_from(partition.GROUP_STRATEGIES),
        seed=st.integers(0, 2**40),
    )
    def test_round_trip_and_label_oracle(self, block_sizes, group_sizes, strategy, seed):
        plan = partition.PartitionPlan(
            block_sizes=tuple(block_sizes), group_sizes=tuple(group_sizes),
            strategy=strategy, seed=seed,
        )
        assert partition.parse_plan(partition.format_plan(plan), "plan") == plan
        subjects = [plan.subject_indices(k) for k in range(plan.K)]
        assert [idx.size for idx in subjects] == group_sizes
        np.testing.assert_array_equal(np.sort(np.concatenate(subjects)), np.arange(plan.N))
        block_of_response, group_of_subject = oracles.plan_labels(plan)
        for k, idx in enumerate(subjects):
            np.testing.assert_array_equal(idx, np.flatnonzero(group_of_subject == k))
        for j in range(plan.J):
            np.testing.assert_array_equal(
                plan.response_indices(j), np.flatnonzero(block_of_response == j)
            )


class TestPlanCheck:
    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(block_sizes=()), "need J >= 1 and K >= 1, got J=0, K=2"),
            (dict(group_sizes=()), "need J >= 1 and K >= 1, got J=2, K=0"),
            (dict(block_sizes=(3, 1)), "every block needs >= 2 responses"),
            (dict(group_sizes=(4, 0)), "every group needs >= 1 subject"),
            (dict(group_sizes=(4, 2.5)), "sizes and seed must be integers"),
            (dict(seed=1.0), "sizes and seed must be integers"),
            (dict(strategy="alphabetical"), "unknown group strategy"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
        ],
    )
    def test_hand_built_plan_is_checked(self, fields, message):
        base = dict(block_sizes=(3, 3), group_sizes=(4, 4), strategy="contiguous", seed=0)
        with pytest.raises(PlanError, match=message):
            partition.PartitionPlan(**{**base, **fields})

    def test_numpy_integers_become_plain_ints(self):
        plan = partition.PartitionPlan(
            block_sizes=np.array([2, 3]), group_sizes=(np.int64(4),),
            strategy="contiguous", seed=np.int64(7),
        )
        assert plan == partition.PartitionPlan((2, 3), (4,), "contiguous", 7)
        assert (plan.J, plan.K, plan.M, plan.N) == (2, 1, 5, 4)
