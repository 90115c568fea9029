import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgmm import partition
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
        np.testing.assert_array_equal(
            plan.block_of_response, [0, 0, 0, 0, 1, 1, 1]
        )

    def test_contiguous_groups(self):
        plan = partition.make_plan(M=4, N=5, J=1, K=2, strategy="contiguous")
        np.testing.assert_array_equal(plan.group_of_subject, [0, 0, 0, 1, 1])

    def test_seeded_random_groups_are_reproducible(self):
        a = partition.make_plan(M=4, N=50, J=1, K=3, strategy="seeded-random", seed=9)
        b = partition.make_plan(M=4, N=50, J=1, K=3, strategy="seeded-random", seed=9)
        c = partition.make_plan(M=4, N=50, J=1, K=3, strategy="seeded-random", seed=10)
        np.testing.assert_array_equal(a.group_of_subject, b.group_of_subject)
        assert not np.array_equal(a.group_of_subject, c.group_of_subject)

    def test_explicit_block_map(self):
        plan = partition.make_plan(
            M=4, N=2, J=2, K=1, block_map=[1, 0, 1, 0], strategy="contiguous"
        )
        assert plan.block_sizes == (2, 2)
        np.testing.assert_array_equal(plan.response_indices(0), [1, 3])

    def test_rejects_blocks_smaller_than_two(self):
        with pytest.raises(PlanError, match="M >= 6"):
            partition.make_plan(M=5, N=4, J=3, K=1)
        with pytest.raises(PlanError, match=">= 2 responses"):
            partition.make_plan(M=3, N=4, J=2, K=1, block_map=[0, 0, 1])

    def test_rejects_more_groups_than_subjects(self):
        with pytest.raises(PlanError, match="exceed"):
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
        assert loaded.J == plan.J and loaded.K == plan.K
        assert loaded.block_sizes == plan.block_sizes
        assert loaded.group_sizes == plan.group_sizes
        np.testing.assert_array_equal(
            loaded.block_of_response, plan.block_of_response
        )
        np.testing.assert_array_equal(
            loaded.group_of_subject, plan.group_of_subject
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
            ("J = 2", "J = two", "J = 'two' is not an integer"),
            ("K = 3", "K = 1,2", "K = '1,2' is not an integer"),
            ("block_of_response = 0,", "block_of_response = x,", "is not a list of integers"),
            ("block_of_response = 0,", "block_of_response = -1,", "holds -1 at position 0"),
            ("group_of_subject = ", "group_of_subject = 3,", "holds 3 at position 0, outside 0..2"),
            ("J = 2", "J = 99", "J = 99 and K = 3 do not fit 7 responses"),
            ("K = 3", "K = 0", "J = 2 and K = 0 do not fit"),
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
        path.write_text("J = 2\nK = 1\n")
        with pytest.raises(PlanError, match="missing plan field"):
            oracles.load_plan(path)
