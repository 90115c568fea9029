import numpy as np
import pytest

from blockgmm.dataio import Dataset, load_long_csv
from blockgmm.errors import DataError


def write_csv(path, rows, header="subject_id,response_index,y,x_1,x_2"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoadLongCsv:
    def test_round_trip_small_panel(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(
            path,
            [
                "1,1,1.5,1.0,0.2",
                "1,2,2.5,1.0,0.4",
                "2,1,-0.5,1.0,-0.1",
                "2,2,0.5,1.0,0.3",
            ],
        )
        data = load_long_csv(path)
        assert data.N == 2 and data.M == 2 and data.q == 2
        assert data.subject_ids == ("1", "2")
        np.testing.assert_allclose(data.responses, [[1.5, 2.5], [-0.5, 0.5]])
        np.testing.assert_allclose(data.covariates[0, 1], [1.0, 0.4])

    def test_rows_may_arrive_in_any_order(self, tmp_path):
        ordered = tmp_path / "a.csv"
        shuffled = tmp_path / "b.csv"
        rows = ["1,1,1.0,1.0,0.0", "1,2,2.0,1.0,0.0", "2,1,3.0,1.0,0.0", "2,2,4.0,1.0,0.0"]
        write_csv(ordered, rows)
        write_csv(shuffled, rows[::-1])
        a, b = load_long_csv(ordered), load_long_csv(shuffled)
        np.testing.assert_array_equal(a.responses, b.responses)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_numeric_subject_ids_sort_numerically(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(
            path,
            [
                "10,1,1.0,1.0,0.0",
                "10,2,1.0,1.0,0.0",
                "2,1,2.0,1.0,0.0",
                "2,2,2.0,1.0,0.0",
            ],
        )
        data = load_long_csv(path)
        assert data.subject_ids == ("2", "10")

    def test_missing_cell_is_an_error(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["1,1,1.0,1.0,0.0", "1,2,2.0,1.0,0.0", "2,1,3.0,1.0,0.0"])
        with pytest.raises(DataError, match="incomplete panel"):
            load_long_csv(path)

    def test_duplicate_cell_is_an_error(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["1,1,1.0,1.0,0.0", "1,1,2.0,1.0,0.0"])
        with pytest.raises(DataError, match="duplicate"):
            load_long_csv(path)

    def test_non_numeric_field_names_the_line(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["1,1,oops,1.0,0.0"])
        with pytest.raises(DataError, match=r"data.csv:2"):
            load_long_csv(path)

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("subject_id,y,x_1\n1,1.0,1.0\n")
        with pytest.raises(DataError, match="response_index"):
            load_long_csv(path)

    def test_no_covariate_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("subject_id,response_index,y\n1,1,1.0\n")
        with pytest.raises(DataError, match="covariate"):
            load_long_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,2,nan,1.0,0.0", r"non-finite y = nan at \(subject 2, response 2\)"),
            ("2,2,4.0,1.0,inf", r"non-finite x_2 = inf at \(subject 2, response 2\)"),
        ],
    )
    def test_non_finite_cell_is_rejected_at_load(self, tmp_path, row, message):
        path = tmp_path / "data.csv"
        write_csv(path, ["1,1,1.0,1.0,0.0", "1,2,2.0,1.0,0.0", "2,1,3.0,1.0,0.0", row])
        with pytest.raises(DataError, match=message):
            load_long_csv(path)

    def test_covariate_columns_sorted_by_numeric_suffix(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "subject_id,response_index,y,x_10,x_2\n"
            "1,1,0.0,10.0,2.0\n"
            "1,2,0.0,10.0,2.0\n"
        )
        data = load_long_csv(path)
        np.testing.assert_allclose(data.covariates[0, 0], [2.0, 10.0])


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(DataError):
            Dataset(
                responses=np.zeros((2, 3)),
                covariates=np.zeros((2, 4, 1)),
                subject_ids=("a", "b"),
            )

    def test_subject_id_length_validation(self):
        with pytest.raises(DataError):
            Dataset(
                responses=np.zeros((2, 3)),
                covariates=np.zeros((2, 3, 1)),
                subject_ids=("a",),
            )

    def test_first_non_finite_cell_is_named(self):
        responses = np.zeros((3, 4))
        responses[2, 0] = -np.inf
        responses[1, 3] = np.nan
        with pytest.raises(DataError, match=r"y = nan at \(subject b, response 4\)"):
            Dataset(
                responses=responses,
                covariates=np.ones((3, 4, 2)),
                subject_ids=("a", "b", "c"),
            )
