import csv
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgmm.dataio import Dataset, load_long_csv
from blockgmm.errors import DataError


def write_csv(path, rows, header="subject_id,response_index,y,x_1,x_2"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# reference loader: a per-row csv.DictReader loop into a dict of cells,
# copied into the panel cell by cell; load_long_csv must match it bit for bit


def _oracle_sort_key(ids):
    try:
        return sorted(ids, key=int)
    except (TypeError, ValueError):
        return sorted(ids, key=str)


def oracle_load_long_csv(path):
    sid_col, ridx_col, y_col, x_prefix = "subject_id", "response_index", "y", "x_"

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        for col in (sid_col, ridx_col, y_col):
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing required column {col!r}")
        x_cols = [c for c in reader.fieldnames if c.startswith(x_prefix)]
        try:
            x_cols.sort(key=lambda c: int(c[len(x_prefix):]))
        except ValueError:
            x_cols.sort()
        if not x_cols:
            raise DataError(f"{path}: no covariate columns with prefix {x_prefix!r}")

        cells = {}
        for lineno, row in enumerate(reader, start=2):
            sid = row[sid_col]
            try:
                ridx = int(row[ridx_col])
                y = float(row[y_col])
                xs = tuple(float(row[c]) for c in x_cols)
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
            key = (sid, ridx)
            if key in cells:
                raise DataError(
                    f"{path}:{lineno}: duplicate (subject, response_index) = {key}"
                )
            cells[key] = (y, xs)

    if not cells:
        raise DataError(f"{path}: no data rows")

    subjects = _oracle_sort_key({sid for sid, _ in cells})
    indices = sorted({ridx for _, ridx in cells})
    q = len(x_cols)
    N, M = len(subjects), len(indices)

    responses = np.empty((N, M))
    covariates = np.empty((N, M, q))
    for i, sid in enumerate(subjects):
        for t, ridx in enumerate(indices):
            cell = cells.get((sid, ridx))
            if cell is None:
                raise DataError(
                    f"{path}: incomplete panel, missing (subject={sid}, "
                    f"response_index={ridx})"
                )
            responses[i, t] = cell[0]
            covariates[i, t, :] = cell[1]

    return Dataset(responses=responses, covariates=covariates, subject_ids=tuple(subjects))


def assert_bit_identical(a, b):
    for name in ("responses", "covariates"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert y.flags["C_CONTIGUOUS"], name
        assert x.tobytes() == y.tobytes(), name
    assert a.subject_ids == b.subject_ids
    assert all(type(s) is str for s in b.subject_ids)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# letters, digits and the characters csv must quote or numpy could mistake
# for a comment, a delimiter or whitespace to strip
_ID_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + ' #,"-_.\n\u00e9', max_size=40
)


def _all_int(ids):
    try:
        [int(s) for s in ids]
    except ValueError:
        return False
    return True


@st.composite
def long_panels(draw):
    """(header, rows, quoting) of a complete panel in shuffled row order."""
    N = draw(st.integers(1, 6))
    M = draw(st.integers(1, 5))
    q = draw(st.integers(1, 4))
    numeric = st.lists(st.integers(-10**6, 10**12), min_size=N, max_size=N, unique=True)
    ids = draw(
        st.one_of(
            numeric.map(lambda v: [str(i) for i in v]),
            # all-integer text ids such as "1" and " 1" would tie under int()
            st.lists(_ID_TEXT, min_size=N, max_size=N, unique=True).filter(
                lambda v: not _all_int(v)
            ),
        )
    )
    indices = draw(st.lists(st.integers(-50, 10**6), min_size=M, max_size=M, unique=True))
    columns = ["subject_id", "response_index", "y"] + [f"x_{c + 1}" for c in range(q)]
    layout = draw(st.permutations(range(len(columns))))
    rows = [
        [sid, str(t)] + [repr(draw(_FINITE)) for _ in range(q + 1)]
        for sid in ids
        for t in indices
    ]
    rows = draw(st.permutations(rows))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    header = [columns[c] for c in layout]
    return header, [[row[c] for c in layout] for row in rows], quoting


def write_rows(path, header, rows, quoting=csv.QUOTE_MINIMAL):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)


class TestMatchesReferenceLoader:
    @settings(max_examples=200, deadline=None)
    @given(panel=long_panels())
    def test_random_panels_load_bit_identically(self, tmp_path_factory, panel):
        path = tmp_path_factory.mktemp("panel") / "data.csv"
        write_rows(path, *panel)
        assert_bit_identical(oracle_load_long_csv(path), load_long_csv(path))

    def test_awkward_subject_ids(self, tmp_path):
        ids = ["a#1", 'say "hi"', "has,comma", "x" * 40, " lead", "trail ", "two\nlines"]
        rows = [
            [sid, str(t), repr(0.5 * i + t), "1.0", repr(-1.0 / (i + 1))]
            for i, sid in enumerate(ids)
            for t in (3, 1, 2)
        ]
        path = tmp_path / "data.csv"
        write_rows(path, ["subject_id", "response_index", "y", "x_1", "x_2"], rows[::-1])
        data = load_long_csv(path)
        assert sorted(data.subject_ids) == sorted(ids)
        assert_bit_identical(oracle_load_long_csv(path), data)

    def test_paper_scale_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        N, M, q = 300, 40, 3
        y = rng.standard_normal((N, M))
        X = rng.standard_normal((N, M, q))
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("subject_id,response_index,y,x_1,x_2,x_3\n")
            for i, (ys, xs) in enumerate(zip(y.tolist(), X.tolist())):
                for t in range(M):
                    fh.write(f"{i + 1},{t},{ys[t]!r},{','.join(map(repr, xs[t]))}\n")
        data = load_long_csv(path)
        assert_bit_identical(oracle_load_long_csv(path), data)
        assert data.responses.tobytes() == y.tobytes()
        assert data.covariates.tobytes() == X.tobytes()

    @pytest.mark.parametrize("loader", [oracle_load_long_csv, load_long_csv])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,1,1.0,1.0,0.0\n1,2,2.0,1.0,0.0\n2,1,oops,1.0,0.0\n", r"data\.csv:4: non-numeric"),
            ("1,1,1.0,1.0,0.0\n1,2,2.0,1.0\n", r"data\.csv:3: "),
            ("1,1,1.0,1.0,0.0\n1,2,2.0,1.0,0.0\n1,1,3.0,1.0,0.0\n", r"data\.csv:4: duplicate"),
            ("1,1.0,1.0,1.0,0.0\n", r"data\.csv:2: non-numeric"),
            ("1,1,1.0,1.0,0.0\n\n1,2,oops,1.0,0.0\n", r"data\.csv:3: non-numeric"),
        ],
    )
    def test_bad_rows_name_their_line(self, tmp_path, loader, text, message):
        path = tmp_path / "data.csv"
        path.write_text("subject_id,response_index,y,x_1,x_2\n" + text)
        with pytest.raises(DataError, match=message):
            loader(path)

    @pytest.mark.parametrize("loader", [oracle_load_long_csv, load_long_csv])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("subject_id,response_index,y,x_1\n", "no data rows"),
            ("subject_id,response_index,y,x_1\n\n\n", "no data rows"),
        ],
    )
    def test_files_without_data(self, tmp_path, loader, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            loader(path)


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
