"""Long-format CSV ingestion into a complete response/covariate panel.

Input files carry one row per (subject, response index) cell with columns
``subject_id,response_index,y,x_1,...,x_q``.  The ingest is order-insensitive:
rows may arrive in any order, subjects are sorted ascending by id and
responses by index, and missing or duplicated cells are hard errors.

Accepted dialect: comma-delimited, a header line first, ``"`` quoting as
the ``csv`` module writes it (doubled quotes inside a quoted field, which
may hold commas and line breaks), no comment lines (``#`` is an ordinary
character), blank lines skipped.  The column names are fixed
(:data:`SUBJECT_ID`, :data:`RESPONSE_INDEX`, :data:`Y` and the covariate
prefix :data:`X_PREFIX`); other columns are ignored.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

SUBJECT_ID = "subject_id"
RESPONSE_INDEX = "response_index"
Y = "y"
X_PREFIX = "x_"


@dataclass(frozen=True)
class Dataset:
    """Complete panel of N subjects, each with an M-vector of responses
    and an M x q covariate matrix.

    A non-finite response or covariate is a :class:`DataError` naming the
    first bad cell by subject id and 1-based response position.
    """

    responses: np.ndarray  # (N, M)
    covariates: np.ndarray  # (N, M, q)
    subject_ids: tuple

    @property
    def N(self) -> int:
        return self.responses.shape[0]

    @property
    def M(self) -> int:
        return self.responses.shape[1]

    @property
    def q(self) -> int:
        return self.covariates.shape[2]

    def __post_init__(self):
        if self.responses.ndim != 2 or self.covariates.ndim != 3:
            raise DataError("responses must be (N, M) and covariates (N, M, q)")
        if self.covariates.shape[:2] != self.responses.shape:
            raise DataError("covariates do not align with responses")
        if self.N < 1 or self.M < 1 or self.q < 1:
            raise DataError("need N >= 1, M >= 1, q >= 1")
        if len(self.subject_ids) != self.N:
            raise DataError("subject_ids length does not match N")
        for name, values in (("y", self.responses), ("x", self.covariates)):
            if np.isfinite(values).all():
                continue
            first = tuple(np.argwhere(~np.isfinite(values))[0])
            i, t = first[:2]
            label = name if name == "y" else f"x_{first[2] + 1}"
            raise DataError(
                f"non-finite {label} = {values[first]} at (subject "
                f"{self.subject_ids[i]}, response {t + 1})"
            )


def _subject_order(ids) -> np.ndarray:
    """Positions of distinct, lexicographically sorted ids in subject order:
    ascending numeric order when every id parses as an integer,
    lexicographic otherwise."""
    try:
        keys = [int(sid) for sid in ids]
    except ValueError:
        return np.arange(len(ids))
    return np.array(sorted(range(len(ids)), key=keys.__getitem__), dtype=np.intp)


def _bad_row(path, exc: ValueError, header: list) -> DataError:
    """A :class:`DataError` naming the line of the row ``np.loadtxt`` rejected.

    Lines count data rows after the header, blank lines excluded (as
    ``csv.reader`` counts them).  numpy numbers body rows from 0 in a
    conversion error and from 1 in a field-count error.
    """
    text = str(exc)
    m = re.search(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)", text)
    if m:
        return DataError(
            f"{path}:{int(m[2]) + 2}: non-numeric field {header[int(m[3]) - 1]} = {m[1]}"
        )
    m = re.search(r"at row (\d+) with (\d+) columns", text)
    if m:
        return DataError(
            f"{path}:{int(m[1]) + 1}: short row, {m[2]} of {len(header)} fields"
        )
    return DataError(f"{path}: unreadable data row ({text})")


def load_long_csv(path) -> Dataset:
    """Read a long-format CSV into a :class:`Dataset`.

    The header is read with ``csv``; the body is parsed in one pass by
    ``np.loadtxt`` and scattered into the panel by (subject, response)
    codes.  Raises :class:`DataError` on missing cells (incomplete panel),
    duplicate (subject, response_index) pairs, or non-numeric fields.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        for col in (SUBJECT_ID, RESPONSE_INDEX, Y):
            if col not in header:
                raise DataError(f"{path}: missing required column {col!r}")
        x_cols = [c for c in header if c.startswith(X_PREFIX)]
        # keep x_1..x_q in numeric suffix order
        try:
            x_cols.sort(key=lambda c: int(c[len(X_PREFIX):]))
        except ValueError:
            x_cols.sort()
        if not x_cols:
            raise DataError(f"{path}: no covariate columns with prefix {X_PREFIX!r}")

        # a repeated column name reads its last occurrence, as csv.DictReader does
        position = {name: i for i, name in enumerate(header)}
        q = len(x_cols)
        row_dtype = np.dtype(
            [("sid", object), ("ridx", np.int64), ("y", np.float64), ("x", np.float64, (q,))]
        )
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(
                    fh,
                    dtype=row_dtype,
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    usecols=[position[c] for c in (SUBJECT_ID, RESPONSE_INDEX, Y, *x_cols)],
                    ndmin=1,
                )
        except ValueError as exc:
            raise _bad_row(path, exc, header) from exc

    if body.size == 0:
        raise DataError(f"{path}: no data rows")

    # a subject's rows usually arrive together: code each run of equal ids once
    sid = body["sid"]
    head = np.flatnonzero(np.r_[True, sid[1:] != sid[:-1]])
    lex_ids, run_code = np.unique(sid[head], return_inverse=True)
    lex_code = np.repeat(run_code, np.diff(np.r_[head, sid.size]))
    indices, resp_code = np.unique(body["ridx"], return_inverse=True)
    order = _subject_order(lex_ids)
    subjects = lex_ids[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    N, M = subjects.size, indices.size

    cell = rank[lex_code] * M + resp_code
    counts = np.bincount(cell, minlength=N * M)
    if counts.max() > 1:
        by_cell = np.argsort(cell, kind="stable")
        r = int(by_cell[1:][np.diff(cell[by_cell]) == 0].min())
        key = (sid[r], int(body["ridx"][r]))
        raise DataError(f"{path}:{r + 2}: duplicate (subject, response_index) = {key}")
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        i, t = divmod(int(missing[0]), M)
        raise DataError(
            f"{path}: incomplete panel, missing (subject={subjects[i]}, "
            f"response_index={indices[t]})"
        )

    responses = np.empty((N, M))
    covariates = np.empty((N, M, q))
    responses.reshape(-1)[cell] = body["y"]
    covariates.reshape(-1, q)[cell] = body["x"]
    return Dataset(
        responses=responses, covariates=covariates, subject_ids=tuple(subjects.tolist())
    )
