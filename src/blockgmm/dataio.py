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

The file is UTF-8 in every locale; bytes that are not UTF-8 are a
:class:`DataError` naming their line.  Subject ids of any length load as
they are: each id is parsed as its bytes into an 8-byte field, and when
an id fills the field, the id column alone is parsed once more, as wide
as the longest id.  The one value such a field cannot hold is a trailing
NUL, which is dropped.  Two ids that differ only by trailing NULs so
become one subject, and since every subject holds all M response
indices, their cells always meet the duplicate-cell check.

The ingest holds about 88 bytes per row at its peak: the parsed body
(48 bytes with q = 3), the panel (32) and one cell code (8); 9.6 MB of
panel from a 20.9 MB file (N=1000, M=300, q=3) peaks at 26.5 MB under
``tracemalloc``.  With one Python string per subject id and every code
array alive at once it held 167 bytes per row (50.0 MB).
"""

from __future__ import annotations

import ast
import csv
import functools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

SUBJECT_ID = "subject_id"
RESPONSE_INDEX = "response_index"
Y = "y"
X_PREFIX = "x_"

# bytes per subject id in the first parse; an id that fills them has the id
# column parsed again, as wide as the longest id
_ID_BYTES = 8


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


def _utf8_repr(quoted: str) -> str:
    """numpy's repr of a field read as latin-1, quoted again as the file's
    UTF-8 text (a byte that is not UTF-8 shows as U+FFFD).  numpy cuts its
    repr at 100 characters, perhaps inside an escape; a cut field is quoted
    up to its last whole escape, then ``...``."""
    closed = [(quoted[: len(quoted) - k] + quoted[0], "...") for k in range(4)]
    for literal, tail in [(quoted, ""), *closed]:
        try:
            text = ast.literal_eval(literal)
        except (SyntaxError, ValueError):
            continue
        return repr(text.encode("latin-1").decode("utf-8", "replace")) + tail
    return quoted


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
            f"{path}:{int(m[2]) + 2}: non-numeric field {header[int(m[3]) - 1]} = "
            f"{_utf8_repr(m[1])}"
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
    ``np.loadtxt`` (and the id column once more when an id fills its field)
    and scattered into the panel by (subject, response) codes.  Raises
    :class:`DataError` on missing cells (incomplete panel), duplicate
    (subject, response_index) pairs, non-numeric fields, or bytes that are
    not UTF-8.
    """
    # latin-1 maps each byte to one character, so the bytes field of an id
    # holds the file's own bytes; only the distinct ids are decoded as UTF-8
    with open(path, encoding="latin-1", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        try:
            header = [name.encode("latin-1").decode("utf-8") for name in header]
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}:1: header is not UTF-8 text ({exc.reason})") from None
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
        usecols = [position[c] for c in (SUBJECT_ID, RESPONSE_INDEX, Y, *x_cols)]
        q = len(x_cols)
        row_dtype = np.dtype(
            [("sid", f"S{_ID_BYTES}"), ("ridx", np.int64), ("y", np.float64),
             ("x", np.float64, (q,))]
        )
        read = functools.partial(
            np.loadtxt, fh, delimiter=",", comments=None, quotechar='"', ndmin=1
        )
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = read(dtype=row_dtype, usecols=usecols)
        except ValueError as exc:
            raise _bad_row(path, exc, header) from exc
        if body.size == 0:
            raise DataError(f"{path}: no data rows")
        # an id that fills its field may have been cut: read the ids alone
        # once more, into a field as wide as the longest id
        sid = body["sid"]
        if np.char.str_len(sid).max() >= _ID_BYTES:
            del sid
            fh.seek(0)
            next(csv.reader(fh))
            with warnings.catch_warnings():
                # an unsized field is read in chunks of rows, which blank
                # lines do not count towards
                warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
                sid = read(dtype="S", usecols=usecols[0])

    # a subject's rows usually arrive together: code each run of equal ids once
    head = np.flatnonzero(np.r_[True, sid[1:] != sid[:-1]])
    lex_ids, run_code = np.unique(sid[head], return_inverse=True)
    lex_code = np.repeat(run_code, np.diff(np.r_[head, sid.size]))
    del sid  # a wider id column read again is not needed past here
    # UTF-8 byte order is code-point order, so the decoded ids keep their sort
    ids = []
    for k, raw in enumerate(lex_ids.tolist()):
        try:
            ids.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            line = int(np.argmax(lex_code == k)) + 2
            raise DataError(
                f"{path}:{line}: subject_id {raw!r} is not UTF-8 text ({exc.reason})"
            ) from None
    # a search of the few distinct indices holds less than np.unique's inverse
    indices = np.unique(body["ridx"])
    resp_code = np.searchsorted(indices, body["ridx"])
    order = _subject_order(ids)
    subjects = [ids[i] for i in order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    N, M = len(subjects), indices.size

    cell = rank[lex_code] * M + resp_code
    del lex_code, resp_code
    counts = np.bincount(cell, minlength=N * M)
    duplicated, missing = counts.max() > 1, np.flatnonzero(counts == 0)
    del counts
    if duplicated:
        by_cell = np.argsort(cell, kind="stable")
        r = int(by_cell[1:][np.diff(cell[by_cell]) == 0].min())
        i, t = divmod(int(cell[r]), M)
        raise DataError(
            f"{path}:{r + 2}: duplicate (subject, response_index) = "
            f"{(subjects[i], int(indices[t]))}"
        )
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
    del body, cell
    return Dataset(responses=responses, covariates=covariates, subject_ids=tuple(subjects))
