"""Long-format CSV ingestion into a complete response/covariate panel.

Input files carry one row per (subject, response index) cell with columns
``subject_id,response_index,y,x_1,...,x_q``.  The ingest is order-insensitive:
rows may arrive in any order, subjects are sorted ascending by id and
responses by index, and missing or duplicated cells are hard errors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_SCHEMA = {
    "subject_id": "subject_id",
    "response_index": "response_index",
    "y": "y",
    "x_prefix": "x_",
}


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
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                i, t = bad[0][:2]
                label = name if name == "y" else f"x_{bad[0][2] + 1}"
                raise DataError(
                    f"non-finite {label} = {values[tuple(bad[0])]} at (subject "
                    f"{self.subject_ids[i]}, response {t + 1})"
                )


def _sort_key(ids):
    """Ascending numeric order when every id parses as an integer,
    lexicographic otherwise."""
    try:
        return sorted(ids, key=int)
    except (TypeError, ValueError):
        return sorted(ids, key=str)


def load_long_csv(path, schema: dict | None = None) -> Dataset:
    """Read a long-format CSV into a :class:`Dataset`.

    Raises :class:`DataError` on missing cells (incomplete panel),
    duplicate (subject, response_index) pairs, or non-numeric fields.
    """
    cfg = dict(DEFAULT_SCHEMA)
    if schema:
        cfg.update(schema)
    sid_col, ridx_col, y_col = cfg["subject_id"], cfg["response_index"], cfg["y"]
    x_prefix = cfg["x_prefix"]

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        for col in (sid_col, ridx_col, y_col):
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing required column {col!r}")
        x_cols = [c for c in reader.fieldnames if c.startswith(x_prefix)]
        # keep x_1..x_q in numeric suffix order
        try:
            x_cols.sort(key=lambda c: int(c[len(x_prefix):]))
        except ValueError:
            x_cols.sort()
        if not x_cols:
            raise DataError(f"{path}: no covariate columns with prefix {x_prefix!r}")

        cells: dict[tuple, tuple] = {}
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

    subjects = _sort_key({sid for sid, _ in cells})
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
