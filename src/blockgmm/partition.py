"""Double split of a panel: responses into J contiguous blocks, subjects
into K groups (contiguous or seeded-random).

A plan is its block sizes, group sizes, group strategy and seed.  Block j
is the next m_j responses in entry order; group k is the next n_k subjects
of the subject order, which is entry order or, for seeded-random,
``default_rng(seed).permutation(N)``.  Its serialized form is therefore
J + K + 1 integers and the strategy, whatever the number of subjects.

:func:`split` gathers each subject group once per bucket: a run of
consecutive response blocks of one size (near-equal sizes make at most
two runs), stacked in one C-contiguous array each for y (B, n_k, m),
X (B, n_k, m, q) and the shared parameter's design (B, n_k, m, p)
(:class:`Bucket`).  A block's y, X and design are the views bucket[b],
with the layout a copy of the block would have, so per-block code reads
the same bits; the GEE moments are taken over a bucket at once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataio import Dataset
from .errors import PlanError

GROUP_STRATEGIES = ("contiguous", "seeded-random")


def _near_equal_sizes(total: int, parts: int) -> tuple[int, ...]:
    """First (total mod parts) parts get the ceiling, the rest the floor."""
    base, extra = divmod(total, parts)
    return tuple(base + 1 if i < extra else base for i in range(parts))


@dataclass(frozen=True)
class PartitionPlan:
    """Block sizes, group sizes, group strategy and seed: every index of the
    split derives from these, and :meth:`__post_init__` is the one check of
    a plan, however it was built."""

    block_sizes: tuple  # m_1..m_J, sum = M
    group_sizes: tuple  # n_1..n_K, sum = N
    strategy: str
    seed: int

    def __post_init__(self):
        try:
            for name in ("block_sizes", "group_sizes"):
                sizes = tuple(operator.index(size) for size in getattr(self, name))
                object.__setattr__(self, name, sizes)
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise PlanError(
                f"plan sizes and seed must be integers, got block_sizes="
                f"{self.block_sizes!r}, group_sizes={self.group_sizes!r}, "
                f"seed={self.seed!r}"
            ) from None
        if self.J < 1 or self.K < 1:
            raise PlanError(f"need J >= 1 and K >= 1, got J={self.J}, K={self.K}")
        if min(self.block_sizes) < 2:
            raise PlanError(f"every block needs >= 2 responses, sizes={self.block_sizes}")
        if min(self.group_sizes) < 1:
            raise PlanError(f"every group needs >= 1 subject, sizes={self.group_sizes}")
        if self.strategy not in GROUP_STRATEGIES:
            raise PlanError(f"unknown group strategy {self.strategy!r}")
        if self.seed < 0:
            raise PlanError(f"seed must be >= 0, got {self.seed}")

    @property
    def J(self) -> int:
        return len(self.block_sizes)

    @property
    def K(self) -> int:
        return len(self.group_sizes)

    @property
    def M(self) -> int:
        return sum(self.block_sizes)

    @property
    def N(self) -> int:
        return sum(self.group_sizes)

    def response_indices(self, j: int) -> np.ndarray:
        start = sum(self.block_sizes[:j])
        return np.arange(start, start + self.block_sizes[j])

    def subject_groups(self) -> list:
        """Every group's subjects: the subject order cut at the group sizes,
        each group ascending, so it is identical across all J blocks of the
        group.  The seeded-random order is one ``permutation(N)``."""
        if self.strategy == "contiguous":
            order = np.arange(self.N)
        else:
            order = np.random.default_rng(self.seed).permutation(self.N)
        return [np.sort(group) for group in np.split(order, np.cumsum(self.group_sizes[:-1]))]

    def subject_indices(self, k: int) -> np.ndarray:
        """Group k of :meth:`subject_groups`."""
        return self.subject_groups()[k]


class Bucket(NamedTuple):
    """The blocks of one subject group over a run of consecutive response
    blocks of one size, stacked along a leading axis: y (B, n, m),
    X (B, n, m, q) and the design (B, n, m, p) are one C-contiguous array
    each, and ``keys`` names the block (j, k) of every slot."""

    y: np.ndarray
    X: np.ndarray
    design: np.ndarray
    keys: tuple

    def __reduce__(self):
        # a column-selected design is a view of (B, p, n, m) planes: pickle
        # the planes, so that a worker's blocks keep this layout, and with
        # it the bits of their fits
        planes = None if self.design is self.X else np.moveaxis(self.design, -1, 1)
        return _unpickle_bucket, (self.y, self.X, planes, self.keys)


def _unpickle_bucket(y, X, planes, keys) -> Bucket:
    return Bucket(y, X, X if planes is None else np.moveaxis(planes, 1, -1), keys)


def _design(X: np.ndarray, theta_cols) -> np.ndarray:
    """The shared parameter's columns of a bucket's X (B, n, m, q): X
    itself when theta uses every column in order, else one copy with a
    C-contiguous (n, m) plane per column, the layout numpy's
    ``X[:, :, cols]`` gives a block alone."""
    cols = list(theta_cols)
    if cols == list(range(X.shape[-1])):
        return X
    return np.moveaxis(np.stack([X[..., c] for c in cols], axis=1), 1, -1)


@dataclass(frozen=True)
class BlockData:
    """Data of block (j, k): group-k subjects restricted to response block j.

    y, X and design are the views bucket[slot] of the block's
    :class:`Bucket`; a block built on its own is a bucket of one.
    """

    j: int
    k: int
    y: np.ndarray  # (n_k, m_j)
    X: np.ndarray  # (n_k, m_j, q)
    theta_cols: tuple  # columns of X tied to the shared parameter
    subject_indices: np.ndarray  # positions in the original Dataset
    bucket: Bucket = field(default=None, repr=False, compare=False)
    slot: int = field(default=0, repr=False, compare=False)
    # (n_k, m_j, p) design for the shared parameter (see _design)
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bucket is None:
            X = self.X[None]
            bucket = Bucket(self.y[None], X, _design(X, self.theta_cols), ((self.j, self.k),))
            object.__setattr__(self, "bucket", bucket)
        object.__setattr__(self, "design", self.bucket.design[self.slot])

    def __reduce__(self):
        # a pickle carries the bucket once, and the arrays come back as its views
        return _bucket_block, (self.bucket, self.slot, self.theta_cols, self.subject_indices)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return len(self.theta_cols)


def _bucket_block(bucket: Bucket, slot: int, theta_cols, subject_indices) -> BlockData:
    j, k = bucket.keys[slot]
    return BlockData(j, k, bucket.y[slot], bucket.X[slot], theta_cols, subject_indices,
                     bucket=bucket, slot=slot)


def make_plan(
    M: int,
    N: int,
    J: int,
    K: int,
    strategy: str = "seeded-random",
    seed: int = 0,
) -> PartitionPlan:
    """Build a partition plan with near-equal block and group sizes."""
    if not 1 <= J <= M // 2:
        raise PlanError(f"J={J} blocks of >= 2 responses need 1 <= J <= M/2, got M={M}")
    if not 1 <= K <= N:
        raise PlanError(f"K={K} groups need 1 <= K <= N, got N={N}")
    return PartitionPlan(
        block_sizes=_near_equal_sizes(M, J),
        group_sizes=_near_equal_sizes(N, K),
        strategy=strategy,
        seed=seed,
    )


def split(data: Dataset, plan: PartitionPlan, theta_cols=None) -> dict:
    """Split a dataset into JK blocks keyed by (j, k), 0-based.

    Subject rows within a group keep their original ascending order, so
    rows align across the J blocks of each group.  ``theta_cols`` names
    distinct covariate columns for the shared parameter (default: all).
    Each group is gathered once per :class:`Bucket`, the column selection
    is made once per bucket, and every block's arrays are views of its
    bucket.
    """
    if plan.M != data.M or plan.N != data.N:
        raise PlanError(
            f"plan dimensions (M={plan.M}, N={plan.N}) do not match data "
            f"(M={data.M}, N={data.N})"
        )
    theta_cols = _theta_cols(theta_cols, data.q)
    # runs of consecutive blocks of one size: (first response, block indices, size)
    runs, first = [], 0
    for j, m in enumerate(plan.block_sizes):
        if runs and runs[-1][2] == m:
            runs[-1][1].append(j)
        else:
            runs.append((first, [j], m))
        first += m
    groups = plan.subject_groups()
    buckets = {}
    for first, js, m in runs:
        # row i B + b of these holds subject i's responses in the run's
        # block b: a view when the run spans the responses, else one copy
        B, cols = len(js), slice(first, first + len(js) * m)
        y_rows = data.responses[:, cols].reshape(data.N * B, m)
        X_rows = data.covariates[:, cols].reshape(data.N * B, m * data.q)
        for k, rows in enumerate(groups):
            pick = (rows[None, :] * B + np.arange(B)[:, None]).reshape(-1)
            y = np.take(y_rows, pick, axis=0).reshape(B, rows.size, m)
            X = np.take(X_rows, pick, axis=0).reshape(B, rows.size, m, data.q)
            bucket = Bucket(y, X, _design(X, theta_cols), tuple((j, k) for j in js))
            buckets.update((key, (bucket, slot)) for slot, key in enumerate(bucket.keys))
    blocks = {}
    for k, rows in enumerate(groups):
        for j in range(plan.J):
            blocks[(j, k)] = _bucket_block(*buckets[(j, k)], theta_cols, rows)
    return blocks


def _theta_cols(theta_cols, q: int) -> tuple:
    if theta_cols is None:
        return tuple(range(q))
    try:
        cols = tuple(operator.index(c) for c in theta_cols)
    except TypeError:
        raise PlanError(f"theta_cols must be integers, got {theta_cols!r}") from None
    if not cols:
        raise PlanError("theta_cols is empty: the shared parameter needs a column")
    if len(set(cols)) != len(cols):
        raise PlanError(f"theta_cols {cols} repeats a column")
    if any(c < 0 or c >= q for c in cols):
        raise PlanError(f"theta_cols {cols} out of range for q={q}")
    return cols


def format_plan(plan: PartitionPlan) -> str:
    """Plain-text key-value form of a plan: J + K + 1 integers and the strategy."""
    return (
        f"strategy = {plan.strategy}\n"
        f"seed = {plan.seed}\n"
        f"block_sizes = {','.join(map(str, plan.block_sizes))}\n"
        f"group_sizes = {','.join(map(str, plan.group_sizes))}\n"
    )


def parse_plan(text: str, source) -> PartitionPlan:
    """Inverse of :func:`format_plan`; ``source`` prefixes every error.

    Every field must be present and integer-valued where integers are
    expected; the values are then checked by :class:`PartitionPlan`.
    """
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()

    def field(name, cast):
        if name not in kv:
            raise PlanError(f"missing plan field {name!r}")
        try:
            return cast(kv[name])
        except ValueError:
            what = "an integer" if cast is int else "a list of integers"
            raise PlanError(f"plan field {name} = {kv[name]!r} is not {what}") from None

    def sizes(value):
        return tuple(int(v) for v in value.split(","))

    try:
        return PartitionPlan(
            block_sizes=field("block_sizes", sizes),
            group_sizes=field("group_sizes", sizes),
            strategy=field("strategy", str),
            seed=field("seed", int),
        )
    except PlanError as exc:
        raise PlanError(f"{source}: {exc}") from None
