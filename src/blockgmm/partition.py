"""Double split of a panel: responses into J contiguous blocks, subjects
into K groups (contiguous or seeded-random).

A plan is its block sizes, group sizes, group strategy and seed.  Block j
is the next m_j responses in entry order; group k is the next n_k subjects
of the subject order, which is entry order or, for seeded-random,
``default_rng(seed).permutation(N)``.  Its serialized form is therefore
J + K + 1 integers and the strategy, whatever the number of subjects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

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

    def subject_indices(self, k: int) -> np.ndarray:
        """Group k: the subject order cut at the group sizes, ascending, so
        it is identical across all J blocks of group k."""
        start = sum(self.group_sizes[:k])
        stop = start + self.group_sizes[k]
        if self.strategy == "contiguous":
            return np.arange(start, stop)
        return np.sort(np.random.default_rng(self.seed).permutation(self.N)[start:stop])


@dataclass(frozen=True)
class BlockData:
    """Data of block (j, k): group-k subjects restricted to response block j."""

    j: int
    k: int
    y: np.ndarray  # (n_k, m_j)
    X: np.ndarray  # (n_k, m_j, q)
    theta_cols: tuple  # columns of X tied to the shared parameter
    subject_indices: np.ndarray  # positions in the original Dataset
    # (n_k, m_j, p) design for the shared parameter: X itself when theta
    # uses every column in order, else one column-selected copy
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = list(self.theta_cols)
        design = self.X if cols == list(range(self.X.shape[2])) else self.X[:, :, cols]
        object.__setattr__(self, "design", design)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return len(self.theta_cols)


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
    """
    if plan.M != data.M or plan.N != data.N:
        raise PlanError(
            f"plan dimensions (M={plan.M}, N={plan.N}) do not match data "
            f"(M={data.M}, N={data.N})"
        )
    theta_cols = _theta_cols(theta_cols, data.q)
    blocks = {}
    for k in range(plan.K):
        rows = plan.subject_indices(k)
        for j in range(plan.J):
            # a block's responses are contiguous, and a column slice is a
            # view, so each block is one gather of rows
            first, last = plan.response_indices(j)[[0, -1]]
            cols = slice(first, last + 1)
            blocks[(j, k)] = BlockData(
                j=j,
                k=k,
                y=data.responses[:, cols][rows],
                X=data.covariates[:, cols][rows],
                theta_cols=theta_cols,
                subject_indices=rows,
            )
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
