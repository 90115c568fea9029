"""Double split of a panel: responses into J contiguous blocks, subjects
into K groups (contiguous or seeded-random).

Block membership follows entry order by default; a custom response->block
map can be supplied.  Group assignment is a deterministic function of
(seed, N, K) so a plan can be reproduced from its serialized form.
"""

from __future__ import annotations

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
    J: int
    K: int
    block_sizes: tuple  # m_1..m_J, sum = M
    group_sizes: tuple  # n_1..n_K, sum = N
    block_of_response: np.ndarray  # (M,) int, block index 0..J-1
    group_of_subject: np.ndarray  # (N,) int, group index 0..K-1
    strategy: str
    seed: int

    @property
    def M(self) -> int:
        return int(self.block_of_response.shape[0])

    @property
    def N(self) -> int:
        return int(self.group_of_subject.shape[0])

    def response_indices(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.block_of_response == j)

    def subject_indices(self, k: int) -> np.ndarray:
        # ascending original order: identical across all J blocks of group k
        return np.flatnonzero(self.group_of_subject == k)


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
    block_map=None,
) -> PartitionPlan:
    """Build a partition plan with near-equal block and group sizes.

    ``block_map`` optionally gives an explicit response->block assignment
    (length M, values 0..J-1); every block must still have >= 2 responses.
    """
    if J < 1 or K < 1:
        raise PlanError(f"need J >= 1 and K >= 1, got J={J}, K={K}")
    if K > N:
        raise PlanError(f"K={K} groups exceed N={N} subjects")
    if strategy not in GROUP_STRATEGIES:
        raise PlanError(f"unknown group strategy {strategy!r}")

    if block_map is not None:
        block_of_response = np.asarray(block_map, dtype=int)
        if block_of_response.shape != (M,):
            raise PlanError("block_map length must equal M")
        if sorted(set(block_of_response.tolist())) != list(range(J)):
            raise PlanError("block_map must use every block index 0..J-1")
        block_sizes = tuple(
            int(np.sum(block_of_response == j)) for j in range(J)
        )
    else:
        if 2 * J > M:
            raise PlanError(f"J={J} blocks need M >= {2 * J}, got M={M}")
        block_sizes = _near_equal_sizes(M, J)
        block_of_response = np.repeat(np.arange(J), block_sizes)
    if min(block_sizes) < 2:
        raise PlanError(f"every block needs >= 2 responses, sizes={block_sizes}")

    group_sizes = _near_equal_sizes(N, K)
    order = np.arange(N)
    if strategy == "seeded-random":
        order = np.random.default_rng(seed).permutation(N)
    group_of_subject = np.empty(N, dtype=int)
    group_of_subject[order] = np.repeat(np.arange(K), group_sizes)

    return PartitionPlan(
        J=J,
        K=K,
        block_sizes=block_sizes,
        group_sizes=group_sizes,
        block_of_response=block_of_response,
        group_of_subject=group_of_subject,
        strategy=strategy,
        seed=seed,
    )


def split(data: Dataset, plan: PartitionPlan, theta_cols=None) -> dict:
    """Split a dataset into JK blocks keyed by (j, k), 0-based.

    Subject rows within a group keep their original ascending order, so
    rows align across the J blocks of each group.
    """
    if plan.M != data.M or plan.N != data.N:
        raise PlanError(
            f"plan dimensions (M={plan.M}, N={plan.N}) do not match data "
            f"(M={data.M}, N={data.N})"
        )
    if theta_cols is None:
        theta_cols = tuple(range(data.q))
    else:
        theta_cols = tuple(int(c) for c in theta_cols)
        if any(c < 0 or c >= data.q for c in theta_cols):
            raise PlanError(f"theta_cols out of range for q={data.q}")

    blocks = {}
    for k in range(plan.K):
        rows = plan.subject_indices(k)
        for j in range(plan.J):
            cols = plan.response_indices(j)
            blocks[(j, k)] = BlockData(
                j=j,
                k=k,
                y=data.responses[np.ix_(rows, cols)],
                X=data.covariates[np.ix_(rows, cols)],
                theta_cols=theta_cols,
                subject_indices=rows,
            )
    return blocks


def format_plan(plan: PartitionPlan) -> str:
    """Plain-text key-value form of a plan."""
    return (
        f"J = {plan.J}\n"
        f"K = {plan.K}\n"
        f"seed = {plan.seed}\n"
        f"strategy = {plan.strategy}\n"
        f"block_of_response = {','.join(map(str, plan.block_of_response))}\n"
        f"group_of_subject = {','.join(map(str, plan.group_of_subject))}\n"
    )


def parse_plan(text: str, source) -> PartitionPlan:
    """Inverse of :func:`format_plan`; ``source`` names the text in errors.

    Every field must be present and integer-valued where integers are
    expected, 1 <= J <= M and 1 <= K <= N, and every block and group index
    must lie in 0..J-1 and 0..K-1.
    """
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()

    def integers(name, scalar=False):
        if name not in kv:
            raise PlanError(f"{source}: missing plan field {name!r}")
        try:
            values = [int(v) for v in kv[name].split(",")]
        except ValueError:
            values = []
        if not values or (scalar and len(values) > 1):
            what = "an integer" if scalar else "a list of integers"
            raise PlanError(f"{source}: plan field {name} = {kv[name]!r} is not {what}")
        return values[0] if scalar else np.array(values)

    J, K, seed = (integers(name, scalar=True) for name in ("J", "K", "seed"))
    if "strategy" not in kv:
        raise PlanError(f"{source}: missing plan field 'strategy'")
    block_of_response = integers("block_of_response")
    group_of_subject = integers("group_of_subject")
    if not (1 <= J <= block_of_response.size and 1 <= K <= group_of_subject.size):
        raise PlanError(
            f"{source}: J = {J} and K = {K} do not fit {block_of_response.size} "
            f"responses and {group_of_subject.size} subjects"
        )
    for name, index, bound in (
        ("block_of_response", block_of_response, J),
        ("group_of_subject", group_of_subject, K),
    ):
        bad = (index < 0) | (index >= bound)
        if bad.any():
            raise PlanError(
                f"{source}: {name} holds {index[bad][0]} at position "
                f"{np.flatnonzero(bad)[0]}, outside 0..{bound - 1}"
            )
    return PartitionPlan(
        J=J,
        K=K,
        block_sizes=tuple(int(np.sum(block_of_response == j)) for j in range(J)),
        group_sizes=tuple(int(np.sum(group_of_subject == k)) for k in range(K)),
        block_of_response=block_of_response,
        group_of_subject=group_of_subject,
        strategy=kv["strategy"],
        seed=seed,
    )
