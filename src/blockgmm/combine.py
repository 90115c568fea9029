"""Closed-form combination of block fits.

The per-subject scores of the JK blocks are stacked group-wise into an
empirical covariance V_hat (exactly block-diagonal over subject groups).
Group k contributes the information I_k = S_k' W_k S_k and the
right-hand side r_k = S_k' W_k v_k, W_k = V_k^{-1}, where S_k stacks the
group's block sensitivities over the parameter (theta, zeta_1k .. zeta_Jk)
and v_k stacks each block's S_(j,k) applied to its own estimates.  I_k is
the sum over i of the combination matrices C_{k,i} with the columns of
other groups' nuisance parameters, which are zero, dropped.  W_k is only
ever applied, by a solve with V_k, and never formed.

Everything combination and the over-identification test need from group
k is therefore its summary (:class:`GroupSummary`): n_k, V_k, I_k, r_k
and its J blocks' records, each with its estimates, convergence record
and moments.  :func:`group_summary` forms it once the group's blocks are
fitted, and their per-subject scores and sensitivities are dropped then.
A bundle archive (format 4) stores exactly these summaries, V_k by its
upper triangle, with a plan of J + K + 1 integers and a strategy; both
admit each V_k (:func:`_admit_group`).  Nothing in it grows with the
number of subjects: it holds no per-subject score or label.
Combining and testing in memory and from archives run the same
arithmetic on the same summaries, so both give bit-identical results.

The combined information is block-arrowhead: a dense theta row and
column plus one nuisance block D_k per group, with no cross-group
nuisance terms.  Each D_k is eliminated by its Cholesky inverse, the
p x p theta Schur complement is inverted the same way for theta, and
each group's zeta is back-substituted.  The theta covariance is N times
the inverse Schur complement; the nuisance variances come per group from
the diagonal of D_k^{-1} + D_k^{-1} B_k' Schur^{-1} B_k D_k^{-1}.  No
(p+d) x (p+d) matrix is formed, so the cost is linear in K.  All
reductions run in a fixed (k-major, j-minor) order so results are
bitwise reproducible regardless of how the block fits were scheduled.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .engines import (
    KINDS, BlockRecord, _flat_moments, _moments_size, _unflat_moments, nuisance_dim,
)
from .errors import CombineError, ConvergenceError
from .partition import PartitionPlan, format_plan, parse_plan

# fixed archive member timestamp so bundles are byte-identical across runs
_EPOCH = (1980, 1, 1, 0, 0, 0)
BUNDLE_FORMAT = 4  # the meta.txt format field; load_bundle reads no other


@dataclass(frozen=True)
class GroupSummary:
    """What combination and the over-identification test need from subject
    group k.

    Exactly the numbers a bundle archive stores.  ``vhat`` is
    V_k = tau_k' tau_k / N, exactly symmetric and admitted
    (:func:`_admit_group`).  ``info`` = I_k = S_k' W_k S_k and ``rhs`` =
    r_k = S_k' W_k v_k (:func:`build_C`) are unscaled (:func:`combine`
    multiplies both by n_k^2).  ``blocks`` holds the group's J block
    records in j order, each with its moments.
    """

    n: int  # n_k
    vhat: np.ndarray  # (Jp + d_k, Jp + d_k)
    info: np.ndarray  # (p + d_k, p + d_k)
    rhs: np.ndarray  # (p + d_k,)
    blocks: tuple  # J BlockRecords


def _runs(ks: list) -> str:
    """Sorted integers as comma-separated runs, e.g. '2..19, 25'."""
    starts = [a for i, a in enumerate(ks) if i == 0 or ks[i - 1] != a - 1]
    ends = [a for i, a in enumerate(ks) if i == len(ks) - 1 or ks[i + 1] != a + 1]
    return ", ".join(str(a) if a == b else f"{a}..{b}" for a, b in zip(starts, ends))


@dataclass(frozen=True)
class SummaryBundle:
    """The plan and one summary per subject group (k -> GroupSummary): the
    sufficient statistic for combination and the over-identification test,
    whether the groups were fitted in memory or read from archives."""

    plan: PartitionPlan
    groups: dict  # k -> GroupSummary

    @classmethod
    def from_fits(cls, plan: PartitionPlan, fits: dict) -> SummaryBundle:
        """The bundle of in-memory block fits ((j, k) -> BlockFit): the
        summary of each group that has a fit, from its J fits.  A group
        missing one of its blocks is a CombineError naming it."""
        groups = {}
        for k in sorted({k for _, k in fits}):
            if not 0 <= k < plan.K:
                raise CombineError(f"block fits of group {k}, the plan has {plan.K} groups")
            missing = [j for j in range(plan.J) if (j, k) not in fits]
            if missing:
                raise CombineError(f"bundle has no block ({missing[0]}, {k}) for group {k}")
            groups[k] = group_summary(plan, k, [fits[(j, k)] for j in range(plan.J)])
        return cls(plan=plan, groups=groups)

    @property
    def fits(self) -> dict:
        """Every block's record, (j, k) -> BlockRecord, in (k, j) order."""
        return {
            (j, k): record
            for k in sorted(self.groups)
            for j, record in enumerate(self.groups[k].blocks)
        }

    @property
    def p(self) -> int:
        return next(iter(self.groups.values())).blocks[0].p

    @property
    def J(self) -> int:
        return self.plan.J

    @property
    def K(self) -> int:
        return self.plan.K

    @property
    def d(self) -> int:
        return sum(record.d for group in self.groups.values() for record in group.blocks)

    def validate(self, allow_unconverged: bool = False) -> None:
        """A CombineError for a missing group or a mismatched p, and the
        package's one convergence check: a ConvergenceError naming every
        unconverged block unless ``allow_unconverged``."""
        missing = [k for k in range(self.K) if k not in self.groups]
        if missing:
            raise CombineError(
                f"bundle holds {len(self.groups)} of the plan's {self.K} groups; "
                f"missing groups {_runs(missing)} (first missing block (0, {missing[0]}))"
            )
        fits = self.fits
        p = self.p
        for (j, k), record in fits.items():
            if record.p != p:
                raise CombineError(f"block ({j}, {k}) has p={record.p}, expected {p}")
        unconverged = sorted(key for key, record in fits.items() if not record.converged)
        if unconverged and not allow_unconverged:
            raise ConvergenceError(
                f"blocks {unconverged} did not converge (pass allow_unconverged, "
                "or --allow-unconverged on the command line, to combine anyway)"
            )


@dataclass(frozen=True)
class CombinedFit:
    theta: np.ndarray  # (p,)
    zeta: np.ndarray  # (d,) combined nuisance, j-fast k-slow block order
    cov_theta: np.ndarray  # (p, p) covariance of theta
    variances: np.ndarray  # (p + d,) variances of (theta, zeta)
    N: int
    p: int
    diagnostics: dict = field(default_factory=dict)


def assemble_vhat(bundle: SummaryBundle) -> tuple:
    """Empirical score covariance (1/N) sum_i tau_i tau_i', one block per
    group: each group summary's V_k (:func:`group_summary`)."""
    bundle.validate(allow_unconverged=True)
    return tuple(bundle.groups[k].vhat for k in range(bundle.K))


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """R^{-1} of an upper-triangular R.  ``np.linalg.inv`` of an upper
    triangle exchanges no rows, so it is a back substitution; it does the
    LU work of a full matrix, though, so R is split in halves recursively
    down to leaves of at most 32 rows, and each off-diagonal block of the
    inverse is -A^{-1} R_12 C^{-1} from the inverses A^{-1} and C^{-1} of
    the diagonal halves."""
    dim = r.shape[0]
    if dim <= 32:
        return np.linalg.inv(r)
    h = dim // 2
    a, c = _upper_inverse(r[:h, :h]), _upper_inverse(r[h:, h:])
    out = np.zeros_like(r)
    out[:h, :h] = a
    out[:h, h:] = -(a @ r[:h, h:]) @ c
    out[h:, h:] = c
    return out


def _factor_inverse(r: np.ndarray) -> np.ndarray:
    """V^{-1} = R^{-1} R^{-T} from the upper Cholesky factor R of V
    (V = R'R): R^{-1} from :func:`_upper_inverse` and one matmul, mirrored
    from its upper triangle so that it is exactly symmetric."""
    ri = _upper_inverse(r)
    w = ri @ ri.T
    return np.triu(w) + np.triu(w, 1).T


def _cholesky_inverse(vk: np.ndarray) -> np.ndarray | None:
    """V^{-1}, or None where V is not positive definite: each nuisance
    block's D_k^{-1} and the inverse theta Schur complement of
    :func:`combine`."""
    try:
        r = np.linalg.cholesky(vk).T
    except np.linalg.LinAlgError:
        return None
    return _factor_inverse(r)


def check_group_size(k: int, n: int, dim: int) -> None:
    """The admission rule of subject group k: its weights W_k exist only if
    n_k > dim_k = J p + d_k, and otherwise it is a CombineError naming the
    group.  V_k = tau_k' tau_k / N has rank at most n_k, and each block's
    score columns average to about zero at the block's own estimate, which
    leaves V_k singular, or nearly so, at n_k = dim_k."""
    if n <= dim:
        raise CombineError(
            f"group {k} has n_k = {n} subjects, too few for its weights: W_k "
            f"needs n_k > dim_k = J p + d_k = {dim}; use fewer response blocks J "
            "or fewer subject groups K"
        )


def _admit_group(vk: np.ndarray, k: int, n: int) -> np.ndarray:
    """The one admission check of the V_k of group k's n subjects, where a
    summary is formed or read; it returns V_k's upper Cholesky factor R.

    A group too small for its weights (:func:`check_group_size`), a V_k
    with a non-finite entry (an overflowing score covariance, or a damaged
    archive's) and a V_k that Cholesky rejects, so not positive definite,
    are each a CombineError naming the group."""
    check_group_size(k, n, vk.shape[0])
    if not np.isfinite(vk).all():
        raise CombineError(
            f"group {k} score covariance is not finite (the block scores "
            "overflow); cannot form weights"
        )
    try:
        return np.linalg.cholesky(vk).T
    except np.linalg.LinAlgError:
        raise CombineError(
            f"group {k} score covariance is not positive definite; cannot form weights"
        ) from None


def invert_vhat(vhat: tuple, bundle: SummaryBundle) -> tuple:
    """The explicit weights W_k = V_k^{-1} of each group's V_k, in k order,
    from the Cholesky factor of its admission check (:func:`_admit_group`),
    with n_k from the bundle's plan.  It is the one place a W_k is formed,
    and no pipeline code calls it: it serves the benchmark and the tests'
    explicit-inverse oracles, and ROADMAP item 2 moves it to the tests."""
    sizes, out = bundle.plan.group_sizes, []
    for k, vk in enumerate(vhat):
        # an overflow is caught by the finiteness check below, which names the group
        with np.errstate(over="ignore", invalid="ignore"):
            w = _factor_inverse(_admit_group(vk, k, sizes[k]))
        if not np.isfinite(w).all():
            raise CombineError(f"group {k} weights are not finite; V_k is too ill-conditioned")
        out.append(w)
    return tuple(out)


def _stack_sensitivities(fits: list):
    """(S_k, v_k) of :func:`build_C` from the group's J block fits.

    Every block's entries land by one scatter.  Block j's local
    coordinate t (t < p + d_j) is the stacked row j p + t and the
    column t for t < p (theta), and the row Jp + off_j + t - p and the
    column off_j + t for t >= p (its nuisance), with off_j the nuisance
    dimensions of the blocks before it.  A (J, max_j p + d_j) grid holds
    these for every block, and ``held`` marks the coordinates a block has.
    """
    J, p = len(fits), fits[0].p
    ds = np.array([fit.d for fit in fits], dtype=int)
    d_k = int(ds.sum())
    off = (np.cumsum(ds) - ds)[:, None]
    t = np.arange(p + ds.max())
    held = t < p + ds[:, None]
    cols = np.where(t < p, t, off + t)
    rows = np.where(t < p, np.arange(J)[:, None] * p + t, (J - 1) * p + cols)
    s = np.zeros((J * p + d_k, p + d_k))
    # the flat index of every (row, column) pair of a block, in its row-major order
    flat = (rows * (p + d_k))[:, :, None] + cols[:, None, :]
    s.reshape(-1)[flat[held[:, :, None] & held[:, None, :]]] = np.concatenate(
        [fit.sensitivity.ravel() for fit in fits]
    )
    v = np.empty(J * p + d_k)
    v[rows[held]] = np.concatenate(
        [fit.sensitivity @ np.concatenate([fit.theta_hat, fit.zeta_hat]) for fit in fits]
    )
    return s, v


def build_C(fits: list, vhat: np.ndarray):
    """Group information I_k = S_k' W_k S_k and right-hand side
    r_k = S_k' W_k v_k from the group's J block fits and its V_k, with
    W_k = V_k^{-1} applied by one solve of V_k against [S_k v_k].

    S_k is (Jp + d_k) x (p + d_k): rows follow the layout of the group's
    stacked scores (the psi rows of blocks 1..J, then their g rows, as
    :func:`group_summary` stacks them), columns the
    group's parameter (theta, zeta_1k .. zeta_Jk).  v_k stacks each
    block's S_(j,k) (theta_hat_j, zeta_hat_j) in the same row layout.
    I_k equals sum_i C_{k,i} without the all-zero columns of other groups.
    """
    s, v = _stack_sensitivities(fits)
    wsv = np.linalg.solve(vhat, np.column_stack([s, v]))
    swsv = s.T @ wsv
    return swsv[:, :-1], swsv[:, -1]


def group_summary(plan: PartitionPlan, k: int, fits: list) -> GroupSummary:
    """Group k's summary from its J in-memory block fits, in j order: V_k
    (exactly symmetric and admitted), I_k and r_k, and each block's record
    without its scores and sensitivity."""
    n, p = plan.group_sizes[k], fits[0].p
    for fit in fits:
        if fit.n != n:
            raise CombineError(f"block ({fit.j}, {k}) has n={fit.n}, plan says {n}")
    tau = np.hstack([fit.scores[:, :p] for fit in fits] + [fit.scores[:, p:] for fit in fits])
    # an overflow is caught by the finiteness checks, which name the group
    with np.errstate(over="ignore", invalid="ignore"):
        vhat = tau.T @ tau / plan.N
        vhat = 0.5 * (vhat + vhat.T)
        _admit_group(vhat, k, n)
        info, rhs = build_C(fits, vhat)
    if not (np.isfinite(info).all() and np.isfinite(rhs).all()):
        raise CombineError(f"group {k} weights are not finite; V_k is too ill-conditioned")
    records = tuple(fit.record() for fit in fits)
    return GroupSummary(n, vhat, info, rhs, records)


def _condition(sym: np.ndarray) -> float:
    """2-norm condition number of a symmetric positive definite matrix."""
    if sym.size == 0:
        return 1.0
    eig = np.linalg.eigvalsh(sym)
    # round-off can put the smallest eigenvalue of a matrix that Cholesky
    # accepted at or below zero: the condition is then unbounded
    return float(eig[-1] / eig[0]) if eig[0] > 0 else float("inf")


def combine(bundle: SummaryBundle, allow_unconverged: bool = False) -> CombinedFit:
    """Closed-form combined estimator and its covariance, by eliminating
    each group's nuisance block from the block-arrowhead information."""
    bundle.validate(allow_unconverged=allow_unconverged)
    summaries = [bundle.groups[k] for k in range(bundle.K)]
    p, N = bundle.p, bundle.plan.N

    # overflow is caught by the finiteness checks, which name where it happened
    with np.errstate(over="ignore", invalid="ignore"):
        schur = np.zeros((p, p))
        rhs = np.zeros(p)
        groups = []
        for k, summary in enumerate(summaries):
            nk2 = float(summary.n) ** 2
            info = nk2 * (0.5 * (summary.info + summary.info.T))
            r = nk2 * summary.rhs
            if not (np.isfinite(info).all() and np.isfinite(r).all()):
                raise CombineError(f"group {k} summary overflows once scaled by n_k^2")
            b, nuisance = info[:p, p:], info[p:, p:]
            dinv = _cholesky_inverse(nuisance)
            if dinv is None:
                raise CombineError(
                    f"combined information is singular: the nuisance block of "
                    f"group {k} is not positive definite (its block sensitivities "
                    "do not identify its nuisance parameters)"
                )
            dinv_bt = dinv @ b.T  # D_k^{-1} B_k'
            dinv_r = dinv @ r[p:]
            schur += info[:p, :p] - b @ dinv_bt
            rhs += r[:p] - b @ dinv_r
            groups.append((nuisance, dinv, dinv_bt, dinv_r))

        schur = 0.5 * (schur + schur.T)
        if not (np.isfinite(schur).all() and np.isfinite(rhs).all()):
            raise CombineError("the theta Schur complement overflows")
        schur_inv = _cholesky_inverse(schur)
        if schur_inv is None:
            raise CombineError(
                "combined information is singular: the theta Schur complement "
                "is not positive definite (the block sensitivities do not "
                "identify theta)"
            )
        theta = schur_inv @ rhs

        zeta, variances = [], [np.diag(schur_inv)]
        for _, dinv, dinv_bt, dinv_r in groups:
            zeta.append(dinv_r - dinv_bt @ theta)
            variances.append(
                np.diag(dinv) + np.einsum("ia,ab,ib->i", dinv_bt, schur_inv, dinv_bt)
            )

        zeta, variances = np.concatenate(zeta), N * np.concatenate(variances)
        if not all(np.isfinite(a).all() for a in (theta, zeta, variances)):
            raise CombineError(
                "combined estimates are not finite: the information is too ill-conditioned"
            )

    return CombinedFit(
        theta=theta,
        zeta=zeta,
        cov_theta=N * schur_inv,
        variances=variances,
        N=N,
        p=p,
        diagnostics={
            "theta_schur_condition": _condition(schur),
            "nuisance_condition": tuple(_condition(g[0]) for g in groups),
            # dim_k / n_k: W_k is estimated in dim_k dimensions from n_k subjects
            "weight_dim_ratio": tuple(s.vhat.shape[0] / s.n for s in summaries),
            "plan_seed": bundle.plan.seed,
        },
    )


# ---------------------------------------------------------------------------
# bundle serialization: a deterministic zip of four members.  Every member
# is stored, not deflated: deflate shrank the float64 summaries by 5-28 %
# but made a save two to three times as slow, and a stored member's CRC-32
# still catches a damaged payload when it is read.
#   plan.txt     the plan (format_plan)
#   meta.txt     "format = 4" and "p = <p>"
#   blocks.bin   one packed _BLOCK_TABLE record per block, in (k, j) order
#   numbers.bin  every float of the bundle as little-endian float64, group
#                by group in k order: V_k's upper triangle (row-major), I_k,
#                r_k, then per block in j order theta_hat, zeta_hat and the
#                float fields of its moments (engines._moment_shapes)
# The binary members have no header to parse: meta.txt and the plan give
# their layout.  Reading admits each V_k and derives nothing.

_BLOCK_TABLE = np.dtype([
    ("k", "<i8"), ("j", "<i8"), ("kind", "S16"), ("converged", "?"),
    ("iterations", "<i8"), ("final_norm", "<f8"), ("rho_clamped", "?"),
])
_NUMBER = np.dtype("<f8")
_MEMBERS = ("plan.txt", "meta.txt", "blocks.bin", "numbers.bin")


def _write_member(zf: zipfile.ZipFile, name: str, payload: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_STORED
    zf.writestr(info, payload)


def _upper(dim: int) -> np.ndarray:
    """The mask of a dim x dim upper triangle, diagonal included; it takes
    the entries in row-major order, and on a transpose the mirror image."""
    return ~np.tri(dim, k=-1, dtype=bool)


def _group_numbers(summary: GroupSummary) -> list:
    """Group k's share of numbers.bin, as a list of 1-d arrays."""
    parts = [summary.vhat[_upper(len(summary.vhat))], summary.info.ravel(), summary.rhs]
    for record in summary.blocks:
        parts += [record.theta_hat, record.zeta_hat, _flat_moments(record.moments, record.kind)]
    return parts


def save_bundle(bundle: SummaryBundle, path) -> None:
    """Write a format-4 archive, byte-reproducible: the plan and, for each
    subject group the bundle holds, its summary and its blocks' records.

    Works for whole bundles, :func:`split_bundle` parts and loaded bundles
    alike, because each group's summary stands alone.
    """
    if not bundle.groups:
        raise CombineError("bundle holds no subject group to save")
    ks = sorted(bundle.groups)
    table = np.array([
        (k, j, r.kind, r.converged, r.iterations, r.final_norm, r.rho_clamped)
        for k in ks for j, r in enumerate(bundle.groups[k].blocks)
    ], dtype=_BLOCK_TABLE)
    numbers = np.concatenate([part for k in ks for part in _group_numbers(bundle.groups[k])])
    with zipfile.ZipFile(path, "w") as zf:
        _write_member(zf, "plan.txt", format_plan(bundle.plan).encode())
        _write_member(zf, "meta.txt", f"format = {BUNDLE_FORMAT}\np = {bundle.p}\n".encode())
        _write_member(zf, "blocks.bin", table.tobytes())
        _write_member(zf, "numbers.bin", numbers.astype(_NUMBER).tobytes())


# what zipfile raises on damaged headers, offsets, flags or deflate streams
_ZIP_DAMAGE = (
    zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError, ValueError,
)


def _read_member(zf: zipfile.ZipFile, path, name: str) -> bytes:
    try:
        return zf.read(name)
    except KeyError:
        raise CombineError(f"{path}: bundle has no member {name}") from None
    except _ZIP_DAMAGE as exc:
        raise CombineError(f"{path}: member {name} is corrupt ({exc!r})") from None


def _read_array(zf: zipfile.ZipFile, path, name: str, dtype) -> np.ndarray:
    """The read-only 1-d array of ``dtype`` records that a binary member
    packs."""
    payload = _read_member(zf, path, name)
    if len(payload) % dtype.itemsize:
        raise CombineError(
            f"{path}: member {name} holds {len(payload)} bytes, not a whole "
            f"number of {dtype.itemsize}-byte records"
        )
    return np.frombuffer(payload, dtype)


def _read_meta(zf: zipfile.ZipFile, path) -> int:
    """p from meta.txt, once its format is checked."""
    meta = {}
    # undecodable bytes become U+FFFD and then fail the checks
    for line in _read_member(zf, path, "meta.txt").decode(errors="replace").splitlines():
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    if "format" not in meta:
        raise CombineError(f"{path}: meta.txt has no format field")
    if meta["format"] != str(BUNDLE_FORMAT):
        raise CombineError(
            f"{path}: meta.txt has format = {meta['format']!r}, this version "
            f"reads format {BUNDLE_FORMAT} only (refit with blockgmm fit to "
            "regenerate the bundle)"
        )
    p = meta.get("p", "")
    if not (p.isascii() and p.isdigit() and int(p) >= 1):
        raise CombineError(f"{path}: meta.txt has p = {p!r}, expected an integer >= 1")
    return int(p)


def _read_groups(path, plan: PartitionPlan, p: int, table: np.ndarray, numbers: np.ndarray):
    """k -> GroupSummary of every group in the block table, from numbers."""
    J, rows = plan.J, table.tolist()
    ks = [row[0] for row in rows[::J]]
    if not (
        rows and len(rows) % J == 0 and ks == sorted(set(ks)) and 0 <= ks[0]
        and ks[-1] < plan.K and all(row[:2] == (ks[i // J], i % J) for i, row in enumerate(rows))
    ):
        raise CombineError(
            f"{path}: blocks.bin does not list the J={J} blocks of each group "
            f"it holds (of the plan's K={plan.K}) in (k, j) order"
        )
    kinds = [row[2].decode(errors="replace") for row in rows]
    for kind in kinds:
        if kind not in KINDS:
            raise CombineError(f"{path}: blocks.bin names unknown solver kind {kind!r}")
    ds = [nuisance_dim(kind) for kind in kinds]
    sizes = [_moments_size(kind, p, plan.block_sizes[i % J]) for i, kind in enumerate(kinds)]
    dims = [sum(ds[g * J : (g + 1) * J]) for g in range(len(ks))]  # d_k
    need = sum((J * p + d) * (J * p + d + 1) // 2 + (p + d) * (p + d + 1) for d in dims)
    need += sum(p + d + size for d, size in zip(ds, sizes))
    if numbers.size != need:
        raise CombineError(f"{path}: numbers.bin holds {numbers.size} numbers, its blocks need {need}")
    if not np.isfinite(numbers).all():
        raise CombineError(f"{path}: member numbers.bin holds non-finite values")
    groups, at = {}, 0

    def take(size):  # the next ``size`` numbers, a view
        nonlocal at
        at += size
        return numbers[at - size : at]

    for g, (k, d_k) in enumerate(zip(ks, dims)):
        dim, q, n = J * p + d_k, p + d_k, plan.group_sizes[k]
        upper = _upper(dim)
        vhat = np.empty((dim, dim))
        vhat[upper] = vhat.T[upper] = take(dim * (dim + 1) // 2)
        info, rhs = take(q * q).reshape(q, q), take(q)
        records = []
        for j, i in enumerate(range(g * J, (g + 1) * J)):
            converged, iterations, final_norm, clamped = rows[i][3:]
            theta, zeta = take(p), take(ds[i])
            flat = take(sizes[i])
            records.append(BlockRecord(
                j=j, k=k, kind=kinds[i], theta_hat=theta, zeta_hat=zeta,
                converged=converged, iterations=iterations, final_norm=final_norm,
                rho_clamped=clamped,
                moments=_unflat_moments(flat, kinds[i], p, n, plan.block_sizes[j]),
            ))
        _admit_group(vhat, k, n)
        groups[k] = GroupSummary(n, vhat, info, rhs, tuple(records))
    return groups


def load_bundle(path) -> SummaryBundle:
    """Read a format-4 bundle archive written by :func:`save_bundle`: each
    group's summary as stored, once its V_k is admitted
    (:func:`_admit_group`).

    Any other format, and a malformed archive, plan, metadata entry,
    block table or number array, is a :class:`CombineError` or
    :class:`PlanError` naming the member.
    """
    try:
        zf = zipfile.ZipFile(path)
    except _ZIP_DAMAGE as exc:
        raise CombineError(f"{path}: not a bundle archive ({exc})") from None
    with zf:
        p = _read_meta(zf, path)
        plan_text = _read_member(zf, path, "plan.txt").decode(errors="replace")
        plan = parse_plan(plan_text, f"{path}: plan.txt")
        for name in zf.namelist():
            if name not in _MEMBERS:
                raise CombineError(f"{path}: unexpected member {name}")
        table = _read_array(zf, path, "blocks.bin", _BLOCK_TABLE)
        numbers = _read_array(zf, path, "numbers.bin", _NUMBER)
    return SummaryBundle(plan=plan, groups=_read_groups(path, plan, p, table, numbers))


def split_bundle(bundle: SummaryBundle) -> list:
    """One partial bundle per subject group the bundle holds, in k order
    (same plan, that group's summary)."""
    return [SummaryBundle(plan=bundle.plan, groups={k: bundle.groups[k]})
            for k in sorted(bundle.groups)]


def merge_bundles(parts: list) -> SummaryBundle:
    """Reunite partial bundles produced by :func:`split_bundle`."""
    if not parts:
        raise CombineError("no bundles to merge")
    plan = parts[0].plan
    groups = {}
    for part in parts:
        if part.plan != plan:
            raise CombineError("cannot merge bundles with different plans")
        overlap = groups.keys() & part.groups.keys()
        if overlap:
            raise CombineError(f"duplicate groups across bundles: {sorted(overlap)}")
        groups.update(part.groups)
    return SummaryBundle(plan=plan, groups=groups)
