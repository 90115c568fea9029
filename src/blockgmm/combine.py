"""Closed-form combination of block fits.

The per-subject scores of the JK blocks are stacked group-wise into an
empirical covariance V_hat (exactly block-diagonal over subject groups)
and inverted per group into the weights W_k.  Group k contributes the
information I_k = S_k' W_k S_k and the right-hand side r_k = S_k' W_k v_k,
where S_k stacks the group's block sensitivities over the parameter
(theta, zeta_1k .. zeta_Jk) and v_k stacks each block's S_(j,k) applied
to its own estimates.  I_k is the sum over i of the combination matrices
C_{k,i} with the columns of other groups' nuisance parameters, which are
zero, dropped.

Everything combination needs from group k is therefore its summary:
(I_k, r_k), its size n_k and its blocks' estimates and convergence
records.  :func:`group_summary` builds it once per group from the
group's block fits; a bundle archive (format 3) stores exactly these
summaries, (p + d_k)^2 + (p + d_k) numbers per group, and a plan of
J + K + 1 integers and a strategy.  Nothing in it grows with the number
of subjects: it holds no per-subject score or label.  Combining in memory
and from archives runs the same arithmetic on the same summaries, so both
give bit-identical results.

The combined information is block-arrowhead: a dense theta row and
column plus one nuisance block D_k per group, with no cross-group
nuisance terms.  Each D_k is eliminated by Cholesky, the p x p theta
Schur complement is solved for theta, and each group's zeta is
back-substituted.  The theta covariance is N times the inverse Schur
complement; the nuisance variances come per group from the diagonal of
D_k^{-1} + D_k^{-1} B_k' Schur^{-1} B_k D_k^{-1}.  No (p+d) x (p+d)
matrix is formed, so the cost is linear in K.  All reductions run in a
fixed (k-major, j-minor) order so results are bitwise reproducible
regardless of how the block fits were scheduled.
"""

from __future__ import annotations

import io
import re
import tokenize
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .engines import KINDS, BlockFit, BlockRecord, nuisance_dim
from .errors import CombineError, ConvergenceError
from .partition import PartitionPlan, format_plan, parse_plan

# fixed archive member timestamp so bundles are byte-identical across runs
_EPOCH = (1980, 1, 1, 0, 0, 0)
BUNDLE_FORMAT = 3  # the meta.txt format field; load_bundle reads no other


@dataclass(frozen=True)
class GroupSummary:
    """What combination needs from subject group k.

    ``info`` = I_k = S_k' W_k S_k and ``rhs`` = r_k = S_k' W_k v_k, unscaled
    (:func:`combine` multiplies both by n_k^2), with W_k the inverse of
    V_k = tau_k' tau_k / N.  ``vhat`` and ``w`` are V_k and W_k; they are
    kept in memory for the over-identification test and never saved.
    """

    n: int  # n_k
    info: np.ndarray  # (p + d_k, p + d_k)
    rhs: np.ndarray  # (p + d_k,)
    ridge_repaired: bool
    vhat: np.ndarray | None = None
    w: np.ndarray | None = None


@dataclass(frozen=True)
class SummaryBundle:
    """The plan, every block's record and one summary per subject group:
    the sufficient statistic for combination.

    In memory ``fits`` holds each block's :class:`BlockFit`, and a group's
    summary is built from them on first use and kept in ``groups``.  A
    bundle read from an archive holds block records (:class:`BlockRecord`)
    and the stored summaries.
    """

    plan: PartitionPlan
    fits: dict  # (j, k) -> BlockFit, or BlockRecord when loaded
    groups: dict = field(default_factory=dict, compare=False)  # k -> GroupSummary

    @property
    def p(self) -> int:
        return next(iter(self.fits.values())).p

    @property
    def J(self) -> int:
        return self.plan.J

    @property
    def K(self) -> int:
        return self.plan.K

    @property
    def d(self) -> int:
        return sum(fit.d for fit in self.fits.values())

    def summary(self, k: int) -> GroupSummary:
        """Group k's summary, built by :func:`group_summary` at most once."""
        if k not in self.groups:
            self.groups[k] = group_summary(self, k)
        return self.groups[k]

    def validate(self, allow_unconverged: bool = False) -> None:
        """A CombineError for a missing block or a mismatched p, and the
        package's one convergence check: a ConvergenceError naming every
        unconverged block unless ``allow_unconverged``."""
        expected = {(j, k) for k in range(self.K) for j in range(self.J)}
        if set(self.fits) != expected:
            raise CombineError(
                f"bundle holds blocks {sorted(self.fits)} but plan needs "
                f"{self.J}x{self.K}"
            )
        p = self.p
        for (j, k), fit in self.fits.items():
            if fit.p != p:
                raise CombineError(f"block ({j}, {k}) has p={fit.p}, expected {p}")
        unconverged = sorted(key for key, fit in self.fits.items() if not fit.converged)
        if unconverged and not allow_unconverged:
            raise ConvergenceError(
                f"blocks {unconverged} did not converge (pass allow_unconverged, "
                "or --allow-unconverged on the command line, to combine anyway)"
            )


@dataclass(frozen=True)
class WeightBlocks:
    """Per-group inverse score-covariance blocks W_k = V_k^{-1}.

    Each group's stacked score layout is [psi_(1,k) .. psi_(J,k),
    g_(1,k) .. g_(J,k)]; cross-group covariance is exactly zero and never
    materialized.
    """

    p: int
    J: int
    vhat: tuple  # per-group V_k, each (Jp + d_k, Jp + d_k)
    w: tuple  # per-group W_k = V_k^{-1}
    ridge_repaired: tuple  # per-group flag


@dataclass(frozen=True)
class CombinedFit:
    theta: np.ndarray  # (p,)
    zeta: np.ndarray  # (d,) combined nuisance, j-fast k-slow block order
    cov_theta: np.ndarray  # (p, p) covariance of theta
    variances: np.ndarray  # (p + d,) variances of (theta, zeta)
    N: int
    p: int
    W: WeightBlocks | None = None  # the weights of an in-memory combination
    diagnostics: dict = field(default_factory=dict)


def _group_fits(bundle: SummaryBundle, k: int) -> list:
    """The J in-memory block fits of group k, each with n_k score rows."""
    n = bundle.plan.group_sizes[k]
    fits = []
    for j in range(bundle.J):
        fit = bundle.fits.get((j, k))
        if fit is None:
            raise CombineError(f"bundle has no block ({j}, {k}) for group {k}")
        if not isinstance(fit, BlockFit):
            raise CombineError(
                f"block ({j}, {k}) carries no scores and the bundle has no "
                f"summary of group {k}"
            )
        if fit.n != n:
            raise CombineError(f"block ({j}, {k}) has n={fit.n}, plan says {n}")
        fits.append(fit)
    return fits


def assemble_vhat(bundle: SummaryBundle) -> tuple:
    """Empirical score covariance (1/N) sum_i tau_i tau_i', one block per
    group: each group summary's V_k (:func:`group_summary`).  A summary read
    from a bundle archive keeps none, and is a CombineError."""
    out = []
    for k in range(bundle.K):
        vhat = bundle.summary(k).vhat
        if vhat is None:
            raise CombineError(
                f"the summary of group {k} keeps no score covariance V_k (a "
                "summary read from a bundle archive has none); V_k needs the "
                "block fits in memory"
            )
        out.append(vhat)
    return tuple(out)


def _cholesky_inverse(vk: np.ndarray) -> np.ndarray | None:
    """V^{-1}, or None where V is not positive definite: V = R'R by
    LAPACK's dpotrf on the upper triangle, then V^{-1} = R^{-1} R^{-T} from
    dtrtri and one matmul, mirrored from its upper triangle so that it is
    exactly symmetric.

    dpotri forms the same product with LAPACK's lauum, which OpenBLAS runs
    on its thread pool at any size: with its default threads, a 25 x 25
    inverse took milliseconds and the test suite ran 60 % longer.
    """
    r, info = scipy.linalg.lapack.dpotrf(vk, lower=False, clean=True)
    if info == 0:
        # R^{-1} in R's place; clean=True zeroed the lower triangle, which dtrtri keeps
        r, info = scipy.linalg.lapack.dtrtri(r, lower=False)
    if info != 0:
        return None
    w = r @ r.T
    return np.triu(w) + np.triu(w, 1).T


def _invert_group(vk: np.ndarray, k: int):
    """(W_k, ridge_repaired): the inverse of V_k from its Cholesky factor
    (:func:`_cholesky_inverse`), exactly symmetric, with minimal ridge repair.

    A V_k with a non-finite entry (an overflowing score covariance) is a
    CombineError naming the group."""
    if not np.isfinite(vk).all():
        raise CombineError(
            f"group {k} score covariance is not finite (the block scores "
            "overflow); cannot form weights"
        )
    vk = 0.5 * (vk + vk.T)
    dim = vk.shape[0]
    flag = False
    w = _cholesky_inverse(vk)
    if w is None:
        eigmin = float(scipy.linalg.eigvalsh(vk, subset_by_index=(0, 0))[0])
        scale = float(np.trace(vk)) / dim
        if eigmin <= -1e-10 * max(scale, 1.0):
            raise CombineError(
                f"group {k} score covariance is not positive definite "
                f"(min eigenvalue {eigmin:.3e}); cannot form weights"
            )
        flag = True
        w = _cholesky_inverse(vk + (1e-8 * scale) * np.eye(dim))
        if w is None:
            raise CombineError(
                f"group {k} score covariance is singular beyond ridge repair "
                f"(min eigenvalue {eigmin:.3e}, ridge {1e-8 * scale:.3e}); "
                "cannot form weights"
            )
    return w, flag


def invert_vhat(vhat: tuple, bundle: SummaryBundle) -> WeightBlocks:
    """Cholesky inverse of each group block, with minimal ridge repair.

    A block whose smallest eigenvalue is barely negative (round-off) gets
    lambda = 1e-8 * trace/dim added to the diagonal; anything genuinely
    indefinite is a hard error.
    """
    w, repaired = zip(*(_invert_group(vk, k) for k, vk in enumerate(vhat)))
    return WeightBlocks(
        p=bundle.p, J=bundle.J, vhat=tuple(vhat), w=w, ridge_repaired=repaired
    )


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


def build_C(fits: list, w: np.ndarray):
    """Group information I_k = S_k' W_k S_k and right-hand side
    r_k = S_k' W_k v_k from the group's J block fits and its weights W_k.

    S_k is (Jp + d_k) x (p + d_k): rows follow the layout of the group's
    stacked scores (the psi rows of blocks 1..J, then their g rows, as
    :func:`group_summary` stacks them), columns the
    group's parameter (theta, zeta_1k .. zeta_Jk).  v_k stacks each
    block's S_(j,k) (theta_hat_j, zeta_hat_j) in the same row layout.
    I_k equals sum_i C_{k,i} without the all-zero columns of other groups.
    """
    s, v = _stack_sensitivities(fits)
    sw = s.T @ w
    return sw @ s, sw @ v


def group_summary(bundle: SummaryBundle, k: int) -> GroupSummary:
    """Group k's summary from its in-memory block fits: V_k, W_k, I_k, r_k."""
    fits, p = _group_fits(bundle, k), bundle.p
    tau = np.hstack([fit.scores[:, :p] for fit in fits] + [fit.scores[:, p:] for fit in fits])
    # an overflow is caught by _invert_group's finiteness check, which names the group
    with np.errstate(over="ignore", invalid="ignore"):
        vhat = tau.T @ tau / bundle.plan.N
    w, repaired = _invert_group(vhat, k)
    info, rhs = build_C(fits, w)
    return GroupSummary(
        n=bundle.plan.group_sizes[k], info=info, rhs=rhs,
        ridge_repaired=repaired, vhat=vhat, w=w,
    )


def _condition(sym: np.ndarray) -> float:
    """2-norm condition number of a symmetric positive definite matrix."""
    if sym.size == 0:
        return 1.0
    eig = scipy.linalg.eigvalsh(sym)
    # round-off can put the smallest eigenvalue of a matrix that Cholesky
    # accepted at or below zero: the condition is then unbounded
    return float(eig[-1] / eig[0]) if eig[0] > 0 else float("inf")


def combine(bundle: SummaryBundle, allow_unconverged: bool = False) -> CombinedFit:
    """Closed-form combined estimator and its covariance, by eliminating
    each group's nuisance block from the block-arrowhead information."""
    bundle.validate(allow_unconverged=allow_unconverged)
    summaries = [bundle.summary(k) for k in range(bundle.K)]
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
            try:
                cho = scipy.linalg.cho_factor(nuisance)
            except scipy.linalg.LinAlgError:
                raise CombineError(
                    f"combined information is singular: the nuisance block of "
                    f"group {k} is not positive definite (its block sensitivities "
                    "do not identify its nuisance parameters)"
                ) from None
            dinv_bt = scipy.linalg.cho_solve(cho, b.T)  # D_k^{-1} B_k'
            dinv_r = scipy.linalg.cho_solve(cho, r[p:])
            schur += info[:p, :p] - b @ dinv_bt
            rhs += r[:p] - b @ dinv_r
            groups.append((nuisance, cho, dinv_bt, dinv_r))

        schur = 0.5 * (schur + schur.T)
        if not (np.isfinite(schur).all() and np.isfinite(rhs).all()):
            raise CombineError("the theta Schur complement overflows")
        try:
            cho = scipy.linalg.cho_factor(schur)
        except scipy.linalg.LinAlgError:
            raise CombineError(
                "combined information is singular: the theta Schur complement "
                "is not positive definite (the block sensitivities do not "
                "identify theta)"
            ) from None
        theta = scipy.linalg.cho_solve(cho, rhs)
        schur_inv = scipy.linalg.cho_solve(cho, np.eye(p))

        zeta, variances = [], [np.diag(schur_inv)]
        for nuisance, cho_k, dinv_bt, dinv_r in groups:
            zeta.append(dinv_r - dinv_bt @ theta)
            dinv = scipy.linalg.cho_solve(cho_k, np.eye(nuisance.shape[0]))
            variances.append(
                np.diag(dinv) + np.einsum("ia,ab,ib->i", dinv_bt, schur_inv, dinv_bt)
            )

        zeta, variances = np.concatenate(zeta), N * np.concatenate(variances)
        if not all(np.isfinite(a).all() for a in (theta, zeta, variances)):
            raise CombineError(
                "combined estimates are not finite: the information is too ill-conditioned"
            )

    repaired = tuple(s.ridge_repaired for s in summaries)
    W = None
    if all(s.w is not None for s in summaries):
        W = WeightBlocks(
            p=p, J=bundle.J, vhat=tuple(s.vhat for s in summaries),
            w=tuple(s.w for s in summaries), ridge_repaired=repaired,
        )
    return CombinedFit(
        theta=theta,
        zeta=zeta,
        cov_theta=N * schur_inv,
        variances=variances,
        N=N,
        p=p,
        W=W,
        diagnostics={
            "theta_schur_condition": _condition(schur),
            "nuisance_condition": tuple(_condition(g[0]) for g in groups),
            "ridge_repaired": repaired,
            # dim_k / n_k: W_k is estimated in dim_k dimensions from n_k subjects
            "weight_dim_ratio": tuple(
                (bundle.J * p + s.info.shape[0] - p) / s.n for s in summaries
            ),
            "plan_seed": bundle.plan.seed,
        },
    )


# ---------------------------------------------------------------------------
# bundle serialization: a deterministic zip of the plan, meta.txt and, per
# subject group, four .npy arrays.  Every member is stored, not deflated:
# deflate shrank the float64 summaries by 5-28 % but made a save two to
# three times as slow, and a stored member's CRC-32 still catches a
# damaged payload when it is read.
#   group_k/information.npy  I_k, (p + d_k, p + d_k)
#   group_k/rhs.npy          r_k, (p + d_k,)
#   group_k/theta.npy        the J block theta estimates, (J, p)
#   group_k/zeta.npy         the block zeta estimates, j order, (d_k,)
# meta.txt holds "format = 3", one "group_k = n:.. ridge_repaired:.." line
# per group and one "block_j_k = kind:.. converged:.. iterations:..
# final_norm:.. rho_clamped:.." line per block.

_ARRAYS = (("information", 2), ("rhs", 1), ("theta", 2), ("zeta", 1))
_MEMBER = re.compile(r"group_(0|[1-9][0-9]*)/(information|rhs|theta|zeta)\.npy")


def _write_member(zf: zipfile.ZipFile, name: str, payload: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_STORED
    zf.writestr(info, payload)


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr, dtype=float))
    return buf.getvalue()


def save_bundle(bundle: SummaryBundle, path) -> None:
    """Write a format-3 archive, byte-reproducible: the plan and, for each
    subject group the bundle holds, its summary and its blocks' records.

    Works for whole bundles, :func:`split_bundle` parts and loaded bundles
    alike, because each group's summary stands alone.
    """
    meta_lines = [f"format = {BUNDLE_FORMAT}"]
    with zipfile.ZipFile(path, "w") as zf:
        _write_member(zf, "plan.txt", format_plan(bundle.plan).encode())
        for k in sorted({k for _, k in bundle.fits}):
            summary = bundle.summary(k)
            fits = [bundle.fits[(j, k)] for j in range(bundle.J)]
            stem = f"group_{k}"
            meta_lines.append(
                f"{stem} = n:{summary.n} ridge_repaired:{int(summary.ridge_repaired)}"
            )
            meta_lines.extend(
                f"block_{j}_{k} = kind:{fit.kind} converged:{int(fit.converged)} "
                f"iterations:{fit.iterations} final_norm:{fit.final_norm!r} "
                f"rho_clamped:{int(fit.rho_clamped)}"
                for j, fit in enumerate(fits)
            )
            arrays = (
                summary.info,
                summary.rhs,
                np.stack([fit.theta_hat for fit in fits]),
                np.concatenate([fit.zeta_hat for fit in fits]),
            )
            for (name, _), arr in zip(_ARRAYS, arrays):
                _write_member(zf, f"{stem}/{name}.npy", _npy_bytes(arr))
        _write_member(zf, "meta.txt", "\n".join(meta_lines).encode() + b"\n")


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


def _read_array(zf: zipfile.ZipFile, path, name: str, ndim: int) -> np.ndarray:
    """A finite float64 array of ``ndim`` dimensions from a .npy member."""
    try:
        arr = np.load(io.BytesIO(_read_member(zf, path, name)))
    # a damaged header reaches np.load's Python tokenizer and literal parser
    except (ValueError, EOFError, SyntaxError, tokenize.TokenError) as exc:
        raise CombineError(f"{path}: member {name} is not a .npy array ({exc})") from None
    if arr.dtype != np.float64 or arr.ndim != ndim:
        raise CombineError(
            f"{path}: member {name} is a {arr.ndim}-d {arr.dtype} array, "
            f"expected {ndim}-d float64"
        )
    if not np.isfinite(arr).all():
        raise CombineError(f"{path}: member {name} holds non-finite values")
    return arr


def _meta_entry(meta: dict, path, key: str, casts: dict) -> dict:
    """The fields of meta.txt entry ``key``, each converted by its cast."""
    where = f"{path}: meta.txt entry {key}"
    entry = meta.get(key)
    if entry is None:
        raise CombineError(f"{where} is missing")
    fields = {}
    for item in entry.split(" "):
        name, sep, value = item.partition(":")
        if not sep:
            raise CombineError(f"{where} has malformed field {item!r}")
        fields[name] = value
    try:
        return {name: cast(fields[name]) for name, cast in casts.items()}
    except KeyError as exc:
        raise CombineError(f"{where} lacks field {exc}") from None
    except ValueError as exc:
        raise CombineError(f"{where}: {exc}") from None


_GROUP_FIELDS = {"n": int, "ridge_repaired": int}
_BLOCK_FIELDS = {
    "kind": str, "converged": int, "iterations": int, "final_norm": float, "rho_clamped": int,
}


def _read_group(zf: zipfile.ZipFile, path, plan: PartitionPlan, meta: dict, k: int):
    """Group k's summary and its J block records."""
    stem = f"group_{k}"
    if k >= plan.K:
        raise CombineError(f"{path}: {stem} is outside the plan's {plan.K} groups")
    group = _meta_entry(meta, path, stem, _GROUP_FIELDS)
    if group["n"] != plan.group_sizes[k]:
        raise CombineError(
            f"{path}: meta.txt entry {stem} has n={group['n']}, plan says "
            f"{plan.group_sizes[k]}"
        )
    entries = []
    for j in range(plan.J):
        key = f"block_{j}_{k}"
        entry = _meta_entry(meta, path, key, _BLOCK_FIELDS)
        if entry["kind"] not in KINDS:
            raise CombineError(
                f"{path}: meta.txt entry {key} names unknown solver kind {entry['kind']!r}"
            )
        entries.append(entry)
    info, rhs, theta, zeta = (
        _read_array(zf, path, f"{stem}/{name}.npy", ndim) for name, ndim in _ARRAYS
    )
    ds = [nuisance_dim(entry["kind"]) for entry in entries]
    p = theta.shape[1]
    dim = p + sum(ds)
    if p < 1 or theta.shape[0] != plan.J or zeta.shape != (sum(ds),) or (
        info.shape != (dim, dim) or rhs.shape != (dim,)
    ):
        raise CombineError(
            f"{path}: {stem} arrays do not fit its blocks' kinds: information "
            f"{info.shape}, rhs {rhs.shape}, theta {theta.shape}, zeta {zeta.shape}"
        )
    bounds = np.cumsum([0] + ds)
    records = {
        (j, k): BlockRecord(
            j=j,
            k=k,
            kind=entry["kind"],
            theta_hat=theta[j],
            zeta_hat=zeta[bounds[j] : bounds[j + 1]],
            converged=bool(entry["converged"]),
            iterations=entry["iterations"],
            final_norm=entry["final_norm"],
            rho_clamped=bool(entry["rho_clamped"]),
        )
        for j, entry in enumerate(entries)
    }
    summary = GroupSummary(
        n=group["n"], info=info, rhs=rhs, ridge_repaired=bool(group["ridge_repaired"])
    )
    return summary, records


def load_bundle(path) -> SummaryBundle:
    """Read a format-3 bundle archive written by :func:`save_bundle`.

    Any other format, and a malformed archive, plan, metadata entry or
    array, is a :class:`CombineError` or :class:`PlanError` naming the
    member.
    """
    try:
        zf = zipfile.ZipFile(path)
    except _ZIP_DAMAGE as exc:
        raise CombineError(f"{path}: not a bundle archive ({exc})") from None
    with zf:
        # undecodable bytes become U+FFFD and then fail the field checks
        meta = {}
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
        plan_text = _read_member(zf, path, "plan.txt").decode(errors="replace")
        plan = parse_plan(plan_text, f"{path}: plan.txt")
        present = set()
        for name in zf.namelist():
            if name in ("plan.txt", "meta.txt"):
                continue
            match = _MEMBER.fullmatch(name)
            if match is None:
                raise CombineError(f"{path}: unexpected member {name}")
            present.add(int(match[1]))
        fits, groups = {}, {}
        for k in sorted(present):
            groups[k], records = _read_group(zf, path, plan, meta, k)
            fits.update(records)
    return SummaryBundle(plan=plan, fits=fits, groups=groups)


def split_bundle(bundle: SummaryBundle) -> list:
    """One partial bundle per subject group (same plan, that group's fits
    and, when built already, its summary)."""
    return [
        SummaryBundle(
            plan=bundle.plan,
            fits={(j, k): fit for (j, k), fit in bundle.fits.items() if k == g},
            groups={k: s for k, s in bundle.groups.items() if k == g},
        )
        for g in range(bundle.K)
    ]


def merge_bundles(parts: list) -> SummaryBundle:
    """Reunite partial bundles produced by :func:`split_bundle`."""
    if not parts:
        raise CombineError("no bundles to merge")
    plan = parts[0].plan
    fits, groups = {}, {}
    for part in parts:
        if part.plan != plan:
            raise CombineError("cannot merge bundles with different plans")
        overlap = set(fits) & set(part.fits)
        if overlap:
            raise CombineError(f"duplicate blocks across bundles: {sorted(overlap)}")
        fits.update(part.fits)
        groups.update(part.groups)
    return SummaryBundle(plan=plan, fits=fits, groups=groups)
