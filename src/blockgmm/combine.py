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

The combined information is therefore block-arrowhead: a dense theta
row and column plus one nuisance block D_k per group, with no
cross-group nuisance terms.  Each D_k is eliminated by Cholesky, the
p x p theta Schur complement is solved for theta, and each group's zeta
is back-substituted.  The theta covariance is N times the inverse Schur
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

from .engines import KINDS, BlockFit, NuisanceSpec
from .errors import CombineError
from .partition import PartitionPlan, format_plan, parse_plan

# fixed archive member timestamp so bundles are byte-identical across runs
_EPOCH = (1980, 1, 1, 0, 0, 0)
BUNDLE_FORMAT = 1  # the meta.txt format field; load_bundle reads no other


@dataclass(frozen=True)
class SummaryBundle:
    """All block fits plus the plan: the sufficient statistic for combination."""

    plan: PartitionPlan
    fits: dict  # (j, k) -> BlockFit

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

    def validate(self, allow_unconverged: bool = False) -> None:
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
            if fit.n != self.plan.group_sizes[k]:
                raise CombineError(
                    f"block ({j}, {k}) has n={fit.n}, plan says "
                    f"{self.plan.group_sizes[k]}"
                )
            if not fit.converged and not allow_unconverged:
                raise CombineError(
                    f"block ({j}, {k}) did not converge "
                    f"(final norm {fit.final_norm:.3e}); "
                    "pass allow_unconverged to combine anyway"
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
    W: WeightBlocks | None = None  # the per-group weights the fit combined with
    diagnostics: dict = field(default_factory=dict)


def group_scores(bundle: SummaryBundle, k: int) -> np.ndarray:
    """Stacked per-subject score rows of group k: (n_k, Jp + d_k)."""
    psi = [bundle.fits[(j, k)].scores[:, : bundle.p] for j in range(bundle.J)]
    g = [bundle.fits[(j, k)].scores[:, bundle.p :] for j in range(bundle.J)]
    return np.hstack(psi + g)


def assemble_vhat(bundle: SummaryBundle) -> tuple:
    """Empirical score covariance (1/N) sum_i tau_i tau_i', one block per group."""
    N = bundle.plan.N
    out = []
    for k in range(bundle.K):
        tau = group_scores(bundle, k)
        out.append(tau.T @ tau / N)
    return tuple(out)


def invert_vhat(vhat: tuple, bundle: SummaryBundle) -> WeightBlocks:
    """Cholesky inverse of each group block, with minimal ridge repair.

    A block whose smallest eigenvalue is barely negative (round-off) gets
    lambda = 1e-8 * trace/dim added to the diagonal; anything genuinely
    indefinite is a hard error.
    """
    w, repaired = [], []
    for k, vk in enumerate(vhat):
        vk = 0.5 * (vk + vk.T)
        dim = vk.shape[0]
        flag = False
        try:
            cho = scipy.linalg.cho_factor(vk)
        except scipy.linalg.LinAlgError:
            eigmin = float(scipy.linalg.eigvalsh(vk, subset_by_index=(0, 0))[0])
            scale = float(np.trace(vk)) / dim
            if eigmin <= -1e-10 * max(scale, 1.0):
                raise CombineError(
                    f"group {k} score covariance is not positive definite "
                    f"(min eigenvalue {eigmin:.3e}); cannot form weights"
                ) from None
            vk = vk + (1e-8 * scale) * np.eye(dim)
            flag = True
            cho = scipy.linalg.cho_factor(vk)
        w.append(scipy.linalg.cho_solve(cho, np.eye(dim)))
        repaired.append(flag)
    return WeightBlocks(
        p=bundle.p,
        J=bundle.J,
        vhat=tuple(vhat),
        w=tuple(w),
        ridge_repaired=tuple(repaired),
    )


def build_C(bundle: SummaryBundle, W: WeightBlocks, k: int):
    """Group k's information I_k = S_k' W_k S_k and right-hand side
    r_k = S_k' W_k v_k.

    S_k is (Jp + d_k) x (p + d_k): rows follow the :func:`group_scores`
    layout (the psi rows of blocks 1..J, then their g rows), columns the
    group's parameter (theta, zeta_1k .. zeta_Jk).  v_k stacks each
    block's S_(j,k) (theta_hat_j, zeta_hat_j) in the same row layout.
    I_k equals sum_i C_{k,i} without the all-zero columns of other groups.
    """
    p, J = bundle.p, bundle.J
    fits = [bundle.fits[(j, k)] for j in range(J)]
    d_k = sum(fit.d for fit in fits)
    s = np.zeros((J * p + d_k, p + d_k))
    v = np.empty(J * p + d_k)
    off = 0  # offset of block j's g rows after the psi rows, and of its zeta columns
    for j, fit in enumerate(fits):
        sens, d = fit.sensitivity, fit.d
        image = sens @ np.concatenate([fit.theta_hat, fit.zeta_hat])
        psi = slice(j * p, (j + 1) * p)
        g = slice(J * p + off, J * p + off + d)
        zeta = slice(p + off, p + off + d)
        s[psi, :p], s[psi, zeta], v[psi] = sens[:p, :p], sens[:p, p:], image[:p]
        s[g, :p], s[g, zeta], v[g] = sens[p:, :p], sens[p:, p:], image[p:]
        off += d
    sw = s.T @ W.w[k]
    return sw @ s, sw @ v


def _condition(sym: np.ndarray) -> float:
    """2-norm condition number of a symmetric positive definite matrix."""
    if sym.size == 0:
        return 1.0
    eig = scipy.linalg.eigvalsh(sym)
    return float(eig[-1] / eig[0])


def combine(bundle: SummaryBundle, allow_unconverged: bool = False) -> CombinedFit:
    """Closed-form combined estimator and its covariance, by eliminating
    each group's nuisance block from the block-arrowhead information."""
    bundle.validate(allow_unconverged=allow_unconverged)
    W = invert_vhat(assemble_vhat(bundle), bundle)
    p, N = bundle.p, bundle.plan.N

    schur = np.zeros((p, p))
    rhs = np.zeros(p)
    groups = []
    for k in range(bundle.K):
        info, r = build_C(bundle, W, k)
        nk2 = float(bundle.plan.group_sizes[k]) ** 2
        info = nk2 * (0.5 * (info + info.T))
        r = nk2 * r
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

    return CombinedFit(
        theta=theta,
        zeta=np.concatenate(zeta),
        cov_theta=N * schur_inv,
        variances=N * np.concatenate(variances),
        N=N,
        p=p,
        W=W,
        diagnostics={
            "theta_schur_condition": _condition(schur),
            "nuisance_condition": tuple(_condition(g[0]) for g in groups),
            "ridge_repaired": W.ridge_repaired,
            "plan_seed": bundle.plan.seed,
        },
    )


# ---------------------------------------------------------------------------
# bundle serialization: deterministic zip of plain-text metadata + .npy arrays


def _write_member(zf: zipfile.ZipFile, name: str, payload: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_DEFLATED
    zf.writestr(info, payload)


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr, dtype=float))
    return buf.getvalue()


def save_bundle(bundle: SummaryBundle, path) -> None:
    """Write a bundle archive: plan + per-block arrays, byte-reproducible."""
    meta_lines = [f"format = {BUNDLE_FORMAT}", f"blocks = {len(bundle.fits)}"]
    with zipfile.ZipFile(path, "w") as zf:
        _write_member(zf, "plan.txt", format_plan(bundle.plan).encode())
        for (j, k) in sorted(bundle.fits):
            fit = bundle.fits[(j, k)]
            stem = f"block_{j}_{k}"
            meta_lines.append(
                f"{stem} = kind:{fit.kind} converged:{int(fit.converged)} "
                f"iterations:{fit.iterations} final_norm:{fit.final_norm!r} "
                f"rho_clamped:{int(fit.rho_clamped)}"
            )
            _write_member(zf, f"{stem}/theta.npy", _npy_bytes(fit.theta_hat))
            _write_member(zf, f"{stem}/zeta.npy", _npy_bytes(fit.zeta_hat))
            _write_member(zf, f"{stem}/scores.npy", _npy_bytes(fit.scores))
            _write_member(
                zf, f"{stem}/sensitivity.npy", _npy_bytes(fit.sensitivity)
            )
        _write_member(zf, "meta.txt", "\n".join(meta_lines).encode() + b"\n")


def _read_member(zf: zipfile.ZipFile, path, name: str) -> bytes:
    try:
        return zf.read(name)
    except KeyError:
        raise CombineError(f"{path}: bundle has no member {name}") from None
    except (zipfile.BadZipFile, zlib.error) as exc:
        raise CombineError(f"{path}: member {name} is corrupt ({exc})") from None


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


def _read_block(zf: zipfile.ZipFile, path, stem: str, entry: str | None) -> BlockFit:
    """One block's fit from its meta.txt entry and its four arrays."""
    _, j, k = stem.split("_")
    where = f"{path}: meta.txt entry {stem}"
    if entry is None:
        raise CombineError(f"{where} is missing")
    fields = {}
    for item in entry.split(" "):
        key, sep, value = item.partition(":")
        if not sep:
            raise CombineError(f"{where} has malformed field {item!r}")
        fields[key] = value
    try:
        kind = fields["kind"]
        converged, iterations, rho_clamped = (
            int(fields[name]) for name in ("converged", "iterations", "rho_clamped")
        )
        final_norm = float(fields["final_norm"])
    except KeyError as exc:
        raise CombineError(f"{where} lacks field {exc}") from None
    except ValueError as exc:
        raise CombineError(f"{where}: {exc}") from None
    if kind not in KINDS:
        raise CombineError(f"{where} names unknown solver kind {kind!r}")

    theta = _read_array(zf, path, f"{stem}/theta.npy", 1)
    zeta = _read_array(zf, path, f"{stem}/zeta.npy", 1)
    scores = _read_array(zf, path, f"{stem}/scores.npy", 2)
    sensitivity = _read_array(zf, path, f"{stem}/sensitivity.npy", 2)
    dim = theta.size + zeta.size
    if zeta.size != NuisanceSpec(kind).d or scores.shape[1] != dim or (
        sensitivity.shape != (dim, dim)
    ):
        raise CombineError(
            f"{path}: {stem} arrays do not fit a {kind} block: theta "
            f"{theta.shape}, zeta {zeta.shape}, scores {scores.shape}, "
            f"sensitivity {sensitivity.shape}"
        )
    return BlockFit(
        j=int(j),
        k=int(k),
        kind=kind,
        theta_hat=theta,
        zeta_hat=zeta,
        scores=scores,
        sensitivity=sensitivity,
        converged=bool(converged),
        iterations=iterations,
        final_norm=final_norm,
        rho_clamped=bool(rho_clamped),
    )


def load_bundle(path) -> SummaryBundle:
    """Read a bundle archive written by :func:`save_bundle`.

    A malformed archive, plan, metadata entry or array is a
    :class:`CombineError` or :class:`PlanError` naming the member.
    """
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise CombineError(f"{path}: not a bundle archive ({exc})") from None
    with zf:
        # undecodable bytes become U+FFFD and then fail the field checks
        plan_text = _read_member(zf, path, "plan.txt").decode(errors="replace")
        plan = parse_plan(plan_text, f"{path}: plan.txt")
        meta = {}
        for line in _read_member(zf, path, "meta.txt").decode(errors="replace").splitlines():
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
        if "format" not in meta:
            raise CombineError(f"{path}: meta.txt has no format field")
        if meta["format"] != str(BUNDLE_FORMAT):
            raise CombineError(
                f"{path}: meta.txt has format = {meta['format']!r}, "
                f"this version reads format {BUNDLE_FORMAT}"
            )
        fits = {}
        for name in zf.namelist():
            stem, _, member = name.rpartition("/")
            if member != "theta.npy":
                continue
            if re.fullmatch(r"block_\d+_\d+", stem) is None:
                raise CombineError(f"{path}: unexpected member {name}")
            fit = _read_block(zf, path, stem, meta.get(stem))
            fits[(fit.j, fit.k)] = fit
    return SummaryBundle(plan=plan, fits=fits)


def split_bundle(bundle: SummaryBundle) -> list:
    """One partial bundle per subject group (same plan, that group's fits)."""
    return [
        SummaryBundle(
            plan=bundle.plan,
            fits={
                (j, k): fit for (j, k), fit in bundle.fits.items() if k == g
            },
        )
        for g in range(bundle.K)
    ]


def merge_bundles(parts: list) -> SummaryBundle:
    """Reunite partial bundles produced by :func:`split_bundle`."""
    if not parts:
        raise CombineError("no bundles to merge")
    plan = parts[0].plan
    fits = {}
    for part in parts:
        if (
            part.plan.J != plan.J
            or part.plan.K != plan.K
            or not np.array_equal(
                part.plan.group_of_subject, plan.group_of_subject
            )
            or not np.array_equal(
                part.plan.block_of_response, plan.block_of_response
            )
        ):
            raise CombineError("cannot merge bundles with different plans")
        overlap = set(fits) & set(part.fits)
        if overlap:
            raise CombineError(f"duplicate blocks across bundles: {sorted(overlap)}")
        fits.update(part.fits)
    return SummaryBundle(plan=plan, fits=fits)
