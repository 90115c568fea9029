"""Closed-form combination of block fits.

The per-subject scores of the JK blocks are stacked group-wise into an
empirical covariance V_hat (exactly block-diagonal over subject groups),
inverted per group, and contracted with the block sensitivities into the
C matrices whose weighted sum gives both the combined estimator and its
information matrix.  All reductions run in a fixed (k-major, i-minor)
order so results are bitwise reproducible regardless of how the block
fits were scheduled.
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

    def d_jk(self, j: int, k: int) -> int:
        return self.fits[(j, k)].d

    def d_k(self, k: int) -> int:
        return sum(self.d_jk(j, k) for j in range(self.J))

    @property
    def d(self) -> int:
        return sum(self.d_k(k) for k in range(self.K))

    def group_offset(self, k: int) -> int:
        """Nuisance rows/columns consumed by groups before k (D^k)."""
        return sum(self.d_k(l) for l in range(k))

    def zeta_offset(self, j: int, k: int) -> int:
        """Offset of zeta_jk in the global nuisance vector (D^{jk}),
        ordered j-fast, k-slow."""
        return self.group_offset(k) + sum(self.d_jk(l, k) for l in range(j))

    def zeta_list(self) -> np.ndarray:
        """All block nuisance estimates stacked j-fast, k-slow."""
        parts = [
            self.fits[(j, k)].zeta_hat
            for k in range(self.K)
            for j in range(self.J)
        ]
        return np.concatenate(parts)

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
    d_jk: dict  # (j, k) -> nuisance dimension
    vhat: tuple  # per-group V_k, each (Jp + d_k, Jp + d_k)
    w: tuple  # per-group W_k = V_k^{-1}
    ridge_repaired: tuple  # per-group flag

    def _g_off(self, j: int, k: int) -> int:
        return self.J * self.p + sum(self.d_jk[(l, k)] for l in range(j))

    def psipsi(self, i: int, j: int, k: int) -> np.ndarray:
        p = self.p
        return self.w[k][i * p : (i + 1) * p, j * p : (j + 1) * p]

    def psig(self, i: int, j: int, k: int) -> np.ndarray:
        p = self.p
        off = self._g_off(j, k)
        return self.w[k][i * p : (i + 1) * p, off : off + self.d_jk[(j, k)]]

    def gg(self, i: int, j: int, k: int) -> np.ndarray:
        oi, oj = self._g_off(i, k), self._g_off(j, k)
        return self.w[k][
            oi : oi + self.d_jk[(i, k)], oj : oj + self.d_jk[(j, k)]
        ]


def subset_v(W: WeightBlocks, i: int, j: int, k: int, kind: str) -> np.ndarray:
    """Submatrix of W_k for block pair (i, j) of group k."""
    if kind == "psipsi":
        return W.psipsi(i, j, k)
    if kind == "psig":
        return W.psig(i, j, k)
    if kind == "gg":
        return W.gg(i, j, k)
    raise CombineError(f"unknown subset kind {kind!r}")


@dataclass(frozen=True)
class CombinedFit:
    theta: np.ndarray  # (p,)
    zeta: np.ndarray  # (d,) combined nuisance, j-fast k-slow block order
    godambe: np.ndarray  # (p+d, p+d) information matrix
    cov: np.ndarray  # (p+d, p+d) = godambe^{-1} / N
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
        d_jk={key: fit.d for key, fit in bundle.fits.items()},
        vhat=tuple(vhat),
        w=tuple(w),
        ridge_repaired=tuple(repaired),
    )


def _sens_parts(fit: BlockFit):
    """Split the block sensitivity into its four sub-blocks.

    Rows of the sensitivity follow the score layout (psi rows first),
    columns the parameter layout (theta first).
    """
    p = fit.p
    s = fit.sensitivity
    return (
        s[:p, :p],  # S^theta_psi
        s[:p, p:],  # S^zeta_psi
        s[p:, :p],  # S^theta_g
        s[p:, p:],  # S^zeta_g
    )


def build_AB(bundle: SummaryBundle, W: WeightBlocks, k: int, i: int, j: int):
    """Sensitivity-weighted cross terms between blocks i and j of group k.

    Returns (A_theta, A_zeta, B_theta, B_zeta) with shapes
    (p,p), (p,d_ik), (d_jk,p), (d_jk,d_ik).
    """
    s_psi_th_i, s_psi_ze_i, s_g_th_i, s_g_ze_i = _sens_parts(bundle.fits[(i, k)])
    s_psi_th_j, s_psi_ze_j, s_g_th_j, s_g_ze_j = _sens_parts(bundle.fits[(j, k)])

    v_psi = W.psipsi(j, i, k)  # [Vhat^psi]_{ji:k}
    v_psig_T = W.psig(i, j, k).T  # [Vhat^{psi g T}]_{ji:k}
    v_psig = W.psig(j, i, k)  # [Vhat^{psi g}]_{ji:k}
    v_g = W.gg(j, i, k)  # [Vhat^g]_{ji:k}

    left_psi_A = s_psi_th_j.T @ v_psi + s_g_th_j.T @ v_psig_T  # (p, p)
    left_g_A = s_psi_th_j.T @ v_psig + s_g_th_j.T @ v_g  # (p, d_ik)
    a_theta = left_psi_A @ s_psi_th_i + left_g_A @ s_g_th_i
    a_zeta = left_psi_A @ s_psi_ze_i + left_g_A @ s_g_ze_i

    left_psi_B = s_psi_ze_j.T @ v_psi + s_g_ze_j.T @ v_psig_T  # (d_jk, p)
    left_g_B = s_psi_ze_j.T @ v_psig + s_g_ze_j.T @ v_g  # (d_jk, d_ik)
    b_theta = left_psi_B @ s_psi_th_i + left_g_B @ s_g_th_i
    b_zeta = left_psi_B @ s_psi_ze_i + left_g_B @ s_g_ze_i
    return a_theta, a_zeta, b_theta, b_zeta


def build_C(bundle: SummaryBundle, W: WeightBlocks, k: int, i: int):
    """Zero-padded combination matrix for block (i, k) and its condensed form.

    Returns (C, C_star): C is (p+d)x(p+d) with nonzero columns only at the
    theta positions and the zeta positions of block (i, k); C_star drops
    the zero columns, keeping (p + d_ik) columns.
    """
    p, d = bundle.p, bundle.d
    d_ik = bundle.d_jk(i, k)
    off_i = p + bundle.zeta_offset(i, k)

    c = np.zeros((p + d, p + d))
    a_theta_sum = np.zeros((p, p))
    a_zeta_sum = np.zeros((p, d_ik))
    for j in range(bundle.J):
        a_theta, a_zeta, b_theta, b_zeta = build_AB(bundle, W, k, i, j)
        a_theta_sum += a_theta
        a_zeta_sum += a_zeta
        row = p + bundle.zeta_offset(j, k)
        d_jk = bundle.d_jk(j, k)
        c[row : row + d_jk, :p] = b_theta
        c[row : row + d_jk, off_i : off_i + d_ik] = b_zeta
    c[:p, :p] = a_theta_sum
    c[:p, off_i : off_i + d_ik] = a_zeta_sum

    keep = list(range(p)) + list(range(off_i, off_i + d_ik))
    c_star = c[:, keep].copy()
    return c, c_star


def combined_information(bundle: SummaryBundle, W: WeightBlocks) -> np.ndarray:
    """(1/N^2) sum_k sum_i n_k^2 C_{k,i}, in fixed k-major i-minor order."""
    N = bundle.plan.N
    total = np.zeros((bundle.p + bundle.d, bundle.p + bundle.d))
    for k in range(bundle.K):
        nk2 = float(bundle.plan.group_sizes[k]) ** 2
        for i in range(bundle.J):
            c, _ = build_C(bundle, W, k, i)
            total += nk2 * c
    return total / (N * N)


def stacked_sensitivity(bundle: SummaryBundle) -> np.ndarray:
    """Dense weighted sensitivity: rows follow the group score stacking,
    columns the combined parameter (theta, zeta_list)."""
    p, d, J = bundle.p, bundle.d, bundle.J
    N = bundle.plan.N
    n_rows = sum(J * p + bundle.d_k(k) for k in range(bundle.K))
    s = np.zeros((n_rows, p + d))
    row = 0
    for k in range(bundle.K):
        wk = bundle.plan.group_sizes[k] / N
        psi_base = row
        g_base = row + J * p
        for j in range(J):
            fit = bundle.fits[(j, k)]
            s_psi_th, s_psi_ze, s_g_th, s_g_ze = _sens_parts(fit)
            col = p + bundle.zeta_offset(j, k)
            r = psi_base + j * p
            s[r : r + p, :p] = wk * s_psi_th
            s[r : r + p, col : col + fit.d] = wk * s_psi_ze
            r = g_base + sum(bundle.d_jk(l, k) for l in range(j))
            s[r : r + fit.d, :p] = wk * s_g_th
            s[r : r + fit.d, col : col + fit.d] = wk * s_g_ze
        row += J * p + bundle.d_k(k)
    return s


def godambe_direct(bundle: SummaryBundle, W: WeightBlocks) -> np.ndarray:
    """S' W S computed densely — cross-check for combined_information."""
    s = stacked_sensitivity(bundle)
    total = np.zeros((s.shape[1], s.shape[1]))
    row = 0
    for k in range(bundle.K):
        dim = W.w[k].shape[0]
        sk = s[row : row + dim, :]
        total += sk.T @ W.w[k] @ sk
        row += dim
    return total


def combine(bundle: SummaryBundle, allow_unconverged: bool = False) -> CombinedFit:
    """Closed-form combined estimator and Godambe information."""
    bundle.validate(allow_unconverged=allow_unconverged)
    vhat = assemble_vhat(bundle)
    W = invert_vhat(vhat, bundle)
    p, d = bundle.p, bundle.d
    N = bundle.plan.N

    total = np.zeros((p + d, p + d))
    rhs = np.zeros(p + d)
    zeta_list = bundle.zeta_list()
    for k in range(bundle.K):
        nk2 = float(bundle.plan.group_sizes[k]) ** 2
        for i in range(bundle.J):
            c, _ = build_C(bundle, W, k, i)
            point = np.concatenate([bundle.fits[(i, k)].theta_hat, zeta_list])
            total += nk2 * c
            rhs += nk2 * (c @ point)

    sym = 0.5 * (total + total.T)
    try:
        cho = scipy.linalg.cho_factor(sym)
    except scipy.linalg.LinAlgError as exc:
        conds = {
            key: float(np.linalg.cond(fit.sensitivity))
            for key, fit in bundle.fits.items()
        }
        raise CombineError(
            f"combined information is singular; block sensitivity condition "
            f"numbers: {conds}"
        ) from exc
    est = scipy.linalg.cho_solve(cho, rhs)
    godambe = sym / (N * N)
    cov = scipy.linalg.cho_solve(cho, np.eye(p + d)) * N

    return CombinedFit(
        theta=est[:p],
        zeta=est[p:],
        godambe=godambe,
        cov=cov,
        N=N,
        p=p,
        W=W,
        diagnostics={
            "information_condition": float(np.linalg.cond(sym)),
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
    meta_lines = [f"blocks = {len(bundle.fits)}"]
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
