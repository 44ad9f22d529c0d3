"""Energy-momentum stability test for ring-symmetric rotating configurations.

The constrained Hessian of the augmented Hamiltonian, restricted to a
symplectic slice, decides nonlinear (orbital) stability.  The slice is
assembled blockwise from ring Fourier vectors

    Bhat_{j,l} = sum_k e^{i l k zeta} B_{j,k},   zeta = 2 pi / m,

(and likewise Chat) built from the per-vortex tangent frame b = J3 a,
c = b x a; the ring symmetry block-diagonalises the Hessian over these
subspaces, and for intermediate Fourier modes the real block is the
realification of a Hermitian block of half the size (its spectrum is the
Hermitian one doubled).  Positive definiteness of every block certifies
stability; at zero momentum the mode-1 block carries an exact
two-dimensional kernel (one complex dimension when the block is Hermitian)
which is counted rigorously by a winding-number eigenvalue count instead
of being quotiented out.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from . import intervals as iv
from .intervals import ComplexInterval, DomainError, Interval, IntervalArray, NotVerified
from .model import (
    RingSystem,
    full_hstar_hessian,
    j3_rows,
    lift_rho,
    pole_offset,
    reduced_phi,
    to_interval_array,
    _cos_sin_frac,
)

__all__ = [
    "SliceConstructionError",
    "NotIsolated",
    "BoundaryHit",
    "Column",
    "SliceBlockBasis",
    "SliceBasis",
    "BlockMatrix",
    "BlockSpectrum",
    "ClusterCount",
    "StabilityVerdict",
    "SegmentStabilityResult",
    "build_slice",
    "assemble_blocks",
    "validate_simple_eigenpair",
    "count_eigenvalues_winding",
    "stability_test",
    "stability_over_segment",
    "momentum_derivative",
    "N7_BLOCK_SCALE",
]

# Global positive factor relating our mode-2 block of the pentagon-with-poles
# family to the reference diag(15, 15 z^2) form; fixed by the Hamiltonian
# normalization and recorded here once determined (see tests).  The HALF
# scale reproduces the reference blocks with unit factor.
N7_BLOCK_SCALE = 1.0

DEFAULT_KERNEL_HALFWIDTH = 1e-8
CLUSTER_EPS_START = 1e-6
CLUSTER_EPS_MAX = 1e-2
WINDING_MESH = 64
WINDING_MESH_MAX = 1024


class SliceConstructionError(RuntimeError):
    """No admissible vortex pair for the asymmetric slice."""


class NotIsolated(RuntimeError):
    """Simple-eigenpair validation failed; the eigenvalue may be clustered."""


class BoundaryHit(RuntimeError):
    """Determinant enclosure on the counting rectangle could not exclude zero."""

    def __init__(self, message: str, suggestion: str = "adjust the window half-width"):
        super().__init__(message)
        self.suggestion = suggestion


# ---------------------------------------------------------------------------
# Columns and slice bases
# ---------------------------------------------------------------------------


@dataclass
class Column:
    """A (possibly complex) tangent vector in R^{3N}, split into parts
    (float arrays, or IntervalArrays for interval input)."""

    re: np.ndarray | IntervalArray
    im: np.ndarray | IntervalArray | None = None

    @property
    def is_complex(self) -> bool:
        return self.im is not None


@dataclass
class SliceBlockBasis:
    l: int
    kind: str  # "P" (real) or "Q" (Hermitian)
    columns: list

    @property
    def size(self) -> int:
        return len(self.columns)


@dataclass
class SliceBasis:
    case: str  # "symmetric-mu" | "symmetric-mu0" | "asymmetric"
    m: int
    n: int
    p: int
    blocks: list
    permutation: list | None = None  # vortex reordering used for m = 1

    @property
    def N(self) -> int:
        return self.m * self.n + self.p if self.m >= 2 else self.n


def _cross(u, v):
    """Row-wise cross product of (..., 3) float or interval arrays."""
    i, j = [1, 2, 0], [2, 0, 1]
    return u[..., i] * v[..., j] - u[..., j] * v[..., i]


def _dot(u, v):
    """Row-wise dot product of (..., 3) arrays, summed left to right."""
    return (u * v).sum(axis=-1)


@lru_cache(maxsize=64)
def _mode_trig(m: int, interval_mode: bool):
    """(2, m) rows cos and sin of 2*pi*q/m for q = 0..m-1, exact at quarter
    turns."""
    cs = [_cos_sin_frac(q, m, interval_mode) for q in range(m)]
    return (IntervalArray.from_object(cs) if interval_mode else np.array(cs)).T


def _fourier_table(a_vecs, m: int, n: int, N: int):
    """All Fourier vectors Bhat/Chat_{j,l}, l = 0..m//2, as 3N vectors in one
    (2, m//2 + 1, 2, n, 3N) array indexed [frame (b, c), l, part (re, im), j].

    The frames are b = J3 a and c = b x a at the ring slots, slot j*m + (k-1)
    holding g^k u_j; Bhat_{j,l} = sum_k e^{i l k zeta} b_{j,k} lives on the
    slots of ring j."""
    a = a_vecs[: m * n]
    b = j3_rows(a)
    frames = iv.stack([b, _cross(b, a)]).reshape(2, 1, 1, n, m, 3)
    q = (np.arange(m // 2 + 1)[:, None] * np.arange(1, m + 1)) % m
    w = _mode_trig(m, isinstance(a, IntervalArray))[:, q].transpose(1, 0, 2)
    table = iv.zeros((2, m // 2 + 1, 2, n, N, 3), like=a)
    slots = np.arange(n)[:, None] * m + np.arange(m)
    table[:, :, :, np.arange(n)[:, None], slots] = w[None, :, :, None, :, None] * frames
    return table.reshape(2, m // 2 + 1, 2, n, 3 * N)


def fourier_vectors(ring: RingSystem, a_vecs, j: int, l: int):
    """(Bhat_{j,l}, Chat_{j,l}) for tests and diagnostics (0-based j)."""
    table = _fourier_table(iv.as_array(a_vecs), ring.m, ring.n, ring.N)
    return Column(*table[0, l, :, j]), Column(*table[1, l, :, j])


def _pole_delta(N: int, m: int, n: int, s: int, axis: int, like) -> np.ndarray:
    """delta x_s (axis 0) or delta y_s (axis 1) for pole s (1-based)."""
    out = iv.zeros(3 * N, like=like)
    out[3 * (m * n + s - 1) + axis] = 1.0
    return out


def _cplx_scale(cr, ci, col: Column) -> Column:
    """(cr + i ci) * (col.re + i col.im)."""
    return Column(re=cr * col.re - ci * col.im, im=cr * col.im + ci * col.re)


def _real_col(col: Column) -> Column:
    return Column(re=col.re, im=None)


def momentum_derivative(col: Column) -> tuple:
    """d Phi(a) applied to the column: (sum of 3-blocks of re, same of im)."""
    acc_re = [col.re[t::3].sum() for t in range(3)]
    acc_im = [col.im[t::3].sum() for t in range(3)] if col.im is not None else None
    return acc_re, acc_im


def _complex_mode_range(m: int):
    """Fourier indices whose block is Hermitian (half-size)."""
    if m < 3:
        return []
    top = m // 2 if m % 2 == 1 else m // 2 - 1
    return list(range(1, top + 1))


def _mid(x):
    return x.mid if isinstance(x, (Interval, IntervalArray)) else x


def _combine(columns: list) -> list:
    """Real columns sum_k c_k v_k, each given as a list of the same number
    of (coefficient, vector) terms: one product over all terms, then each
    column's terms added pairwise (left to right for up to three terms)."""
    if not columns:
        return []
    k, t = len(columns), len(columns[0])
    coefs = iv.stack([c for col in columns for c, _ in col]).reshape(k, t, 1)
    vecs = iv.stack([v for col in columns for _, v in col]).reshape(k, t, -1)
    return [Column(re=col) for col in (vecs * coefs).sum(axis=1)]


def _normalize_columns(blocks: list) -> None:
    """Scale every column to unit midpoint 2-norm (a diagonal congruence;
    signatures and kernels of the projected blocks are unchanged)."""
    for blk in blocks:
        if not blk.columns:
            continue
        re = iv.stack([col.re for col in blk.columns])
        im = None if blk.columns[0].im is None else iv.stack([col.im for col in blk.columns])
        norms = np.sqrt(sum((_mid(part) ** 2).sum(axis=1) for part in (re, im) if part is not None))
        if not np.all(norms > 1e-12):
            raise SliceConstructionError("slice basis column is numerically zero")
        inv = (1.0 / norms)[:, None]
        re, im = re * inv, None if im is None else im * inv
        blk.columns = [Column(re=re[i], im=None if im is None else im[i]) for i in range(len(re))]


def _ring_order(ring: RingSystem) -> list:
    """Ring relabelling for the slice construction: the distinguished ring
    must avoid the poles, and for m = 2 also the equator, or the mode-1
    basis columns degenerate."""
    scores = []
    for j in range(ring.n):
        g = ring.generators[j]
        eta2 = float(_mid(g[0])) ** 2 + float(_mid(g[1])) ** 2
        zj = abs(float(_mid(g[2])))
        scores.append(eta2 * (zj if ring.m == 2 else 1.0 + zj))
    return sorted(range(ring.n), key=lambda j: -scores[j])


def build_slice(
    ring: RingSystem,
    a_vecs: np.ndarray | None = None,
    mu_zero: bool = False,
    normalize: bool = True,
) -> SliceBasis:
    """Symplectic-slice basis, blockwise by Fourier mode.

    Block layout by ring order m:
      m = 1          P0 (2N-4), the asymmetric slice
      m = 2          P0 (2n-2), P1 (2n+2p-2)
      m = 3          P0 (2n-2), Q1 (2n+p-1)
      m >= 4 even    P0, Q1, Q_l (2n) for 2 <= l < m/2, P_{m/2} (2n)
      m >= 5 odd     P0, Q1, Q_l (2n) for 2 <= l <= (m-1)/2

    At zero momentum the mode-1 block is kept whole; its exact kernel is
    accounted for in the verdict by a rigorous eigenvalue count near zero
    rather than by constructing a complement.  Columns are normalized by
    default (pure scaling, harmless to signatures) so the projected blocks
    stay well conditioned; pass normalize=False to reproduce the raw
    reference formulas.  Columns are 3N float vectors, or IntervalArrays
    for interval input (a_vecs an IntervalArray or object array).
    """
    a_vecs = iv.as_array(lift_rho(ring).vectors if a_vecs is None else a_vecs)
    m, n, p = ring.m, ring.n, ring.p
    N = ring.N
    if m == 1:
        basis = _build_asymmetric_slice(ring, a_vecs, mu_zero)
        if normalize:
            _normalize_columns(basis.blocks)
        return basis

    table = _fourier_table(a_vecs, m, n, N)

    def B(j, l):
        return Column(*table[0, l, :, j])

    def C(j, l):
        return Column(*table[1, l, :, j])

    gens = ring.generators
    x = [gens[j][0] for j in range(n)]
    y = [gens[j][1] for j in range(n)]
    z = [gens[j][2] for j in range(n)]
    # eta_j = x_j - i y_j
    eta_re = x
    eta_im = [-y[j] for j in range(n)]
    eta_sq = [x[j] * x[j] + y[j] * y[j] for j in range(n)]
    R = _ring_order(ring)
    r1 = R[0]
    blocks = []

    # mode 0: real block of dimension 2n - 2
    cols0 = []
    for t in range(1, n):
        cols0.append(_real_col(B(R[t], 0)))
    for t in range(1, n):
        j = R[t]
        cols0.append(Column(re=eta_sq[r1] * C(j, 0).re - eta_sq[j] * C(r1, 0).re))
    blocks.append(SliceBlockBasis(l=0, kind="P", columns=cols0))

    if m == 2:
        # mode 1: real block of dimension 2n + 2p - 2, three terms per column
        B11, C11 = B(r1, 1).re, C(r1, 1).re  # real vectors for m = 2
        z1, others = z[r1], R[1:]
        w1, w2 = z1 * eta_sq[r1], 2.0 * z1 * eta_sq[r1]
        # Re(eta_1 conj(eta_j)), Im(eta_1 conj(eta_j))
        re1 = [eta_re[r1] * eta_re[j] + eta_im[r1] * eta_im[j] for j in others]
        im1 = [eta_im[r1] * eta_re[j] - eta_re[r1] * eta_im[j] for j in others]
        terms = [[(z1 * a, B11), (-w1, B(j, 1).re), (-b, C11)] for j, a, b in zip(others, re1, im1)]
        terms += [[(z1 * z[j] * b, B11), (-w1, C(j, 1).re), (z[j] * a, C11)] for j, a, b in zip(others, re1, im1)]
        poles = range(1, p + 1)
        terms += [[(z1 * eta_im[r1], B11), (eta_re[r1], C11), (-w2, _pole_delta(N, m, n, s, 0, a_vecs))] for s in poles]
        terms += [[(z1 * eta_re[r1], B11), (-eta_im[r1], C11), (-w2, _pole_delta(N, m, n, s, 1, a_vecs))] for s in poles]
        cols1 = _combine(terms)
        blocks.append(SliceBlockBasis(l=1, kind="P", columns=cols1))
    else:
        # mode 1: Hermitian block of dimension 2n + p - 1
        cols1 = []
        B11, C11 = B(r1, 1), C(r1, 1)
        cols1.append(Column(re=z[r1] * B11.re - C11.im, im=z[r1] * B11.im + C11.re))
        for t in range(1, n):
            j = R[t]
            t1 = _cplx_scale(eta_re[j], eta_im[j], B11)
            t2 = _cplx_scale(eta_re[r1], eta_im[r1], B(j, 1))
            cols1.append(Column(re=t1.re - t2.re, im=t1.im - t2.im))
        for t in range(1, n):
            j = R[t]
            t1 = _cplx_scale(z[j] * eta_re[j], z[j] * eta_im[j], B11)
            Cj1 = C(j, 1)
            iCj1 = Column(re=-Cj1.im, im=Cj1.re)
            t2 = _cplx_scale(eta_re[r1], eta_im[r1], iCj1)
            cols1.append(Column(re=t1.re + t2.re, im=t1.im + t2.im))
        for s in range(1, p + 1):
            dxy = Column(
                re=_pole_delta(N, m, n, s, 0, a_vecs),
                im=_pole_delta(N, m, n, s, 1, a_vecs),
            )
            # 2 Bhat_{1,1} + i m eta_1 (dx + i dy); i m eta_1 = m (y_1 + i x_1)
            t2 = _cplx_scale(-float(m) * eta_im[r1], float(m) * eta_re[r1], dxy)
            cols1.append(Column(re=2.0 * B11.re + t2.re, im=2.0 * B11.im + t2.im))
        blocks.append(SliceBlockBasis(l=1, kind="Q", columns=cols1))

    for l in _complex_mode_range(m):
        if l == 1:
            continue
        cols = [B(j, l) for j in range(n)] + [C(j, l) for j in range(n)]
        blocks.append(SliceBlockBasis(l=l, kind="Q", columns=cols))

    if m >= 4 and m % 2 == 0:
        half = m // 2
        cols = [_real_col(B(j, half)) for j in range(n)] + [_real_col(C(j, half)) for j in range(n)]
        blocks.append(SliceBlockBasis(l=half, kind="P", columns=cols))

    case = "symmetric-mu0" if mu_zero else "symmetric-mu"
    if normalize:
        _normalize_columns(blocks)
    return SliceBasis(case=case, m=m, n=n, p=p, blocks=blocks)


def _build_asymmetric_slice(ring: RingSystem, a_vecs, mu_zero: bool) -> SliceBasis:
    """Slice basis for configurations without ring symmetry."""
    N = ring.n
    if N < 4:
        raise SliceConstructionError("asymmetric slice needs at least 4 vortices")

    # choose the leading pair with a certainly nonzero a1 . J3 a2 and the
    # largest |mid|, the first such pair in (i1, i2) order
    val = _dot(a_vecs[:, None, :], j3_rows(a_vecs)[None, :, :])
    lo, hi = (val.lo, val.hi) if isinstance(val, IntervalArray) else (val, val)
    polar = np.abs(_mid(a_vecs)[:, 2]) > 1 - 1e-6
    ok = ((lo > 0) | (hi < 0)) & ~polar[:, None] & ~polar[None, :] & ~np.eye(N, dtype=bool)
    score = np.where(ok, np.abs(_mid(val)), 0.0)
    i1, i2 = np.unravel_index(int(np.argmax(score)), score.shape)
    if not score[i1, i2] > 0.0:
        raise SliceConstructionError("no vortex pair with certainly nonzero a1 . J3 a2")
    order = [int(i1), int(i2)] + [i for i in range(N) if i not in (i1, i2)]

    a = a_vecs[order]
    b = j3_rows(a)
    b[np.abs(_mid(a)[:, 2]) > 1.0 - 1e-9] = np.array([1.0, 0.0, 0.0])
    c = _cross(a, b)

    # column 0 is (g0, -g0, 0, ...); the u^(j) columns carry b at vortices
    # 4..N (1-based), the v^(j) columns c at vortices 3..N
    slots = np.concatenate([np.arange(3, N), np.arange(2, N)])
    W = iv.concatenate([b[3:], c[2:]])
    g0 = _cross(a[0], _cross(b[1], c[1]))
    k = np.arange(1, len(slots) + 1)
    cols = iv.zeros((len(slots) + 1, N, 3), like=a)
    cols[0, 0], cols[0, 1] = g0, -g0
    cols[k, 0] = _cross(a[0], _cross(b[1], W))
    cols[k, 1] = -_dot(a[0], W)[:, None] * b[1]
    cols[k, slots] = _dot(a[0], b[1]) * W
    cols = cols.reshape(len(slots) + 1, 3 * N)
    case = "asymmetric-mu0" if mu_zero else "asymmetric"
    blocks = [SliceBlockBasis(l=0, kind="P", columns=[Column(re=cols[i]) for i in range(len(cols))])]
    basis = SliceBasis(case=case, m=1, n=N, p=0, blocks=blocks)
    basis.permutation = order
    return basis


# ---------------------------------------------------------------------------
# Block assembly
# ---------------------------------------------------------------------------


@dataclass
class BlockMatrix:
    """Projected Hessian block; real symmetric (P) or Hermitian (Q).

    ``re`` and ``im`` are float arrays or IntervalArrays (object arrays of
    Intervals are converted).  ``interval_mode`` is accepted and ignored:
    the entries carry the mode."""

    l: int
    kind: str
    re: np.ndarray | IntervalArray
    im: np.ndarray | IntervalArray | None
    interval_mode: InitVar[bool] = False

    def __post_init__(self, interval_mode):
        self.re = iv.as_array(self.re)
        self.im = None if self.im is None else iv.as_array(self.im)

    @property
    def size(self) -> int:
        return self.re.shape[0]

    def mid(self) -> np.ndarray:
        if self.im is None:
            return _mid(self.re)
        return _mid(self.re) + 1j * _mid(self.im)

    def realified(self):
        """[[Re, -Im], [Im, Re]] with the same definiteness/kernel doubling."""
        if self.im is None:
            return self.re
        return iv.concatenate(
            [iv.concatenate([self.re, -self.im], axis=1), iv.concatenate([self.im, self.re], axis=1)]
        )


def _stack_columns(cols, part: str):
    """The real (part "re") or imaginary parts of the columns as one (3N, k)
    array; a missing imaginary part is zero."""
    zero = iv.zeros(len(cols[0].re), like=cols[0].re)
    vecs = [col.re if part == "re" else col.im for col in cols]
    return iv.stack([zero if v is None else v for v in vecs], axis=1)


def assemble_blocks(basis: SliceBasis, hess) -> list:
    """Project the 3N x 3N constrained Hessian onto each slice block.

    Real blocks: P^T H P, symmetrized.  Hermitian blocks with column split
    B + iC: (B^T H B + C^T H C) + i (B^T H C - C^T H B), Hermitized.  The
    symmetrization is valid because the exact block is symmetric/Hermitian.
    For an interval Hessian the blocks are IntervalArrays and the products
    run through ``iv.matmul`` (the endpoint form when both factors are
    intervals).
    """
    hess = iv.as_array(hess)
    out = []
    for blk in basis.blocks:
        if blk.size == 0:
            out.append(BlockMatrix(l=blk.l, kind=blk.kind, re=iv.zeros((0, 0), like=hess), im=None))
            continue
        if blk.kind == "P":
            P = _stack_columns(blk.columns, "re")
            M = P.T @ (hess @ P)
            out.append(BlockMatrix(l=blk.l, kind="P", re=(M + M.T) * 0.5, im=None))
        else:
            Bc = _stack_columns(blk.columns, "re")
            Cc = _stack_columns(blk.columns, "im")
            HB = hess @ Bc
            HC = hess @ Cc
            re = Bc.T @ HB + Cc.T @ HC
            im = Bc.T @ HC - Cc.T @ HB
            out.append(BlockMatrix(l=blk.l, kind="Q", re=(re + re.T) * 0.5, im=(im - im.T) * 0.5))
    return out


# ---------------------------------------------------------------------------
# Validated eigenvalues
# ---------------------------------------------------------------------------


def _real_eig_system(Mre, lam: IntervalArray, v: IntervalArray, vbar: np.ndarray, jk: int):
    """G and DG for the bordered real symmetric eigenproblem, for a float or
    interval block Mre, the eigenvector v and the eigenvalue lam (shape (1,))."""
    D = Mre.shape[0]
    G = iv.concatenate([Mre @ v - lam * v, v[jk] - vbar[jk]])
    top = iv.concatenate([Mre - lam * np.eye(D), -v[:, None]], axis=1)
    return G, iv.concatenate([top, np.eye(1, D + 1, jk)])


def _hermitian_eig_system(Mre, Mim, lam_re, lam_im, vr, vi, vbr, vbi, jk):
    """Realified bordered Hermitian eigenproblem (lam_re, lam_im of shape (1,))."""
    D = Mre.shape[0]
    G = iv.concatenate(
        [
            Mre @ vr - Mim @ vi - (lam_re * vr - lam_im * vi),
            Mre @ vi + Mim @ vr - (lam_re * vi + lam_im * vr),
            vr[jk] - vbr[jk],
            vi[jk] - vbi[jk],
        ]
    )
    A = Mre - lam_re * np.eye(D)
    B = Mim - lam_im * np.eye(D)
    border = np.zeros((2, 2 * D + 2))
    border[0, jk] = border[1, D + jk] = 1.0
    DG = iv.concatenate(
        [
            iv.concatenate([A, -B, -vr[:, None], vi[:, None]], axis=1),
            iv.concatenate([B, A, -vi[:, None], -vr[:, None]], axis=1),
            border,
        ]
    )
    return G, DG


def _nk_for_eigen(system, x_mid: np.ndarray, r_start: float):
    """Generic point Newton-Kantorovich loop for the bordered systems.

    system(x) evaluates the map and its Jacobian on an IntervalArray x;
    returns the certified radius r0 or raises NotIsolated.
    """
    center = IntervalArray(x_mid)
    G0, DG0 = system(center)
    try:
        A = np.linalg.inv(DG0.mid)
    except np.linalg.LinAlgError:
        raise NotIsolated("bordered Jacobian is numerically singular") from None
    if not np.all(np.isfinite(A)):
        raise NotIsolated("bordered Jacobian inverse is not finite")
    Y = iv.sup_norm(iv.matmul(A, G0))
    r = r_start
    while True:
        Z = iv.contraction_defect(A, system(center.pad(r))[1])
        if Z < 1.0:
            r0 = max((Y / (1.0 - Z)) * 1.01, 1e-300)
            if r0 <= r:
                p_val = (Interval(Z) - 1.0) * r0 + Y
                if p_val.hi < 0.0:
                    return r0
        if r <= 1e-11:
            raise NotIsolated(f"no contraction radius (Y = {Y:.2e}, Z = {Z:.2e})")
        r *= 0.5


def validate_simple_eigenpair(block: BlockMatrix, lam_bar: float, v_bar: np.ndarray) -> Interval:
    """Enclosure of the (simple) eigenvalue near (lam_bar, v_bar).

    Bordered system: ((M - lam I) v, (v - v_bar) . e_jk) with jk the first
    index of largest |v_bar| component.  Raises NotIsolated on clustering.
    """
    D = block.size
    if D == 0:
        raise DomainError("empty block has no eigenvalues")
    if block.kind == "P" or block.im is None:
        vb = np.asarray(v_bar, dtype=float).reshape(-1)
        jk = int(np.argmax(np.abs(vb)))
        x_mid = np.concatenate([vb, [lam_bar]])

        def system(xv):
            return _real_eig_system(block.re, xv[D:], xv[:D], vb, jk)

    else:
        vb = np.asarray(v_bar, dtype=complex).reshape(-1)
        jk = int(np.argmax(np.abs(vb)))
        x_mid = np.concatenate([vb.real, vb.imag, [lam_bar, 0.0]])

        def system(xv):
            return _hermitian_eig_system(
                block.re, block.im, xv[2 * D : 2 * D + 1], xv[2 * D + 1 :], xv[:D], xv[D : 2 * D], vb.real, vb.imag, jk
            )

    r0 = _nk_for_eigen(system, x_mid, r_start=1e-2 * max(1.0, abs(lam_bar)))
    return Interval(math.nextafter(lam_bar - r0, -math.inf), math.nextafter(lam_bar + r0, math.inf))


# ---------------------------------------------------------------------------
# Winding-number eigenvalue counting
# ---------------------------------------------------------------------------


_BATCH = 32  # boundary boxes per stacked evaluation; bounds its memory


def _block_intervals(block: BlockMatrix) -> tuple:
    """The block as a pair (re, im) of d x d IntervalArrays."""

    def as_intervals(x):
        return x if isinstance(x, IntervalArray) else IntervalArray(x)

    re = as_intervals(block.re)
    return re, as_intervals(np.zeros(re.shape) if block.im is None else block.im)


def _char_poly(cmat: tuple) -> tuple:
    """Coefficients of det(zI - M) = z^d + p1 z^{d-1} + ... + pd by the
    Faddeev-LeVerrier recursion, for M given as a pair (re, im) of d x d
    IntervalArrays; returns the pair (re, im) of coefficient arrays (p1..pd).

    The recursion only multiplies copies of the (thin) input matrix, so the
    enclosure widths stay proportional to the input widths; evaluating the
    polynomial at a boundary cell is then far tighter than running an
    interval LU with the cell's shift on the diagonal.  The matrix products
    sum over the inner index left to right, like an object-array ``@`` of
    ComplexIntervals.
    """
    re, im = cmat
    d = re.shape[0]
    diag = np.arange(d)
    coeffs = []
    Mk = cmat
    for k in range(1, d + 1):
        tr = ComplexInterval(0.0)
        for i in range(d):
            tr = tr + ComplexInterval(Mk[0][i, i], Mk[1][i, i])
        pk = -(tr) if k == 1 else ComplexInterval(tr.re / (-float(k)), tr.im / (-float(k)))
        coeffs.append(pk)
        if k < d:
            # Mk + I pk, then M @ (Mk + I pk)
            shift = ComplexInterval(1.0) * pk
            B = [IntervalArray(x.lo, x.hi) for x in Mk]
            for part, s in zip(B, (shift.re, shift.im)):
                part[diag, diag] = part[diag, diag] + s
            terms = iv.complex_mul((re[:, :, None], im[:, :, None]), (B[0][None], B[1][None]))
            Mk = (terms[0][:, 0], terms[1][:, 0])
            for j in range(1, d):
                Mk = (Mk[0] + terms[0][:, j], Mk[1] + terms[1][:, j])
    return iv.stack([c.re for c in coeffs]), iv.stack([c.im for c in coeffs])


def _poly_at(poly: tuple, z: tuple) -> tuple:
    """det(M - zI) = (-1)^d [z^d + p1 z^{d-1} + ... + pd] by Horner at each
    box of the stack z = (re, im) (IntervalArrays of shape (C,))."""
    d = poly[0].shape[0]
    acc = (IntervalArray(np.ones(z[0].shape)), IntervalArray(np.zeros(z[0].shape)))
    for k in range(d):
        acc = iv.complex_mul(acc, z)
        acc = (acc[0] + poly[0][k], acc[1] + poly[1][k])
    return (-acc[0], -acc[1]) if d % 2 else acc


def _det_at(cmat: tuple, poly: tuple, z: tuple) -> tuple:
    """Enclosures (re, im) of det(M - zI) at each box of z.  The polynomial
    enclosure is used where it excludes zero; the other boxes (cancellation
    in the polynomial, e.g. near-kernel windows) go through stacked interval
    LUs of up to _BATCH shifted matrices, whose pivot products keep tiny
    factors multiplicative."""
    d = cmat[0].shape[0]
    det = _poly_at(poly, z)
    diag = np.arange(d)
    zero = np.flatnonzero(_contains_zero(det))
    for s in range(0, len(zero), _BATCH):
        redo = zero[s : s + _BATCH]
        shifted = []
        for part, zpart in zip(cmat, z):
            S = IntervalArray(np.broadcast_to(part.lo, (len(redo), d, d)), np.broadcast_to(part.hi, (len(redo), d, d)))
            S[:, diag, diag] = part[diag, diag][None, :] - zpart[redo][:, None]
            shifted.append(S)
        lu = iv.complex_det_enclosure(tuple(shifted))
        for part, val in zip(det, lu):
            part[redo] = val
    return det


def _contains_zero(z: tuple) -> np.ndarray:
    re, im = z
    return (re.lo <= 0.0) & (re.hi >= 0.0) & (im.lo <= 0.0) & (im.hi >= 0.0)


def count_eigenvalues_winding(
    block: BlockMatrix,
    center: float,
    halfwidth: float,
    imag_halfwidth: float = 1.0,
    mesh: int = WINDING_MESH,
    mesh_max: int = WINDING_MESH_MAX,
) -> int:
    """Exact count of eigenvalues of every point matrix in the block
    enclosure inside the rectangle |Re z - center| <= halfwidth,
    |Im z| <= imag_halfwidth, via the argument principle.

    The boundary is meshed; each cell image must exclude zero (else the
    cell is refined, and ultimately BoundaryHit is raised) and the signed
    crossings of the positive real axis are summed, with runs of
    undetermined nodes resolved through the sign of the real part.
    """
    cmat = _block_intervals(block)
    poly = _char_poly(cmat)
    corners = [
        complex(center - halfwidth, -imag_halfwidth),
        complex(center + halfwidth, -imag_halfwidth),
        complex(center + halfwidth, imag_halfwidth),
        complex(center - halfwidth, imag_halfwidth),
    ]
    current_mesh = mesh
    while True:
        try:
            return _winding_once(cmat, poly, corners, current_mesh, mesh_max)
        except _RetryWinding:
            if current_mesh * 2 > mesh_max:
                raise BoundaryHit(
                    f"sign runs remain ambiguous at mesh {current_mesh}",
                ) from None
            current_mesh *= 2


class _RetryWinding(Exception):
    pass


def _winding_once(cmat, poly, corners, mesh: int, mesh_max: int) -> int:
    # Cells that cannot exclude zero are split in place.  Near the real axis
    # the determinant is genuinely as small as (window halfwidth) x (spectral
    # scale), so the required local resolution can be far finer than any flat
    # mesh; an absolute depth cap plus a total budget bounds the work instead.
    # Each side is refined depth first, the top _BATCH cells of the stack in
    # one stacked evaluation: going deep first reaches the depth cap of a
    # window that cannot be resolved after about max_depth evaluations.  The
    # accepted cells do not depend on the order.  A pending cell ends in at
    # least one accepted cell (or hits the depth cap), so accepted plus
    # pending cells above budget + 1 means the cell set would exceed the
    # budget.
    max_depth = 60
    budget = 64 * mesh_max
    cells = []
    for side in range(4):
        z0 = corners[side]
        z1 = corners[(side + 1) % 4]
        # the stack holds (t0, t1, depth) with its top, the smallest t, last
        k = np.arange(mesh)[::-1]
        t0, t1, depth = k / mesh, (k + 1) / mesh, np.zeros(mesh, dtype=int)
        side_cells = []
        while len(t0):
            if len(cells) + len(side_cells) + len(t0) > budget + 1:
                raise BoundaryHit("boundary refinement budget exhausted")
            rest = max(len(t0) - _BATCH, 0)
            c0, c1, cd = t0[rest:], t1[rest:], depth[rest:]
            a = z0 + c0 * (z1 - z0)
            b = z0 + c1 * (z1 - z0)
            zbox = (
                IntervalArray(np.minimum(a.real, b.real), np.maximum(a.real, b.real)),
                IntervalArray(np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)),
            )
            det = _det_at(cmat, poly, zbox)
            split = _contains_zero(det)
            capped = split & (cd >= max_depth)
            if capped.any():
                raise BoundaryHit(
                    f"determinant enclosure contains zero on a boundary cell near {a[capped][0]}"
                )
            for i in np.flatnonzero(~split).tolist():
                ends = (det[0].lo[i], det[0].hi[i], det[1].lo[i], det[1].hi[i])
                side_cells.append((float(c0[i]), complex(a[i]), *map(float, ends)))
            # push each split cell's upper half, then its lower half
            s0, s1 = c0[split], c1[split]
            tm = 0.5 * (s0 + s1)
            t0 = np.concatenate([t0[:rest], np.stack([tm, s0], axis=1).reshape(-1)])
            t1 = np.concatenate([t1[:rest], np.stack([s1, tm], axis=1).reshape(-1)])
            depth = np.concatenate([depth[:rest], np.repeat(cd[split] + 1, 2)])
        side_cells.sort(key=lambda c: c[0])
        cells.extend(side_cells)
    if len(cells) > budget + 1:
        raise BoundaryHit("boundary refinement budget exhausted")

    # A cell is (t0, its start node, re.lo, re.hi, im.lo, im.hi of its
    # determinant enclosure).
    k = len(cells)
    # Node signs: the node value lies inside both adjacent cell enclosures,
    # so a sign-definite neighbour determines it without a fresh evaluation.
    signs = []
    for i in range(k):
        prev_im, cell_im = cells[i - 1][4:], cells[i][4:]
        if prev_im[0] > 0.0 or cell_im[0] > 0.0:
            signs.append(1)
        elif prev_im[1] < 0.0 or cell_im[1] < 0.0:
            signs.append(-1)
        else:
            signs.append(0)
    nodes = [i for i in range(k) if signs[i] == 0]
    if nodes:
        a = np.array([cells[i][1] for i in nodes])
        dz = _det_at(cmat, poly, (IntervalArray(a.real), IntervalArray(a.imag)))
        hit = _contains_zero(dz)
        if hit.any():
            raise BoundaryHit(f"determinant enclosure contains zero at node {a[hit][0]}")
        for i, lo, hi in zip(nodes, dz[1].lo.tolist(), dz[1].hi.tolist()):
            signs[i] = 1 if lo > 0.0 else -1 if hi < 0.0 else 0
    determined = [i for i, s in enumerate(signs) if s != 0]
    if not determined:
        raise _RetryWinding()

    winding = 0
    for idx in range(len(determined)):
        i = determined[idx]
        j = determined[(idx + 1) % len(determined)]
        si, sj = signs[i], signs[j]
        # run of cells from node i to node j (cyclic)
        span = []
        t = i
        while True:
            span.append(t)
            t = (t + 1) % k
            if t == j:
                break
        re_signs = set()
        for ci in span:
            _, _, re_lo, re_hi, im_lo, im_hi = cells[ci]
            if im_lo <= 0.0 <= im_hi:
                if re_lo > 0.0:
                    re_signs.add(1)
                elif re_hi < 0.0:
                    re_signs.add(-1)
                else:
                    raise _RetryWinding()
        if si == sj:
            if len(re_signs) > 1:
                raise _RetryWinding()
            continue
        if len(re_signs) != 1:
            raise _RetryWinding()
        if 1 in re_signs:
            winding += (sj - si) // 2
    return winding


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass
class ClusterCount:
    center: float
    halfwidth: float
    count: int

    def to_json(self) -> dict:
        return {"center": self.center, "halfwidth": self.halfwidth, "count": self.count}


@dataclass
class BlockSpectrum:
    l: int
    kind: str
    size: int
    eigen: list = field(default_factory=list)  # Interval enclosures
    clusters: list = field(default_factory=list)  # ClusterCount
    kernel_count: int = 0  # block eigenvalues certified inside the kernel window
    kernel_halfwidth: float = 0.0

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "kind": self.kind,
            "size": self.size,
            "eigs": [[e.lo, e.hi] for e in self.eigen],
            "clusters": [c.to_json() for c in self.clusters],
            **(
                {"kernel": {"count": self.kernel_count, "halfwidth": self.kernel_halfwidth}}
                if self.kernel_halfwidth
                else {}
            ),
        }


@dataclass
class StabilityVerdict:
    verdict: str  # "CertifiedStable" | "NotPositive" | "Inconclusive"
    mu: Interval
    omega: Interval
    blocks: list = field(default_factory=list)
    failing_block: int | None = None
    witness: Interval | None = None
    reason: str = ""
    kernel_real_dim: int = 0

    @property
    def stable(self) -> bool:
        return self.verdict == "CertifiedStable"

    def to_json(self) -> dict:
        out = {
            "omega": [self.omega.lo, self.omega.hi],
            "mu": [self.mu.lo, self.mu.hi],
            "blocks": [b.to_json() for b in self.blocks],
            "verdict": self.verdict,
        }
        if self.failing_block is not None:
            out["failing_block"] = self.failing_block
        if self.witness is not None:
            out["witness"] = [self.witness.lo, self.witness.hi]
        if self.reason:
            out["reason"] = self.reason
        if self.kernel_real_dim:
            out["kernel_real_dim"] = self.kernel_real_dim
        return out


def _block_spectrum(
    block: BlockMatrix,
    expected_kernel: int,
    kernel_halfwidth: float,
) -> BlockSpectrum:
    """Validated spectrum of one block: simple enclosures, cluster windows,
    and (when expected) the kernel window count."""
    spec = BlockSpectrum(l=block.l, kind=block.kind, size=block.size)
    D = block.size
    if D == 0:
        return spec
    mid = block.mid()
    if block.im is None and np.iscomplexobj(mid):
        mid = mid.real
    lam, vecs = np.linalg.eigh(mid if np.iscomplexobj(mid) else (mid + mid.T) / 2.0)

    kernel_idx = []
    if expected_kernel:
        order = np.argsort(np.abs(lam))
        kernel_idx = sorted(order[:expected_kernel].tolist())

    pending = []
    for i in range(D):
        if i in kernel_idx:
            continue
        try:
            enc = validate_simple_eigenpair(block, float(lam[i]), vecs[:, i])
            spec.eigen.append(enc)
        except NotIsolated:
            pending.append(i)

    covered = set()
    for i in pending:
        if i in covered:
            continue
        eps = CLUSTER_EPS_START * max(1.0, abs(lam[i]))
        while True:
            try:
                cnt = count_eigenvalues_winding(block, float(lam[i]), eps)
                break
            except BoundaryHit:
                eps *= 10.0
                if eps > CLUSTER_EPS_MAX * max(1.0, abs(lam[i])):
                    raise
        cl = ClusterCount(center=float(lam[i]), halfwidth=eps, count=cnt)
        spec.clusters.append(cl)
        for t in pending:
            if abs(lam[t] - lam[i]) <= eps:
                covered.add(t)

    if expected_kernel:
        delta = kernel_halfwidth
        while True:
            try:
                cnt = count_eigenvalues_winding(block, 0.0, delta)
                break
            except BoundaryHit:
                delta *= 10.0
                if delta > CLUSTER_EPS_MAX:
                    raise
        spec.kernel_count = cnt
        spec.kernel_halfwidth = delta
    return spec


def _accounted(spec: BlockSpectrum) -> int:
    return len(spec.eigen) + sum(c.count for c in spec.clusters) + spec.kernel_count


def _regions_disjoint(spec: BlockSpectrum) -> bool:
    regions = [(e.lo, e.hi) for e in spec.eigen]
    regions += [(c.center - c.halfwidth, c.center + c.halfwidth) for c in spec.clusters]
    if spec.kernel_halfwidth:
        regions.append((-spec.kernel_halfwidth, spec.kernel_halfwidth))
    regions.sort()
    for a, b in zip(regions, regions[1:]):
        if a[1] >= b[0]:
            return False
    return True


def stability_test(
    ring: RingSystem,
    omega,
    mu_zero: bool | None = None,
    kernel_halfwidth: float = DEFAULT_KERNEL_HALFWIDTH,
) -> StabilityVerdict:
    """Energy-momentum verdict for one configuration enclosure.

    mu_zero defaults to (omega == 0); at zero momentum the mode-1 block
    must show exactly the symmetry kernel (real dimension 2) inside the
    kernel window with everything else positive.
    """
    interval_ring = (
        ring
        if ring.interval_mode
        else RingSystem(ring.m, ring.n, ring.p, to_interval_array(ring.generators), check=False)
    )
    omega_iv = omega if isinstance(omega, Interval) else Interval(float(omega))
    if mu_zero is None:
        mu_zero = omega_iv.lo == 0.0 == omega_iv.hi
    mu = reduced_phi(interval_ring) + pole_offset(interval_ring.p)
    if not mu_zero and mu.contains(0.0):
        return StabilityVerdict(
            verdict="Inconclusive",
            mu=mu,
            omega=omega_iv,
            reason="momentum enclosure straddles zero at nonzero omega",
        )

    a = iv.as_array(lift_rho(interval_ring).vectors)
    basis = build_slice(interval_ring, a, mu_zero=mu_zero)
    if basis.permutation is not None:
        a = a[basis.permutation]
    hess = full_hstar_hessian(a, omega_iv).matrix
    blocks = assemble_blocks(basis, hess)

    kernel_block_l = 1 if interval_ring.m >= 2 else 0
    specs = []
    verdict = "CertifiedStable"
    failing = None
    witness = None
    reason = ""
    kernel_real_dim = 0
    for blk in blocks:
        expected = 0
        if mu_zero and blk.l == kernel_block_l:
            expected = 2 if blk.kind == "P" else 1
        try:
            spec = _block_spectrum(blk, expected, kernel_halfwidth)
        except (BoundaryHit, NotVerified, DomainError) as exc:
            specs.append(BlockSpectrum(l=blk.l, kind=blk.kind, size=blk.size))
            verdict = "Inconclusive"
            reason = f"block l={blk.l}: {exc}"
            continue
        specs.append(spec)
        if _accounted(spec) != blk.size:
            verdict = "Inconclusive"
            reason = f"block l={blk.l}: accounted {_accounted(spec)} of {blk.size} eigenvalues"
            continue
        if not _regions_disjoint(spec):
            verdict = "Inconclusive"
            reason = f"block l={blk.l}: eigenvalue regions overlap"
            continue
        if expected and spec.kernel_count != expected:
            verdict = "Inconclusive"
            reason = (
                f"block l={blk.l}: kernel window holds {spec.kernel_count} eigenvalues, "
                f"expected {expected}"
            )
            continue
        if expected:
            kernel_real_dim = spec.kernel_count * (2 if blk.kind == "Q" else 1)
        neg = None
        straddle = None
        for e in spec.eigen:
            if e.hi < 0.0:
                neg = e
            elif e.lo <= 0.0:
                straddle = e
        for c in spec.clusters:
            w = Interval(c.center - c.halfwidth, c.center + c.halfwidth)
            if w.hi < 0.0 and c.count > 0:
                neg = w
            elif w.lo <= 0.0 and c.count > 0:
                straddle = w
        if neg is not None and verdict != "Inconclusive":
            verdict = "NotPositive"
            failing = blk.l
            witness = neg
        elif straddle is not None and verdict == "CertifiedStable":
            verdict = "Inconclusive"
            failing = blk.l
            witness = straddle
            reason = f"block l={blk.l}: eigenvalue enclosure straddles zero"
    return StabilityVerdict(
        verdict=verdict,
        mu=mu,
        omega=omega_iv,
        blocks=specs,
        failing_block=failing,
        witness=witness,
        reason=reason,
        kernel_real_dim=kernel_real_dim,
    )


@dataclass
class SegmentStabilityResult:
    point_verdict: StabilityVerdict
    whole_segment: bool
    failed_block: int | None = None
    reason: str = ""

    @property
    def verdict(self) -> str:
        if self.point_verdict.stable and self.whole_segment:
            return "CertifiedStable"
        return self.point_verdict.verdict if not self.point_verdict.stable else "Inconclusive"

    def to_json(self) -> dict:
        out = self.point_verdict.to_json()
        out["whole_segment"] = self.whole_segment
        if self.reason:
            out["segment_reason"] = self.reason
        out["verdict"] = self.verdict
        return out


def stability_over_segment(certificate, point_certificate=None) -> SegmentStabilityResult:
    """Propagate a point verdict along a certified branch segment.

    Positive definiteness at the left endpoint plus certified invertibility
    of every block over the whole tube extend the verdict to the segment by
    continuity of eigenvalues.  If invertibility fails the verdict is
    limited to the endpoint.
    """
    from .continuation import nk_validate_point

    if point_certificate is None:
        point_certificate = nk_validate_point(
            certificate.x0, certificate.anchor, certificate.m, certificate.p
        )
    ring0 = point_certificate.ring_enclosure()
    verdict0 = stability_test(ring0, Interval(certificate.x0.omega), mu_zero=False)
    if not verdict0.stable:
        return SegmentStabilityResult(point_verdict=verdict0, whole_segment=False, reason="endpoint not certified stable")

    def blocks_invertible(cert):
        tube = cert.ring_tube()
        omega_tube = cert.omega_tube()
        a = iv.as_array(lift_rho(tube).vectors)
        hess = full_hstar_hessian(a, omega_tube).matrix
        basis = build_slice(tube, a, mu_zero=False)
        blocks = assemble_blocks(basis, hess)
        for blk in blocks:
            if blk.size == 0:
                continue
            try:
                iv.verify_invertible(blk.realified())
            except NotVerified as exc:
                return blk.l, str(exc)
        return None

    def fail(reason_block, reason_text):
        return SegmentStabilityResult(
            point_verdict=verdict0,
            whole_segment=False,
            failed_block=reason_block,
            reason=f"block l={reason_block} invertibility over the tube not verified: {reason_text}",
        )

    # Bisect with re-validation: sub-segments get fresh (much tighter)
    # contraction radii, so the sub-tubes shrink quadratically in the step.
    from .continuation import AugmentedPoint, NoConvergence, NotValidated, newton_polish, nk_validate_segment

    max_depth = 6
    stack = [(certificate, 0)]
    while stack:
        cert, depth = stack.pop()
        failed = blocks_invertible(cert)
        if failed is None:
            continue
        if depth >= max_depth:
            return fail(*failed)
        xm = 0.5 * (cert.x0.flat() + cert.x1.flat())
        wm = 0.5 * (cert.x0.omega + cert.x1.omega)
        try:
            xm_pol = newton_polish(xm, wm, cert.anchor, cert.m, cert.p)
            mid = AugmentedPoint.from_flat(xm_pol, wm)
            left = nk_validate_segment(cert.x0, mid, cert.anchor, cert.m, cert.p)
            right = nk_validate_segment(mid, cert.x1, cert.anchor, cert.m, cert.p)
        except (NoConvergence, NotValidated) as exc:
            return fail(failed[0], f"{failed[1]} (refinement failed: {exc})")
        stack.append((left, depth + 1))
        stack.append((right, depth + 1))
    return SegmentStabilityResult(point_verdict=verdict0, whole_segment=True)
