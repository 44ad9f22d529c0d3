"""Point-vortex mathematics on the unit sphere, with ring-symmetric reduction.

Everything here is evaluable both over plain floats (numpy float64 arrays)
and over rigorous intervals (numpy object arrays of Interval, or an
IntervalArray); the same code path serves both, so the certified pipeline
and the numeric pipeline cannot drift apart.  The ring-reduced gradient and
Hessians run vectorised over rotations x ring pairs x poles; they convert
object-array input to an IntervalArray once at entry and return one.

Conventions:
  * Identical vortex strengths use the scaled Hamiltonian
    H = -(1/2) * sum_{i<j} ln ||v_i - v_j||^2  (scale HALF).  This is the
    unique scale under which the explicit equal-strength equations of
    motion equal -v_j x grad_j H, the reduced Hamiltonian h equals
    H o rho up to the pole-pair constant, and the analytic one-ring
    frequencies are reproduced.  The ONE scale (no 1/2) is available for
    diagnostics via VortexParameters.
  * Ring systems are ordered ring-major, poles last; the generator of
    ring j sits at slot (j-1)*m + (m-1) of the lifted configuration.
  * p = 1 places the North pole.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import intervals as iv
from .intervals import DomainError, Interval

__all__ = [
    "HamiltonianScale",
    "VortexParameters",
    "FullConfiguration",
    "RingSystem",
    "COLLISION_TOL",
    "J3",
    "j3_rows",
    "hamiltonian_H",
    "momentum_Phi",
    "vortex_rhs",
    "augmented_H",
    "lift_rho",
    "reduced_h",
    "reduced_phi",
    "grad_h",
    "hess_h",
    "reduced_rhs",
    "solve_ring_multipliers",
    "lagrangian_hstar",
    "grad_hstar",
    "hess_hstar",
    "full_hstar_hessian",
    "HessStarResult",
    "integrate_full_rk4",
    "integrate_reduced_rk4",
    "ring_rotations",
    "to_interval_array",
    "dumps_config",
    "ring_to_json",
    "ring_from_json",
    "full_to_json",
    "full_from_json",
]

COLLISION_TOL = 1e-9

J3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

E3 = np.array([0.0, 0.0, 1.0])


def j3_rows(U):
    """J3 u = (-u_y, u_x, 0) for every row u of an (..., 3) float or
    interval array, with an exact zero third component."""
    return iv.stack([-U[..., 1], U[..., 0], np.zeros(U.shape[:-1])], -1)


class HamiltonianScale(Enum):
    HALF = 0.5
    ONE = 1.0


@dataclass(frozen=True)
class VortexParameters:
    """Vortex strengths and Hamiltonian normalization.

    Strengths of None mean identical unit strengths (the scaled equations
    without the 1/(4 pi) prefactor); explicit strengths select the raw
    right-hand side with the 1/(4 pi) prefactor.
    """

    strengths: tuple | None = None
    scale: HamiltonianScale = HamiltonianScale.HALF

    def __post_init__(self):
        if self.strengths is not None:
            if any(g == 0 for g in self.strengths):
                raise DomainError("vortex strengths must be nonzero")
            object.__setattr__(self, "strengths", tuple(float(g) for g in self.strengths))

    @property
    def identical(self) -> bool:
        return self.strengths is None


def _is_interval(arr) -> bool:
    return isinstance(arr, iv.IntervalArray) or (isinstance(arr, np.ndarray) and arr.dtype == object)


def to_interval_array(x) -> np.ndarray:
    """Promote a float array (or mixed data) to an object array of Intervals."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=object)
    flat_in = x.reshape(-1)
    flat_out = out.reshape(-1)
    for i, v in enumerate(flat_in):
        flat_out[i] = v if isinstance(v, Interval) else Interval(float(v))
    return out


def _zero(interval_mode: bool):
    return Interval(0.0) if interval_mode else 0.0


def _ln(x):
    if isinstance(x, Interval):
        return iv.ln(x)
    if x <= 0.0:
        raise DomainError("log of nonpositive value")
    return math.log(x)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ],
        dtype=a.dtype if a.dtype == object else float,
    )


def _norm_sq(d):
    return _dot(d, d)


def _check_dist_sq(s):
    """Reject (near-)collisions; the ln singularity dominates doubles there."""
    if isinstance(s, Interval):
        if s.lo <= COLLISION_TOL**2:
            raise DomainError("interval distance cannot be bounded away from collision")
    elif s < COLLISION_TOL**2:
        raise DomainError("configuration within collision tolerance")
    return s


def _cos_sin_frac(num: int, den: int, interval_mode: bool):
    """cos/sin of 2*pi*num/den with exact quarter-turn values."""
    num = num % den
    four = 4 * num
    if four % den == 0:
        quarter = four // den  # angle = quarter * pi/2
        table = {0: (1.0, 0.0), 1: (0.0, 1.0), 2: (-1.0, 0.0), 3: (0.0, -1.0)}
        c, s = table[quarter % 4]
        if interval_mode:
            return Interval(c), Interval(s)
        return c, s
    if interval_mode:
        theta = iv.TWO_PI * Interval(float(num)) / Interval(float(den))
        return iv.cos(theta), iv.sin(theta)
    theta = 2.0 * math.pi * num / den
    return math.cos(theta), math.sin(theta)


def _rot_z(c, s, interval_mode: bool):
    z = _zero(interval_mode)
    one = Interval(1.0) if interval_mode else 1.0
    return np.array([[c, -s, z], [s, c, z], [z, z, one]], dtype=object if interval_mode else float)


@lru_cache(maxsize=64)
def _ring_rotations_cached(m: int, interval_mode: bool) -> tuple:
    return tuple(_rot_z(*_cos_sin_frac(i, m, interval_mode), interval_mode) for i in range(m + 1))


def ring_rotations(m: int, interval_mode: bool = False) -> tuple:
    """Powers g^0..g^m of the ring rotation by 2*pi/m about e3."""
    if m < 1:
        raise DomainError("ring order m must be >= 1")
    return _ring_rotations_cached(m, interval_mode)


def _poles(p: int, interval_mode: bool) -> list:
    if p not in (0, 1, 2):
        raise DomainError("pole count p must be 0, 1 or 2")
    north = np.array([0.0, 0.0, 1.0])
    south = np.array([0.0, 0.0, -1.0])
    out = [north, south][:p] if p != 2 else [north, south]
    if p == 1:
        out = [north]
    if interval_mode:
        out = [to_interval_array(f) for f in out]
    return out


@dataclass
class FullConfiguration:
    """N vortex positions on the unit sphere, collision-free."""

    vectors: np.ndarray
    check: bool = True

    def __post_init__(self):
        self.vectors = self.vectors if _is_interval(self.vectors) else np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != 3:
            raise DomainError("configuration must be an (N, 3) array")
        if self.check:
            self.validate()

    @property
    def N(self) -> int:
        return self.vectors.shape[0]

    def validate(self, tol: float = 1e-9):
        v = self.vectors
        for j in range(self.N):
            s = _norm_sq(v[j])
            if isinstance(s, Interval):
                if not s.contains(1.0):
                    raise DomainError(f"vortex {j} enclosure excludes the unit sphere")
            elif abs(s - 1.0) > 2 * tol:
                raise DomainError(f"vortex {j} is off the unit sphere")
        for j in range(self.N):
            for i in range(j):
                _check_dist_sq(_norm_sq(v[j] - v[i]))


@dataclass
class RingSystem:
    """Reduced configuration: n rings of regular m-gons plus p poles.

    Generators are one point per ring; N = m*n + p.  For m >= 2 the
    generators must avoid the poles (a ring generator at a pole is a
    collision of the lifted configuration).
    """

    m: int
    n: int
    p: int
    generators: np.ndarray
    check: bool = True

    def __post_init__(self):
        self.generators = (
            self.generators if _is_interval(self.generators) else np.asarray(self.generators, dtype=float)
        )
        if self.m < 1 or self.n < 1 or self.p not in (0, 1, 2):
            raise DomainError("invalid ring system signature (m, n, p)")
        if self.m == 1 and self.p != 0:
            raise DomainError("for m = 1 the convention is n = N, p = 0")
        if self.generators.shape != (self.n, 3):
            raise DomainError("generators must be an (n, 3) array")
        if self.check:
            self.validate()

    @property
    def N(self) -> int:
        return self.m * self.n + self.p

    @property
    def interval_mode(self) -> bool:
        return _is_interval(self.generators)

    def validate(self, tol: float = 1e-9):
        u = self.generators
        for j in range(self.n):
            s = _norm_sq(u[j])
            if isinstance(s, Interval):
                if not s.contains(1.0):
                    raise DomainError(f"generator {j} enclosure excludes the unit sphere")
            elif abs(s - 1.0) > 2 * tol:
                raise DomainError(f"generator {j} is off the unit sphere")
            if self.m >= 2:
                xy = u[j][0] * u[j][0] + u[j][1] * u[j][1]
                if isinstance(xy, Interval):
                    if xy.lo <= COLLISION_TOL**2:
                        raise DomainError(f"generator {j} cannot be separated from the poles")
                elif xy < COLLISION_TOL**2:
                    raise DomainError(f"generator {j} is at a pole")
        for j in range(self.n):
            for i in range(j):
                _check_dist_sq(_norm_sq(u[j] - u[i]))

    def z(self, j: int):
        return self.generators[j][2]

    def eta(self, j: int) -> complex:
        """x_j - i*y_j of generator j (float midpoints in interval mode)."""
        g = self.generators[j]
        if self.interval_mode:
            return complex(g[0].mid, -g[1].mid)
        return complex(g[0], -g[1])

    def midpoint(self) -> "RingSystem":
        if not self.interval_mode:
            return self
        gens = np.array([[e.mid for e in row] for row in self.generators], dtype=float)
        return RingSystem(self.m, self.n, self.p, gens, check=False)


def lift_rho(ring: RingSystem) -> FullConfiguration:
    """Lift ring generators to the ring-major full configuration."""
    interval_mode = ring.interval_mode
    g = ring_rotations(ring.m, interval_mode)
    rows = []
    for j in range(ring.n):
        uj = ring.generators[j]
        for k in range(1, ring.m + 1):
            rows.append(g[k] @ uj)
    rows.extend(_poles(ring.p, interval_mode))
    arr = np.empty((len(rows), 3), dtype=object if interval_mode else float)
    for i, r in enumerate(rows):
        arr[i] = r
    return FullConfiguration(arr, check=False)


# ---------------------------------------------------------------------------
# Full-space Hamiltonian, momentum, dynamics
# ---------------------------------------------------------------------------


def _as_vectors(v):
    if isinstance(v, FullConfiguration):
        return v.vectors
    if isinstance(v, np.ndarray) and v.dtype == object:
        return v
    return np.asarray(v, dtype=float)


def hamiltonian_H(v, scale: HamiltonianScale = HamiltonianScale.HALF):
    """H = -s * sum_{i<j} ln ||v_i - v_j||^2 for identical strengths."""
    vecs = _as_vectors(v)
    N = vecs.shape[0]
    interval_mode = _is_interval(vecs)
    acc = _zero(interval_mode)
    for j in range(N):
        for i in range(j):
            acc = acc + _ln(_check_dist_sq(_norm_sq(vecs[j] - vecs[i])))
    s = scale.value
    return acc * (-s)


def momentum_Phi(v, strengths=None):
    """Center of vorticity Phi = sum Gamma_i v_i."""
    vecs = _as_vectors(v)
    interval_mode = _is_interval(vecs)
    acc = np.array([_zero(interval_mode)] * 3, dtype=object if interval_mode else float)
    for j in range(vecs.shape[0]):
        w = vecs[j] if strengths is None else vecs[j] * strengths[j]
        acc = acc + w
    return acc


def augmented_H(v, omega, scale: HamiltonianScale = HamiltonianScale.HALF):
    """H_omega = H - omega * Phi_3."""
    return hamiltonian_H(v, scale) - omega * momentum_Phi(v)[2]


def vortex_rhs(v, params: VortexParameters = VortexParameters()):
    """Equations of motion.

    Identical strengths: vdot_j = sum_{i != j} (v_i x v_j)/||v_i - v_j||^2
    (the scaled-units form, equal to -v_j x grad_j H at scale HALF).
    Distinct strengths: the raw form with the 1/(4 pi) Gamma_i prefactor.
    """
    vecs = _as_vectors(v)
    N = vecs.shape[0]
    interval_mode = _is_interval(vecs)
    out = np.empty((N, 3), dtype=object if interval_mode else float)
    identical = params.strengths is None
    pref = 1.0 if identical else 1.0 / (4.0 * math.pi)
    for j in range(N):
        acc = np.array([_zero(interval_mode)] * 3, dtype=object if interval_mode else float)
        for i in range(N):
            if i == j:
                continue
            d2 = _check_dist_sq(_norm_sq(vecs[i] - vecs[j]))
            term = _cross(vecs[i], vecs[j])
            if not identical:
                term = term * params.strengths[i]
            acc = acc + term / d2
        out[j] = acc * pref if not identical else acc
    return out


# ---------------------------------------------------------------------------
# Ring-symmetric reduction
# ---------------------------------------------------------------------------


def _ring_args(ring_or_u, m=None, p=None):
    if isinstance(ring_or_u, RingSystem):
        return ring_or_u.generators, ring_or_u.m, ring_or_u.p
    if m is None or p is None:
        raise TypeError("raw generator arrays require explicit m and p")
    u = ring_or_u
    u = u if _is_interval(u) else np.asarray(u, dtype=float)
    return u, m, p


def reduced_h(ring_or_u, m=None, p=None):
    """Ring Hamiltonian h(u): self-ring, cross-ring and pole interaction sums."""
    u, m, p = _ring_args(ring_or_u, m, p)
    n = u.shape[0]
    interval_mode = _is_interval(u)
    g = ring_rotations(m, interval_mode)
    poles = _poles(p, interval_mode)
    acc_self = _zero(interval_mode)
    for j in range(n):
        for i in range(1, m):
            acc_self = acc_self + _ln(_check_dist_sq(_norm_sq(g[i] @ u[j] - u[j])))
    acc_cross = _zero(interval_mode)
    for j in range(n):
        for jp in range(j + 1, n):
            for i in range(1, m + 1):
                acc_cross = acc_cross + _ln(_check_dist_sq(_norm_sq(g[i] @ u[j] - u[jp])))
    acc_pole = _zero(interval_mode)
    for j in range(n):
        for f in poles:
            acc_pole = acc_pole + _ln(_check_dist_sq(_norm_sq(u[j] - f)))
    return acc_self * (-m / 4.0) + (acc_cross + acc_pole) * (-m / 2.0)


def reduced_phi(ring_or_u, m=None, p=None):
    """Ring momentum phi(u) = m * (sum u_i) . e3."""
    u, m, _p = _ring_args(ring_or_u, m, p if p is not None else 0)
    interval_mode = _is_interval(u)
    acc = _zero(interval_mode)
    for j in range(u.shape[0]):
        acc = acc + u[j][2]
    return acc * float(m)


def pole_offset(p: int) -> float:
    """sigma_p with Phi_3 o rho = phi + sigma_p on the North-pole component."""
    return 1.0 if p == 1 else 0.0


# The ring sums of grad_h and hess_h run as one vectorised code path over
# rotations x ring pairs x poles, for float ndarrays and IntervalArrays
# alike.  Generator j interacts with the m*n + p - 1 "sources"
# g^i u_jp (i = 1..m, every jp, except g^m u_j = u_j itself) and the poles.
#
# The kernels below also carry a leading batch axis: generators given as a
# (B, n, 3) stack give a stack of B results, each equal bit for bit to the
# result of its own call, and a single (n, 3) call runs as the one-element
# stack.  Applying each operation to the whole stack at once is what makes a
# stack cheap (Rump, "Fast and parallel interval arithmetic", BIT 39, 1999).


def _as_stack(x, item_ndim: int):
    """(x as a stack, whether x was a single item): a single item of
    ``item_ndim`` axes becomes the one-element stack."""
    single = x.ndim == item_ndim
    return (x[None] if single else x), single


def _omega_column(omega):
    """A per-member omega (a float array or IntervalArray of shape (B,)) as
    a (B, 1) column; a scalar omega as it is."""
    if isinstance(omega, (np.ndarray, iv.IntervalArray)) and omega.ndim:
        return omega.reshape(-1, 1)
    return omega


@lru_cache(maxsize=64)
def _ring_trig(m: int, interval_mode: bool):
    """(3, m-1) rows cos, sin and 1 - cos of 2*pi*i/m for i = 1..m-1."""
    cs = np.array([_cos_sin_frac(i, m, interval_mode) for i in range(1, m)], dtype=object).reshape(m - 1, 2).T
    c, s = iv.as_array(cs) if interval_mode else cs.astype(float)
    return iv.stack([c, s, 1.0 - c])


@lru_cache(maxsize=64)
def _rotation_frames(m: int, interval_mode: bool):
    """(2m-1, 3, 3) stack [I, g^1..g^(m-1), I - g^1..I - g^(m-1)] with exact
    zeros and ones where the rotation about e3 has them."""
    c, s, one_minus_c = _ring_trig(m, interval_mode)
    zero, one = np.zeros(m - 1), np.ones(m - 1)
    g = iv.stack([iv.stack([c, -s, zero], -1), iv.stack([s, c, zero], -1), iv.stack([zero, zero, one], -1)], -2)
    eye_minus_g = iv.stack(
        [
            iv.stack([one_minus_c, s, zero], -1),
            iv.stack([-s, one_minus_c, zero], -1),
            iv.stack([zero, zero, zero], -1),
        ],
        -2,
    )
    return iv.concatenate([np.eye(3)[None], g, eye_minus_g])


@lru_cache(maxsize=64)
def _pair_tables(m: int, n: int, p: int):
    """Index tables of the source sums.

    src[j, e]      source row (rotation-major, then poles) of entry e of
                   generator j;
    diag_frame     frame index of the diagonal-block term of each entry:
                   I - g^i for the self-ring terms, I otherwise;
    cross[j, q, i] entry of generator j for its q-th other generator jp and
                   rotation g^(i+1); others[j, q] is that jp;
    cross_frame[i] frame index of g^(i+1) (g^m = I).
    """
    skip = np.arange(n) + (m - 1) * n
    src = np.array([np.delete(np.arange(m * n + p), k) for k in skip]).reshape(n, m * n + p - 1)
    rot = src // n + 1
    self_term = (src < m * n) & (src % n == np.arange(n)[:, None])
    diag_frame = np.where(self_term, m - 1 + rot, 0)
    others = np.array([[q for q in range(n) if q != j] for j in range(n)], dtype=int).reshape(n, n - 1)
    k = np.arange(m)[None, None, :] * n + others[:, :, None]
    cross = np.where(k < skip[:, None, None], k, k - 1)
    cross_frame = np.where(np.arange(1, m + 1) < m, np.arange(1, m + 1), 0)
    return src, diag_frame, others, cross, cross_frame


def _dist_sq(D):
    """|d|^2 over the last axis, rejecting (near-)collisions."""
    s = iv.sqr(D).sum(axis=-1)
    if isinstance(s, iv.IntervalArray):
        if np.any(s.lo <= COLLISION_TOL**2):
            raise DomainError("interval distance cannot be bounded away from collision")
    elif np.any(s < COLLISION_TOL**2):
        raise DomainError("configuration within collision tolerance")
    return s


def _source_differences(U, m: int, p: int):
    """d[b, j, e] = u_j - (source e of generator j) and |d|^2 for every
    member b of a (B, n, 3) stack of generators.

    The sources are g^1 u, ..., g^(m-1) u, u (rotation-major) and the
    poles.  Self-ring differences are formed as (I - g^i) u_j, which keeps
    their e3 component an exact zero."""
    B, n = U.shape[:2]
    # one product for every (cos, sin, 1 - cos) x (x, y) pair
    xy = U[:, :, :2].transpose(0, 2, 1)
    f = _ring_trig(m, isinstance(U, iv.IntervalArray)).reshape(3, m - 1, 1, 1, 1) * xy
    (cx, cy), (sx, sy), (c1x, c1y) = f.transpose(0, 3, 2, 1, 4)
    rotated = iv.stack([cx - sy, sx + cy, U[:, None, :, 2]], -1)
    poles = np.broadcast_to(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])[:p], (B, p, 3))
    sources = iv.concatenate([rotated.reshape(B, -1, 3), U, poles], axis=1)
    D = U[:, :, None, :] - sources[:, _pair_tables(m, n, p)[0]]
    if m > 1:
        self_d = iv.stack([c1x + sy, c1y - sx, np.zeros((B, m - 1, n))], -1)
        j = np.arange(n)[:, None]
        D[:, j, np.arange(m - 1) * n + j] = self_d.transpose(0, 2, 1, 3)
    return D, _dist_sq(D)


def _frame_blocks(L, D, s, s2, joint: bool):
    """Per entry, the frame-L derivative L/s - 2 d (L^T d)^T / s^2 of the
    d/|d|^2 terms; as (L s - 2 d (L^T d)^T) / s^2 when ``joint``.  Any
    leading axes of D, s and s2 (a batch axis among them) are carried
    through.

    The two interval forms agree in value, not in width.  hess_h uses the
    split form on the diagonal blocks and the joint form off them, which
    keeps the enclosure widths, and so the contraction bounds, of the
    per-block scalar evaluation."""
    LtD = (L * D[..., :, None]).sum(axis=-2)
    rank1 = 2.0 * (D[..., :, None] * LtD[..., None, :])
    s, s2 = s[..., None, None], s2[..., None, None]
    return (L * s - rank1) / s2 if joint else L / s - rank1 / s2


def grad_h(ring_or_u, m=None, p=None):
    """Gradient of h as an (n, 3) array (three-sum formula); an IntervalArray
    for interval input.  A (B, n, 3) stack of generators gives the (B, n, 3)
    stack of gradients; a single call is the one-element stack."""
    u, m, p = _ring_args(ring_or_u, m, p)
    U, single = _as_stack(iv.as_array(u), 2)
    out = _grad_h_stack(U, m, p)
    return out[0] if single else out


def _grad_h_stack(U, m: int, p: int):
    D, s = _source_differences(U, m, p)
    return (D / s[..., None]).sum(axis=-2) * (-float(m))


def hess_h(ring_or_u, m=None, p=None):
    """Hessian of h as a (3n, 3n) array of 3x3 blocks (an IntervalArray for
    interval input); a (B, n, 3) stack of generators gives the (B, 3n, 3n)
    stack, and a single call is the one-element stack.

    The self-ring diagonal contribution carries a minus sign on the rank-one
    part, D(Mu/||Mu||^2) = M/||Mu||^2 - 2 Mu (Mu)^T M / ||Mu||^4; this is the
    derivative the gradient formula actually has (confirmed against finite
    differences of grad_h).  Cross-ring terms give -m (I/s - 2dd^T/s^2) on
    the diagonal and m (g/s - 2d(g^T d)^T/s^2) on the off-diagonal block.
    """
    u, m, p = _ring_args(ring_or_u, m, p)
    U, single = _as_stack(iv.as_array(u), 2)
    out = _hess_h_stack(U, m, p)
    return out[0] if single else out


def _hess_h_stack(U, m: int, p: int):
    B, n = U.shape[:2]
    _, diag_frame, others, cross, cross_frame = _pair_tables(m, n, p)
    frames = _rotation_frames(m, isinstance(U, iv.IntervalArray))
    D, s = _source_differences(U, m, p)
    s2 = iv.sqr(s)
    blocks = iv.zeros((B, n, n, 3, 3), like=U)
    rows = np.arange(n)
    blocks[:, rows, rows] = _frame_blocks(frames[diag_frame], D, s, s2, False).sum(axis=-3) * (-float(m))
    if n > 1:
        j = rows[:, None, None]
        off = _frame_blocks(frames[cross_frame], D[:, j, cross], s[:, j, cross], s2[:, j, cross], True)
        blocks[:, rows[:, None], others] = off.sum(axis=-3) * float(m)
    return blocks.transpose(0, 1, 3, 2, 4).reshape(B, 3 * n, 3 * n)


def reduced_rhs(ring_or_u, m=None, p=None) -> np.ndarray:
    """udot_j = -(1/m) u_j x grad_j h."""
    u, m, p = _ring_args(ring_or_u, m, p)
    grad = grad_h(u, m, p)
    out = np.empty_like(u)
    for j in range(u.shape[0]):
        out[j] = _cross(u[j], grad[j]) * (-1.0 / m)
    return out


def solve_ring_multipliers(ring_or_u, omega, m=None, p=None) -> np.ndarray:
    """Multipliers with grad h_omega + m lambda_j u_j = 0 projected on u_j."""
    u, m, p = _ring_args(ring_or_u, m, p)
    grad = grad_h(u, m, p)
    n = u.shape[0]
    interval_mode = _is_interval(u)
    out = np.empty(n, dtype=object if interval_mode else float)
    for j in range(n):
        gw = _dot(u[j], grad[j]) - omega * float(m) * u[j][2]
        nrm = _norm_sq(u[j])
        out[j] = -(gw / nrm) / float(m)
    return out


def lagrangian_hstar(u, lam, omega, m, p):
    """h*_omega(u, lambda) = h_omega(u) + m sum lambda_j R_j(u)."""
    u = u if _is_interval(u) else np.asarray(u, dtype=float)
    interval_mode = _is_interval(u)
    val = reduced_h(u, m, p) - omega * reduced_phi(u, m, p)
    acc = _zero(interval_mode)
    for j in range(u.shape[0]):
        acc = acc + lam[j] * (_norm_sq(u[j]) - 1.0)
    return val + acc * (float(m) / 2.0)


def grad_hstar(u, lam, omega, m, p):
    """Gradient of h*_omega in u, an (n, 3) array (an IntervalArray for
    interval input).  u may be a (B, n, 3) stack with lam (B, n) and omega a
    scalar or one value per member; a single call is the one-element stack."""
    U, single = _as_stack(iv.as_array(u), 2)
    lam = iv.as_array(lam).reshape(U.shape[:2])
    out = _grad_h_stack(U, m, p) + float(m) * (lam[..., None] * U)
    out[..., 2] = out[..., 2] - _omega_column(omega * float(m))
    return out[0] if single else out


def hess_hstar(u, lam, omega, m, p):
    """Hessian of h*_omega in u, (3n, 3n); a (B, n, 3) stack with lam (B, n)
    gives the (B, 3n, 3n) stack, and a single call is the one-element
    stack.  omega does not enter."""
    U, single = _as_stack(iv.as_array(u), 2)
    lam = iv.as_array(lam).reshape(U.shape[:2])
    H = _hess_h_stack(U, m, p)
    k = np.arange(H.shape[-1])
    H[:, k, k] = H[:, k, k] + float(m) * lam[:, k // 3]
    return H[0] if single else H


# ---------------------------------------------------------------------------
# Full-space constrained Hessian (for the stability blocks)
# ---------------------------------------------------------------------------


@dataclass
class HessStarResult:
    """The matrix, multipliers, residual and criticality of one
    configuration, or of every member of a stack (arrays with a leading
    batch axis)."""

    matrix: np.ndarray | iv.IntervalArray
    multipliers: np.ndarray
    residual: float | np.ndarray
    critical: bool | np.ndarray


def full_hstar_hessian(v, omega, multipliers=None, tol: float = 1e-7) -> HessStarResult:
    """Hessian of H*_omega(x, c) = H_omega(x) + sum c_j (1 - ||x_j||^2)/2.

    Restricted to tangent vectors this matrix represents d^2 H_omega(a).
    A non-critical input is flagged (residual = largest tangential component
    of grad H_omega) but the matrix is still returned.  Vectorised over
    vortex pairs for float arrays and IntervalArrays alike (object-array
    input is converted once); the matrix is an IntervalArray for interval
    input.  A (B, N, 3) stack of configurations, with omega a scalar or one
    value per member, gives a result whose fields carry a leading batch
    axis, each member equal bit for bit to its own call; a single
    configuration is the one-element stack.
    """
    V, single = _as_stack(iv.as_array(v.vectors if isinstance(v, FullConfiguration) else v), 2)
    B, N = V.shape[:2]
    others = _pair_tables(1, N, 0)[2]  # for m = 1, row j lists every i != j
    D = V[:, :, None, :] - V[:, others]
    s = _dist_sq(D)
    grad = -iv.sum_in_order(D / s[..., None], -2)
    grad[..., 2] = grad[..., 2] - _omega_column(omega)
    c = (V * grad).sum(axis=-1) if multipliers is None else iv.as_array(multipliers).reshape(B, N)
    t = grad - c[..., None] * V
    resid = (t.mag() if isinstance(t, iv.IntervalArray) else np.abs(t)).max(axis=(-2, -1))
    # block (j, i) is I/s - 2 d d^T / s^2; block (j, j) minus their row sum minus c_j I
    off = _frame_blocks(np.eye(3), D, s, iv.sqr(s), False)
    H = iv.zeros((B, N, N, 3, 3), like=V)
    rows = np.arange(N)
    H[:, rows[:, None], others] = off
    H[:, rows, rows] = -iv.sum_in_order(off, -3) - c[..., None, None] * np.eye(3)
    H = H.transpose(0, 1, 3, 2, 4).reshape(B, 3 * N, 3 * N)
    if single:
        return HessStarResult(H[0], c[0], float(resid[0]), bool(resid[0] <= tol))
    return HessStarResult(H, c, resid, resid <= tol)


# ---------------------------------------------------------------------------
# Numeric integration (float only)
# ---------------------------------------------------------------------------


def _rk4(f, y0: np.ndarray, t: float, dt: float) -> np.ndarray:
    y = y0.copy()
    steps = int(round(t / dt))
    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def integrate_full_rk4(v0, params: VortexParameters, t: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise DomainError("time step must be positive")
    vecs = np.asarray(_as_vectors(v0), dtype=float)
    return _rk4(lambda v: np.asarray(vortex_rhs(v, params), dtype=float), vecs, t, dt)


def integrate_reduced_rk4(u0, m: int, p: int, t: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise DomainError("time step must be positive")
    u = np.asarray(u0, dtype=float)
    return _rk4(lambda w: np.asarray(reduced_rhs(w, m, p), dtype=float), u, t, dt)


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_config(obj) -> str:
    """JSON text with every float carrying >= 17 significant digits."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps_config(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_config(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def ring_to_json(ring: RingSystem) -> dict:
    gens = ring.midpoint().generators if ring.interval_mode else ring.generators
    return {
        "m": ring.m,
        "n": ring.n,
        "p": ring.p,
        "generators": [[float(x) for x in row] for row in gens],
    }


def ring_from_json(obj: dict) -> RingSystem:
    return RingSystem(int(obj["m"]), int(obj["n"]), int(obj["p"]), np.array(obj["generators"], dtype=float))


def full_to_json(cfg: FullConfiguration) -> dict:
    vecs = cfg.vectors
    if _is_interval(vecs):
        vecs = np.array([[e.mid for e in row] for row in vecs])
    return {"vortices": [[float(x) for x in row] for row in vecs]}


def full_from_json(obj: dict) -> FullConfiguration:
    return FullConfiguration(np.array(obj["vortices"], dtype=float))
