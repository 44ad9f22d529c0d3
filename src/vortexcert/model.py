"""Point-vortex mathematics on the unit sphere, with ring-symmetric reduction.

Everything here is evaluable both over plain floats (numpy float64 arrays)
and over rigorous intervals (IntervalArray); the same code path serves
both, so the certified pipeline and the numeric pipeline cannot drift
apart.  Ring generators and configurations are held as one of the two
(an object array of Intervals is converted once, at entry), and every
function runs vectorised over rings, rotations, vortex pairs and poles.
The scalar Interval remains for single values: a sum such as H or h, and
the logarithm of each pair distance.

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
from dataclasses import dataclass
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


_POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])  # North, South


def _dot(u, v):
    """Row-wise dot product of (..., 3) float or interval arrays, summed left to right."""
    return (u * v).sum(axis=-1)


def _cross(u, v):
    """Row-wise cross product of (..., 3) float or interval arrays."""
    i, j = [1, 2, 0], [2, 0, 1]
    return u[..., i] * v[..., j] - u[..., j] * v[..., i]


def _too_close(s):
    """Mask of the squared distances s that are not bounded above COLLISION_TOL**2."""
    if isinstance(s, iv.IntervalArray):
        return s.lo <= COLLISION_TOL**2
    return s < COLLISION_TOL**2


def _check_collisions(s):
    """s, after rejecting (near-)collisions; the ln singularity dominates doubles there."""
    if np.any(_too_close(s)):
        if isinstance(s, iv.IntervalArray):
            raise DomainError("interval distance cannot be bounded away from collision")
        raise DomainError("configuration within collision tolerance")
    return s


def _row_dist_sq(D):
    """|d|^2 = d0*d0 + d1*d1 + d2*d2 of every row d of D, rejecting
    (near-)collisions: the form of H, h and the domain checks.  The
    derivative kernels use ``_dist_sq``, whose ``sqr`` is tighter where an
    interval component straddles zero."""
    return _check_collisions(_dot(D, D))


def _pair_differences(V):
    """v_j - v_i for every pair i < j of rows of V, in np.tril_indices order."""
    j, i = np.tril_indices(len(V), -1)
    return V[j] - V[i]


def _ln_sum(s):
    """Sum of ln over a 1-d float or interval array, added left to right
    from zero: math.log per float entry, the scalar iv.ln (with its libm
    slack) per interval entry."""
    if isinstance(s, iv.IntervalArray):
        return sum((iv.ln(x) for x in s), Interval(0.0))
    return sum((math.log(x) for x in s.tolist()), 0.0)


def _off_sphere(u, tol: float):
    """Mask of the rows of u whose squared norm excludes 1 (intervals) or
    misses it by more than 2 tol (floats)."""
    s = _dot(u, u)
    if isinstance(s, iv.IntervalArray):
        return (s.lo > 1.0) | (s.hi < 1.0)
    return np.abs(s - 1.0) > 2 * tol


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


def ring_rotations(m: int) -> np.ndarray:
    """Powers g^0..g^m of the ring rotation by 2*pi/m about e3, as an
    (m+1, 3, 3) float array."""
    if m < 1:
        raise DomainError("ring order m must be >= 1")
    return _rotation_frames(m, False)[np.r_[0, 1:m, 0]]


@dataclass
class FullConfiguration:
    """N vortex positions on the unit sphere, collision-free: an (N, 3)
    float array or IntervalArray (an object array of Intervals is
    converted)."""

    vectors: np.ndarray | iv.IntervalArray
    check: bool = True

    def __post_init__(self):
        self.vectors = iv.as_array(self.vectors)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != 3:
            raise DomainError("configuration must be an (N, 3) array")
        if self.check:
            self.validate()

    @property
    def N(self) -> int:
        return self.vectors.shape[0]

    def validate(self, tol: float = 1e-9):
        v = self.vectors
        bad = np.flatnonzero(_off_sphere(v, tol))
        if bad.size and isinstance(v, iv.IntervalArray):
            raise DomainError(f"vortex {bad[0]} enclosure excludes the unit sphere")
        if bad.size:
            raise DomainError(f"vortex {bad[0]} is off the unit sphere")
        _row_dist_sq(_pair_differences(v))


@dataclass
class RingSystem:
    """Reduced configuration: n rings of regular m-gons plus p poles.

    Generators are one point per ring, an (n, 3) float array or
    IntervalArray (an object array of Intervals is converted); N = m*n + p.
    For m >= 2 the generators must avoid the poles (a ring generator at a
    pole is a collision of the lifted configuration).
    """

    m: int
    n: int
    p: int
    generators: np.ndarray | iv.IntervalArray
    check: bool = True

    def __post_init__(self):
        self.generators = iv.as_array(self.generators)
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
        return isinstance(self.generators, iv.IntervalArray)

    def validate(self, tol: float = 1e-9):
        u = self.generators
        bad = np.flatnonzero(_off_sphere(u, tol))
        if bad.size and self.interval_mode:
            raise DomainError(f"generator {bad[0]} enclosure excludes the unit sphere")
        if bad.size:
            raise DomainError(f"generator {bad[0]} is off the unit sphere")
        if self.m >= 2:
            at_pole = np.flatnonzero(_too_close(u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1]))
            if at_pole.size and self.interval_mode:
                raise DomainError(f"generator {at_pole[0]} cannot be separated from the poles")
            if at_pole.size:
                raise DomainError(f"generator {at_pole[0]} is at a pole")
        _row_dist_sq(_pair_differences(u))

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
        return RingSystem(self.m, self.n, self.p, self.generators.mid, check=False)


def lift_rho(ring):
    """Lift ring generators to the ring-major full configuration.

    A list of B rings of one signature gives the (B, N, 3) stack of their
    lifted vectors (a float array or IntervalArray), member b equal to the
    call on ring b alone bit for bit."""
    if isinstance(ring, RingSystem):
        rows = _ring_orbits(ring.generators, ring.m).reshape(-1, 3)
        return FullConfiguration(iv.concatenate([rows, _POLES[: ring.p]]), check=False)
    U, m, p = iv.stack([r.generators for r in ring]), ring[0].m, ring[0].p
    rows = _ring_orbits(U, m).reshape(len(U), -1, 3)
    return iv.concatenate([rows, np.broadcast_to(_POLES[:p], (len(U), p, 3))], axis=1)


# ---------------------------------------------------------------------------
# Full-space Hamiltonian, momentum, dynamics
# ---------------------------------------------------------------------------


def _as_vectors(v):
    return v.vectors if isinstance(v, FullConfiguration) else iv.as_array(v)


def hamiltonian_H(v, scale: HamiltonianScale = HamiltonianScale.HALF):
    """H = -s * sum_{i<j} ln ||v_i - v_j||^2 for identical strengths."""
    return _ln_sum(_row_dist_sq(_pair_differences(_as_vectors(v)))) * (-scale.value)


def momentum_Phi(v, strengths=None):
    """Center of vorticity Phi = sum Gamma_i v_i."""
    vecs = _as_vectors(v)
    w = vecs if strengths is None else vecs * np.asarray(strengths, dtype=float)[:, None]
    return iv.sum_in_order(w, 0, iv.zeros(3, like=vecs))


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
    others = _pair_tables(1, len(vecs), 0)[2]  # row j lists every i != j
    v_i, v_j = vecs[others], vecs[:, None]
    d2 = _row_dist_sq(v_i - v_j)
    terms = _cross(v_i, v_j)
    if params.strengths is not None:
        terms = terms * np.asarray(params.strengths)[others][..., None]
    acc = iv.sum_in_order(terms / d2[..., None], 1, iv.zeros(vecs.shape, like=vecs))
    return acc if params.strengths is None else acc * (1.0 / (4.0 * math.pi))


# ---------------------------------------------------------------------------
# Ring-symmetric reduction
# ---------------------------------------------------------------------------


def _ring_args(ring_or_u, m=None, p=None):
    if isinstance(ring_or_u, RingSystem):
        return ring_or_u.generators, ring_or_u.m, ring_or_u.p
    if m is None or p is None:
        raise TypeError("raw generator arrays require explicit m and p")
    if p not in (0, 1, 2):
        raise DomainError("pole count p must be 0, 1 or 2")
    return iv.as_array(ring_or_u), m, p


def _ring_orbits(U, m: int):
    """(..., n, m, 3) orbits g^1 u_j, ..., g^(m-1) u_j, g^m u_j = u_j of the
    (..., n, 3) generators U.  Each rotated row is the matrix-vector product
    g^i u_j: a stacked matmul for floats, the entrywise products added left
    to right for intervals."""
    G = _rotation_frames(m, isinstance(U, iv.IntervalArray))[1:m]
    if isinstance(U, iv.IntervalArray):
        rotated = iv.sum_in_order(G * U[..., :, None, None, :], -1)
    else:
        rotated = np.matmul(G, U[..., :, None, :, None])[..., 0]
    return iv.concatenate([rotated, U[..., :, None, :]], axis=-2)


def reduced_h(ring_or_u, m=None, p=None):
    """Ring Hamiltonian h(u): self-ring, cross-ring and pole interaction sums."""
    u, m, p = _ring_args(ring_or_u, m, p)
    orbits = _ring_orbits(u, m)
    j, jp = np.triu_indices(len(u), 1)
    self_d = orbits[:, : m - 1] - u[:, None]
    cross_d = orbits[j] - u[jp][:, None]
    pole_d = u[:, None] - _POLES[:p]
    acc_self, acc_cross, acc_pole = (_ln_sum(_row_dist_sq(d.reshape(-1, 3))) for d in (self_d, cross_d, pole_d))
    return acc_self * (-m / 4.0) + (acc_cross + acc_pole) * (-m / 2.0)


def reduced_phi(ring_or_u, m=None, p=None):
    """Ring momentum phi(u) = m * (sum u_i) . e3."""
    u, m, _p = _ring_args(ring_or_u, m, p if p is not None else 0)
    return iv.sum_in_order(u[:, 2], 0, 0.0) * float(m)


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
    cs = [_cos_sin_frac(i, m, interval_mode) for i in range(1, m)]
    c, s = (iv.IntervalArray.from_object(cs) if interval_mode else np.array(cs, dtype=float)).reshape(m - 1, 2).T
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
    return _check_collisions(iv.sqr(D).sum(axis=-1))


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
    U, single = _as_stack(u, 2)
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
    U, single = _as_stack(u, 2)
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


def reduced_rhs(ring_or_u, m=None, p=None):
    """udot_j = -(1/m) u_j x grad_j h."""
    u, m, p = _ring_args(ring_or_u, m, p)
    return _cross(u, grad_h(u, m, p)) * (-1.0 / m)


def solve_ring_multipliers(ring_or_u, omega, m=None, p=None):
    """Multipliers with grad h_omega + m lambda_j u_j = 0 projected on u_j."""
    u, m, p = _ring_args(ring_or_u, m, p)
    gw = _dot(u, grad_h(u, m, p)) - omega * float(m) * u[:, 2]
    return -(gw / _dot(u, u)) / float(m)


def lagrangian_hstar(u, lam, omega, m, p):
    """h*_omega(u, lambda) = h_omega(u) + m sum lambda_j R_j(u)."""
    u = iv.as_array(u)
    val = reduced_h(u, m, p) - omega * reduced_phi(u, m, p)
    return val + iv.sum_in_order(iv.as_array(lam) * (_dot(u, u) - 1.0), 0, 0.0) * (float(m) / 2.0)


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
    V, single = _as_stack(_as_vectors(v), 2)
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
    if isinstance(vecs, iv.IntervalArray):
        vecs = vecs.mid
    return {"vortices": [[float(x) for x in row] for row in vecs]}


def full_from_json(obj: dict) -> FullConfiguration:
    return FullConfiguration(np.array(obj["vortices"], dtype=float))
