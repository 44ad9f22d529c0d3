"""Branch continuation and certification of ring-symmetric rotating
configurations.

Zeros of the augmented map

    F(u, lambda, alpha; omega) =
        ( grad_u h*_omega(u, lambda) + alpha * J3u,
          R_1(u), ..., R_n(u),
          J3 b0 . (u - b0) )

are relative equilibria: the multipliers pin the generators to the sphere,
the unfolding parameter alpha (zero at every true solution) removes the
rotational degeneracy, and the last component is a Poincare section through
the anchor b0.  Certification uses the uniform contraction bounds

    Y    >= || A F(x0, w0) ||
    Yhat >= || A [F(xs, ws) - F(x0, w0)] ||        s in [0, 1]
    Z    >= || I - A DF(c, ws) ||                  c in the r*-tube

in the sup norm, with A a floating inverse of the approximate Jacobian; a
radius r0 <= r* with (Z - 1) r0 + Y + Yhat < 0 certifies a unique zero
curve within r0 of the linear interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import intervals as iv
from .intervals import DomainError, Interval, IntervalArray
from .model import (
    RingSystem,
    _as_stack,
    grad_hstar,
    hess_hstar,
    j3_rows,
    reduced_phi,
    solve_ring_multipliers,
)

__all__ = [
    "NoConvergence",
    "NotValidated",
    "AugmentedPoint",
    "NKBounds",
    "PointCertificate",
    "BranchCertificate",
    "BranchResult",
    "augmented_map_F",
    "jacobian_F",
    "jacobian_F_omega",
    "newton_polish",
    "nk_validate_point",
    "nk_validate_segment",
    "refine_segment",
    "continue_branch",
    "DEFAULT_R_STAR",
    "DEFAULT_STEP",
    "MIN_STEP",
]

DEFAULT_R_STAR = 1e-4
DEFAULT_STEP = 1e-2
MIN_STEP = 1e-6
_R_STAR_FLOOR = 1e-12
_BUILD_ID = "vortexcert-0.1.0"


class NoConvergence(RuntimeError):
    """Newton polishing failed to reach the residual target."""


class NotValidated(RuntimeError):
    """Contraction bounds admit no radius; carries diagnostics."""

    def __init__(self, message: str, Y: float = math.nan, Yhat: float = math.nan, Z: float = math.nan):
        super().__init__(message)
        self.Y = Y
        self.Yhat = Yhat
        self.Z = Z


@dataclass
class AugmentedPoint:
    """Unknowns (u, lambda, alpha) of the augmented map plus omega."""

    u: np.ndarray
    lam: np.ndarray
    alpha: float
    omega: float

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def flat(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.u, dtype=float).reshape(-1), np.asarray(self.lam, dtype=float), [self.alpha]])

    @classmethod
    def from_flat(cls, x: np.ndarray, omega: float) -> "AugmentedPoint":
        n = (len(x) - 1) // 4
        return cls(np.array(x[: 3 * n]).reshape(n, 3), np.array(x[3 * n : 4 * n]), x[4 * n], omega)

    def to_json(self) -> dict:
        return {
            "u": [[float(c) for c in row] for row in np.asarray(self.u, dtype=float)],
            "lambda": [float(v) for v in self.lam],
            "alpha": float(self.alpha),
            "omega": float(self.omega),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AugmentedPoint":
        return cls(
            np.array(obj["u"], dtype=float),
            np.array(obj["lambda"], dtype=float),
            float(obj["alpha"]),
            float(obj["omega"]),
        )


def _split(x, n: int):
    """(u, lambda, alpha) of a flat point, or of each row of a stack."""
    u = x[..., : 3 * n].reshape(x.shape[:-1] + (n, 3))
    return u, x[..., 3 * n : 4 * n], x[..., 4 * n]


def augmented_map_F(x, omega, b0: np.ndarray, m: int, p: int):
    """Assemble F; x is the flat (4n+1)-vector (floats, or intervals given
    as an object array of Interval, which yields an IntervalArray).

    x may also be a (B, 4n+1) stack with omega a scalar or one value per
    row: the result is the (B, 4n+1) stack of F values, each row equal bit
    for bit to its own call; a single x is the one-element stack."""
    b0 = np.asarray(b0, dtype=float)
    n = b0.shape[0]
    X, single = _as_stack(x, 1)
    u, lam, _ = _split(X, n)
    grad = grad_hstar(u, lam, omega, m, p)
    U, _, alpha = _split(iv.as_array(X), n)
    F = iv.concatenate(
        [
            (grad + alpha[:, None, None] * j3_rows(U)).reshape(len(U), -1),
            (iv.sqr(U).sum(axis=-1) - 1.0) * 0.5,
            (j3_rows(b0) * (U - b0)).reshape(len(U), -1).sum(axis=-1)[:, None],
        ],
        axis=1,
    )
    return F[0] if single else F


def jacobian_F(x, omega, b0: np.ndarray, m: int, p: int):
    """Jacobian of F with respect to (u, lambda, alpha); an IntervalArray
    for interval x.  A (B, 4n+1) stack x gives the (B, 4n+1, 4n+1) stack of
    Jacobians; a single x is the one-element stack."""
    b0 = np.asarray(b0, dtype=float)
    n = b0.shape[0]
    X, single = _as_stack(x, 1)
    u, lam, _ = _split(X, n)
    H = hess_hstar(u, lam, omega, m, p)
    U, _, alpha = _split(iv.as_array(X), n)
    B, d = len(U), 4 * n + 1
    r, k, lam_k = _jacobian_index(n)
    DF = iv.zeros((B, d, d), like=H)
    DF[:, : 3 * n, : 3 * n] = H
    # alpha * J3 on the diagonal blocks
    alpha = alpha[:, None]
    DF[:, r, r + 1] = DF[:, r, r + 1] - alpha
    DF[:, r + 1, r] = DF[:, r + 1, r] + alpha
    # multiplier columns m * u_j and constraint rows u_j
    u_flat = U.reshape(B, -1)
    DF[:, k, lam_k] = float(m) * u_flat
    DF[:, lam_k, k] = u_flat
    # unfolding column J3 u_j and section row J3 b0_j
    DF[:, k, 4 * n] = j3_rows(U).reshape(B, -1)
    DF[:, 4 * n, k] = j3_rows(b0).reshape(-1)
    return DF[0] if single else DF


@lru_cache(maxsize=64)
def _jacobian_index(n: int):
    """Index arrays of jacobian_F: the first row of each generator block,
    every u coordinate, and the multiplier row/column of each coordinate."""
    k = np.arange(3 * n)
    return 3 * np.arange(n), k, 3 * n + k // 3


def jacobian_F_omega(x, b0: np.ndarray, m: int, p: int):
    """dF/domega = (-grad_u phi, 0, ..., 0) = (-m e3 blocks, zeros); exact,
    and a point IntervalArray for interval x."""
    n = np.asarray(b0).shape[0]
    out = np.zeros(4 * n + 1)
    out[2 : 3 * n : 3] = -float(m)
    interval_mode = isinstance(x, IntervalArray) or (isinstance(x, np.ndarray) and x.dtype == object)
    return IntervalArray(out) if interval_mode else out


_STEP_ERRORS = (DomainError, np.linalg.LinAlgError, FloatingPointError, OverflowError)


def newton_polish(
    x0: np.ndarray,
    omega,
    b0: np.ndarray,
    m: int,
    p: int,
    tol: float = 1e-13,
    max_iter: int = 40,
) -> np.ndarray:
    """Float Newton iteration on F at fixed omega and anchor.

    x0 may be a (B, 4n+1) stack of starting points with omega a scalar or
    one value per point.  The stack runs as a masked batch loop in which
    every point follows its own iteration sequence, so each polished row
    equals its own call bit for bit; a single point is the one-element
    stack.  A stack returns the (B, 4n+1) polished points or raises the
    NoConvergence of the first point, in stack order, that fails.
    """
    X, single = _as_stack(np.asarray(x0, dtype=float), 1)
    W = np.broadcast_to(np.asarray(omega, dtype=float), X.shape[:1])
    try:
        out, failures = _newton_stack(X, W, b0, m, p, tol, max_iter)
    except _STEP_ERRORS as exc:
        if single:
            raise NoConvergence(f"Newton step failed: {exc}") from None
        # a point whose step raises must not end the others: polish each alone
        return np.stack([newton_polish(x, w, b0, m, p, tol, max_iter) for x, w in zip(X, W)])
    first = next((f for f in failures if f is not None), None)
    if first is not None:
        raise first
    return out[0] if single else out


def _newton_stack(X, W, b0, m, p, tol, max_iter):
    """The masked batch loop of ``newton_polish``: (best points, per point
    None or its NoConvergence).  F, DF and the solve run on the stack of
    the points still iterating; each point's own bookkeeping (best residual,
    stall count, exit) is kept per point.  An exception of a stacked F, DF
    or solve is passed on."""
    B = len(X)
    best_x, best_res, stalled = X.copy(), [math.inf] * B, [0] * B
    failures = [None] * B
    # the points still iterating: their indices, iterates and omegas
    live, x, w = list(range(B)), X.copy(), np.asarray(W)
    for _ in range(max_iter):
        Fx = augmented_map_F(x, w, b0, m, p)
        go = []
        for r, (i, res) in enumerate(zip(live, np.abs(Fx).max(axis=-1).tolist())):
            if res < best_res[i]:
                best_res[i], stalled[i] = res, 0
                best_x[i] = x[r]
            else:
                stalled[i] += 1
            # below target, keep polishing to the rounding floor
            if stalled[i] < 4 and not (res <= tol and stalled[i] >= 2):
                go.append(r)
        if len(go) < len(live):
            live, x, w, Fx = [live[r] for r in go], x[go], w[go], Fx[go]
            if not live:
                break
        step = np.linalg.solve(jacobian_F(x, w, b0, m, p), Fx[..., None])[..., 0]
        finite = np.isfinite(step).all(axis=-1).tolist()
        if not all(finite):
            for i, ok in zip(live, finite):
                if not ok:
                    failures[i] = NoConvergence("Newton step is not finite")
            go = [r for r, ok in enumerate(finite) if ok]
            live, x, w, step = [live[r] for r in go], x[go], w[go], step[go]
            if not live:
                break
        x = x - step
    for i in range(B):
        if failures[i] is None and not best_res[i] <= tol:
            failures[i] = NoConvergence(
                f"residual {best_res[i]:.3e} above target {tol:.1e} after {max_iter} iterations"
            )
    return best_x, failures


@dataclass
class NKBounds:
    """Contraction bounds; p(r0) = (Z - 1) r0 + Y + Yhat must be negative."""

    Y: float
    Yhat: float
    Z: float
    r_star: float
    r0: float
    norm_id: str = "sup"

    def __post_init__(self):
        if not (0.0 < self.r0 <= self.r_star):
            raise DomainError("certified radius must satisfy 0 < r0 <= r*")
        if not ((self.Z - 1.0) * self.r0 + self.Y + self.Yhat < 0.0):
            raise DomainError("radii polynomial is not negative at r0")

    def to_json(self) -> dict:
        return {
            "Y": self.Y,
            "Yhat": self.Yhat,
            "Z": self.Z,
            "rstar": self.r_star,
            "r0": self.r0,
            "norm": self.norm_id,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NKBounds":
        return cls(obj["Y"], obj["Yhat"], obj["Z"], obj["rstar"], obj["r0"], obj.get("norm", "sup"))


@dataclass
class PointCertificate:
    """Validated isolated zero: enclosure x_bar +- r0 in every coordinate."""

    m: int
    n: int
    p: int
    point: AugmentedPoint
    bounds: NKBounds
    anchor: np.ndarray

    def enclosure(self) -> np.ndarray:
        return IntervalArray(self.point.flat()).pad(self.bounds.r0).to_object()

    def refined_enclosure(self) -> IntervalArray:
        """Per-coordinate tightening of the certified box by one interval
        Newton (Krawczyk) sweep: the unique zero x* in X = x +- r0 satisfies
        x* in x - A F(x) + (I - A DF(X)) (X - x) componentwise."""
        x = self.point.flat()
        omega = Interval(self.point.omega)
        X = self.enclosure()
        A = _approx_inverse(x, self.point.omega, self.anchor, self.m, self.p)
        newton = A @ augmented_map_F(IntervalArray(x).to_object(), omega, self.anchor, self.m, self.p)
        E = np.eye(len(x)) - A @ jacobian_F(X, omega, self.anchor, self.m, self.p)
        r0 = self.bounds.r0
        spread = (E * Interval(-r0, r0)).sum(axis=1)
        return (x - newton + spread).intersect(iv.as_array(X))

    def coordinate_tolerance(self) -> float:
        """Largest half-width of the refined generator-coordinate enclosures."""
        return float(np.max(self.refined_enclosure().rad[: 3 * self.n]))

    def ring_enclosure(self) -> RingSystem:
        gens = IntervalArray(self.point.u).pad(self.bounds.r0)
        return RingSystem(self.m, self.n, self.p, gens, check=False)

    def alpha_enclosure(self) -> Interval:
        return self.enclosure()[4 * self.n]


@dataclass
class BranchCertificate:
    """Certified segment: unique zero curve in the r0-tube around the
    interpolant between the two endpoint approximations."""

    m: int
    n: int
    p: int
    anchor: np.ndarray
    x0: AugmentedPoint
    x1: AugmentedPoint
    bounds: NKBounds
    build_id: str = _BUILD_ID

    @property
    def omega_interval(self) -> tuple:
        lo, hi = sorted((self.x0.omega, self.x1.omega))
        return lo, hi

    def ring_tube(self) -> RingSystem:
        """Interval ring system covering the certified tube."""
        u0 = np.asarray(self.x0.u, dtype=float)
        u1 = np.asarray(self.x1.u, dtype=float)
        gens = IntervalArray(np.minimum(u0, u1), np.maximum(u0, u1)).pad(self.bounds.r0)
        return RingSystem(self.m, self.n, self.p, gens, check=False)

    def omega_tube(self) -> Interval:
        lo, hi = self.omega_interval
        return Interval(lo, hi)

    def mu_enclosure(self) -> Interval:
        from .model import pole_offset

        ring = self.ring_tube()
        return reduced_phi(ring) + pole_offset(self.p)

    def to_json(self) -> dict:
        lo, hi = self.omega_interval
        return {
            "m": self.m,
            "n": self.n,
            "p": self.p,
            "omega": [lo, hi],
            "anchor": [[float(c) for c in row] for row in np.asarray(self.anchor, dtype=float)],
            "x0": self.x0.to_json(),
            "x1": self.x1.to_json(),
            "bounds": self.bounds.to_json(),
            "status": "validated",
            "build": self.build_id,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BranchCertificate":
        return cls(
            int(obj["m"]),
            int(obj["n"]),
            int(obj["p"]),
            np.array(obj["anchor"], dtype=float),
            AugmentedPoint.from_json(obj["x0"]),
            AugmentedPoint.from_json(obj["x1"]),
            NKBounds.from_json(obj["bounds"]),
            obj.get("build", _BUILD_ID),
        )


def _approx_inverse(x: np.ndarray, omega, b0, m: int, p: int) -> np.ndarray:
    """Float inverse of DF at x, or the stack of inverses for a stack of
    points; NotValidated when any of them fails."""
    DF = jacobian_F(x, omega, b0, m, p)
    try:
        A = np.linalg.inv(np.asarray(DF, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotValidated(f"approximate Jacobian not invertible: {exc}") from None
    if not np.all(np.isfinite(A)):
        raise NotValidated("approximate inverse is not finite")
    return A


def _contraction_bound(A, box, omega_iv, b0, m, p):
    return iv.contraction_defect(A, jacobian_F(box, omega_iv, b0, m, p))


def _find_radius(A, center: IntervalArray, omega_iv, b0, m, p, Y, Yhat, r_star, Z_base=None) -> list:
    """Shrink r* until the radii polynomial admits a root, or fail fast, for
    each member of a stack (A of shape (B, d, d), center (B, d), omega_iv,
    Y, Yhat and Z_base (B,)); per member its NKBounds or its NotValidated.

    Every member keeps its own radius sequence; the padded boxes of the
    members still searching share one stacked Jacobian per round.  Z(r) is
    monotone in r, so a contraction defect >= 1 already on the unpadded hull
    rules out every radius.
    """
    if Z_base is None:
        Z_base = _contraction_bound(A, center.to_object(), omega_iv, b0, m, p)
    Y, Yhat, Z_base = np.asarray(Y).tolist(), np.asarray(Yhat).tolist(), np.asarray(Z_base).tolist()
    out = [None] * len(Y)
    need, r, Z_last = [0.0] * len(Y), [0.0] * len(Y), list(Z_base)
    for i, Z in enumerate(Z_base):
        if Z >= 1.0:
            out[i] = NotValidated(
                f"contraction defect {Z:.3e} >= 1 on the segment hull "
                "(Jacobian enclosure not verifiably invertible)",
                Y=Y[i],
                Yhat=Yhat[i],
                Z=Z,
            )
            continue
        need[i] = max(Y[i] + Yhat[i], 1e-300)
        # Z grows with the radius, so start just above the smallest radius that
        # could accommodate the root and enlarge only as the defect demands.
        r[i] = min(r_star, max(4.0 * need[i] / (1.0 - Z), _R_STAR_FLOOR))
    live = [i for i in range(len(Y)) if out[i] is None]
    for _ in range(8):
        if not live:
            break
        k = np.array(live)
        box = center[k].pad(np.array(r)[k, None]).to_object()
        searching = []
        for i, Z in zip(live, _contraction_bound(A[k], box, omega_iv[k], b0, m, p).tolist()):
            r0 = _choose_r0(Y[i], Yhat[i], Z, r[i])
            if r0 is not None:
                out[i] = NKBounds(Y=Y[i], Yhat=Yhat[i], Z=Z, r_star=r[i], r0=r0)
                continue
            Z_last[i] = Z
            if Z >= 1.0:
                r_next = 0.5 * r[i]
                if r_next < 2.0 * need[i]:
                    continue
            else:
                r_next = min(r_star, 1.5 * need[i] / (1.0 - Z))
                if r_next <= r[i]:
                    continue
            r[i] = r_next
            searching.append(i)
        live = searching
    for i, bounds in enumerate(out):
        if bounds is None:
            out[i] = NotValidated(
                f"no admissible radius (Y = {Y[i]:.3e}, Yhat = {Yhat[i]:.3e}, Z = {Z_last[i]:.3e}, r* = {r[i]:.1e})",
                Y=Y[i],
                Yhat=Yhat[i],
                Z=Z_last[i],
            )
    return out


def _choose_r0(Y: float, Yhat: float, Z: float, r_star: float):
    """Smallest comfortable radius with a rigorous sign check of p(r0)."""
    if Z >= 1.0:
        return None
    base = (Y + Yhat) / (1.0 - Z)
    r0 = max(base * 1.01, 1e-300)
    if r0 > r_star:
        return None
    p_val = (Interval(Z) - 1.0) * r0 + Y + Yhat
    if p_val.hi < 0.0:
        return r0
    return None


def nk_validate_point(
    point: AugmentedPoint,
    b0: np.ndarray,
    m: int,
    p: int,
    r_star: float = DEFAULT_R_STAR,
) -> PointCertificate:
    """Validate an isolated zero of F at fixed omega (segment bounds with
    the Yhat term absent)."""
    x = point.flat()
    omega = point.omega
    A = _approx_inverse(x, omega, b0, m, p)
    Y = iv.sup_norm(A @ augmented_map_F(IntervalArray(x).to_object(), Interval(omega), b0, m, p))
    [bounds] = _find_radius(A[None], IntervalArray(x)[None], IntervalArray([omega]), b0, m, p, [Y], [0.0], r_star)
    if isinstance(bounds, NotValidated):
        raise bounds
    return PointCertificate(
        m=m, n=(len(x) - 1) // 4, p=p, point=point, bounds=bounds, anchor=np.asarray(b0, dtype=float)
    )


def nk_validate_segment(x0, x1, b0: np.ndarray, m: int, p: int, r_star: float = DEFAULT_R_STAR):
    """Validate the linear segment between two polished points.

    x0 and x1 may also be equal-length sequences of AugmentedPoints, a
    stack of segments on one anchor: the stack is validated with stacked
    evaluations (F, the hull and padded-box Jacobians, the products and
    norms), each segment keeping its own radius sequence, and the result is
    a list with, per segment, its BranchCertificate or the exception its
    validation raised (a NotValidated as a rule), each equal to what the
    segment's own call returns or raises.  A single segment is the
    one-element stack, and its failure is raised.
    """
    single = isinstance(x0, AugmentedPoint)
    x0s, x1s = ([x0], [x1]) if single else (list(x0), list(x1))
    try:
        out = _validate_segments(x0s, x1s, b0, m, p, r_star)
    except (NotValidated, DomainError) as exc:
        if single:
            raise
        # a failure that a stacked step cannot pin on one segment: each alone
        out = []
        for a, b in zip(x0s, x1s):
            try:
                out += _validate_segments([a], [b], b0, m, p, r_star)
            except (NotValidated, DomainError) as failure:
                out.append(failure)
    if single and isinstance(out[0], Exception):
        raise out[0]
    return out[0] if single else out


def _validate_segments(x0s: list, x1s: list, b0, m: int, p: int, r_star: float) -> list:
    """The stacked validation of ``nk_validate_segment``: per segment its
    BranchCertificate or the NotValidated of its radius search.  A failed
    approximate inverse or a DomainError of any segment is raised."""
    X0 = np.stack([a.flat() for a in x0s])
    X1 = np.stack([b.flat() for b in x1s])
    W0 = np.array([a.omega for a in x0s], dtype=float)
    W1 = np.array([b.omega for b in x1s], dtype=float)
    A = _approx_inverse(X0, W0, b0, m, p)
    F0 = augmented_map_F(IntervalArray(X0).to_object(), IntervalArray(W0), b0, m, p)
    Y = iv.sup_norm(iv.matmul(A, F0[..., None])[..., 0], stacked=True)

    hull = IntervalArray(np.minimum(X0, X1), np.maximum(X0, X1))
    w_hull = IntervalArray(np.minimum(W0, W1), np.maximum(W0, W1))
    # mean-value bound: F(xs, ws) - F(x0, w0) = s * [DF(hull) dx + F_w(hull) dw]
    # for s in [0, 1]; its sup norm is largest at s = 1
    hull_obj = hull.to_object()
    DF_hull = jacobian_F(hull_obj, w_hull, b0, m, p)
    dx = X1 - X0
    # dx carries one rounding: |dx - (x1 - x0)| <= u |dx| componentwise
    dx_slack = (iv.sup_norm(DF_hull, stacked=True) * np.max(np.abs(dx), axis=-1) * 2.0**-52)[:, None]
    vec = (
        # DF(hull) dx, formed as the vector-matrix product dx DF(hull)^T
        iv.matmul(dx[:, None, :], DF_hull.transpose(0, 2, 1))[:, 0]
        + IntervalArray(-dx_slack, dx_slack)
        + jacobian_F_omega(hull_obj, b0, m, p) * (IntervalArray(W1) - IntervalArray(W0))[:, None]
    )
    Yhat = iv.sup_norm(iv.matmul(A, vec[..., None])[..., 0], stacked=True)

    Z_base = iv.contraction_defect(A, DF_hull)
    bounds = _find_radius(A, hull, w_hull, b0, m, p, Y, Yhat, r_star, Z_base=Z_base)
    anchor = np.asarray(b0, dtype=float)
    return [
        b if isinstance(b, NotValidated) else BranchCertificate(m=m, n=a.n, p=p, anchor=anchor, x0=a, x1=c, bounds=b)
        for a, c, b in zip(x0s, x1s, bounds)
    ]


@dataclass
class BranchResult:
    certificates: list = field(default_factory=list)
    points: list = field(default_factory=list)  # AugmentedPoints of the numeric walk
    status: str = "completed"
    stall_omega: float | None = None
    walk_status: str = "completed"
    validations: int = 0  # segment validations attempted
    validation_failures: int = 0

    @property
    def stalled(self) -> bool:
        return self.status == "stalled"


def seed_point(ring: RingSystem, omega: float) -> AugmentedPoint:
    """Augmented point from ring generators with multipliers solved."""
    u = np.asarray(ring.generators, dtype=float)
    lam = np.asarray(solve_ring_multipliers(u, omega, ring.m, ring.p), dtype=float)
    return AugmentedPoint(u=u, lam=lam, alpha=0.0, omega=omega)


def _march(prev, cur: AugmentedPoint, target: float, step: float, min_step: float, attempt):
    """Step from cur to omega = target with the secant predictor from prev.

    attempt(x_pred, w_next, cur) returns (next point, outcome) or raises
    NoConvergence or NotValidated; a failure halves the step, and a step
    below min_step stalls.  The step recovers after three successes, and a
    step within 1e-14 of target ends on target itself.  Returns (outcomes,
    stall omega or None, NotValidated count)."""
    dirn = 1.0 if target > cur.omega else -1.0
    dt, streak, outcomes, failures = step * dirn, 0, [], 0
    while cur.omega != target:
        w_next = cur.omega + dt
        if (target - w_next) * dirn <= 1e-14:
            w_next = target
        x_pred = cur.flat()
        if prev is not None and cur.omega != prev.omega:
            x_pred = x_pred + (w_next - cur.omega) / (cur.omega - prev.omega) * (cur.flat() - prev.flat())
        try:
            nxt, outcome = attempt(x_pred, w_next, cur)
        except (NoConvergence, NotValidated) as exc:
            failures += isinstance(exc, NotValidated)
            if abs(dt) * 0.5 < min_step:
                return outcomes, cur.omega, failures
            dt *= 0.5
            streak = 0
            continue
        outcomes.append(outcome)
        prev, cur = cur, nxt
        streak += 1
        if streak >= 3 and abs(dt) < step:
            dt = dirn * min(step, 2.0 * abs(dt))
            streak = 0
    return outcomes, None, failures


def refine_segment(prev, a0: AugmentedPoint, a1: AugmentedPoint, m: int, p: int, step: float = DEFAULT_STEP,
                   min_step: float = MIN_STEP):
    """Validated chain over the grid segment from a0 to a1.

    Every piece is anchored at a0.u (on which the walk polished a1); the
    first piece tries the whole grid segment, a failed polish or validation
    halves the step and three successes double it again, and the last piece
    ends on a1 itself.  Returns (certificates, stall omega or None, failed
    validations), the certificates being the certified prefix up to a stall;
    the result depends on (prev, a0, a1) alone, so grid segments may be
    refined in any process and order."""
    anchor = np.asarray(a0.u, dtype=float)

    def piece(x_pred, w_next, cur):
        nxt = a1 if w_next == a1.omega else AugmentedPoint.from_flat(newton_polish(x_pred, w_next, anchor, m, p), w_next)
        return nxt, nk_validate_segment(cur, nxt, anchor, m, p)

    return _march(prev, a0, a1.omega, step, min_step, piece)


def continue_branch(
    seed: RingSystem | AugmentedPoint,
    omega_from: float,
    omega_to: float,
    m: int | None = None,
    p: int | None = None,
    step: float = DEFAULT_STEP,
    min_step: float = MIN_STEP,
    rigor: bool = True,
    seed_omega: float | None = None,
    mapper=map,
) -> BranchResult:
    """Numeric walk that fixes the grid, then validation of each grid segment.

    The walk is a float predictor-corrector from the seed's omega through
    omega_from to omega_to: the anchor is refreshed at every step, the first
    step is tangent-free and later steps use the secant predictor, and a
    failed polish halves the step.  Its points from omega_from on are the
    grid, at most step apart.  With rigor, refine_segment validates each
    grid segment, mapped in order with mapper (builtin map, or a process
    pool's map: the chain is the same), so step halving happens per grid
    segment.  The first stall ends the chain with status "stalled" and the
    failure location; the certified prefix is kept.
    """
    if isinstance(seed, RingSystem):
        m, p = seed.m, seed.p
        start_omega = omega_from if seed_omega is None else seed_omega
        cur = seed_point(seed, start_omega)
    else:
        if m is None or p is None:
            raise TypeError("continue_branch from a raw point requires m and p")
        cur = seed
        start_omega = cur.omega if seed_omega is None else seed_omega

    result = BranchResult()
    if omega_to == omega_from or step == 0.0 or (step > 0 and omega_to < omega_from):
        # a reversed range with a forward step is an empty chain by convention
        result.status = result.walk_status = "empty"
        return result
    step = abs(step)

    def walk_step(x_pred, w_next, cur):
        nxt = AugmentedPoint.from_flat(newton_polish(x_pred, w_next, np.asarray(cur.u, dtype=float), m, p), w_next)
        return nxt, nxt

    def walk_to(target: float) -> bool:
        walk = result.points
        points, stall, _ = _march(walk[-2] if len(walk) > 1 else None, walk[-1], target, step, min_step, walk_step)
        walk += points
        if stall is not None:
            result.status = result.walk_status = "stalled"
            result.stall_omega = stall
        return stall is None

    # settle the seed at its own omega, then ramp to the start of the range
    result.points.append(walk_step(cur.flat(), start_omega, cur)[0])
    if abs(start_omega - omega_from) > 1e-14 and not walk_to(omega_from):
        return result
    first = len(result.points) - 1
    walk_to(omega_to)
    if not rigor:
        return result
    # grid segment k runs from walk[k] to walk[k + 1]; walk[k - 1] (None
    # before the seed) is its secant predictor's previous point
    walk = result.points
    grid = walk[first:]
    prevs = ([None] + walk)[first : len(walk) - 1]
    refine = partial(refine_segment, m=m, p=p, step=step, min_step=min_step)
    for certificates, stall, failures in mapper(refine, prevs, grid[:-1], grid[1:]):
        result.certificates += certificates
        result.validations += len(certificates) + failures
        result.validation_failures += failures
        if stall is not None:
            result.status, result.stall_omega = "stalled", stall
            break
    return result
