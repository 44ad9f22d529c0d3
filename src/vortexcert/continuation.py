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

import numpy as np

from . import intervals as iv
from .intervals import DomainError, Interval, IntervalArray
from .model import (
    RingSystem,
    grad_hstar,
    hess_hstar,
    j3_rows,
    reduced_phi,
    solve_ring_multipliers,
    to_interval_array,
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


def _split(x: np.ndarray, n: int):
    u = x[: 3 * n].reshape(n, 3)
    lam = x[3 * n : 4 * n]
    alpha = x[4 * n]
    return u, lam, alpha


def augmented_map_F(x, omega, b0: np.ndarray, m: int, p: int):
    """Assemble F; x is the flat (4n+1)-vector (floats, or intervals given
    as an object array of Interval, which yields an IntervalArray)."""
    b0 = np.asarray(b0, dtype=float)
    n = b0.shape[0]
    u, lam, _ = _split(x, n)
    grad = grad_hstar(u, lam, omega, m, p)
    U, _, alpha = _split(iv.as_array(x), n)
    return iv.concatenate(
        [
            (grad + alpha * j3_rows(U)).reshape(-1),
            (iv.sqr(U).sum(axis=1) - 1.0) * 0.5,
            (j3_rows(b0) * (U - b0)).sum(),
        ]
    )


def jacobian_F(x, omega, b0: np.ndarray, m: int, p: int):
    """Jacobian of F with respect to (u, lambda, alpha); an IntervalArray
    for interval x."""
    b0 = np.asarray(b0, dtype=float)
    n = b0.shape[0]
    u, lam, _ = _split(x, n)
    H = hess_hstar(u, lam, omega, m, p)
    U, _, alpha = _split(iv.as_array(x), n)
    d = 4 * n + 1
    DF = iv.zeros((d, d), like=H)
    DF[: 3 * n, : 3 * n] = H
    # alpha * J3 on the diagonal blocks
    r = 3 * np.arange(n)
    DF[r, r + 1] = DF[r, r + 1] - alpha
    DF[r + 1, r] = DF[r + 1, r] + alpha
    # multiplier columns m * u_j and constraint rows u_j
    k = np.arange(3 * n)
    DF[k, 3 * n + k // 3] = float(m) * U.reshape(-1)
    DF[3 * n + k // 3, k] = U.reshape(-1)
    # unfolding column J3 u_j and section row J3 b0_j
    DF[k, 4 * n] = j3_rows(U).reshape(-1)
    DF[4 * n, k] = j3_rows(b0).reshape(-1)
    return DF


def jacobian_F_omega(x, b0: np.ndarray, m: int, p: int):
    """dF/domega = (-grad_u phi, 0, ..., 0) = (-m e3 blocks, zeros); exact,
    and a point IntervalArray for interval x."""
    n = np.asarray(b0).shape[0]
    out = np.zeros(4 * n + 1)
    out[2 : 3 * n : 3] = -float(m)
    interval_mode = isinstance(x, IntervalArray) or (isinstance(x, np.ndarray) and x.dtype == object)
    return IntervalArray(out) if interval_mode else out


def newton_polish(
    x0: np.ndarray,
    omega: float,
    b0: np.ndarray,
    m: int,
    p: int,
    tol: float = 1e-13,
    max_iter: int = 40,
) -> np.ndarray:
    """Float Newton iteration on F at fixed omega and anchor."""
    x = np.asarray(x0, dtype=float).copy()
    best_x = None
    best_res = math.inf
    stalled = 0
    for _ in range(max_iter):
        try:
            Fx = augmented_map_F(x, omega, b0, m, p)
            res = float(np.max(np.abs(Fx)))
            if res < best_res:
                best_res = res
                best_x = x.copy()
                stalled = 0
            else:
                stalled += 1
            # below target, keep polishing to the rounding floor
            if res <= tol and stalled >= 2:
                return best_x
            if stalled >= 4:
                break
            DF = jacobian_F(x, omega, b0, m, p)
            step = np.linalg.solve(DF, Fx)
        except (DomainError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
            raise NoConvergence(f"Newton step failed: {exc}") from None
        if not np.all(np.isfinite(step)):
            raise NoConvergence("Newton step is not finite")
        x = x - step
    if best_res <= tol:
        return best_x
    raise NoConvergence(f"residual {best_res:.3e} above target {tol:.1e} after {max_iter} iterations")


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
        newton = A @ augmented_map_F(to_interval_array(x), omega, self.anchor, self.m, self.p)
        E = np.eye(len(x)) - A @ jacobian_F(X, omega, self.anchor, self.m, self.p)
        r0 = self.bounds.r0
        spread = (E * Interval(-r0, r0)).sum(axis=1)
        return (x - newton + spread).intersect(iv.as_array(X))

    def coordinate_tolerance(self) -> float:
        """Largest half-width of the refined generator-coordinate enclosures."""
        return float(np.max(self.refined_enclosure().rad[: 3 * self.n]))

    def ring_enclosure(self) -> RingSystem:
        enc = self.enclosure()
        gens = np.empty((self.n, 3), dtype=object)
        for j in range(self.n):
            for c in range(3):
                gens[j, c] = enc[3 * j + c]
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
        return RingSystem(self.m, self.n, self.p, gens.to_object(), check=False)

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


def _approx_inverse(x: np.ndarray, omega: float, b0, m: int, p: int) -> np.ndarray:
    DF = jacobian_F(x, omega, b0, m, p)
    try:
        A = np.linalg.inv(np.asarray(DF, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotValidated(f"approximate Jacobian not invertible: {exc}") from None
    if not np.all(np.isfinite(A)):
        raise NotValidated("approximate inverse is not finite")
    return A


def _contraction_bound(A, box, omega_iv, b0, m, p) -> float:
    return iv.contraction_defect(A, jacobian_F(box, omega_iv, b0, m, p))


def _find_radius(A, center: IntervalArray, omega_iv, b0, m, p, Y, Yhat, r_star, Z_base=None):
    """Shrink r* until the radii polynomial admits a root, or fail fast.

    Z(r) is monotone in r, so a contraction defect >= 1 already on the
    unpadded hull rules out every radius.
    """
    if Z_base is None:
        Z_base = _contraction_bound(A, center.to_object(), omega_iv, b0, m, p)
    if Z_base >= 1.0:
        raise NotValidated(
            f"contraction defect {Z_base:.3e} >= 1 on the segment hull "
            "(Jacobian enclosure not verifiably invertible)",
            Y=Y,
            Yhat=Yhat,
            Z=Z_base,
        )
    need = max(Y + Yhat, 1e-300)
    # Z grows with the radius, so start just above the smallest radius that
    # could accommodate the root and enlarge only as the defect demands.
    r = min(r_star, max(4.0 * need / (1.0 - Z_base), _R_STAR_FLOOR))
    Z_last = Z_base
    for _ in range(8):
        Z = _contraction_bound(A, center.pad(r).to_object(), omega_iv, b0, m, p)
        r0 = _choose_r0(Y, Yhat, Z, r)
        if r0 is not None:
            return NKBounds(Y=Y, Yhat=Yhat, Z=Z, r_star=r, r0=r0)
        Z_last = Z
        if Z >= 1.0:
            r_next = 0.5 * r
            if r_next < 2.0 * need:
                break
        else:
            r_next = min(r_star, 1.5 * need / (1.0 - Z))
            if r_next <= r:
                break
        r = r_next
    raise NotValidated(
        f"no admissible radius (Y = {Y:.3e}, Yhat = {Yhat:.3e}, Z = {Z_last:.3e}, r* = {r:.1e})",
        Y=Y,
        Yhat=Yhat,
        Z=Z_last,
    )


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
    Y = iv.sup_norm(A @ augmented_map_F(to_interval_array(x), Interval(omega), b0, m, p))
    bounds = _find_radius(A, IntervalArray(x), Interval(omega), b0, m, p, Y, 0.0, r_star)
    return PointCertificate(
        m=m, n=(len(x) - 1) // 4, p=p, point=point, bounds=bounds, anchor=np.asarray(b0, dtype=float)
    )


def nk_validate_segment(
    x0: AugmentedPoint,
    x1: AugmentedPoint,
    b0: np.ndarray,
    m: int,
    p: int,
    r_star: float = DEFAULT_R_STAR,
) -> BranchCertificate:
    """Validate the linear segment between two polished points."""
    xf0 = x0.flat()
    xf1 = x1.flat()
    w0, w1 = x0.omega, x1.omega
    A = _approx_inverse(xf0, w0, b0, m, p)
    Y = iv.sup_norm(A @ augmented_map_F(to_interval_array(xf0), Interval(w0), b0, m, p))

    hull = IntervalArray(np.minimum(xf0, xf1), np.maximum(xf0, xf1))
    w_hull = Interval(min(w0, w1), max(w0, w1))
    # mean-value bound: F(xs, ws) - F(x0, w0) = s * [DF(hull) dx + F_w(hull) dw]
    # for s in [0, 1]; its sup norm is largest at s = 1
    hull_obj = hull.to_object()
    DF_hull = jacobian_F(hull_obj, w_hull, b0, m, p)
    dx = xf1 - xf0
    # dx carries one rounding: |dx - (x1 - x0)| <= u |dx| componentwise
    dx_slack = iv.sup_norm(DF_hull) * float(np.max(np.abs(dx))) * 2.0**-52
    vec = (
        DF_hull @ dx
        + IntervalArray(-dx_slack, dx_slack)
        + jacobian_F_omega(hull_obj, b0, m, p) * (Interval(w1) - Interval(w0))
    )
    Yhat = iv.sup_norm(A @ vec)

    Z_base = iv.contraction_defect(A, DF_hull)
    bounds = _find_radius(A, hull, w_hull, b0, m, p, Y, Yhat, r_star, Z_base=Z_base)
    return BranchCertificate(
        m=m, n=x0.n, p=p, anchor=np.asarray(b0, dtype=float), x0=x0, x1=x1, bounds=bounds
    )


@dataclass
class BranchResult:
    certificates: list = field(default_factory=list)
    points: list = field(default_factory=list)  # (omega, AugmentedPoint), numeric walk
    status: str = "completed"
    stall_omega: float | None = None

    @property
    def stalled(self) -> bool:
        return self.status == "stalled"


def seed_point(ring: RingSystem, omega: float) -> AugmentedPoint:
    """Augmented point from ring generators with multipliers solved."""
    u = np.asarray(ring.generators, dtype=float)
    lam = np.asarray(solve_ring_multipliers(u, omega, ring.m, ring.p), dtype=float)
    return AugmentedPoint(u=u, lam=lam, alpha=0.0, omega=omega)


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
    polish_tol: float = 1e-13,
) -> BranchResult:
    """Predictor-corrector walk with per-segment validation.

    The anchor is refreshed at the start of each segment; the first step is
    tangent-free and later steps use the secant predictor.  A failed
    validation (or polish) halves the step; below min_step the walk stops
    with status "stalled" and the failure location.
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
    if omega_to == omega_from or step == 0.0:
        result.status = "empty"
        return result
    direction = 1.0 if omega_to > omega_from else -1.0
    if step > 0 and direction < 0:
        # reversed range with a forward step: empty chain by convention
        result.status = "empty"
        return result
    step = abs(step)

    def polish(pt_x: np.ndarray, omega: float, anchor: np.ndarray) -> AugmentedPoint:
        x = newton_polish(pt_x, omega, anchor, m, p, tol=polish_tol)
        return AugmentedPoint.from_flat(x, omega)

    # settle the seed at its own omega
    anchor = np.asarray(cur.u, dtype=float)
    cur = polish(cur.flat(), start_omega, anchor)
    result.points.append((start_omega, cur))

    prev: AugmentedPoint | None = None

    def advance(target: float, validate: bool) -> AugmentedPoint | None:
        """Walk cur -> target; returns the endpoint or None when stalled."""
        nonlocal cur, prev
        dirn = 1.0 if target > cur.omega else -1.0
        dt = step * dirn
        streak = 0
        while (target - cur.omega) * dirn > 1e-14:
            w_next = cur.omega + dt
            if (w_next - target) * dirn > 0:
                w_next = target
            anchor = np.asarray(cur.u, dtype=float)
            x_pred = cur.flat()
            if prev is not None and cur.omega != prev.omega:
                frac = (w_next - cur.omega) / (cur.omega - prev.omega)
                x_pred = cur.flat() + frac * (cur.flat() - prev.flat())
            try:
                nxt = polish(x_pred, w_next, anchor)
                if validate:
                    cert = nk_validate_segment(cur, nxt, anchor, m, p)
                    result.certificates.append(cert)
            except (NoConvergence, NotValidated):
                if abs(dt) * 0.5 < min_step:
                    result.status = "stalled"
                    result.stall_omega = cur.omega
                    return None
                dt *= 0.5
                streak = 0
                continue
            prev = cur
            cur = nxt
            result.points.append((w_next, cur))
            # recover the step after a stretch of successes
            streak += 1
            if streak >= 3 and abs(dt) < step:
                dt = dirn * min(step, 2.0 * abs(dt))
                streak = 0
        return cur

    # ramp from the seed's omega to the start of the requested range (numeric)
    if abs(start_omega - omega_from) > 1e-14:
        if advance(omega_from, validate=False) is None:
            return result
    if advance(omega_to, validate=rigor) is None:
        return result
    result.status = "completed"
    return result
