"""Ground-truth fixtures: known equilibria, analytic one-ring families and
near-collision rotating configurations.

Closed-form coordinates are stored as integer-coefficient expressions and
evaluated on demand, either in floats or in rigorous intervals, so fixture
precision is limited only by the evaluation, not by decimal transcription.
Entries known only in decimal form carry their published per-coordinate
tolerance and are meant to be re-certified on load by the validation
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import intervals as iv
from .intervals import DomainError, Interval
from .model import RingSystem

__all__ = [
    "NotFound",
    "FixtureEntry",
    "fixture",
    "fixture_interval",
    "fixture_entry",
    "list_fixtures",
    "one_ring_family",
    "threshold",
    "certified_poly_root",
]


class NotFound(KeyError):
    """Unknown fixture or threshold row."""


def _I(x) -> Interval:
    return x if isinstance(x, Interval) else Interval(float(x))


def certified_poly_root(coeffs, lo: float, hi: float, tol: float = 1e-15) -> Interval:
    """Certified bisection enclosure of a root of an integer-coefficient
    polynomial (coeffs highest degree first) inside [lo, hi].

    The bracket endpoints must have opposite certain signs under interval
    evaluation.  Shrinks until the requested width or until interval
    evaluation can no longer determine a sign.
    """

    def val(x: Interval) -> Interval:
        acc = Interval(0.0)
        for c in coeffs:
            acc = acc * x + float(c)
        return acc

    def sign_at(x: float) -> int:
        v = val(Interval(x))
        if v.lo > 0.0:
            return 1
        if v.hi < 0.0:
            return -1
        return 0

    slo, shi = sign_at(lo), sign_at(hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise DomainError("bracket endpoints do not have certain opposite signs")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        sm = sign_at(mid)
        if sm == 0:
            break
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


# -- closed-form scalar builders (float or interval) ------------------------


def _sqrt(x, interval_mode):
    return iv.sqrt(x) if interval_mode else math.sqrt(x)


def _cs(num, den, interval_mode):
    """cos/sin of 2*pi*num/den."""
    from .model import _cos_sin_frac

    return _cos_sin_frac(num, den, interval_mode)


def _one(interval_mode):
    return Interval(1.0) if interval_mode else 1.0


def _ring_point(r, z, num, den, interval_mode):
    c, s = _cs(num, den, interval_mode)
    return [r * c, r * s, z]


def _gens_antiprism8(interval_mode):
    # square antiprism, total height 2*sqrt((2 sqrt 58 - 13)/7)
    z2 = (2.0 * _sqrt(_I(58) if interval_mode else 58.0, interval_mode) - 13.0) / 7.0
    z = _sqrt(z2, interval_mode)
    r = _sqrt(_one(interval_mode) - z2, interval_mode)
    return [_ring_point(r, z, 0, 1, interval_mode), _ring_point(r, -z, 1, 8, interval_mode)]


_KAPPA9_POLY = (64, 105, -87, -45, 27)
_Z9_BRACKET = (0.4, 0.6)


def _gens_triaugmented9(interval_mode):
    # three aligned/staggered triangles; z0^2 is the smallest positive root
    # of 64 x^4 + 105 x^3 - 87 x^2 - 45 x + 27
    root = certified_poly_root(_KAPPA9_POLY, *_Z9_BRACKET)
    z2 = root if interval_mode else root.mid
    z = _sqrt(z2, interval_mode)
    r = _sqrt(_one(interval_mode) - z2, interval_mode)
    mid = _ring_point(_one(interval_mode), _I(0.0) if interval_mode else 0.0, 1, 6, interval_mode)
    return [_ring_point(r, z, 0, 1, interval_mode), mid, _ring_point(r, -z, 0, 1, interval_mode)]


def _gens_gyro10(interval_mode):
    # square antiprism plus both poles, total height (2/3) sqrt(2 sqrt 106 - 19)
    z2 = (2.0 * _sqrt(_I(106) if interval_mode else 106.0, interval_mode) - 19.0) / 9.0
    z = _sqrt(z2, interval_mode)
    r = _sqrt(_one(interval_mode) - z2, interval_mode)
    return [_ring_point(r, z, 0, 1, interval_mode), _ring_point(r, -z, 1, 8, interval_mode)]


def _gens_icosahedron(interval_mode):
    # two staggered pentagons at z = +-1/sqrt(5) plus both poles
    s5 = _sqrt(_I(5) if interval_mode else 5.0, interval_mode)
    z = _one(interval_mode) / s5
    r = 2.0 * z
    return [_ring_point(r, z, 0, 1, interval_mode), _ring_point(r, -z, 1, 10, interval_mode)]


def _gens_tetra_z2(interval_mode):
    s3 = _one(interval_mode) / _sqrt(_I(3) if interval_mode else 3.0, interval_mode)
    return [[s3, s3, s3], [s3, -s3, -s3]]


def _gens_tetra_z3(interval_mode):
    z = _I(-1.0) / 3.0 if interval_mode else -1.0 / 3.0
    r2 = _one(interval_mode) - (z.sqr() if interval_mode else z * z)
    r = _sqrt(r2, interval_mode)
    return [[r, _I(0.0) if interval_mode else 0.0, z]]


def _gens_bipyramid5_z3(interval_mode):
    return [[_one(interval_mode), _I(0.0) if interval_mode else 0.0, _I(0.0) if interval_mode else 0.0]]


def _gens_bipyramid5_z2(interval_mode):
    # axis through one equatorial vortex; the poles become a ring of two
    zero = _I(0.0) if interval_mode else 0.0
    one = _one(interval_mode)
    h = _sqrt(_I(3) if interval_mode else 3.0, interval_mode) / 2.0
    half = _I(0.5) if interval_mode else 0.5
    return [[zero, one, zero], [h, zero, -half]]


def _gens_octahedron_z4(interval_mode):
    zero = _I(0.0) if interval_mode else 0.0
    return [[_one(interval_mode), zero, zero]]


def _gens_octahedron_z3(interval_mode):
    z = _one(interval_mode) / _sqrt(_I(3) if interval_mode else 3.0, interval_mode)
    r = _sqrt(_I(2) if interval_mode else 2.0, interval_mode) / _sqrt(
        _I(3) if interval_mode else 3.0, interval_mode
    )
    zero = _I(0.0) if interval_mode else 0.0
    return [[r, zero, z], [-r, zero, -z]]


def _gens_octahedron_z2(interval_mode):
    s2 = _one(interval_mode) / _sqrt(_I(2) if interval_mode else 2.0, interval_mode)
    zero = _I(0.0) if interval_mode else 0.0
    return [[zero, s2, s2], [_one(interval_mode), zero, zero], [zero, -s2, -s2]]


def _gens_heptagon_bipyramid_z5(interval_mode):
    return _gens_bipyramid5_z3(interval_mode)  # pentagon at z = 0 (poles via p = 2)


def _gens_antiprism8_z2(interval_mode):
    # the same antiprism regrouped as 4 diagonal pairs about the same axis
    z2 = (2.0 * _sqrt(_I(58) if interval_mode else 58.0, interval_mode) - 13.0) / 7.0
    z = _sqrt(z2, interval_mode)
    r = _sqrt(_one(interval_mode) - z2, interval_mode)
    zero = _I(0.0) if interval_mode else 0.0
    return [
        [r, zero, z],
        [zero, r, z],
        _ring_point(r, -z, 1, 8, interval_mode),
        _ring_point(r, -z, 3, 8, interval_mode),
    ]


_EQ11_GENERATORS = [
    (0.414622789752781, 0.748445554893721, 0.517607180763029),
    (-0.984889687565531, -0.009599383086507, 0.172916613347094),
    (0.514196162925374, -0.840060801883643, 0.172916613347109),
    (0.402032242619801, 0.725718055903693, -0.558304020431036),
    (0.518800630696144, -0.287404425636917, -0.805136387026196),
]

_COLLISION10 = [
    (-0.321250364476975, 0.125503906002515, 0.938641024514443),
    (-0.281614324121647, -0.177060196674640, 0.943049871005264),
    (-0.110832315744048, 0.301948550025117, 0.946859689143297),
    (0.329289157466230, 0.047176175895631, 0.943049871005264),
    (-0.056029765308738, -0.338564275556233, 0.939273600564037),
    (0.163769131776852, 0.303533686063892, 0.938641024514443),
    (0.055171327848398, -0.150307266747506, 0.987098703345485),
    (0.093915265535320, 0.096705006907256, 0.990872375504786),
    (-0.134176736522985, 0.012982250865822, 0.990872375504786),
    (0.261758623547594, -0.221917836781855, 0.939273600564037),
]

_COLLISION11 = [
    (0.139326894549961, 0.025868279023347, 0.989908505163702),
    (-0.023823734155396, -0.359048230308640, 0.933014896988857),
    (-0.233002228449082, 0.278282639870440, 0.931809387098295),
    (0.216459904805164, -0.258525569202590, 0.941440194425656),
    (0.034791923532369, 0.340414859454908, 0.939631441321124),
    (-0.275029387518199, -0.219648813034752, 0.936009206650121),
    (-0.341231039929540, 0.025576001826382, 0.939631441321107),
    (0.357646782971700, -0.039648210890842, 0.933014896988869),
    (-0.089752690493977, 0.107194750077486, 0.990178640501257),
    (-0.049951742661942, -0.132612121654087, 0.989908505163703),
    (0.264565317348943, 0.232146414838348, 0.936009206650103),
]

_COLLISION12 = [
    (0.034887632581048, 0.136341626351998, 0.990047379682701),
    (-0.249324115175042, 0.243756694911171, 0.937240715759919),
    (0.214399606524508, 0.302490526779084, 0.928726165202127),
    (-0.042756936922558, 0.368292756396255, 0.928726165202127),
]


def _gens_decimals(rows, tol):
    def build(interval_mode):
        if not interval_mode:
            return [list(r) for r in rows]
        return [[Interval(x - tol, x + tol) for x in r] for r in rows]

    return build


@dataclass(frozen=True)
class FixtureEntry:
    """One catalog row: symmetry labels and coordinate builders."""

    name: str
    N: int
    labels: tuple  # ((m, n, p), ...) with a builder for each
    builders: tuple = field(repr=False)
    provenance: str = ""
    omega: float = 0.0
    is_equilibrium: bool = True
    coordinate_tolerance: float = 0.0  # 0 => closed form (evaluation-limited)
    needs_recertification: bool = False

    def label_index(self, label=None) -> int:
        if label is None:
            return 0
        try:
            return self.labels.index(tuple(label))
        except ValueError:
            raise NotFound(f"{self.name} has no ({label}) reduction") from None


_CATALOG: dict[str, FixtureEntry] = {}


def _add(name, N, labels, builders, provenance, **kw):
    _CATALOG[name] = FixtureEntry(
        name=name, N=N, labels=tuple(labels), builders=tuple(builders), provenance=provenance, **kw
    )


_add(
    "antipodal2",
    2,
    [(2, 1, 0)],
    [lambda im: [[_one(im), _I(0.0) if im else 0.0, _I(0.0) if im else 0.0]]],
    "two antipodal vortices",
)
_add(
    "triangle3",
    3,
    [(3, 1, 0)],
    [lambda im: [[_one(im), _I(0.0) if im else 0.0, _I(0.0) if im else 0.0]]],
    "equilateral triangle on a great circle",
)
_add(
    "tetrahedron",
    4,
    [(2, 2, 0), (3, 1, 1)],
    [_gens_tetra_z2, _gens_tetra_z3],
    "regular tetrahedron",
)
_add(
    "bipyramid5",
    5,
    [(2, 2, 1), (3, 1, 2)],
    [_gens_bipyramid5_z2, _gens_bipyramid5_z3],
    "triangular bipyramid",
)
_add(
    "octahedron",
    6,
    [(2, 3, 0), (3, 2, 0), (4, 1, 2)],
    [_gens_octahedron_z2, _gens_octahedron_z3, _gens_octahedron_z4],
    "regular octahedron",
)
_add(
    "bipyramid7",
    7,
    [(5, 1, 2)],
    [_gens_heptagon_bipyramid_z5],
    "pentagonal bipyramid (degenerate critical point)",
)
_add(
    "antiprism8",
    8,
    [(4, 2, 0), (2, 4, 0)],
    [_gens_antiprism8, _gens_antiprism8_z2],
    "square antiprism, height 2 sqrt((2 sqrt 58 - 13)/7)",
)
_add(
    "triaugmented9",
    9,
    [(3, 3, 0)],
    [_gens_triaugmented9],
    "three stacked triangles; squared height is the smallest positive root of 64x^4+105x^3-87x^2-45x+27",
)
_add(
    "gyro10",
    10,
    [(4, 2, 2)],
    [_gens_gyro10],
    "gyroelongated square bipyramid, height (2/3) sqrt(2 sqrt 106 - 19)",
)
_add(
    "eq11",
    11,
    [(2, 5, 1)],
    [_gens_decimals(_EQ11_GENERATORS, 1e-13)],
    "5 staggered pairs plus the North pole; decimal coordinates",
    coordinate_tolerance=1e-13,
    needs_recertification=True,
)
_add(
    "icosahedron",
    12,
    [(5, 2, 2)],
    [_gens_icosahedron],
    "regular icosahedron",
)
_add(
    "collision10",
    10,
    [(1, 10, 0)],
    [_gens_decimals(_COLLISION10, 4e-13)],
    "near-collision rotating configuration, omega = 50",
    omega=50.0,
    is_equilibrium=False,
    coordinate_tolerance=4e-13,
    needs_recertification=True,
)
_add(
    "collision11",
    11,
    [(1, 11, 0)],
    [_gens_decimals(_COLLISION11, 6e-11)],
    "near-collision rotating configuration, omega = 50",
    omega=50.0,
    is_equilibrium=False,
    coordinate_tolerance=6e-11,
    needs_recertification=True,
)
_add(
    "collision12",
    12,
    [(3, 4, 0)],
    [_gens_decimals(_COLLISION12, 3e-13)],
    "near-collision 3-fold symmetric configuration, omega = 50",
    omega=50.0,
    is_equilibrium=False,
    coordinate_tolerance=3e-13,
    needs_recertification=True,
)


def list_fixtures() -> list:
    return sorted(_CATALOG)


def fixture_entry(name: str) -> FixtureEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise NotFound(name) from None


def _build(name: str, label, interval_mode: bool) -> RingSystem:
    entry = fixture_entry(name)
    k = entry.label_index(label)
    m, n, p = entry.labels[k]
    gens = entry.builders[k](interval_mode)
    return RingSystem(m, n, p, iv.IntervalArray.from_object(gens) if interval_mode else np.array(gens, dtype=float))


def fixture(name: str, label=None) -> RingSystem:
    """Fixture coordinates as a float RingSystem (>= 15 correct digits for
    closed forms; decimal entries at their published precision)."""
    return _build(name, label, interval_mode=False)


def fixture_interval(name: str, label=None) -> RingSystem:
    """Fixture coordinates as interval enclosures (closed forms evaluated in
    interval arithmetic; decimal entries widened by their published
    tolerance)."""
    return _build(name, label, interval_mode=True)


# -- analytic one-ring families ---------------------------------------------


def one_ring_family(k: int, p: int, z):
    """Ring of k vortices at height z plus p poles, with its rotation rate.

    omega = (k-1) z / (2 (1-z^2))      p = 0
    omega = (1 + k z) / (2 (1-z^2))    p = 1  (North pole)
    omega = (k+1) z / (2 (1-z^2))      p = 2
    """
    if p not in (0, 1, 2):
        raise DomainError("pole count p must be 0, 1 or 2")
    if k < 2:
        raise DomainError("ring must contain at least 2 vortices")
    interval_mode = isinstance(z, Interval)
    if interval_mode:
        if z.mag >= 1.0:
            raise DomainError("ring height must satisfy |z| < 1")
        one = Interval(1.0)
        z2 = z.sqr()
    else:
        z = float(z)
        if abs(z) >= 1.0:
            raise DomainError("ring height must satisfy |z| < 1")
        one = 1.0
        z2 = z * z
    r = _sqrt(one - z2, interval_mode)
    denom = 2.0 * (one - z2)
    if p == 0:
        omega = (k - 1.0) * z / denom
    elif p == 1:
        omega = (one + float(k) * z) / denom
    else:
        omega = (k + 1.0) * z / denom
    zero = _I(0.0) if interval_mode else 0.0
    gens = np.empty((1, 3), dtype=object if interval_mode else float)
    gens[0, 0] = r
    gens[0, 1] = zero
    gens[0, 2] = z
    return RingSystem(k, 1, p, gens, check=not interval_mode), omega


# -- one-ring stability thresholds ------------------------------------------


def threshold(kind: str, N: int) -> float:
    """Tabulated one-ring stability boundary z*.

    kind "p0": ring of N, stable for |z| > z* (rows N = 4, 5, 6 only).
    kind "p1": ring of N-1 plus the North pole, stable for z > z*.
    kind "p2": N = 7 only; pentagon plus both poles, stable for 0 < |z| < z*.
    """
    if kind == "p0":
        rows = {4: 1.0 / math.sqrt(3.0), 5: 1.0 / math.sqrt(2.0), 6: 2.0 / math.sqrt(5.0)}
    elif kind == "p1":
        rows = {
            4: -1.0 / 3.0,
            5: 0.0,
            6: (math.sqrt(6.0) - 1.0) / 5.0,
            7: (math.sqrt(19.0) - 1.0) / 6.0,
            8: 5.0 / 7.0,
            9: (math.sqrt(65.0) - 1.0) / 8.0,
        }
    elif kind == "p2":
        rows = {7: math.sqrt((43.0 - 4.0 * math.sqrt(109.0)) / 35.0)}
    else:
        raise NotFound(f"unknown threshold kind {kind!r}")
    try:
        return rows[N]
    except KeyError:
        raise NotFound(f"no tabulated {kind} threshold for N = {N}") from None
