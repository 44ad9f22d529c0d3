"""Self-contained rigorous interval arithmetic.

Every operation returns an interval that encloses the exact real (or
complex) result for all point inputs in the operands.  Outward rounding is
realized by next-representable adjustment of each computed endpoint; no
global rounding mode is touched, so all operations are pure, reentrant and
safe under concurrent use.

Exactness of endpoint arithmetic is detected with error-free
transformations (TwoSum / Dekker's TwoProduct), so that e.g.
[1,2] + [3,4] == [4,6] holds with zero slack.  Transcendental functions
(ln, sqrt, cos, sin) use the platform libm plus a documented outward slack
(LIBM_SLACK_ULPS ulps per endpoint) and explicit handling of interior
extrema.

Values are immutable after construction.  Double precision only; there is
no arbitrary-precision fallback.

IntervalArray is the one interval matrix representation: float64
``lo``/``hi`` endpoint arrays and numpy operations.  The model, the
Newton-Kantorovich bounds and the stability layer (full-space Hessian,
slice columns, projected blocks, bordered eigenpair systems and
``verify_invertible``) all run on it; the scalar Interval stays as the
reference type.  The array path rounds each computed endpoint one ulp
outward with ``np.nextafter``: ``+ - *`` and ``sqr`` only on the side where
the vectorised TwoSum/TwoProduct (same exponent guard) show an error,
division on both sides.  Axis sums are pairwise trees of such additions;
``sum_in_order`` adds left to right.  ``matmul`` multiplies a float matrix by an interval one with an a-priori
error bound (midpoint-radius form), and two interval matrices in the
endpoint form: elementwise interval products added left to right over the
inner index (the order of a scalar dot-product loop, so the entries equal
those of a product of scalar Interval matrices), in slabs of about 4096
products.  It keeps exact zeros exact: a point-zero factor or numerator
gives a point zero, and a ``matmul`` entry whose every term has a zero
factor is an exact zero.  TwoSum/TwoProduct exactness of other results
remains a contract of the scalar Interval only; division and the
midpoint-radius product widen exact results.  (The object-array types
IntervalVector and IntervalMatrix, and mat_mul, mat_vec, norm_sup and
norm_sup_matrix, are gone: use IntervalArray, ``matmul`` and ``sup_norm``.)

``complex_det_enclosure`` encloses complex determinants of one matrix or
of a stack of B matrices given as a pair (re, im) of (B, n, n)
IntervalArrays: one interval LU with one numpy step per pivot column over
the stack, in the operation order of the ComplexInterval operators, with a
cofactor-expansion (n <= 5) or Hadamard-box fallback for the matrices
without an admissible pivot or with a non-finite endpoint.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "DomainError",
    "ShapeError",
    "NotVerified",
    "UnsupportedSize",
    "Interval",
    "ComplexInterval",
    "IntervalArray",
    "PI",
    "TWO_PI",
    "ln",
    "sqrt",
    "cos",
    "sin",
    "hull",
    "as_array",
    "zeros",
    "stack",
    "concatenate",
    "sum_in_order",
    "sqr",
    "matmul",
    "sup_norm",
    "contraction_defect",
    "InverseEnclosure",
    "verify_invertible",
    "complex_mul",
    "complex_det_enclosure",
]

_INF = math.inf


class DomainError(ValueError):
    """Operand outside the mathematical domain of the operation."""


class ShapeError(ValueError):
    """Dimension mismatch between interval vectors/matrices."""


class NotVerified(RuntimeError):
    """A verification (contraction) test failed; not a proof of the negation.

    ``defect`` is the contraction defect that failed the test (>= 1), or
    infinity when none could be measured."""

    def __init__(self, message: str, defect: float = _INF):
        super().__init__(message)
        self.defect = defect


class UnsupportedSize(ValueError):
    """Matrix too large for the requested enclosure algorithm."""


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


# Libm ln/cos/sin are faithfully rounded on mainstream platforms (<= 1-2 ulp);
# we widen each endpoint by this many ulps.  The module contract allows <= 4.
LIBM_SLACK_ULPS = 4


def _down_n(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, -_INF)
    return x


def _up_n(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, _INF)
    return x


# Error-free transformations.  Exponent guard: the error terms of TwoSum and
# TwoProduct are exact only away from overflow/underflow.
_SAFE_LO = 2.0 ** -450
_SAFE_HI = 2.0 ** 450
_SPLITTER = 134217729.0  # 2**27 + 1


def _sum_bounds(a: float, b: float) -> tuple[float, float]:
    """Lower and upper bound of a+b, exact when representable."""
    s = a + b
    if not math.isfinite(s):
        if math.isnan(s):  # inf + (-inf): only from invalid operand pairing
            raise DomainError("undefined endpoint sum inf + (-inf)")
        return (_down(s), s) if s > 0 else (s, _up(s))
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    if err > 0.0:
        return s, _up(s)
    if err < 0.0:
        return _down(s), s
    return s, s


def _prod_bounds(a: float, b: float) -> tuple[float, float]:
    """Lower and upper bound of a*b, exact when detectably representable."""
    p = a * b
    if not math.isfinite(p):
        if math.isnan(p):  # 0 * inf corner: contributes the limit value 0
            return 0.0, 0.0
        return (_down(p), p) if p > 0 else (p, _up(p))
    if p == 0.0:
        if a == 0.0 or b == 0.0:
            return 0.0, 0.0
        # Underflow: true product is tiny but nonzero.
        return _down(0.0), _up(0.0)
    ap, bp = abs(a), abs(b)
    if _SAFE_LO < ap < _SAFE_HI and _SAFE_LO < bp < _SAFE_HI and _SAFE_LO < abs(p):
        ca = _SPLITTER * a
        a1 = ca - (ca - a)
        a2 = a - a1
        cb = _SPLITTER * b
        b1 = cb - (cb - b)
        b2 = b - b1
        err = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
        if err > 0.0:
            return p, _up(p)
        if err < 0.0:
            return _down(p), p
        return p, p
    return _down(p), _up(p)


def _div_exact(q: float, b: float, a: float) -> bool:
    """True iff q == a/b exactly (q the rounded quotient)."""
    if not (math.isfinite(q) and _SAFE_LO < abs(q) < _SAFE_HI and _SAFE_LO < abs(b) < _SAFE_HI):
        return False
    lo, hi = _prod_bounds(q, b)
    return lo == a and hi == a


class Interval:
    """Closed interval [lo, hi] of reals; endpoints are binary64 floats."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError("NaN interval endpoint")
        if lo > hi:
            raise DomainError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- construction -----------------------------------------------------

    @staticmethod
    def _mk(lo: float, hi: float) -> "Interval":
        iv = Interval.__new__(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv

    @classmethod
    def from_midrad(cls, mid: float, rad: float) -> "Interval":
        if rad < 0:
            raise DomainError("negative radius")
        return cls(_down(mid - rad), _up(mid + rad))

    # -- queries ----------------------------------------------------------

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if math.isfinite(m):
            return m
        return self.lo + 0.5 * (self.hi - self.lo)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def rad(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def mag(self) -> float:
        """Largest absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> float:
        """Smallest absolute value over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def issubset(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise DomainError("empty intersection")
        return Interval._mk(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        return Interval._mk(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval(float(x))

    def __add__(self, other):
        if isinstance(other, _DEFER_TO):
            return NotImplemented
        o = Interval._coerce(other)
        lo, _ = _sum_bounds(self.lo, o.lo)
        _, hi = _sum_bounds(self.hi, o.hi)
        return Interval._mk(lo, hi)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _DEFER_TO):
            return NotImplemented
        o = Interval._coerce(other)
        lo, _ = _sum_bounds(self.lo, -o.hi)
        _, hi = _sum_bounds(self.hi, -o.lo)
        return Interval._mk(lo, hi)

    def __rsub__(self, other):
        return Interval._coerce(other) - self

    def __neg__(self):
        return Interval._mk(-self.hi, -self.lo)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, _DEFER_TO):
            return NotImplemented
        o = Interval._coerce(other)
        l1, h1 = _prod_bounds(self.lo, o.lo)
        l2, h2 = _prod_bounds(self.lo, o.hi)
        l3, h3 = _prod_bounds(self.hi, o.lo)
        l4, h4 = _prod_bounds(self.hi, o.hi)
        return Interval._mk(min(l1, l2, l3, l4), max(h1, h2, h3, h4))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _DEFER_TO):
            return NotImplemented
        o = Interval._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise DomainError("division by interval containing zero")
        cands_lo = []
        cands_hi = []
        for a in (self.lo, self.hi):
            for b in (o.lo, o.hi):
                q = a / b
                if _div_exact(q, b, a) or q == 0.0 and a == 0.0:
                    cands_lo.append(q)
                    cands_hi.append(q)
                elif math.isinf(q):
                    if q > 0:
                        cands_lo.append(_down(q))
                        cands_hi.append(q)
                    else:
                        cands_lo.append(q)
                        cands_hi.append(_up(q))
                else:
                    cands_lo.append(_down(q))
                    cands_hi.append(_up(q))
        return Interval._mk(min(cands_lo), max(cands_hi))

    def __rtruediv__(self, other):
        return Interval._coerce(other) / self

    def sqr(self) -> "Interval":
        """Tight [x**2 for x in self] (no dependency blowup)."""
        l1, h1 = _prod_bounds(self.lo, self.lo)
        l2, h2 = _prod_bounds(self.hi, self.hi)
        hi = max(h1, h2)
        if self.lo <= 0.0 <= self.hi:
            return Interval._mk(0.0, hi)
        return Interval._mk(min(l1, l2), hi)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("interval power requires a nonnegative integer")
        if n == 0:
            return Interval._mk(1.0, 1.0)
        if n == 1:
            return self
        half = self.sqr() ** (n // 2)
        return half * self if n % 2 else half

    def __abs__(self):
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval._mk(0.0, max(-self.lo, self.hi))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """Bit-exact round-trip encoding with hex-float endpoints."""
        return {"lo": self.lo.hex(), "hi": self.hi.hex()}

    @classmethod
    def from_json(cls, obj: dict) -> "Interval":
        return cls(float.fromhex(obj["lo"]), float.fromhex(obj["hi"]))

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, s: str) -> "Interval":
        return cls.from_json(json.loads(s))


PI = Interval(math.pi, _up(math.pi))  # math.pi rounds pi down
TWO_PI = Interval(_down(2.0 * math.pi), _up(_up(2.0 * math.pi)))


def hull(*items) -> Interval:
    ivs = [Interval._coerce(x) for x in items]
    return Interval._mk(min(v.lo for v in ivs), max(v.hi for v in ivs))


def ln(x) -> Interval:
    x = Interval._coerce(x)
    if x.lo <= 0.0:
        raise DomainError("ln requires a strictly positive interval")

    def _lo(v: float) -> float:
        if v == 1.0:
            return 0.0
        return _down_n(math.log(v), LIBM_SLACK_ULPS)

    def _hi(v: float) -> float:
        if v == 1.0:
            return 0.0
        return _up_n(math.log(v), LIBM_SLACK_ULPS)

    return Interval._mk(_lo(x.lo), _hi(x.hi))


def sqrt(x) -> Interval:
    x = Interval._coerce(x)
    if x.lo < 0.0:
        raise DomainError("sqrt requires a nonnegative interval")

    def _lo(v: float) -> float:
        s = math.sqrt(v)
        l, h = _prod_bounds(s, s)
        if l == v and h == v:
            return s
        return _down(s)

    def _hi(v: float) -> float:
        s = math.sqrt(v)
        l, h = _prod_bounds(s, s)
        if l == v and h == v:
            return s
        return _up(s)

    return Interval._mk(_lo(x.lo), _hi(x.hi))


def _cos_point(t: float) -> Interval:
    c = math.cos(t)
    return Interval._mk(max(-1.0, _down_n(c, LIBM_SLACK_ULPS)), min(1.0, _up_n(c, LIBM_SLACK_ULPS)))


def _sin_point(t: float) -> Interval:
    s = math.sin(t)
    return Interval._mk(max(-1.0, _down_n(s, LIBM_SLACK_ULPS)), min(1.0, _up_n(s, LIBM_SLACK_ULPS)))


def cos(x) -> Interval:
    """Enclosure of cos over the interval, extrema at multiples of pi included."""
    x = Interval._coerce(x)
    if not (math.isfinite(x.lo) and math.isfinite(x.hi)):
        return Interval._mk(-1.0, 1.0)
    if x.width >= TWO_PI.lo:
        return Interval._mk(-1.0, 1.0)
    out = _cos_point(x.lo).hull(_cos_point(x.hi))
    k_min = math.floor(x.lo / math.pi) - 1
    k_max = math.ceil(x.hi / math.pi) + 1
    for k in range(k_min, k_max + 1):
        kpi = PI * k if k != 0 else Interval._mk(0.0, 0.0)
        if kpi.lo <= x.hi and kpi.hi >= x.lo:
            out = out.hull(Interval(1.0) if k % 2 == 0 else Interval(-1.0))
    return Interval._mk(max(out.lo, -1.0), min(out.hi, 1.0))


def sin(x) -> Interval:
    """Enclosure of sin over the interval, extrema at pi/2 + k*pi included."""
    x = Interval._coerce(x)
    if not (math.isfinite(x.lo) and math.isfinite(x.hi)):
        return Interval._mk(-1.0, 1.0)
    if x.width >= TWO_PI.lo:
        return Interval._mk(-1.0, 1.0)
    out = _sin_point(x.lo).hull(_sin_point(x.hi))
    half_pi = PI * 0.5
    k_min = math.floor(x.lo / math.pi) - 1
    k_max = math.ceil(x.hi / math.pi) + 1
    for k in range(k_min, k_max + 1):
        crit = PI * k + half_pi
        if crit.lo <= x.hi and crit.hi >= x.lo:
            out = out.hull(Interval(1.0) if k % 2 == 0 else Interval(-1.0))
    return Interval._mk(max(out.lo, -1.0), min(out.hi, 1.0))


class ComplexInterval:
    """Rectangular complex enclosure re + i*im with interval components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0.0):
        self.re = Interval._coerce(re)
        self.im = Interval._coerce(im)

    @staticmethod
    def _coerce(x) -> "ComplexInterval":
        if isinstance(x, ComplexInterval):
            return x
        if isinstance(x, complex):
            return ComplexInterval(x.real, x.imag)
        return ComplexInterval(Interval._coerce(x), Interval(0.0))

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        o = ComplexInterval._coerce(other)
        return ComplexInterval(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        o = ComplexInterval._coerce(other)
        return ComplexInterval(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ComplexInterval._coerce(other) - self

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        o = ComplexInterval._coerce(other)
        return ComplexInterval(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        o = ComplexInterval._coerce(other)
        den = o.abs_sq()
        if den.lo <= 0.0:
            raise DomainError("division by complex interval containing zero")
        num = self * o.conj()
        return ComplexInterval(num.re / den, num.im / den)

    def __rtruediv__(self, other):
        return ComplexInterval._coerce(other) / self

    def conj(self) -> "ComplexInterval":
        return ComplexInterval(self.re, -self.im)

    def abs_sq(self) -> Interval:
        return self.re.sqr() + self.im.sqr()

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)

    @property
    def mid(self) -> complex:
        return complex(self.re.mid, self.im.mid)

    def __repr__(self):
        return f"ComplexInterval({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# Interval arrays
# ---------------------------------------------------------------------------

_U = 2.0**-53  # unit roundoff of binary64, round to nearest
_ETA = 2.0**-1074  # smallest positive subnormal


def _gamma(n: int) -> float:
    """Upper bound of gamma_n = n u / (1 - n u), the a-priori relative error
    bound of an n-term floating-point sum or dot product in any order
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1)."""
    nu = n * _U
    return nu / (1.0 - nu) * (1.0 + 2.0**-20)


def _down_arr(x):
    return np.nextafter(x, -np.inf)


def _up_arr(x):
    return np.nextafter(x, np.inf)


def _sum_err(a, b):
    """fl(a + b) and its exact error a + b - fl(a + b) (Knuth's TwoSum;
    exact also under gradual underflow)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _add_lo(a, b):
    s, err = _sum_err(a, b)
    return np.where(err < 0.0, _down_arr(s), s)


def _add_hi(a, b):
    s, err = _sum_err(a, b)
    return np.where(err > 0.0, _up_arr(s), s)


def _split(x):
    """Dekker's split x = x1 + x2, x1 holding the upper 26 significant bits."""
    c = _SPLITTER * x
    x1 = c - (c - x)
    return x1, x - x1


def _mul_bounds(a, b):
    """Lower and upper bounds of a*b (broadcast): fl(a*b), moved one ulp
    outward on the side where Dekker's TwoProduct puts the error, and on both
    sides outside its safe exponent range.  A zero factor gives an exact
    zero.  Each operand is split before broadcasting, so operands given as
    (2, 1, ...) and (1, 2, ...) stacks split every entry once.  The result
    does not depend on the operands' layout."""
    p = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    err = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    aa, ab = np.abs(a), np.abs(b)
    safe = (aa > _SAFE_LO) & (aa < _SAFE_HI) & (ab > _SAFE_LO) & (ab < _SAFE_HI) & (np.abs(p) > _SAFE_LO)
    zero = (a == 0.0) | (b == 0.0)
    lo = np.where(zero | (safe & (err >= 0.0)), p, _down_arr(p))
    hi = np.where(zero | (safe & (err <= 0.0)), p, _up_arr(p))
    return lo, hi


def _point_zero(lo, hi):
    return (lo == 0.0) & (hi == 0.0)


class IntervalArray:
    """Array of closed intervals with float64 endpoint arrays ``lo <= hi``.

    Supports broadcasting elementwise ``+ - * /`` with other interval
    arrays, scalar Intervals, floats and float arrays, ``sqr``, axis sums,
    indexing (a 0-d result is returned as a scalar Interval) and matrix
    products ``@`` with float and interval matrices (see ``matmul``).
    Endpoints are assumed finite.  Arrays are not modified in place by any
    operation.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # numpy operators defer to the reflected methods

    def __init__(self, lo, hi=None):
        lo = np.array(lo, dtype=float)
        hi = lo.copy() if hi is None else np.array(hi, dtype=float)
        if lo.shape != hi.shape:
            raise ShapeError(f"endpoint shapes {lo.shape} and {hi.shape} differ")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise DomainError("NaN interval endpoint")
        if (lo > hi).any():
            raise DomainError("empty interval in array")
        self.lo = lo
        self.hi = hi

    @classmethod
    def _mk(cls, lo, hi) -> "IntervalArray":
        out = object.__new__(cls)
        out.lo = lo
        out.hi = hi
        return out

    @classmethod
    def from_object(cls, data) -> "IntervalArray":
        """Convert an object array (or nested sequence) of Intervals and floats."""
        arr = np.asarray(data, dtype=object)
        flat = arr.reshape(-1)
        lo = np.array([e.lo if isinstance(e, Interval) else float(e) for e in flat], dtype=float)
        hi = np.array([e.hi if isinstance(e, Interval) else float(e) for e in flat], dtype=float)
        return cls(lo.reshape(arr.shape), hi.reshape(arr.shape))

    def to_object(self) -> np.ndarray:
        """Object array of scalar Intervals with the same endpoints."""
        out = np.empty(self.shape, dtype=object)
        flat = out.reshape(-1)
        for i, (a, b) in enumerate(zip(self.lo.reshape(-1).tolist(), self.hi.reshape(-1).tolist())):
            flat[i] = Interval._mk(a, b)
        return out

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and np.dtype(dtype) != np.dtype(object):
            raise TypeError("an IntervalArray converts only to an object array of Intervals")
        return self.to_object()

    # -- shape and indexing ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.lo.shape

    @property
    def ndim(self) -> int:
        return self.lo.ndim

    def __len__(self) -> int:
        return len(self.lo)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, idx):
        lo = self.lo[idx]
        hi = self.hi[idx]
        if np.ndim(lo) == 0:
            return Interval._mk(float(lo), float(hi))
        return IntervalArray._mk(lo, hi)

    def __setitem__(self, idx, value):
        lo, hi = _endpoints(value)
        self.lo[idx] = lo
        self.hi[idx] = hi

    def reshape(self, *shape) -> "IntervalArray":
        return IntervalArray._mk(self.lo.reshape(*shape), self.hi.reshape(*shape))

    def transpose(self, *axes) -> "IntervalArray":
        return IntervalArray._mk(self.lo.transpose(*axes), self.hi.transpose(*axes))

    @property
    def T(self) -> "IntervalArray":
        return self.transpose()

    def swapaxes(self, axis1: int, axis2: int) -> "IntervalArray":
        return IntervalArray._mk(self.lo.swapaxes(axis1, axis2), self.hi.swapaxes(axis1, axis2))

    # -- queries --------------------------------------------------------------

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def rad(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)

    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def _midrad(self):
        """Float midpoints and radii with [lo, hi] inside mid +- rad."""
        mid = 0.5 * (self.lo + self.hi)
        rad = np.maximum(self.hi - mid, mid - self.lo)
        return mid, np.where(rad != 0.0, _up_arr(rad), 0.0)

    def pad(self, r: float) -> "IntervalArray":
        """Outward enlargement of every entry by r >= 0."""
        return IntervalArray._mk(_down_arr(self.lo - r), _up_arr(self.hi + r))

    def intersect(self, other) -> "IntervalArray":
        olo, ohi = _endpoints(other)
        lo = np.maximum(self.lo, olo)
        hi = np.minimum(self.hi, ohi)
        if (lo > hi).any():
            raise DomainError("empty intersection")
        return IntervalArray._mk(lo, hi)

    def __repr__(self):
        return f"IntervalArray(lo={self.lo!r}, hi={self.hi!r})"

    # -- arithmetic -------------------------------------------------------------

    def __neg__(self):
        return IntervalArray._mk(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, ComplexInterval):
            return NotImplemented
        blo, bhi = _endpoints(other)
        return IntervalArray._mk(_add_lo(self.lo, blo), _add_hi(self.hi, bhi))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ComplexInterval):
            return NotImplemented
        blo, bhi = _endpoints(other)
        return IntervalArray._mk(_add_lo(self.lo, -bhi), _add_hi(self.hi, -blo))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, ComplexInterval):
            return NotImplemented
        if isinstance(other, (float, int)):
            c = float(other)
            lo, hi = _mul_bounds(c, np.array((self.lo, self.hi)))
            return IntervalArray._mk(np.minimum(lo[0], lo[1]), np.maximum(hi[0], hi[1]))
        blo, bhi = _endpoints(other)
        # the endpoints as a (2, 1) x (1, 2) outer product: _mul_bounds splits
        # each endpoint once and broadcasts to lo*lo, lo*hi, hi*lo and hi*hi
        nd = max(self.ndim, np.ndim(blo))
        a = np.array((self.lo, self.hi)).reshape((2, 1) + (1,) * (nd - self.ndim) + self.shape)
        b = np.array((blo, bhi)).reshape((1, 2) + (1,) * (nd - np.ndim(blo)) + np.shape(blo))
        lo, hi = _mul_bounds(a, b)
        return IntervalArray._mk(lo.min(axis=(0, 1)), hi.max(axis=(0, 1)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ComplexInterval):
            return NotImplemented
        blo, bhi = _endpoints(other)
        if np.any((blo <= 0.0) & (bhi >= 0.0)):
            raise DomainError("division by interval containing zero")
        alo, ahi = self.lo, self.hi
        q1, q2, q3, q4 = alo / blo, alo / bhi, ahi / blo, ahi / bhi
        lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
        hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
        exact = _point_zero(alo, ahi)
        return IntervalArray._mk(np.where(exact, 0.0, _down_arr(lo)), np.where(exact, 0.0, _up_arr(hi)))

    def __rtruediv__(self, other):
        return IntervalArray._mk(*_endpoints(other)) / self

    def sqr(self) -> "IntervalArray":
        """Tight [x**2 for x in each entry]."""
        ends = np.array((self.lo, self.hi))
        lo, hi = _mul_bounds(ends, ends)
        straddle = (self.lo <= 0.0) & (self.hi >= 0.0)
        return IntervalArray._mk(np.where(straddle, 0.0, np.minimum(lo[0], lo[1])), np.maximum(hi[0], hi[1]))

    def sum(self, axis=None) -> "IntervalArray | Interval":
        """Enclosure of the sum along an axis (all entries for None), added
        pairwise with rounded additions."""
        lo, hi = self.lo, self.hi
        if axis is None:
            lo, hi, axis = lo.reshape(-1), hi.reshape(-1), 0
        lo, hi = np.moveaxis(lo, axis, 0), np.moveaxis(hi, axis, 0)
        if lo.shape[0] == 0:
            lo = hi = np.zeros((1,) + lo.shape[1:])
        while lo.shape[0] > 1:
            h = lo.shape[0] // 2
            lo = np.concatenate([_add_lo(lo[:h], lo[h : 2 * h]), lo[2 * h :]])
            hi = np.concatenate([_add_hi(hi[:h], hi[h : 2 * h]), hi[2 * h :]])
        return self._mk(lo[0], hi[0]) if lo.ndim > 1 else Interval._mk(float(lo[0]), float(hi[0]))

    # -- matrix products ----------------------------------------------------------

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __matmul__(self, other):
        """X @ B; for a float matrix or vector B as (B^T X^T)^T, transposing
        the last two axes of stacks."""
        other = as_array(other)
        if isinstance(other, IntervalArray):
            return matmul(self, other)
        xt = self.swapaxes(-1, -2) if self.ndim > 1 else self
        if other.ndim == 1:
            return matmul(other, xt)
        out = matmul(other.swapaxes(-1, -2), xt)
        return out.swapaxes(-1, -2) if out.ndim > 1 else out


_DEFER_TO = (ComplexInterval, np.ndarray, IntervalArray)


def _endpoints(x):
    """(lo, hi) float endpoints of an interval operand of any supported kind."""
    if isinstance(x, IntervalArray):
        return x.lo, x.hi
    if isinstance(x, Interval):
        return x.lo, x.hi
    if isinstance(x, np.ndarray) and x.dtype == object:
        x = IntervalArray.from_object(x)
        return x.lo, x.hi
    x = np.asarray(x, dtype=float)
    return x, x


def as_array(x):
    """IntervalArray for interval input (an IntervalArray or an object array
    of Intervals), a float64 ndarray otherwise.  This is the one entry
    conversion of the code paths that serve floats and intervals alike."""
    if isinstance(x, IntervalArray):
        return x
    if isinstance(x, np.ndarray) and x.dtype == object:
        return IntervalArray.from_object(x)
    return np.asarray(x, dtype=float)


def _any_interval(items) -> bool:
    return any(isinstance(x, (IntervalArray, Interval)) or (isinstance(x, np.ndarray) and x.dtype == object) for x in items)


def zeros(shape, like=None):
    """Float zeros, or point-zero intervals when ``like`` is an IntervalArray."""
    z = np.zeros(shape)
    return IntervalArray(z) if isinstance(like, IntervalArray) else z


def stack(items, axis: int = 0):
    """np.stack for floats and intervals alike (operands are broadcast)."""
    if not _any_interval(items):
        return np.stack(np.broadcast_arrays(*items), axis=axis)
    ends = [_endpoints(x) for x in items]
    los = np.broadcast_arrays(*(e[0] for e in ends))
    his = np.broadcast_arrays(*(e[1] for e in ends))
    return IntervalArray._mk(np.stack(los, axis=axis), np.stack(his, axis=axis))


def concatenate(items, axis: int = 0):
    """np.concatenate for floats and intervals alike; scalars count as length 1."""
    if not _any_interval(items):
        return np.concatenate([np.atleast_1d(x) for x in items], axis=axis)
    ends = [_endpoints(x) for x in items]
    return IntervalArray._mk(
        np.concatenate([np.atleast_1d(e[0]) for e in ends], axis=axis),
        np.concatenate([np.atleast_1d(e[1]) for e in ends], axis=axis),
    )


def sum_in_order(x, axis: int, start=None):
    """Sum of a float or interval array along ``axis`` (plus ``start``),
    added left to right as a scalar loop adds: an interval sum then has that
    loop's endpoints, where the pairwise ``sum`` can differ by a few ulps."""
    head = (slice(None),) * (axis % x.ndim)
    acc = start
    for k in range(x.shape[axis]):
        acc = x[head + (k,)] if acc is None else acc + x[head + (k,)]
    return x.sum(axis=axis) if acc is None else acc


def sqr(x):
    """Elementwise square of a float or interval array."""
    return x.sqr() if isinstance(x, IntervalArray) else x * x


_SLAB = 4096  # endpoint products held at once by the interval x interval product


def _check_inner(A, X, most: int):
    if not (1 <= np.ndim(A) <= most and 1 <= np.ndim(X) <= most) or np.shape(A)[-1] != np.shape(X)[-min(2, np.ndim(X))]:
        raise ShapeError(f"matrix product shapes {np.shape(A)} x {np.shape(X)}")


def matmul(A, X) -> IntervalArray:
    """Enclosure of {a @ x : a in A, x in X} for matrices or vectors.

    An interval A (IntervalArray or object array) takes the endpoint form:
    the elementwise interval products a_ik x_kj, added left to right over k
    (``sum_in_order``), formed in slabs of the inner index that hold at most
    about _SLAB products each.  Every product and addition is rounded
    outward, so each entry contains the exact range of the dot product.
    This is the entrywise interval product; a midpoint-radius form can be
    up to 1.5 times wider on wide operands (Rump 1999).  It takes vectors,
    matrices and stacks (..., m, n) x (..., n, p) of matrices; the slab size
    does not change the left-to-right sums, so every matrix of a stack gets
    the bits it gets alone.

    A float matrix (or vector) A takes the midpoint-radius product (S. M.
    Rump, "Fast and parallel interval arithmetic", BIT 39, 1999) with two
    float matrix products.  With
    X = <m, r>, inner dimension n, u = 2**-53 and eta = 2**-1074,

        A x  in  fl(A m) +- R,
        R >= |A| r + gamma_n |A| |m| + 2 n eta,

    since any evaluation order of an n-term dot product errs by at most
    gamma_n |a|^T |m| plus n underflows of eta/2 each.  R is computed as
    fl(|A| (r + gamma_n |m|)) times (1 + 2 gamma_{n+4}), which absorbs the
    rounding of that computation itself, plus an underflow term
    eta (4n + 4)(1 + max|A|); the endpoints fl(A m) -+ R are then rounded
    one ulp outward.  Where every product a_ik x_kj has an exactly zero
    factor the result entry is an exact zero: no rounding and no underflow
    term are applied there.

    The float-A product also takes stacks of matrices, with numpy's
    ``matmul`` broadcasting over the leading axes (a stack of vectors is a
    stack of one-column or one-row matrices); the underflow term then uses
    the largest |a_ik| of each matrix of the stack, so every matrix of a
    stack gets the bits it gets alone.
    """
    A, X = as_array(A), as_array(X)
    if isinstance(A, IntervalArray):
        _check_inner(A, X, 3)
        return _endpoint_matmul(A, X if isinstance(X, IntervalArray) else IntervalArray(X))
    _check_inner(A, X, np.inf)
    X = X if isinstance(X, IntervalArray) else IntervalArray(X)
    n = A.shape[-1]
    mid, rad = X._midrad()
    center = A @ mid
    abs_a = np.abs(A)
    R = (abs_a @ (rad + _gamma(n) * np.abs(mid))) * (1.0 + 2.0 * _gamma(n + 4))
    touched = (A != 0.0) @ ((mid != 0.0) | (rad != 0.0))
    if A.ndim > 2:  # the largest |a_ik| of each matrix of the stack
        amax = abs_a.max(axis=(-2, -1), keepdims=True) if abs_a.size else np.zeros((1, 1))
    else:
        amax = float(abs_a.max()) if abs_a.size else 0.0
    underflow = _ETA * (4.0 * n + 4.0) * (1.0 + amax)
    R = R + np.where(touched, underflow, 0.0)
    rounded = R != 0.0
    return IntervalArray._mk(
        np.where(rounded, _down_arr(center - R), center), np.where(rounded, _up_arr(center + R), center)
    )


def _endpoint_matmul(A: IntervalArray, X: IntervalArray) -> IntervalArray:
    """The endpoint form of ``matmul`` for interval A and X."""
    vec_a, vec_x = A.ndim == 1, X.ndim == 1
    A = A.reshape(1, -1) if vec_a else A
    X = X.reshape(-1, 1) if vec_x else X
    (m, n), p = A.shape[-2:], X.shape[-1]
    batch = np.broadcast_shapes(A.shape[:-2], X.shape[:-2])
    step = max(1, _SLAB // max(1, math.prod(batch) * m * p))
    out = zeros(batch + (m, p), like=A)
    for k in range(0, n, step):
        out = sum_in_order(A[..., k : k + step, None] * X[..., None, k : k + step, :], -2, out)
    out = out[..., 0, :] if vec_a else out
    return out[..., 0] if vec_x else out


def sup_norm(X: IntervalArray, stacked: bool = False):
    """Upper bound of the sup norm of every point vector (1-d) or of the
    induced sup norm of every point matrix (2-d) in X.

    With ``stacked`` the leading axis of X indexes a stack of vectors
    (2-d X) or matrices (3-d X) and the result is a float array with one
    bound per member; a single X is the one-element stack."""
    X = X if stacked else X[None]
    if X.lo.size == 0:
        norms = np.zeros(X.shape[0])
    elif X.ndim == 2:
        norms = X.mag().max(axis=-1)
    else:
        # a sum of k nonnegative terms errs by at most gamma_{k-1} times itself
        rows = X.mag().sum(axis=-1)
        norms = np.where(rows != 0.0, _up_arr(rows * (1.0 + 2.0 * _gamma(X.shape[-1] + 1))), 0.0).max(axis=-1)
    return norms if stacked else float(norms[0])


def contraction_defect(A, M):
    """Upper bound of ||I - A M|| in the induced sup norm for every point
    matrix in M (A a float matrix, the product by ``matmul``).  For a stack
    M of shape (B, d, d) (A one matrix or a stack of B) the result is a
    float array of B bounds."""
    return sup_norm(np.eye(np.shape(A)[-2]) - matmul(A, M), stacked=np.ndim(M) > 2)


class InverseEnclosure:
    """Result of verify_invertible: enclosure of the inverse plus the defect."""

    __slots__ = ("inverse", "defect")

    def __init__(self, inverse: IntervalArray, defect: float):
        self.inverse = inverse
        self.defect = defect


def verify_invertible(M):
    """Certify that every point matrix in M (an IntervalArray; an object
    array of Intervals or a float matrix is converted) is invertible.

    Uses a floating approximate inverse R of the midpoint matrix and the
    contraction bound ||I - R M|| < 1 in the induced sup norm.  On success
    returns an ``InverseEnclosure``: an entrywise enclosure (an
    IntervalArray) of the set of inverses and the bound.  When the bound
    cannot be established (which is *not* a proof of singularity) a
    ``NotVerified`` is raised; its ``defect`` is ||I - R M|| when that is
    finite and infinity when R is not.

    A (B, k, k) stack returns a list with, per member, its InverseEnclosure
    or its NotVerified (not raised), each equal to the member's own call; a
    single (k, k) matrix is the one-element stack.
    """
    X = as_array(M)
    X = X if isinstance(X, IntervalArray) else IntervalArray(X)
    if X.ndim not in (2, 3) or X.shape[-1] != X.shape[-2]:
        raise ShapeError("verify_invertible requires a square matrix or a stack of them")
    if X.ndim == 3:
        return _verify_stack(X)
    (out,) = _verify_stack(X[None])
    if isinstance(out, NotVerified):
        raise out
    return out


def _verify_stack(X: IntervalArray) -> list:
    """``verify_invertible`` of each member of a (B, k, k) stack."""
    if X.shape[-1] == 0:
        return [InverseEnclosure(x, 0.0) for x in X]
    try:
        R = np.linalg.inv(X.mid)
    except np.linalg.LinAlgError as exc:
        if len(X) > 1:  # one singular midpoint fails the stack: one call each
            return [_verify_stack(x[None])[0] for x in X]
        return [NotVerified(f"approximate inversion failed: {exc}")]
    finite = np.isfinite(R).all(axis=(-2, -1))
    beta = np.full(len(X), _INF)
    if finite.any():
        beta[finite] = contraction_defect(R[finite], X[finite])
    out = []
    for b, defect in enumerate(beta.tolist()):
        if not finite[b]:
            out.append(NotVerified("approximate inverse is not finite"))
        elif not defect < 1.0:
            out.append(NotVerified(f"contraction defect {defect} >= 1", defect if defect >= 1.0 else _INF))
        else:
            # ||inv(M) - R||_sup <= ||R||_sup * beta / (1 - beta), applied entrywise.
            slack = (Interval(sup_norm(IntervalArray(R[b]))) * defect) / (Interval(1.0) - Interval(defect))
            out.append(InverseEnclosure(IntervalArray(R[b]) + IntervalArray(-slack.hi, slack.hi), defect))
    return out


# ---------------------------------------------------------------------------
# Complex determinants
# ---------------------------------------------------------------------------

_DET_MAX_SIZE = 30
_DET_EXPANSION_MAX = 5


def complex_mul(a, b):
    """Product of complex intervals given as (re, im) pairs of intervals or
    interval arrays, in the operation order of ComplexInterval.__mul__."""
    ar, ai = a
    br, bi = b
    return ar * br - ai * bi, ar * bi + ai * br


def _complex_div(a, b):
    """a / b in the operation order of ComplexInterval.__truediv__; every
    |b|^2 must be bounded away from zero."""
    br, bi = b
    den = br.sqr() + bi.sqr()
    nr, ni = complex_mul(a, (br, -bi))
    return nr / den, ni / den


def _cdet_lu(re: IntervalArray, im: IntervalArray):
    """Interval LU determinants of the stack re + i im (shape (B, n, n)),
    one numpy step per pivot column over the whole stack.

    Each matrix pivots on the first row whose |a_ik|^2 has the largest
    positive lower bound.  A matrix leaves the elimination at the first
    pivot column without such a row, or at the first non-finite endpoint.
    Returns the determinant parts (shape (B,)) and the mask of the matrices
    that completed.
    """
    B, n = re.shape[0], re.shape[-1]
    live = np.arange(B)
    det = (IntervalArray(np.ones(B)), IntervalArray(np.zeros(B)))
    flip = np.zeros(B, dtype=bool)
    A = (re, im)
    for k in range(n):
        m = n - k
        rows = np.arange(len(live))
        mig = (A[0][:, :, 0].sqr() + A[1][:, :, 0].sqr()).lo
        p = np.argmax(mig, axis=1)
        ok = (mig[rows, p] > 0.0) & _finite(A, axis=(1, 2)) & _finite(det)
        if not ok.all():
            live, p, flip = live[ok], p[ok], flip[ok]
            A = (A[0][ok], A[1][ok])
            det = (det[0][ok], det[1][ok])
            rows = np.arange(len(live))
            if not len(live):
                break
        perm = np.tile(np.arange(m), (len(live), 1))
        perm[rows, p] = 0
        perm[:, 0] = p
        A = tuple(IntervalArray._mk(x.lo[rows[:, None], perm], x.hi[rows[:, None], perm]) for x in A)
        flip ^= p != 0
        piv = (A[0][:, 0, 0], A[1][:, 0, 0])
        det = complex_mul(det, piv)
        if m > 1:
            f = _complex_div((A[0][:, 1:, 0], A[1][:, 1:, 0]), (piv[0][:, None], piv[1][:, None]))
            upd = complex_mul((f[0][:, :, None], f[1][:, :, None]), (A[0][:, 0:1, 1:], A[1][:, 0:1, 1:]))
            A = (A[0][:, 1:, 1:] - upd[0], A[1][:, 1:, 1:] - upd[1])
    done = np.zeros(B, dtype=bool)
    done[live] = _finite(det)
    out = (IntervalArray(np.ones(B)), IntervalArray(np.zeros(B)))
    for part, val in zip(out, det):
        part.lo[live] = np.where(flip, -val.hi, val.lo)
        part.hi[live] = np.where(flip, -val.lo, val.hi)
    return out, done


def _finite(parts, axis=()):
    """Per-entry (or, over ``axis``, per-slice) finiteness of every endpoint."""
    return np.logical_and.reduce([np.isfinite(e).all(axis=axis) for x in parts for e in (x.lo, x.hi)])


def _cdet_expansion(A: np.ndarray, rows: list, cols: list) -> ComplexInterval:
    n = len(rows)
    if n == 1:
        return A[rows[0], cols[0]]
    acc = ComplexInterval(0.0)
    sub_rows = rows[1:]
    for idx, c in enumerate(cols):
        minor = _cdet_expansion(A, sub_rows, cols[:idx] + cols[idx + 1 :])
        term = A[rows[0], c] * minor
        acc = acc + term if idx % 2 == 0 else acc - term
    return acc


def _hadamard_box(re: IntervalArray, im: IntervalArray) -> IntervalArray:
    """Coarse but valid enclosure of each determinant of the stack:
    |det| <= prod of the row Euclidean norms, as the box [-b, b] (shape (B,))."""
    sq = (re.sqr() + im.sqr()).hi
    rows = IntervalArray._mk(sq, sq).sum(axis=-1).hi
    norms = np.where(rows != 0.0, _up_arr(np.sqrt(rows)), 0.0)
    b = np.ones(re.shape[0])
    for i in range(re.shape[-1]):
        b = _mul_bounds(b, norms[:, i])[1]
    b = np.where((norms == 0.0).any(axis=-1), 0.0, b)
    return IntervalArray._mk(-b, b)


def complex_det_enclosure(M):
    """Enclosure of det(A) for every point matrix A in a complex interval
    matrix, or in each matrix of a stack.

    M is an (n, n) object array or nested list of ComplexIntervals (or
    numbers), giving a ComplexInterval; or a pair (re, im) of IntervalArrays
    of shape (B, n, n), the matrices re[b] + i im[b], giving a pair (re, im)
    of IntervalArrays of shape (B,).  Both forms run one interval LU with
    one numpy step per pivot column over the whole stack (a single matrix is
    a stack of one), so a stacked result equals the single-matrix result
    bit for bit; its + - * endpoints are those of the ComplexInterval
    operations.  A matrix that meets a pivot column with no entry bounded
    away from zero, or a non-finite endpoint, falls back to cofactor
    expansion for n <= 5 and to a zero-containing Hadamard box otherwise.
    The LU temporaries take some 50 kB per 11 x 11 matrix of the stack, so
    callers bound B.
    """
    stacked = isinstance(M, tuple)
    if stacked:
        re, im = M
        if re.shape != im.shape or re.ndim != 3 or re.shape[1] != re.shape[2]:
            raise ShapeError("determinant stack requires re, im of one shape (B, n, n)")
    else:
        arr = np.asarray(M, dtype=object)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError("determinant requires a square matrix")
        cells = [ComplexInterval._coerce(z) for z in arr.reshape(-1)]
        re = IntervalArray.from_object([z.re for z in cells]).reshape((1,) + arr.shape)
        im = IntervalArray.from_object([z.im for z in cells]).reshape((1,) + arr.shape)
    n = re.shape[-1]
    if n > _DET_MAX_SIZE:
        raise UnsupportedSize(f"determinant size {n} exceeds {_DET_MAX_SIZE}")
    with np.errstate(over="ignore", invalid="ignore"):
        out, done = _cdet_lu(re, im)
        failed = np.flatnonzero(~done)
        if n <= _DET_EXPANSION_MAX:
            for b in failed:
                obj = np.array([[ComplexInterval(re[b, i, j], im[b, i, j]) for j in range(n)] for i in range(n)])
                det = _cdet_expansion(obj, list(range(n)), list(range(n)))
                out[0][b], out[1][b] = det.re, det.im
        elif len(failed):
            box = _hadamard_box(re[failed], im[failed])
            out[0][failed] = box
            out[1][failed] = box
    if stacked:
        return out
    return ComplexInterval(out[0][0], out[1][0])
