"""Interval arithmetic: enclosure soundness, exact endpoint cases, matrix ops.

Point-consistency checks compare against plain float evaluation; the fuzz
suites draw nested random operands and assert inclusion monotonicity.
"""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexcert.intervals as iv
from vortexcert.intervals import (
    ComplexInterval,
    DomainError,
    Interval,
    IntervalArray,
    NotVerified,
    ShapeError,
    complex_det_enclosure,
    sup_norm,
    verify_invertible,
)

SEED = int(os.environ.get("VORTEX_CERT_SEED", "0"))
RNG = np.random.default_rng(SEED)


def ivl(lo, hi=None):
    return Interval(lo, hi)


class TestScalarArithmetic:
    def test_add_exact_endpoints(self):
        assert ivl(1, 2) + ivl(3, 4) == ivl(4, 6)

    def test_mul_sign_analysis_exact(self):
        assert ivl(-1, 1) * ivl(-1, 1) == ivl(-1, 1)

    def test_div_by_zero_interval(self):
        with pytest.raises(DomainError):
            ivl(1, 2) / ivl(0, 1)

    def test_sub(self):
        assert (ivl(1, 2) - ivl(0.5)).contains(1.0)

    def test_div_exact(self):
        r = ivl(1, 2) / ivl(2)
        assert r == ivl(0.5, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            ivl(float("nan"), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ivl(2.0, 1.0)

    def test_sqr_tight_at_zero(self):
        s = ivl(-2, 1).sqr()
        assert s.lo == 0.0 and s.hi >= 4.0

    def test_pow(self):
        p = ivl(-1, 2) ** 3
        assert p.contains(-1.0) and p.contains(8.0) and p.contains(0.0)

    def test_abs(self):
        assert abs(ivl(-3, 1)) == ivl(0, 3)

    def test_determinism(self):
        a, b = ivl(0.1, 0.7), ivl(-1.3, 2.9)
        r1 = a * b + a / ivl(3.7) - b
        r2 = a * b + a / ivl(3.7) - b
        assert r1 == r2


class TestTranscendentals:
    def test_ln_of_one_tiny(self):
        r = iv.ln(ivl(1, 1))
        assert r.contains(0.0)
        assert r.width <= 2 * 5e-324

    def test_ln_monotone_enclosure(self):
        r = iv.ln(ivl(2, 3))
        assert r.lo <= math.log(2) <= math.log(3) <= r.hi

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            iv.ln(ivl(-1, 2))

    def test_sqrt_exact(self):
        assert iv.sqrt(ivl(4, 9)) == ivl(2, 3)

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            iv.sqrt(ivl(-1, 0))

    def test_cos_extremum_enclosed(self):
        r = iv.cos(ivl(0, math.pi))
        assert r.lo <= -1.0 <= 1.0 <= r.hi or (r.lo == -1.0 and r.hi == 1.0)
        assert r.contains(-1.0) and r.contains(1.0)

    def test_sin_extremum(self):
        r = iv.sin(ivl(0, math.pi))
        assert r.contains(1.0) and r.contains(0.0)
        assert r.lo >= -1e-10

    def test_trig_point_consistency(self):
        for t in RNG.uniform(-10, 10, size=200):
            assert iv.cos(ivl(t)).contains(math.cos(t)) or abs(math.cos(t)) > 1 - 1e-15
            assert iv.cos(ivl(t)).lo <= math.cos(t) <= iv.cos(ivl(t)).hi
            assert iv.sin(ivl(t)).lo <= math.sin(t) <= iv.sin(ivl(t)).hi


def _rand_interval(width_scale=1.0):
    m = RNG.normal() * 10
    r = abs(RNG.normal()) * width_scale
    return ivl(m - r, m + r)


def _shrink(a: Interval):
    t0, t1 = sorted(RNG.uniform(0, 1, size=2))
    lo = a.lo + t0 * (a.hi - a.lo)
    hi = a.lo + t1 * (a.hi - a.lo)
    if lo > hi:
        lo, hi = hi, lo
    return ivl(max(a.lo, lo), min(a.hi, hi))


class TestFuzz:
    def test_inclusion_monotonicity_and_point_consistency_100k(self):
        """Acceptance: interval inclusion monotonicity fuzz, 1e5 samples."""
        n = 100_000
        ms = RNG.normal(size=(n, 2)) * 10
        rs = np.abs(RNG.normal(size=(n, 2)))
        ts = np.sort(RNG.uniform(0, 1, size=(n, 4)), axis=1)
        ops_idx = RNG.integers(0, 4, size=n)
        for k in range(n):
            A = ivl(ms[k, 0] - rs[k, 0], ms[k, 0] + rs[k, 0])
            B = ivl(ms[k, 1] - rs[k, 1], ms[k, 1] + rs[k, 1])
            a = ivl(
                A.lo + ts[k, 0] * (A.hi - A.lo),
                A.lo + ts[k, 1] * (A.hi - A.lo),
            )
            b = ivl(
                B.lo + ts[k, 2] * (B.hi - B.lo),
                B.lo + ts[k, 3] * (B.hi - B.lo),
            )
            op = ops_idx[k]
            if op == 0:
                big, small = A + B, a + b
                pt = a.lo + b.lo
            elif op == 1:
                big, small = A - B, a - b
                pt = a.lo - b.lo
            elif op == 2:
                big, small = A * B, a * b
                pt = a.lo * b.lo
            else:
                if B.contains_zero():
                    continue
                big, small = A / B, a / b
                pt = a.lo / b.lo
            assert small.issubset(big), (op, a, b, A, B)
            assert small.contains(pt), (op, a, b)

    def test_point_consistency_against_floats(self):
        for _ in range(2000):
            x = RNG.normal() * 100
            y = RNG.normal() * 100
            assert (ivl(x) + ivl(y)).contains(x + y)
            assert (ivl(x) * ivl(y)).contains(x * y)
            if y != 0:
                assert (ivl(x) / ivl(y)).contains(x / y)


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@settings(max_examples=300, deadline=None)
@given(finite_floats, finite_floats, finite_floats, finite_floats)
def test_hypothesis_mul_encloses_products(a, b, c, d):
    x = ivl(min(a, b), max(a, b))
    y = ivl(min(c, d), max(c, d))
    p = x * y
    for u in (x.lo, x.hi, x.mid):
        for v in (y.lo, y.hi, y.mid):
            assert p.contains(u * v)


@settings(max_examples=300, deadline=None)
@given(finite_floats, finite_floats)
def test_hypothesis_ln_sqrt_consistency(a, b):
    lo, hi = sorted((abs(a) + 1e-6, abs(b) + 1e-6))
    x = ivl(lo, hi)
    r = iv.ln(x)
    assert r.lo <= math.log(lo) and math.log(hi) <= r.hi
    s = iv.sqrt(x)
    assert s.lo <= math.sqrt(lo) and math.sqrt(hi) <= s.hi


class TestVectorsMatrices:
    def test_identity_matvec(self):
        v = IntervalArray([1.0, -2.0, 3.5])
        w = iv.matmul(IntervalArray(np.eye(3)), v)
        for a, b in zip(w, v):
            assert b.issubset(a)

    def test_norm_sup_example(self):
        n = sup_norm(IntervalArray([1.0, -2.0]))
        assert 2.0 <= n <= 2.0 + 1e-12

    def test_norm_matches_float_norm(self):
        """Random 5x5 point matrix: sup-norm bound vs double-precision norm."""
        for _ in range(20):
            A = RNG.normal(size=(5, 5))
            nb = sup_norm(IntervalArray(A))
            ref = np.max(np.sum(np.abs(A), axis=1))
            assert ref - 1e-14 <= nb <= ref * (1.0 + 1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            iv.matmul(IntervalArray(np.eye(3)), IntervalArray([1.0, 2.0]))
        with pytest.raises(ShapeError):
            iv.matmul(IntervalArray(np.ones((2, 3))), IntervalArray(np.ones((2, 3))))

    def test_verify_invertible_diag(self):
        M = IntervalArray(np.diag([2.0, 3.0]))
        enc = verify_invertible(M)
        assert enc.inverse[0, 0].contains(0.5)
        assert enc.inverse[1, 1].contains(1.0 / 3.0)
        assert enc.defect < 1e-10

    def test_verify_invertible_zero_row(self):
        M = IntervalArray([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(NotVerified):
            verify_invertible(M)

    def test_verify_invertible_near_singular_reports_defect(self):
        """An interval matrix about a nearly singular midpoint fails with
        the finite contraction defect it measured."""
        mid = np.array([[1.0, 1.0], [1.0, 1.001]])
        with pytest.raises(NotVerified) as info:
            verify_invertible(IntervalArray(mid - 0.01, mid + 0.01))
        beta = info.value.defect
        assert math.isfinite(beta) and beta >= 1.0
        assert str(beta) in str(info.value)

    def test_verify_invertible_singular_midpoint_infinite_defect(self):
        mid = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotVerified) as info:
            verify_invertible(IntervalArray(mid - 0.01, mid + 0.01))
        assert info.value.defect == math.inf

    def test_verify_invertible_random_well_conditioned(self):
        """Float oracle: condition number bounded, verification must pass."""
        for _ in range(5):
            A = RNG.normal(size=(10, 10)) + 10.0 * np.eye(10)
            assert np.linalg.cond(A) < 1e3
            enc = verify_invertible(IntervalArray(A))
            invA = np.linalg.inv(A)
            for i in range(10):
                for j in range(10):
                    assert enc.inverse[i, j].contains(invA[i, j]) or abs(
                        enc.inverse[i, j].mid - invA[i, j]
                    ) < 1e-8


class TestComplexDet:
    def test_det_1x1(self):
        z = ComplexInterval(ivl(2, 2), ivl(-1, -1))
        d = complex_det_enclosure([[z]])
        assert d.contains(complex(2, -1))

    def test_det_diag(self):
        a = ComplexInterval(2.0, 1.0)
        b = ComplexInterval(-1.0, 3.0)
        zero = ComplexInterval(0.0, 0.0)
        d = complex_det_enclosure([[a, zero], [zero, b]])
        assert d.contains(complex(2, 1) * complex(-1, 3))

    def test_det_vs_float_lu(self):
        """3x3 point matrix against the numpy determinant, 1e-12 relative."""
        for _ in range(30):
            A = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
            M = [[ComplexInterval(A[i, j].real, A[i, j].imag) for j in range(3)] for i in range(3)]
            d = complex_det_enclosure(M)
            ref = np.linalg.det(A)
            assert abs(d.mid - ref) <= 1e-12 * max(1.0, abs(ref))
            assert d.contains(complex(ref)) or abs(d.mid - ref) < 1e-12

    def test_det_singular_falls_back(self):
        zero = ComplexInterval(0.0, 0.0)
        one = ComplexInterval(1.0, 0.0)
        d = complex_det_enclosure([[zero, one], [zero, one]])
        assert d.contains_zero()


class TestSerialization:
    def test_round_trip_bit_exact(self):
        x = ivl(math.pi, math.e + 10)
        y = Interval.from_json(json.loads(json.dumps(x.to_json())))
        assert x == y and x.lo == y.lo and x.hi == y.hi

    def test_hex_format(self):
        obj = ivl(1.5).to_json()
        assert set(obj) == {"lo", "hi"}
        assert float.fromhex(obj["lo"]) == 1.5


# ---------------------------------------------------------------------------
# IntervalArray and the float-matrix product kernel
# ---------------------------------------------------------------------------

wide_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150)


def _pairs(pairs):
    lo = np.array([min(a, b) for a, b in pairs])
    hi = np.array([max(a, b) for a, b in pairs])
    return IntervalArray(lo, hi), [ivl(a, b) for a, b in zip(lo, hi)]


def _encloses(arr, scalars):
    return all(arr.lo[i] <= s.lo and s.hi <= arr.hi[i] for i, s in enumerate(scalars))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # quotients may round to +-inf
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(wide_floats, wide_floats), min_size=1, max_size=6), st.data())
def test_interval_array_ops_contain_scalar_results(xs, data):
    """Every elementwise IntervalArray operation encloses the scalar Interval
    result on the same endpoints."""
    ys = data.draw(st.lists(st.tuples(wide_floats, wide_floats), min_size=len(xs), max_size=len(xs)))
    a, sa = _pairs(xs)
    b, sb = _pairs(ys)
    c = data.draw(wide_floats)
    assert _encloses(a + b, [x + y for x, y in zip(sa, sb)])
    assert _encloses(a - b, [x - y for x, y in zip(sa, sb)])
    assert _encloses(a * b, [x * y for x, y in zip(sa, sb)])
    assert _encloses(a * c, [x * c for x in sa])
    assert _encloses(c - a, [c - x for x in sa])
    assert _encloses(a.sqr(), [x.sqr() for x in sa])
    assert _encloses(-a, [-x for x in sa])
    if not any(y.contains_zero() for y in sb):
        assert _encloses(a / b, [x / y for x, y in zip(sa, sb)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(wide_floats, wide_floats), min_size=1, max_size=12))
def test_interval_array_sum_encloses_exact_sum(xs):
    a, _ = _pairs(xs)
    s = a.sum()
    assert Fraction(s.lo) <= sum(map(Fraction, a.lo)) and sum(map(Fraction, a.hi)) <= Fraction(s.hi)


def test_interval_array_exact_zeros_and_object_round_trip():
    z = IntervalArray(np.zeros(3))
    x = IntervalArray([1.0, -2.0, 3.0], [1.5, -1.0, 3.0])
    for r in (z * x, x * z, z / x, z + z, z.sqr(), z * 7.3, np.ones((2, 3)) @ z):
        assert np.all(r.lo == 0.0) and np.all(r.hi == 0.0)
    obj = x.to_object()
    assert obj.dtype == object and obj[1] == ivl(-2.0, -1.0)
    back = IntervalArray.from_object(obj)
    assert np.array_equal(back.lo, x.lo) and np.array_equal(back.hi, x.hi)
    assert x[1] == ivl(-2.0, -1.0)


def _mixed_floats(rng, shape):
    """Exact zeros, subnormal-to-tiny, moderate and huge magnitudes."""
    kind = rng.integers(0, 4, size=shape)
    exps = np.choose(kind, [rng.integers(-1074, -990, shape), rng.integers(-30, 30, shape),
                            rng.integers(100, 150, shape), np.zeros(shape, dtype=int)])
    return np.where(kind == 3, 0.0, np.ldexp(rng.uniform(-1.0, 1.0, shape), exps))


def _random_product(seed, n):
    rng = np.random.default_rng(seed)
    k, q = rng.integers(1, 4, size=2)
    A = _mixed_floats(rng, (k, n))
    mid = _mixed_floats(rng, (n, q))
    rad = np.abs(mid) * np.where(rng.uniform(size=(n, q)) < 0.5, 0.0, rng.uniform(0, 1e-6, (n, q)))
    return A, IntervalArray(mid - rad, mid + rad)


def _kernel_misses(A, X) -> int:
    """Entries of matmul(A, X) that miss the exact range of A @ x over X."""
    out = iv.matmul(A, X)
    misses = 0
    for i in range(A.shape[0]):
        for j in range(X.shape[1]):
            terms = [(Fraction(a) * Fraction(l), Fraction(a) * Fraction(h))
                     for a, l, h in zip(A[i], X.lo[:, j], X.hi[:, j])]
            lo = sum(min(t) for t in terms)
            hi = sum(max(t) for t in terms)
            misses += not (Fraction(out.lo[i, j]) <= lo and hi <= Fraction(out.hi[i, j]))
    return misses


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 45), st.integers(0, 2**32 - 1))
def test_matmul_encloses_exact_product(n, seed):
    """The midpoint-radius kernel contains the exact product range of random
    1..45-dimensional matrices with zero, tiny, moderate and huge entries."""
    A, X = _random_product(seed, n)
    assert _kernel_misses(A, X) == 0


def test_matmul_without_rounding_term_fails(monkeypatch):
    """Planted fault: with gamma_n forced to zero the enclosure check must
    catch the missing rounding-error term."""
    cases = [_random_product(seed, 45) for seed in range(12)]
    assert sum(_kernel_misses(A, X) for A, X in cases) == 0
    monkeypatch.setattr(iv, "_gamma", lambda n: 0.0)
    assert sum(_kernel_misses(A, X) for A, X in cases) > 0


def _mul_bounds_reference(a, b):
    """Array _mul_bounds as it was before the split was shared: Dekker's
    split inline on both (already broadcast) operands."""
    p = a * b
    ca = iv._SPLITTER * a
    a1 = ca - (ca - a)
    a2 = a - a1
    cb = iv._SPLITTER * b
    b1 = cb - (cb - b)
    b2 = b - b1
    err = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    aa, ab = np.abs(a), np.abs(b)
    safe = (aa > iv._SAFE_LO) & (aa < iv._SAFE_HI) & (ab > iv._SAFE_LO) & (ab < iv._SAFE_HI) & (np.abs(p) > iv._SAFE_LO)
    zero = (a == 0.0) | (b == 0.0)
    lo = np.where(zero | (safe & (err >= 0.0)), p, np.nextafter(p, -np.inf))
    hi = np.where(zero | (safe & (err <= 0.0)), p, np.nextafter(p, np.inf))
    return lo, hi


def _mul_four_stack(x, blo, bhi):
    """IntervalArray.__mul__ as it was: the endpoints stacked as
    [lo, lo, hi, hi] x [lo, hi, lo, hi], every endpoint split twice."""
    shape = (4,) + np.broadcast_shapes(x.lo.shape, np.shape(blo))
    a, b = np.empty(shape), np.empty(shape)
    a[:2], a[2:], b[0::2], b[1::2] = x.lo, x.hi, blo, bhi
    lo, hi = _mul_bounds_reference(a, b)
    return lo.min(axis=0), hi.max(axis=0)


endpoint_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1e300, -1e300, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


def _draw_intervals(data, shape):
    ends = np.array(data.draw(st.lists(st.tuples(endpoint_floats, endpoint_floats),
                                       min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
    ends = ends.reshape(shape + (2,))
    return IntervalArray(ends.min(axis=-1), ends.max(axis=-1))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # +-1e300 products overflow
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interval_array_mul_matches_four_stack(data):
    """The (2, 1) x (1, 2) outer product, which splits each endpoint once,
    gives the four-stack product bit for bit, signed zeros included, for
    zeros, subnormals, +-1e300 and broadcasting (scalar Interval, 0-d, row,
    column and matrix operands)."""
    k, q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    sx, sy = data.draw(st.sampled_from([((k,), (k,)), ((k, 1), (q,)), ((k, 1), (1, q)), ((k,), ()),
                                        ((), (q,)), ((q, k), (k,)), ((k,), (q, k)), ((k, q), (k, q))]))
    x = _draw_intervals(data, sx)
    y = _draw_intervals(data, sy)
    others = [(y, y.lo, y.hi)]
    if y.ndim == 0:
        others.append((Interval(float(y.lo), float(y.hi)), float(y.lo), float(y.hi)))
    for other, blo, bhi in others:
        lo, hi = _mul_four_stack(x, blo, bhi)
        got = x * other
        assert got.shape == lo.shape
        assert _bits(got.lo) == _bits(lo) and _bits(got.hi) == _bits(hi)


def _random_interval_product(seed, n):
    """Interval A (k x n) and X (n x q), entries of mixed magnitude, a third
    point intervals, some straddling zero."""
    rng = np.random.default_rng(seed)
    k, q = rng.integers(1, 4, size=2)

    def box(shape):
        mid = _mixed_floats(rng, shape)
        scale = np.choose(rng.integers(0, 3, shape), [0.0, rng.uniform(0, 1e-6, shape), rng.uniform(0, 2, shape)])
        rad = np.abs(mid) * scale
        return IntervalArray(mid - rad, mid + rad)

    return box((k, n)), box((n, q))


def _interval_kernel_misses(A, X) -> int:
    """Entries of matmul(A, X) that miss the exact range of a @ x over A, X
    (each term's range is the hull of its four exact endpoint products)."""
    out = iv.matmul(A, X)
    misses = 0
    for i in range(A.shape[0]):
        for j in range(X.shape[1]):
            lo = hi = Fraction(0)
            for al, ah, xl, xh in zip(A.lo[i], A.hi[i], X.lo[:, j], X.hi[:, j]):
                prods = [Fraction(a) * Fraction(x) for a in (al, ah) for x in (xl, xh)]
                lo, hi = lo + min(prods), hi + max(prods)
            misses += not (Fraction(out.lo[i, j]) <= lo and hi <= Fraction(out.hi[i, j]))
    return misses


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 45), st.integers(0, 2**32 - 1), st.sampled_from([4096, 1, 5, 16]))
def test_interval_matmul_encloses_exact_product(n, seed, slab):
    """The endpoint interval x interval product contains the exact range for
    1..45 inner dimensions, with the default slab and with slabs of 1, 5 and
    16 products (so the inner index crosses slab boundaries)."""
    A, X = _random_interval_product(seed, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iv, "_SLAB", slab)
        assert _interval_kernel_misses(A, X) == 0


@pytest.mark.parametrize("slab", [4096, 5])
def test_interval_matmul_equals_scalar_interval_product(slab, monkeypatch):
    """The endpoint product adds left to right across slab boundaries, so
    it equals numpy's object ``@`` over scalar Intervals bit for bit."""
    monkeypatch.setattr(iv, "_SLAB", slab)
    for n in (1, 2, 9, 10, 11, 41):
        A, X = _random_interval_product(n, n)
        ref = IntervalArray.from_object(A.to_object() @ X.to_object())
        got = iv.matmul(A, X)
        assert _bits(got.lo) == _bits(ref.lo) and _bits(got.hi) == _bits(ref.hi)
        rows = A.to_object()
        ref = IntervalArray.from_object([sum(row[1:], row[0]) for row in rows])
        got = iv.sum_in_order(A, 1)
        assert _bits(got.lo) == _bits(ref.lo) and _bits(got.hi) == _bits(ref.hi)


@pytest.mark.parametrize("slab", [4096, 5])
def test_interval_matmul_vectors_equal_scalar_interval_product(slab, monkeypatch):
    """Vector . vector gives the scalar Interval dot product, and vector x
    matrix and matrix x vector the object products, bit for bit, through
    ``matmul`` and ``@``."""
    monkeypatch.setattr(iv, "_SLAB", slab)
    for n in (1, 2, 9, 11):
        A, X = _random_interval_product(n, n)
        u, v = A[0], X[:, 0]
        ref = sum((a * b for a, b in zip(u.to_object()[1:], v.to_object()[1:])), u.to_object()[0] * v.to_object()[0])
        for got in (iv.matmul(u, v), u @ v):
            assert isinstance(got, Interval)
            assert _bits(got.lo) == _bits(ref.lo) and _bits(got.hi) == _bits(ref.hi)
        for got, ref in ((u @ X, u.to_object() @ X.to_object()), (A @ v, A.to_object() @ v.to_object())):
            ref = IntervalArray.from_object(ref)
            assert got.shape == ref.shape
            assert _bits(got.lo) == _bits(ref.lo) and _bits(got.hi) == _bits(ref.hi)


def test_interval_matmul_default_slab_boundaries():
    """20 x n times n x 20 runs slabs of 10 inner indices under the default
    slab size; n = 9..11, 20 and 41 sit on and around the boundaries."""
    for n in (9, 10, 11, 20, 41):
        A, X = (IntervalArray(m - r, m + r) for m, r in (
            (RNG.normal(size=s), np.abs(RNG.normal(size=s)) * 1e-3) for s in ((20, n), (n, 20))))
        assert iv._SLAB // 400 == 10
        assert _interval_kernel_misses(A, X) == 0


def test_interval_matmul_without_outward_rounding_fails(monkeypatch):
    """Planted fault: with _up_arr made the identity the exact-range check
    must catch the unrounded upper endpoints."""
    cases = [_random_interval_product(seed, 45) for seed in range(12)]
    assert sum(_interval_kernel_misses(A, X) for A, X in cases) == 0
    monkeypatch.setattr(iv, "_up_arr", lambda x: x)
    assert sum(_interval_kernel_misses(A, X) for A, X in cases) > 0


def test_contraction_defect_bounds_exact_norm():
    for _ in range(5):
        M = RNG.normal(size=(6, 6)) + 3.0 * np.eye(6)
        R = np.linalg.inv(M)
        exact = max(
            sum(abs((1 if i == j else 0) - sum(Fraction(R[i, k]) * Fraction(M[k, j]) for k in range(6)))
                for j in range(6))
            for i in range(6)
        )
        beta = iv.contraction_defect(R, IntervalArray(M))
        assert exact <= Fraction(beta) and beta < 1e-12


# -- stacked complex determinants ---------------------------------------------


def _det_stack(seed, n, B, thin=True):
    """Stack re + i im of B random complex n x n interval matrices (point
    matrices when ``thin`` is False).  Matrix 0 has an exactly zero pivot
    column, so it takes the cofactor (n <= 5) or Hadamard (n > 5) fallback;
    matrix 1 mixes entries of +-1e200 and 1e-200 into ordinary ones."""
    rng = np.random.default_rng(seed)
    mid = rng.normal(size=(2, B, n, n))
    mid[:, 0, :, rng.integers(n)] = 0.0
    if B > 1:
        mid[:, 1] *= rng.choice([1.0, 1e200, -1e200, 1e-200], size=(n, n))
    rad = np.zeros_like(mid)
    if thin:
        rad = np.abs(mid) * np.where(rng.uniform(size=mid.shape) < 0.5, 0.0, rng.uniform(0, 1e-9, mid.shape))
    return IntervalArray(mid[0] - rad[0], mid[0] + rad[0]), IntervalArray(mid[1] - rad[1], mid[1] + rad[1])


def _exact_cdet(re, im) -> tuple:
    """Exact determinant of the point matrix re + i im as (Fraction, Fraction),
    by fraction-free (Bareiss) elimination over the Gaussian integers."""
    n = len(re)
    entries = [[(Fraction(re[i][j]), Fraction(im[i][j])) for j in range(n)] for i in range(n)]
    scale = max(x.denominator for row in entries for z in row for x in z)  # a power of two
    A = [[(int(x * scale), int(y * scale)) for x, y in row] for row in entries]

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    sign, prev = 1, (1, 0)
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][k] != (0, 0)), None)
        if p is None:
            return Fraction(0), Fraction(0)
        if p != k:
            A[k], A[p] = A[p], A[k]
            sign = -sign
        norm = prev[0] ** 2 + prev[1] ** 2
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a, b = mul(A[k][k], A[i][j]), mul(A[i][k], A[k][j])
                num = mul((a[0] - b[0], a[1] - b[1]), (prev[0], -prev[1]))
                A[i][j] = (num[0] // norm, num[1] // norm)  # exact (Bareiss)
        prev = A[k][k]
    return Fraction(sign * prev[0], scale**n), Fraction(sign * prev[1], scale**n)


def _contains_exact(lo: float, hi: float, x: Fraction) -> bool:
    return (lo == -math.inf or Fraction(lo) <= x) and (hi == math.inf or x <= Fraction(hi))


def _det_misses(re, im) -> int:
    """Point matrices of the stack whose determinant enclosure misses the
    exact determinant."""
    dre, dim = complex_det_enclosure((re, im))
    misses = 0
    for b in range(re.shape[0]):
        xr, xi = _exact_cdet(re.lo[b].tolist(), im.lo[b].tolist())
        misses += not (_contains_exact(dre.lo[b], dre.hi[b], xr) and _contains_exact(dim.lo[b], dim.hi[b], xi))
    return misses


def _ends(*parts) -> bytes:
    return np.array([[x.lo, x.hi] for x in parts], dtype=float).tobytes()


class TestStackedComplexDet:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stack_slices_equal_single_calls(self):
        """Each slice of a stacked call is bit for bit the single-matrix call,
        through row swaps, both fallbacks and over/underflowing entries."""
        for n in range(1, 13):
            re, im = _det_stack(100 + n, n, B=5)
            dre, dim = complex_det_enclosure((re, im))
            assert dre.shape == dim.shape == (5,)
            assert not (np.isnan(dre.lo).any() or np.isnan(dre.hi).any() or np.isnan(dim.lo).any() or np.isnan(dim.hi).any())
            for b in range(5):
                M = [[ComplexInterval(re[b, i, j], im[b, i, j]) for j in range(n)] for i in range(n)]
                single = complex_det_enclosure(M)
                assert _ends(single.re, single.im) == _ends(dre[b], dim[b]), (n, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stack_contains_exact_determinants(self):
        for n in range(1, 13):
            re, im = _det_stack(200 + n, n, B=5, thin=False)
            assert _det_misses(re, im) == 0, n

    def test_stack_shape_errors(self):
        re, im = _det_stack(1, 3, B=2)
        with pytest.raises(ShapeError):
            complex_det_enclosure((re, im[:, :2]))
        with pytest.raises(ShapeError):
            complex_det_enclosure((re[0], im[0]))

    def test_lu_without_outward_rounding_fails(self, monkeypatch):
        """Planted fault: with the array outward rounding made the identity,
        the exact-determinant check must catch the LU's rounding errors."""
        cases = [_det_stack(300 + n, n, B=6, thin=False) for n in range(4, 9)]
        assert sum(_det_misses(re, im) for re, im in cases) == 0
        monkeypatch.setattr(iv, "_up_arr", lambda x: x)
        monkeypatch.setattr(iv, "_down_arr", lambda x: x)
        assert sum(_det_misses(re, im) for re, im in cases) > 0
