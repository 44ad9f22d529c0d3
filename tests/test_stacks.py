"""Stacked (leading batch axis) calls of the model kernels, the augmented
map, Newton polishing, segment validation and the tube check (slice,
blocks, invertibility) against one call per member: every member of a
stack must equal its own call bit for bit."""

import os

import numpy as np
import pytest

from vortexcert import catalog as cat
from vortexcert import continuation as cont
from vortexcert import intervals as iv
from vortexcert import model as md
from vortexcert import stability as stab
from vortexcert.intervals import Interval, IntervalArray

from test_model import random_ring

SEED = int(os.environ.get("VORTEX_CERT_SEED", "0"))
SIGNATURES = [(2, 2, 1), (3, 2, 0), (5, 1, 2), (4, 3, 1), (1, 5, 0)]


def _bits(x):
    """The exact bytes of a float or interval result (and of each field of
    a tuple of them)."""
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, IntervalArray):
        return x.lo.tobytes() + x.hi.tobytes()
    return np.asarray(x, dtype=float).tobytes()


def _member(x, b):
    return tuple(v[b] for v in x) if isinstance(x, tuple) else x[b]


def _assert_stack_matches(stacked, singles):
    """Member b of the stacked result equals the b-th single result bit for
    bit."""
    assert len(singles) > 1
    for b, single in enumerate(singles):
        assert _bits(_member(stacked, b)) == _bits(single), f"member {b} differs"


def _stack(items):
    if isinstance(items[0], IntervalArray):
        return IntervalArray(np.stack([x.lo for x in items]), np.stack([x.hi for x in items]))
    return np.stack(items)


def _generators(m, n, p, interval, rng, B=4):
    """B generator sets (float) or small boxes around them (interval)."""
    out = []
    for _ in range(B):
        u = random_ring(m, n, p, rng).generators
        out.append(IntervalArray(u - 1e-7, u + 2e-7) if interval else u)
    return out


def _check_kernels(m, n, p, interval, rng):
    """Stacked against single calls of every model kernel with a batch axis."""
    us = _generators(m, n, p, interval, rng)
    lams = [rng.normal(size=n) for _ in us]
    omegas = rng.uniform(0.1, 2.0, size=len(us))
    iv_omega = IntervalArray(omegas, omegas + 1e-9) if interval else omegas
    omega_of = (lambda b: Interval(omegas[b], omegas[b] + 1e-9)) if interval else (lambda b: omegas[b])
    U = _stack(us)
    _assert_stack_matches(md._source_differences(U, m, p), [md._source_differences(u[None], m, p) for u in us])
    D, s = md._source_differences(U, m, p)
    L = md._rotation_frames(m, interval)[md._pair_tables(m, n, p)[1]]
    for joint in (False, True):
        _assert_stack_matches(
            md._frame_blocks(L, D, s, s * s, joint),
            [md._frame_blocks(L, D[b], s[b], s[b] * s[b], joint) for b in range(len(us))],
        )
    _assert_stack_matches(md.grad_h(U, m, p), [md.grad_h(u, m, p) for u in us])
    _assert_stack_matches(md.hess_h(U, m, p), [md.hess_h(u, m, p) for u in us])
    lam = np.stack(lams)
    _assert_stack_matches(
        md.grad_hstar(U, lam, iv_omega, m, p), [md.grad_hstar(u, l, omega_of(b), m, p) for b, (u, l) in enumerate(zip(us, lams))]
    )
    _assert_stack_matches(
        md.hess_hstar(U, lam, iv_omega, m, p), [md.hess_hstar(u, l, omega_of(b), m, p) for b, (u, l) in enumerate(zip(us, lams))]
    )
    # the full-space Hessian on the lifted configurations
    vs = [md.lift_rho(md.RingSystem(m, n, p, u.to_object() if interval else u, check=False)).vectors for u in us]
    vs = [IntervalArray.from_object(v) if interval else v for v in vs]
    full = md.full_hstar_hessian(_stack(vs), iv_omega)
    singles = [md.full_hstar_hessian(v, omega_of(b)) for b, v in enumerate(vs)]
    _assert_stack_matches(full.matrix, [r.matrix for r in singles])
    _assert_stack_matches(full.multipliers, [r.multipliers for r in singles])
    assert full.residual.tolist() == [r.residual for r in singles]
    assert full.critical.tolist() == [r.critical for r in singles]
    # the augmented map and its Jacobian, flat points with alpha != 0
    b0 = random_ring(m, n, p, rng).generators
    xs = [np.concatenate([np.asarray(u.mid if interval else u).reshape(-1), l, [0.01 * (b + 1)]]) for b, (u, l) in enumerate(zip(us, lams))]
    if interval:
        xs = [IntervalArray(x - 1e-9, x + 1e-9).to_object() for x in xs]
    X = np.stack(xs)
    _assert_stack_matches(
        cont.augmented_map_F(X, iv_omega, b0, m, p), [cont.augmented_map_F(x, omega_of(b), b0, m, p) for b, x in enumerate(xs)]
    )
    _assert_stack_matches(
        cont.jacobian_F(X, iv_omega, b0, m, p), [cont.jacobian_F(x, omega_of(b), b0, m, p) for b, x in enumerate(xs)]
    )


@pytest.mark.parametrize("interval", [False, True], ids=["float", "interval"])
@pytest.mark.parametrize("mnp", SIGNATURES)
def test_kernels_stacked_equal_single(mnp, interval):
    _check_kernels(*mnp, interval, np.random.default_rng(SEED + 18))


def test_planted_batch_axis_fault_is_caught(monkeypatch):
    """A _source_differences that evaluates its stack in reverse order is
    still right for one-element stacks, so only the stacked comparison can
    see it."""
    honest = md._source_differences
    u = random_ring(2, 2, 1, np.random.default_rng(SEED)).generators
    before = _bits(md.hess_h(u, 2, 1))

    def reversed_stack(U, m, p):
        return honest(U[::-1], m, p)

    monkeypatch.setattr(md, "_source_differences", reversed_stack)
    assert _bits(md.hess_h(u, 2, 1)) == before
    for interval in (False, True):
        with pytest.raises(AssertionError, match="differs"):
            _check_kernels(2, 2, 1, interval, np.random.default_rng(SEED + 18))


def _n5_points(count):
    """count + 1 polished points tiling a short certified bipyramid5
    segment, and the anchor."""
    seed = cat.fixture("bipyramid5", (2, 2, 1))
    cert = cont.continue_branch(seed, 0.28, 0.29, seed_omega=0.0).certificates[0]
    a, b = cert.x0, cert.x1
    t = np.arange(count + 1) / count
    w = a.omega + t * (b.omega - a.omega)
    starts = a.flat() + t[:, None] * (b.flat() - a.flat())
    return starts, w, cert.anchor


def test_newton_polish_stack_follows_each_point(monkeypatch):
    """Every point of a stack follows its own iteration sequence: the same
    iterates, in the same order and the same number, as its own call."""
    starts, w, b0 = _n5_points(6)
    rng = np.random.default_rng(SEED + 1)
    starts = starts + rng.normal(size=starts.shape) * np.logspace(-12, -4, len(starts))[:, None]
    seen = []
    evaluate = cont.augmented_map_F

    def spy(x, *args, **kwargs):
        seen.extend(np.atleast_2d(x))
        return evaluate(x, *args, **kwargs)

    monkeypatch.setattr(cont, "augmented_map_F", spy)
    single_iterates, singles = [], []
    for x0, omega in zip(starts, w):
        seen.clear()
        singles.append(cont.newton_polish(x0, omega, b0, 2, 1))
        single_iterates.append([x.tobytes() for x in seen])
    seen.clear()
    stacked = cont.newton_polish(starts, w, b0, 2, 1)
    _assert_stack_matches(stacked, singles)
    owner = {x: (b, k) for b, its in enumerate(single_iterates) for k, x in enumerate(its)}
    assert len(owner) == sum(map(len, single_iterates)), "iterates of different points coincide"
    per_point = [[] for _ in starts]
    for x in seen:
        b, k = owner[x.tobytes()]
        per_point[b].append(k)
    assert [len(its) for its in single_iterates] == [len(ks) for ks in per_point]
    assert len(set(map(len, per_point))) > 1, "the points should need different iteration counts"
    for ks in per_point:
        assert ks == list(range(len(ks)))


def test_newton_polish_stack_raises_first_failure():
    starts, w, b0 = _n5_points(4)
    bad = starts.copy()
    bad[2, :3] = [0.0, 0.0, 1.0]  # ring generator on the pole
    bad[3, :3] = [0.0, 0.0, -1.0]
    with pytest.raises(cont.NoConvergence) as single:
        cont.newton_polish(bad[2], w[2], b0, 2, 1, max_iter=12)
    with pytest.raises(cont.NoConvergence) as stacked:
        cont.newton_polish(bad, w, b0, 2, 1, max_iter=12)
    assert str(stacked.value) == str(single.value)


def test_nk_validate_segment_stack_mixes_pass_and_fail():
    """A stack of segments, some of which fail, gives per segment the
    certificate or failure of its own call: Y, Yhat, Z, r* and r0 bit for
    bit, failures with the same message and diagnostics."""
    starts, w, b0 = _n5_points(4)
    x = cont.newton_polish(starts, w, b0, 2, 1)
    pts = [cont.AugmentedPoint.from_flat(xi, wi) for xi, wi in zip(x, w.tolist())]
    far_w = w[0] + 0.05
    far = cont.AugmentedPoint.from_flat(cont.newton_polish(x[-1], far_w, b0, 2, 1), far_w)
    lefts = [pts[0], pts[1], pts[0], pts[2], pts[3], pts[1]]
    rights = [pts[1], pts[2], far, pts[3], pts[4], far]
    stacked = cont.nk_validate_segment(lefts, rights, b0, 2, 1)
    assert len(stacked) == len(lefts)
    kinds = []
    for a, b, got in zip(lefts, rights, stacked):
        try:
            want = cont.nk_validate_segment(a, b, b0, 2, 1)
        except cont.NotValidated as exc:
            want = exc
        kinds.append(type(want))
        assert type(got) is type(want)
        if isinstance(want, cont.NotValidated):
            assert str(got) == str(want)
            assert np.array_equal([got.Y, got.Yhat, got.Z], [want.Y, want.Yhat, want.Z], equal_nan=True)
        else:
            fields = lambda c: [c.bounds.Y, c.bounds.Yhat, c.bounds.Z, c.bounds.r_star, c.bounds.r0]
            assert np.array(fields(got)).tobytes() == np.array(fields(want)).tobytes()
            assert got.x0 is a and got.x1 is b
    assert cont.NotValidated in kinds and cont.BranchCertificate in kinds


# ---------------------------------------------------------------------------
# The tube check: build_slice, assemble_blocks and verify_invertible
# ---------------------------------------------------------------------------


def _columns(basis):
    """Every column part of a slice basis, block by block, as one tuple."""
    return tuple(part for blk in basis.blocks for col in blk.columns for part in (col.re, col.im) if part is not None)


def _block_parts(blocks):
    return tuple(part for blk in blocks for part in (blk.re, blk.im) if part is not None)


def _inverse_outcome(res):
    """An InverseEnclosure as its bits and defect, a NotVerified as its
    message and defect."""
    if isinstance(res, iv.NotVerified):
        return ("NotVerified", str(res), res.defect)
    return ("InverseEnclosure", _bits(res.inverse), res.defect)


def _single_inverse(M):
    try:
        return iv.verify_invertible(M)
    except iv.NotVerified as exc:
        return exc


def _check_tube_stack(m, n, p, interval, rng):
    """Stacked against single calls of lift_rho, build_slice,
    assemble_blocks and verify_invertible on B rings of one signature, one of them the first
    ring with its rings listed in reverse (so for n >= 2 the stack mixes
    ring orders)."""
    us = _generators(m, n, p, interval, rng)
    us.append(us[0][::-1])
    rings = [md.RingSystem(m, n, p, u, check=False) for u in us]
    vecs = [md.lift_rho(r).vectors for r in rings]
    if n >= 2 and m >= 2:
        orders = stab._ring_order(m, _stack(us))
        assert len({tuple(o) for o in orders.tolist()}) > 1
    lifted = md.lift_rho(rings)
    _assert_stack_matches(lifted, vecs)
    stacked = stab.build_slice(rings, lifted)
    singles = [stab.build_slice(r, v) for r, v in zip(rings, vecs)]
    _assert_stack_matches(_columns(stacked), [_columns(b) for b in singles])
    if m == 1:
        assert stacked.permutation == [b.permutation for b in singles]
    omegas = rng.uniform(0.1, 2.0, size=len(us))
    hess = []
    for v, basis, omega in zip(vecs, singles, omegas):
        v = v if basis.permutation is None else v[basis.permutation]
        hess.append(md.full_hstar_hessian(v, Interval(omega) if interval else omega).matrix)
    if m == 1:
        _assert_stack_matches(
            stab._slice_order(_stack(hess), stacked.permutation),
            [stab._slice_order(h, b.permutation) for h, b in zip(hess, singles)],
        )
    blocks = stab.assemble_blocks(stacked, _stack(hess))
    single_blocks = [stab.assemble_blocks(b, h) for b, h in zip(singles, hess)]
    _assert_stack_matches(_block_parts(blocks), [_block_parts(b) for b in single_blocks])
    assert [(blk.l, blk.kind, blk.size) for blk in blocks] == [(blk.l, blk.kind, blk.size) for blk in single_blocks[0]]
    for k, blk in enumerate(blocks):
        got = iv.verify_invertible(blk.realified())
        want = [_single_inverse(b[k].realified()) for b in single_blocks]
        assert [_inverse_outcome(r) for r in got] == [_inverse_outcome(r) for r in want], f"block {k} differs"


@pytest.mark.parametrize("interval", [False, True], ids=["float", "interval"])
@pytest.mark.parametrize("mnp", SIGNATURES)
def test_tube_check_stacked_equal_single(mnp, interval):
    _check_tube_stack(*mnp, interval, np.random.default_rng(SEED + 21))


def test_verify_invertible_stack_returns_each_failure():
    """A stack with a singular midpoint and a too wide member returns those
    members' NotVerified, each with the message and defect of its own call,
    and the other members their enclosures."""
    rng = np.random.default_rng(SEED)
    mats = [np.eye(4) * 2.0 + 0.1 * rng.normal(size=(4, 4)) for _ in range(5)]
    mats[1] = np.ones((4, 4))
    wide = IntervalArray(mats[0], mats[0])
    wide.lo[0, 0], wide.hi[0, 0] = -5.0, 5.0
    members = [IntervalArray(M - 1e-9, M + 1e-9) for M in mats]
    members[3] = wide
    got = iv.verify_invertible(_stack(members))
    want = [_single_inverse(M) for M in members]
    assert [_inverse_outcome(r) for r in got] == [_inverse_outcome(r) for r in want]
    assert [type(r) for r in got] == [iv.InverseEnclosure, iv.NotVerified, iv.InverseEnclosure, iv.NotVerified, iv.InverseEnclosure]
    assert got[3].defect >= 1.0 and np.isinf(got[1].defect)
    # without the singular member the stack is inverted in one call
    rest = [M for k, M in enumerate(members) if k != 1]
    assert [_inverse_outcome(r) for r in iv.verify_invertible(_stack(rest))] == [
        _inverse_outcome(r) for k, r in enumerate(want) if k != 1
    ]
    with pytest.raises(iv.NotVerified) as single:
        iv.verify_invertible(wide)
    assert single.value.defect == got[3].defect


@pytest.mark.parametrize(
    "module, name",
    [(stab, "_fourier_table"), (iv, "contraction_defect")],
    ids=["slice", "invertibility"],
)
def test_planted_tube_stack_fault_is_caught(monkeypatch, module, name):
    """A step that returns its stack members in reverse order leaves single
    calls right, so only the stacked comparison can see it."""
    honest = getattr(module, name)
    rng = np.random.default_rng(SEED)
    ring = random_ring(2, 2, 1, rng)
    a = md.lift_rho(ring).vectors
    blocks = stab.assemble_blocks(stab.build_slice(ring, a), md.full_hstar_hessian(a, 0.4).matrix)
    before = _columns(stab.build_slice(ring, a)), [_inverse_outcome(_single_inverse(b.realified())) for b in blocks]

    def reversed_members(*args):
        out = honest(*args)
        return out[:, :, :, ::-1] if name == "_fourier_table" else out[::-1]

    monkeypatch.setattr(module, name, reversed_members)
    after = _columns(stab.build_slice(ring, a)), [_inverse_outcome(_single_inverse(b.realified())) for b in blocks]
    assert _bits(before[0]) == _bits(after[0]) and before[1] == after[1]
    for interval in (False, True):
        with pytest.raises(AssertionError, match="differs"):
            _check_tube_stack(2, 2, 1, interval, np.random.default_rng(SEED + 21))
