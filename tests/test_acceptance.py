"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import os
import time

import numpy as np
import pytest

from vortexcert import catalog as cat
from vortexcert import continuation as cont
from vortexcert import intervals as iv
from vortexcert import model as md
from vortexcert import stability as stab
from vortexcert.intervals import Interval

SEED = int(os.environ.get("VORTEX_CERT_SEED", "0"))
RNG = np.random.default_rng(SEED)


def report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


# --------------------------------------------------------------------------
# 1. Equilibrium certification for N in {8, 9, 10, 11}
# --------------------------------------------------------------------------


def test_criterion_1_equilibria():
    names = {"antiprism8": 8, "triaugmented9": 9, "gyro10": 10, "eq11": 11}
    times = {}
    for name, N in names.items():
        t0 = time.time()
        verdict = stab.stability_test(cat.fixture_interval(name), 0.0)
        times[name] = time.time() - t0
        assert verdict.verdict == "CertifiedStable", (name, verdict.reason)
        assert verdict.kernel_real_dim == 2, name
        assert times[name] < 120.0, (name, times[name])
    detail = ", ".join(f"N={N}: {times[n]:.1f}s" for n, N in names.items())
    report(1, True, f"all four equilibria certified stable with 2-dim kernel in M1 ({detail})")


# --------------------------------------------------------------------------
# 2. The analytic 7-vortex blocks
# --------------------------------------------------------------------------


def test_criterion_2_n7_matrices():
    kappa = None
    for z in (0.05, 0.10, 0.15):
        ring, omega = cat.one_ring_family(5, 2, z)
        a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        hess = md.full_hstar_hessian(a, omega).matrix
        basis = stab.build_slice(ring, a, normalize=False)
        blocks = {b.l: b for b in stab.assemble_blocks(basis, hess)}
        Q2 = blocks[2].mid()
        if kappa is None:
            kappa = Q2[0, 0].real / 15.0
        ref2 = kappa * np.diag([15.0, 15.0 * z * z])
        assert np.max(np.abs(Q2 - ref2)) <= 1e-8 * max(1.0, np.max(np.abs(ref2)))
        det1 = np.linalg.det(blocks[1].mid()).real
        ref1 = (kappa ** 3) * (9375.0 / 2.0) * z**2 * (35.0 * z**4 - 86.0 * z**2 + 3.0)
        assert abs(det1 - ref1) <= 1e-6 * abs(ref1)
    assert abs(kappa - stab.N7_BLOCK_SCALE) <= 1e-10
    report(2, True, f"mode-2 block kappa*diag(15, 15z^2) and det of mode-1 block reproduced, kappa = {kappa:.12g}")


# --------------------------------------------------------------------------
# 3. The 7-vortex stability boundary
# --------------------------------------------------------------------------


def _q1_smallest_sign(z) -> int:
    """Certified sign of the smallest mode-1 eigenvalue at family height z."""
    ring, omega = cat.one_ring_family(5, 2, z)
    v = stab.stability_test(ring, omega, mu_zero=False)
    if v.verdict == "CertifiedStable":
        return 1
    if v.verdict == "NotPositive" and v.failing_block == 1:
        return -1
    raise RuntimeError(f"sign not certified at z = {z}: {v.verdict} {v.reason}")


def test_criterion_3_n7_boundary():
    z_star = cat.threshold("p2", 7)
    lo, hi = 0.1875, 0.1890
    assert _q1_smallest_sign(lo) == 1 and _q1_smallest_sign(hi) == -1
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if _q1_smallest_sign(mid) == 1:
            lo = mid
        else:
            hi = mid
    assert lo <= z_star <= hi
    v_in = stab.stability_test(*cat.one_ring_family(5, 2, 0.15), mu_zero=False)
    v_out = stab.stability_test(*cat.one_ring_family(5, 2, 0.20), mu_zero=False)
    assert v_in.verdict == "CertifiedStable" and v_out.verdict == "NotPositive"
    report(
        3,
        True,
        f"smallest mode-1 eigenvalue changes sign inside [{lo:.8f}, {hi:.8f}] "
        f"(width {hi-lo:.2e} <= 1e-6) containing z* = {z_star:.8f}",
    )


# --------------------------------------------------------------------------
# 4. Desk-scale branch reproduction: N = 5 over omega in [0.2, 0.3]
# --------------------------------------------------------------------------


def test_criterion_4_n5_branch():
    t0 = time.time()
    seed = cat.fixture("bipyramid5", (2, 2, 1))
    res = cont.continue_branch(seed, 0.2, 0.3, seed_omega=0.0)
    assert res.status == "completed"
    for c in res.certificates:
        mu = c.mu_enclosure()
        assert 0.18 <= mu.lo and mu.hi <= 0.98, c.omega_interval
        sv = stab.stability_over_segment(c)
        assert sv.verdict == "CertifiedStable" and sv.whole_segment, (c.omega_interval, sv.reason)
    wall = time.time() - t0
    assert wall < 300.0
    report(
        4,
        True,
        f"{len(res.certificates)} segments over [0.2, 0.3] certified stable, momentum inside "
        f"[0.18, 0.98], {wall:.0f}s < 300s",
    )


# --------------------------------------------------------------------------
# 5. One-ring stability thresholds
# --------------------------------------------------------------------------


def test_criterion_5_one_ring_thresholds():
    half_bracket = 5e-5
    checked = []
    for N in range(4, 10):
        z_star = cat.threshold("p1", N)
        for side, expected in ((-half_bracket, "NotPositive"), (half_bracket, "CertifiedStable")):
            ring, omega = cat.one_ring_family(N - 1, 1, z_star + side)
            v = stab.stability_test(ring, omega, mu_zero=False)
            assert v.verdict == expected, ("p1", N, side, v.verdict, v.reason)
        checked.append(f"p1/N={N}")
    for N in (4, 5, 6):
        z_star = cat.threshold("p0", N)
        for side, expected in ((-half_bracket, "NotPositive"), (half_bracket, "CertifiedStable")):
            ring, omega = cat.one_ring_family(N, 0, z_star + side)
            v = stab.stability_test(ring, omega, mu_zero=False)
            assert v.verdict == expected, ("p0", N, side, v.verdict, v.reason)
        checked.append(f"p0/N={N}")
    report(5, True, f"verdict flips across z* within +-{half_bracket:g} for {', '.join(checked)}")


# --------------------------------------------------------------------------
# 6. Bifurcation detection on the 8-vortex branch
# --------------------------------------------------------------------------


def test_criterion_6_n8_bifurcation_stall():
    t0 = time.time()
    seed = cat.fixture("antiprism8", (2, 4, 0))
    res = cont.continue_branch(seed, 1.58, 1.70, seed_omega=0.0)
    assert res.status == "stalled"
    assert 1.55 <= res.stall_omega <= 1.70
    report(
        6,
        True,
        f"segment validation stalls at omega = {res.stall_omega:.4f} in [1.55, 1.70] "
        f"({time.time()-t0:.0f}s)",
    )


# --------------------------------------------------------------------------
# 7. Property suites
# --------------------------------------------------------------------------


def test_criterion_7a_derivative_oracles():
    from test_model import fd_grad_h, fd_hess_h, random_ring

    cases = [(2, 2, 0), (3, 2, 1), (4, 1, 2), (5, 2, 0), (3, 3, 0)]
    for k in range(50):
        m, n, p = cases[k % len(cases)]
        u = np.asarray(random_ring(m, n, p).generators, dtype=float)
        assert np.max(np.abs(np.asarray(md.grad_h(u, m, p), dtype=float) - fd_grad_h(u, m, p))) <= 1e-6
        assert np.max(np.abs(np.asarray(md.hess_h(u, m, p), dtype=float) - fd_hess_h(u, m, p))) <= 1e-5
    report("7a", True, "gradient and Hessian match finite differences on 50 random ring systems")


def test_criterion_7b_conservation():
    from test_model import random_ring

    v0 = np.asarray(random_ring(1, 5, 0, z_cap=0.85).generators, dtype=float)
    H0 = md.hamiltonian_H(v0)
    P0 = np.asarray(md.momentum_Phi(v0), dtype=float)
    v1 = md.integrate_full_rk4(v0, md.VortexParameters(), 1.0, 1e-3)
    dH = abs(md.hamiltonian_H(v1) - H0)
    dP = np.max(np.abs(np.asarray(md.momentum_Phi(v1), dtype=float) - P0))
    assert dH <= 1e-8 and dP <= 1e-8
    report("7b", True, f"H and Phi conserved under RK4 to 1e-8 (drift {dH:.1e}, {dP:.1e})")


def test_criterion_7c_flow_conjugacy():
    from test_model import random_ring

    ring = random_ring(3, 2, 1)
    u0 = np.asarray(ring.generators, dtype=float)
    v0 = np.asarray(md.lift_rho(ring).vectors, dtype=float)
    u1 = md.integrate_reduced_rk4(u0, 3, 1, 1.0, 1e-3)
    v1 = md.integrate_full_rk4(v0, md.VortexParameters(), 1.0, 1e-3)
    lifted = np.asarray(md.lift_rho(md.RingSystem(3, 2, 1, u1, check=False)).vectors, dtype=float)
    err = np.max(np.abs(lifted - v1))
    assert err <= 1e-6
    report("7c", True, f"ring reduction conjugates the flows (sup error {err:.1e} <= 1e-6)")


def test_criterion_7d_isotypic_orthogonality():
    from test_model import random_ring

    worst = 0.0
    for mnp in ((3, 2, 1), (4, 2, 0), (5, 1, 2), (2, 3, 1)):
        ring = random_ring(*mnp)
        a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        hess = md.full_hstar_hessian(a, 0.4).matrix
        basis = stab.build_slice(ring, a)
        for b1 in basis.blocks:
            for b2 in basis.blocks:
                if b1.l == b2.l:
                    continue
                for c1 in b1.columns:
                    for c2 in b2.columns:
                        for p1 in (c1.re, c1.im):
                            for p2 in (c2.re, c2.im):
                                if p1 is None or p2 is None:
                                    continue
                                val = abs(p1 @ hess @ p2)
                                scale = max(np.linalg.norm(p1) * np.linalg.norm(p2), 1.0)
                                worst = max(worst, val / scale)
    assert worst <= 1e-9
    report("7d", True, f"isotypic blocks decouple (worst cross term {worst:.1e} <= 1e-9)")


def test_criterion_7e_hermitian_doubling():
    from test_model import random_ring

    worst = 0.0
    for m in (3, 4, 5):
        ring = random_ring(m, 2, 0)
        a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        hess = md.full_hstar_hessian(a, 0.3).matrix
        basis = stab.build_slice(ring, a, normalize=False)
        blocks = stab.assemble_blocks(basis, hess)
        for bas, blk in zip(basis.blocks, blocks):
            if blk.kind != "Q":
                continue
            cols = []
            for c in bas.columns:
                cols.extend((c.re, c.im))
            P = np.array(cols).T
            p_eig = np.sort(np.linalg.eigvalsh((P.T @ hess @ P + (P.T @ hess @ P).T) / 2))
            q_eig = np.sort(np.linalg.eigvalsh(blk.mid()))
            err = np.max(np.abs(p_eig - np.sort(np.repeat(q_eig / 2, 2))))
            worst = max(worst, err / max(1.0, np.max(np.abs(q_eig))))
    assert worst <= 1e-9
    report("7e", True, f"Hermitian block spectra double into the real blocks (error {worst:.1e})")


def test_criterion_7f_winding_oracle_200():
    count = 0
    t0 = time.time()
    while count < 200:
        d = int(RNG.integers(2, 13))
        A = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        M = (A + A.conj().T) / 2
        lam = np.sort(np.linalg.eigvalsh(M))
        center = float(RNG.uniform(lam[0] - 1.0, lam[-1] + 1.0))
        eps = float(RNG.uniform(0.05, 1.5))
        edges = np.array([center - eps, center + eps])
        if min(np.min(np.abs(lam - e)) for e in edges) < 0.05:
            continue
        expect = int(np.sum((lam > center - eps) & (lam < center + eps)))
        blk = stab.BlockMatrix(l=0, kind="Q", re=M.real, im=M.imag)
        got = stab.count_eigenvalues_winding(blk, center, eps, mesh=4)
        assert got == expect, (d, center, eps, got, expect)
        count += 1
    report("7f", True, f"winding counts match the eigensolver on 200 random Hermitian matrices ({time.time()-t0:.0f}s)")


def test_criterion_7g_interval_fuzz():
    n = 100_000
    ms = RNG.normal(size=(n, 2)) * 10
    rs = np.abs(RNG.normal(size=(n, 2)))
    ts = np.sort(RNG.uniform(0, 1, size=(n, 4)), axis=1)
    ops_idx = RNG.integers(0, 4, size=n)
    for k in range(n):
        A = Interval(ms[k, 0] - rs[k, 0], ms[k, 0] + rs[k, 0])
        B = Interval(ms[k, 1] - rs[k, 1], ms[k, 1] + rs[k, 1])
        a = Interval(A.lo + ts[k, 0] * (A.hi - A.lo), A.lo + ts[k, 1] * (A.hi - A.lo))
        b = Interval(B.lo + ts[k, 2] * (B.hi - B.lo), B.lo + ts[k, 3] * (B.hi - B.lo))
        op = ops_idx[k]
        if op == 0:
            big, small = A + B, a + b
        elif op == 1:
            big, small = A - B, a - b
        elif op == 2:
            big, small = A * B, a * b
        else:
            if B.contains_zero():
                continue
            big, small = A / B, a / b
        assert small.issubset(big)
    report("7g", True, "inclusion monotonicity holds on 1e5 random nested interval pairs")


# --------------------------------------------------------------------------
# 8. Near-collision certification
# --------------------------------------------------------------------------


def _certify_collision(name):
    entry = cat.fixture_entry(name)
    ring = cat.fixture(name)
    pt = cont.seed_point(ring, entry.omega)
    b0 = np.asarray(pt.u, dtype=float)
    x = cont.newton_polish(pt.flat(), entry.omega, b0, ring.m, ring.p)
    pc = cont.nk_validate_point(cont.AugmentedPoint.from_flat(x, entry.omega), b0, ring.m, ring.p)
    shift = np.max(np.abs(x[: 3 * ring.n] - pt.flat()[: 3 * ring.n]))
    return pc, shift + pc.coordinate_tolerance()


def test_criterion_8_near_collision():
    pc10, tol10 = _certify_collision("collision10")
    assert tol10 <= 4e-13
    pc12, tol12 = _certify_collision("collision12")
    assert tol12 <= 3e-13
    v12 = stab.stability_test(pc12.ring_enclosure(), pc12.point.omega, mu_zero=False)
    assert v12.verdict == "CertifiedStable"
    pc11, tol11 = _certify_collision("collision11")
    assert tol11 <= 6e-11
    v11 = stab.stability_test(pc11.ring_enclosure(), pc11.point.omega, mu_zero=False)
    assert v11.verdict in ("CertifiedStable", "Inconclusive")
    report(
        8,
        True,
        f"near-collision states re-certified (N=10 to {tol10:.1e}, N=12 to {tol12:.1e}, "
        f"N=11 to {tol11:.1e}); N=12 stability CertifiedStable; N=11 verdict {v11.verdict}",
    )
