"""Vortex model: hand-computed values, symmetry identities, finite-difference
oracles, conservation under integration, and reduction/flow conjugacy."""

import math
import os

import numpy as np
import pytest

from vortexcert import catalog as cat
from vortexcert import intervals as iv
from vortexcert import model as md
from vortexcert.intervals import DomainError, Interval, IntervalArray

SEED = int(os.environ.get("VORTEX_CERT_SEED", "0"))
RNG = np.random.default_rng(SEED)


def random_ring(m, n, p, rng=RNG, z_cap=0.75):
    """Well-separated ring generators away from the poles."""
    while True:
        gens = rng.normal(size=(n, 3))
        gens /= np.linalg.norm(gens, axis=1)[:, None]
        gens[:, 2] = np.clip(gens[:, 2], -z_cap, z_cap)
        gens /= np.linalg.norm(gens, axis=1)[:, None]
        try:
            ring = md.RingSystem(m, n, p, gens)
            md.reduced_h(ring)  # rejects hidden ring collisions
            return ring
        except DomainError:
            continue


def random_rotation(rng=RNG):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestHamiltonian:
    def test_antipodal_half_scale(self):
        v = np.array([[0.6, 0.0, 0.8], [-0.6, 0.0, -0.8]])
        assert math.isclose(md.hamiltonian_H(v), -math.log(2.0), rel_tol=1e-14)

    def test_rotation_invariance(self):
        ring = random_ring(3, 2, 1)
        v = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        for _ in range(5):
            g = random_rotation()
            assert abs(md.hamiltonian_H(v @ g.T) - md.hamiltonian_H(v)) <= 1e-12

    def test_permutation_invariance_exact(self):
        ring = random_ring(2, 2, 0)
        v = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        perm = RNG.permutation(v.shape[0])
        assert md.hamiltonian_H(v[perm]) == md.hamiltonian_H(v)

    def test_collision_rejected(self):
        v = np.array([[1.0, 0, 0], [1.0, 1e-12, 0]])
        with pytest.raises(DomainError):
            md.hamiltonian_H(v)


class TestMomentum:
    def test_antipodal_zero(self):
        v = np.array([[0.0, 0.6, 0.8], [0.0, -0.6, -0.8]])
        assert np.allclose(md.momentum_Phi(v), 0.0)

    def test_icosahedron_zero(self):
        full = md.lift_rho(cat.fixture("icosahedron"))
        assert np.max(np.abs(md.momentum_Phi(full))) <= 1e-12

    def test_pentagon_with_poles(self):
        z = 0.37
        ring, _ = cat.one_ring_family(5, 2, z)
        phi = md.momentum_Phi(md.lift_rho(ring))
        assert np.allclose(phi, [0.0, 0.0, 5 * z], atol=1e-13)


class TestRhs:
    def test_antipodal_pair_hand_value(self):
        x, z = 0.6, 0.8
        v = np.array([[x, 0.0, z], [-x, 0.0, z]])
        out = md.vortex_rhs(v)
        assert np.allclose(out[0], [0.0, z / (2 * x), 0.0], atol=1e-14)

    def test_fixtures_are_equilibria(self):
        for name in ("tetrahedron", "octahedron", "antiprism8", "triaugmented9", "gyro10", "icosahedron"):
            full = md.lift_rho(cat.fixture(name))
            assert np.max(np.abs(np.asarray(md.vortex_rhs(full), dtype=float))) <= 1e-10, name

    def test_output_tangent(self):
        ring = random_ring(4, 2, 1)
        v = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        out = np.asarray(md.vortex_rhs(v), dtype=float)
        assert np.max(np.abs(np.sum(out * v, axis=1))) <= 1e-12

    def test_matches_gradient_flow(self):
        """rhs equals -v_j x grad_j H at scale HALF (finite differences)."""
        ring = random_ring(3, 2, 0)
        v = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        out = np.asarray(md.vortex_rhs(v), dtype=float)
        h = 1e-6
        for j in range(v.shape[0]):
            grad = np.zeros(3)
            for c in range(3):
                vp, vm = v.copy(), v.copy()
                vp[j, c] += h
                vm[j, c] -= h
                grad[c] = (md.hamiltonian_H(vp) - md.hamiltonian_H(vm)) / (2 * h)
            assert np.allclose(out[j], -np.cross(v[j], grad), atol=1e-7)

    def test_equivariance_under_ring_symmetry(self):
        ring = random_ring(4, 2, 1)
        v = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        out = np.asarray(md.vortex_rhs(v), dtype=float)
        g = md.ring_rotations(4)[1]
        N = v.shape[0]
        perm = np.zeros(N, dtype=int)
        for j in range(2):
            for k in range(4):
                perm[j * 4 + k] = j * 4 + (k + 1) % 4
        perm[8] = 8
        rotated = (v @ g.T)[np.argsort(perm)]
        # the configuration is a fixed point of the combined action
        assert np.allclose(rotated, v, atol=1e-12)
        out_rot = (out @ g.T)[np.argsort(perm)]
        assert np.allclose(out_rot, out, atol=1e-12)

    def test_distinct_strengths_prefactor(self):
        v = np.array([[0.6, 0.0, 0.8], [-0.6, 0.0, 0.8]])
        params = md.VortexParameters(strengths=(1.0, 1.0))
        raw = np.asarray(md.vortex_rhs(v, params), dtype=float)
        scaled = np.asarray(md.vortex_rhs(v), dtype=float)
        assert np.allclose(raw, scaled / (4 * math.pi), atol=1e-14)


class TestAugmented:
    def test_omega_zero(self):
        ring = random_ring(2, 2, 1)
        v = md.lift_rho(ring)
        assert md.augmented_H(v, 0.0) == md.hamiltonian_H(v)

    def test_axial_rotation_invariance(self):
        ring = random_ring(3, 2, 0)
        v = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        th = RNG.uniform(0, 2 * math.pi)
        g = np.array(
            [[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1]]
        )
        assert abs(md.augmented_H(v @ g.T, 0.7) - md.augmented_H(v, 0.7)) <= 1e-12

    def test_pentagon_family_stationary(self):
        """d/dz H_omega = 0 along the latitudinal family at the family's omega."""
        z = 0.1
        omega = 3 * z / (1 - z * z)
        h = 1e-5
        vals = []
        for dz in (-h, 0.0, h):
            ring, _ = cat.one_ring_family(5, 2, z + dz)
            vals.append(md.augmented_H(md.lift_rho(ring), omega))
        deriv = (vals[2] - vals[0]) / (2 * h)
        assert abs(deriv) <= 1e-9


class TestReduction:
    def test_lift_m2_pair(self):
        ring = md.RingSystem(2, 1, 0, np.array([[1.0, 0.0, 0.0]]))
        v = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        assert np.allclose(v, [[-1, 0, 0], [1, 0, 0]], atol=1e-15)

    def test_lift_m1_identity(self):
        gens = np.asarray(random_ring(1, 4, 0).generators, dtype=float)
        ring = md.RingSystem(1, 4, 0, gens)
        assert np.allclose(np.asarray(md.lift_rho(ring).vectors, dtype=float), gens)

    def test_lift_fixed_by_symmetry(self):
        ring = random_ring(5, 2, 2)
        v = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        g = md.ring_rotations(5)[1]
        N = v.shape[0]
        perm = np.zeros(N, dtype=int)
        for j in range(2):
            for k in range(5):
                perm[j * 5 + k] = j * 5 + (k + 1) % 5
        perm[10], perm[11] = 10, 11
        assert np.allclose((v @ g.T)[np.argsort(perm)], v, atol=1e-12)

    def test_reduced_h_single_pair(self):
        x, z = 0.8, 0.6
        u = np.array([[x, 0.0, z]])
        expect = -0.5 * math.log(4 * (1 - z * z))
        assert math.isclose(md.reduced_h(u, 2, 0), expect, rel_tol=1e-13)
        u0 = np.array([[1.0, 0.0, 0.0]])
        assert math.isclose(md.reduced_h(u0, 2, 0), -math.log(2.0), rel_tol=1e-14)

    def test_reduced_h_so2_invariance(self):
        ring = random_ring(3, 2, 1)
        th = RNG.uniform(0, 2 * math.pi)
        g = np.array(
            [[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1]]
        )
        u2 = np.asarray(ring.generators, dtype=float) @ g.T
        assert abs(md.reduced_h(u2, 3, 1) - md.reduced_h(ring)) <= 1e-12

    @pytest.mark.parametrize("mnp", [(2, 2, 0), (3, 2, 1), (5, 1, 2), (4, 2, 2)])
    def test_h_equals_H_of_lift_up_to_pole_constant(self, mnp):
        m, n, p = mnp
        for _ in range(3):
            ring = random_ring(m, n, p)
            Cp = -0.5 * math.log(4.0) if p == 2 else 0.0
            lhs = md.hamiltonian_H(md.lift_rho(ring))
            assert abs(lhs - md.reduced_h(ring) - Cp) <= 1e-12

    def test_reduced_phi(self):
        x, z = 0.8, 0.6
        assert math.isclose(md.reduced_phi(np.array([[x, 0, z]]), 2, 0), 2 * z, rel_tol=1e-14)
        ring, _ = cat.one_ring_family(5, 1, 0.31)
        assert math.isclose(md.reduced_phi(ring), 5 * 0.31, rel_tol=1e-12)

    @pytest.mark.parametrize("mnp", [(2, 3, 0), (3, 2, 1), (4, 1, 2)])
    def test_phi_vs_full_momentum(self, mnp):
        m, n, p = mnp
        ring = random_ring(m, n, p)
        sigma = md.pole_offset(p)
        phi3 = md.momentum_Phi(md.lift_rho(ring))[2]
        assert abs(md.reduced_phi(ring) + sigma - phi3) <= 1e-12

    def test_momentum_parallel_to_axis(self):
        for mnp in ((2, 3, 1), (3, 2, 0), (6, 1, 2)):
            ring = random_ring(*mnp)
            phi = np.asarray(md.momentum_Phi(md.lift_rho(ring)), dtype=float)
            assert abs(phi[0]) <= 1e-12 and abs(phi[1]) <= 1e-12


def fd_grad_h(u, m, p, h=1e-6):
    out = np.zeros_like(u)
    for j in range(u.shape[0]):
        for c in range(3):
            up, dn = u.copy(), u.copy()
            up[j, c] += h
            dn[j, c] -= h
            out[j, c] = (md.reduced_h(up, m, p) - md.reduced_h(dn, m, p)) / (2 * h)
    return out


def fd_hess_h(u, m, p, h=1e-6):
    n3 = 3 * u.shape[0]
    out = np.zeros((n3, n3))
    for jp in range(u.shape[0]):
        for c in range(3):
            up, dn = u.copy(), u.copy()
            up[jp, c] += h
            dn[jp, c] -= h
            out[:, 3 * jp + c] = (
                np.asarray(md.grad_h(up, m, p), dtype=float) - np.asarray(md.grad_h(dn, m, p), dtype=float)
            ).reshape(-1) / (2 * h)
    return out


class TestDerivatives:
    def test_grad_hand_value(self):
        x, z = 0.8, 0.6
        g = md.grad_h(np.array([[x, 0.0, z]]), 2, 0)
        assert np.allclose(g[0], [-1.0 / x, 0.0, 0.0], atol=1e-13)

    def test_grad_matches_fd_50(self):
        cases = [(2, 2, 0), (3, 2, 1), (4, 1, 2), (5, 2, 0), (2, 3, 2)]
        count = 0
        while count < 50:
            m, n, p = cases[count % len(cases)]
            u = np.asarray(random_ring(m, n, p).generators, dtype=float)
            g = np.asarray(md.grad_h(u, m, p), dtype=float)
            assert np.max(np.abs(g - fd_grad_h(u, m, p))) <= 1e-6
            count += 1

    def test_hess_symmetric(self):
        for mnp in ((3, 2, 1), (4, 2, 0)):
            u = np.asarray(random_ring(*mnp).generators, dtype=float)
            H = np.asarray(md.hess_h(u, mnp[0], mnp[2]), dtype=float)
            assert np.max(np.abs(H - H.T)) <= 1e-12

    def test_hess_matches_fd_50(self):
        cases = [(2, 2, 0), (3, 2, 1), (4, 1, 2), (5, 2, 0), (3, 3, 0)]
        count = 0
        while count < 50:
            m, n, p = cases[count % len(cases)]
            u = np.asarray(random_ring(m, n, p).generators, dtype=float)
            H = np.asarray(md.hess_h(u, m, p), dtype=float)
            assert np.max(np.abs(H - fd_hess_h(u, m, p))) <= 1e-5
            count += 1

    @pytest.mark.parametrize("mnp", [(2, 2, 0), (3, 2, 1), (4, 1, 2), (5, 2, 0), (3, 3, 0)])
    def test_interval_derivatives_contain_sampled_floats(self, mnp):
        """Interval grad_h/hess_h on a small random box contain the float
        values at 24 points sampled inside it (the cases of criterion 7a)."""
        m, n, p = mnp
        rng = np.random.default_rng(SEED + 7 * m + n + p)
        u = np.asarray(random_ring(m, n, p, rng=rng).generators, dtype=float)
        r = 10.0 ** rng.uniform(-8, -3)
        box = IntervalArray(u - r, u + r)
        G = md.grad_h(box.to_object(), m, p)
        H = md.hess_h(box, m, p)
        assert isinstance(G, IntervalArray) and isinstance(H, IntervalArray)
        for _ in range(24):
            v = u + rng.uniform(-r, r, size=u.shape)
            g, h = md.grad_h(v, m, p), md.hess_h(v, m, p)
            assert np.all(G.lo <= g) and np.all(g <= G.hi)
            assert np.all(H.lo <= h) and np.all(h <= H.hi)

    def test_tangential_gradient_vanishes_at_equilibria(self):
        for name in ("antiprism8", "triaugmented9", "gyro10"):
            ring = cat.fixture(name)
            u = np.asarray(ring.generators, dtype=float)
            g = np.asarray(md.grad_h(ring), dtype=float)
            tang = g - (np.sum(g * u, axis=1)[:, None]) * u
            assert np.max(np.abs(tang)) <= 1e-10, name

    def test_rotational_kernel_at_critical_point(self):
        """Hess of h* annihilates the axial-rotation generator at an RE."""
        z = 0.12
        ring, omega = cat.one_ring_family(5, 2, z)
        u = np.asarray(ring.generators, dtype=float)
        lam = np.asarray(md.solve_ring_multipliers(u, omega, 5, 2), dtype=float)
        H = np.asarray(md.hess_hstar(u, lam, omega, 5, 2), dtype=float)
        gen = np.concatenate([md.J3 @ u[j] for j in range(u.shape[0])])
        assert np.max(np.abs(H @ gen)) <= 1e-8

    def test_hstar_reduces_on_sphere(self):
        ring = random_ring(3, 2, 1)
        u = np.asarray(ring.generators, dtype=float)
        omega = 0.4
        h_om = md.reduced_h(u, 3, 1) - omega * md.reduced_phi(u, 3, 1)
        assert math.isclose(
            md.lagrangian_hstar(u, np.zeros(2), omega, 3, 1), h_om, rel_tol=1e-13
        )

    def test_hstar_lambda_derivative_is_constraint(self):
        ring = random_ring(2, 2, 1)
        u = np.asarray(ring.generators, dtype=float)
        lam = RNG.normal(size=2)
        h = 1e-7
        for j in range(2):
            lp, lm = lam.copy(), lam.copy()
            lp[j] += h
            lm[j] -= h
            d = (md.lagrangian_hstar(u, lp, 0.3, 2, 1) - md.lagrangian_hstar(u, lm, 0.3, 2, 1)) / (2 * h)
            # m * R_j(u) = 0 on the sphere
            assert abs(d) <= 1e-9

    def test_grad_hstar_matches_fd(self):
        ring = random_ring(3, 2, 0)
        u = np.asarray(ring.generators, dtype=float) * 1.01  # off-sphere on purpose
        lam = RNG.normal(size=2)
        omega = 0.25
        g = np.asarray(md.grad_hstar(u, lam, omega, 3, 0), dtype=float)
        h = 1e-6
        for j in range(2):
            for c in range(3):
                up, dn = u.copy(), u.copy()
                up[j, c] += h
                dn[j, c] -= h
                fd = (
                    md.lagrangian_hstar(up, lam, omega, 3, 0)
                    - md.lagrangian_hstar(dn, lam, omega, 3, 0)
                ) / (2 * h)
                assert abs(g[j, c] - fd) <= 1e-6


class TestFullHessian:
    def test_second_difference_along_geodesic(self):
        ring = cat.fixture("antiprism8")
        a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        res = md.full_hstar_hessian(a, 0.0)
        assert res.critical
        N = a.shape[0]
        w = RNG.normal(size=(N, 3))
        w -= (np.sum(w * a, axis=1))[:, None] * a  # tangent field
        h = 1e-3

        def geodesic(t):
            out = np.zeros_like(a)
            for j in range(N):
                nw = np.linalg.norm(w[j])
                if nw < 1e-15:
                    out[j] = a[j]
                    continue
                out[j] = math.cos(nw * t) * a[j] + math.sin(nw * t) * (w[j] / nw)
            return out

        f = lambda t: md.augmented_H(geodesic(t), 0.0)
        second = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        quad = w.reshape(-1) @ res.matrix @ w.reshape(-1)
        assert abs(second - quad) <= 1e-5 * max(1.0, abs(quad))

    def test_ring_symmetry_invariance(self):
        ring, omega = cat.one_ring_family(4, 1, 0.3)
        a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        res = md.full_hstar_hessian(a, omega)
        g = md.ring_rotations(4)[1]
        N = a.shape[0]
        perm = np.array([1, 2, 3, 0, 4])
        for _ in range(5):
            w1 = RNG.normal(size=(N, 3))
            w2 = RNG.normal(size=(N, 3))
            w1 -= (np.sum(w1 * a, axis=1))[:, None] * a
            w2 -= (np.sum(w2 * a, axis=1))[:, None] * a
            r1 = (w1 @ g.T)[np.argsort(perm)]
            r2 = (w2 @ g.T)[np.argsort(perm)]
            v1 = w1.reshape(-1) @ res.matrix @ w2.reshape(-1)
            v2 = r1.reshape(-1) @ res.matrix @ r2.reshape(-1)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_noncritical_flag(self):
        ring = random_ring(3, 2, 0)
        a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        res = md.full_hstar_hessian(a, 0.9)
        assert not res.critical
        assert res.matrix.shape == (3 * a.shape[0],) * 2


class TestDynamics:
    def test_conservation_rk4(self):
        """H and Phi drift under RK4 stays below 1e-8 (t = 1, dt = 1e-3)."""
        gens = random_ring(1, 5, 0, z_cap=0.85).generators
        v0 = np.asarray(gens, dtype=float)
        H0 = md.hamiltonian_H(v0)
        P0 = np.asarray(md.momentum_Phi(v0), dtype=float)
        v1 = md.integrate_full_rk4(v0, md.VortexParameters(), 1.0, 1e-3)
        assert abs(md.hamiltonian_H(v1) - H0) <= 1e-8
        assert np.max(np.abs(np.asarray(md.momentum_Phi(v1), dtype=float) - P0)) <= 1e-8

    def test_reduction_conjugates_flows(self):
        """Integrating the ring system and lifting agrees with the full flow."""
        ring = random_ring(3, 2, 1)
        u0 = np.asarray(ring.generators, dtype=float)
        v0 = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        u1 = md.integrate_reduced_rk4(u0, 3, 1, 1.0, 1e-3)
        v1 = md.integrate_full_rk4(v0, md.VortexParameters(), 1.0, 1e-3)
        lifted = np.asarray(md.lift_rho(md.RingSystem(3, 2, 1, u1, check=False)).vectors, dtype=float)
        assert np.max(np.abs(lifted - v1)) <= 1e-6

    def test_analytic_families_rotate_rigidly(self):
        for (k, p, z) in ((3, 1, 0.2), (5, 2, 0.1), (6, 0, 0.9)):
            ring, omega = cat.one_ring_family(k, p, z)
            a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
            rhs = np.asarray(md.vortex_rhs(a), dtype=float)
            expect = np.array([omega * (md.J3 @ v) for v in a])
            assert np.max(np.abs(rhs - expect)) <= 1e-10


class TestConfigIO:
    def test_ring_round_trip(self, tmp_path):
        ring = cat.fixture("gyro10")
        text = md.dumps_config(md.ring_to_json(ring))
        path = tmp_path / "ring.json"
        path.write_text(text)
        import json

        back = md.ring_from_json(json.loads(path.read_text()))
        assert back.m == ring.m and back.n == ring.n and back.p == ring.p
        assert np.array_equal(back.generators, np.asarray(ring.generators, dtype=float))

    def test_seventeen_digits(self):
        text = md.dumps_config({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_full_round_trip(self):
        import json

        full = md.lift_rho(cat.fixture("octahedron"))
        back = md.full_from_json(json.loads(md.dumps_config(md.full_to_json(full))))
        assert np.array_equal(back.vectors, np.asarray(full.vectors, dtype=float))


# ---------------------------------------------------------------------------
# Scalar reference: the per-entry loops over object arrays of Interval (or
# float arrays) that the vectorised lift, sums and dynamics replaced.
# ---------------------------------------------------------------------------


def _ref_interval(x):
    return isinstance(x, np.ndarray) and x.dtype == object


def _ref_zero(interval):
    return Interval(0.0) if interval else 0.0


def _ref_ln(x):
    if isinstance(x, Interval):
        return iv.ln(x)
    if x <= 0.0:
        raise DomainError("log of nonpositive value")
    return math.log(x)


def _ref_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _ref_cross(a, b):
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]],
        dtype=a.dtype if a.dtype == object else float,
    )


def _ref_check_dist_sq(s):
    if isinstance(s, Interval):
        if s.lo <= md.COLLISION_TOL**2:
            raise DomainError("interval distance cannot be bounded away from collision")
    elif s < md.COLLISION_TOL**2:
        raise DomainError("configuration within collision tolerance")
    return s


def _ref_rotations(m, interval):
    """g^0..g^m as 3x3 float or object matrices."""
    z, one = _ref_zero(interval), Interval(1.0) if interval else 1.0

    def rot(c, s):
        return np.array([[c, -s, z], [s, c, z], [z, z, one]], dtype=object if interval else float)

    return [rot(*md._cos_sin_frac(i, m, interval)) for i in range(m + 1)]


def _ref_poles(p, interval):
    poles = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])][:p]
    return [np.array([Interval(c) for c in f], dtype=object) for f in poles] if interval else poles


def ref_lift_rho(u, m, p):
    interval = _ref_interval(u)
    g = _ref_rotations(m, interval)
    rows = [g[k] @ u[j] for j in range(len(u)) for k in range(1, m + 1)] + _ref_poles(p, interval)
    out = np.empty((len(rows), 3), dtype=object if interval else float)
    for i, r in enumerate(rows):
        out[i] = r
    return out


def ref_hamiltonian_H(v):
    acc = _ref_zero(_ref_interval(v))
    for j in range(len(v)):
        for i in range(j):
            acc = acc + _ref_ln(_ref_check_dist_sq(_ref_dot(v[j] - v[i], v[j] - v[i])))
    return acc * (-0.5)


def ref_momentum_Phi(v):
    interval = _ref_interval(v)
    acc = np.array([_ref_zero(interval)] * 3, dtype=object if interval else float)
    for j in range(len(v)):
        acc = acc + v[j]
    return acc


def ref_vortex_rhs(v, strengths=None):
    interval = _ref_interval(v)
    N = len(v)
    out = np.empty((N, 3), dtype=object if interval else float)
    for j in range(N):
        acc = np.array([_ref_zero(interval)] * 3, dtype=object if interval else float)
        for i in range(N):
            if i == j:
                continue
            d2 = _ref_check_dist_sq(_ref_dot(v[i] - v[j], v[i] - v[j]))
            term = _ref_cross(v[i], v[j])
            if strengths is not None:
                term = term * strengths[i]
            acc = acc + term / d2
        out[j] = acc if strengths is None else acc * (1.0 / (4.0 * math.pi))
    return out


def ref_reduced_h(u, m, p):
    interval = _ref_interval(u)
    n = len(u)
    g = _ref_rotations(m, interval)

    def ln_d2(d):
        return _ref_ln(_ref_check_dist_sq(_ref_dot(d, d)))

    acc_self = _ref_zero(interval)
    for j in range(n):
        for i in range(1, m):
            acc_self = acc_self + ln_d2(g[i] @ u[j] - u[j])
    acc_cross = _ref_zero(interval)
    for j in range(n):
        for jp in range(j + 1, n):
            for i in range(1, m + 1):
                acc_cross = acc_cross + ln_d2(g[i] @ u[j] - u[jp])
    acc_pole = _ref_zero(interval)
    for j in range(n):
        for f in _ref_poles(p, interval):
            acc_pole = acc_pole + ln_d2(u[j] - f)
    return acc_self * (-m / 4.0) + (acc_cross + acc_pole) * (-m / 2.0)


def ref_reduced_phi(u, m):
    acc = _ref_zero(_ref_interval(u))
    for j in range(len(u)):
        acc = acc + u[j][2]
    return acc * float(m)


def ref_reduced_rhs(u, m, p):
    grad = md.grad_h(u, m, p)
    out = np.empty_like(u)
    for j in range(len(u)):
        out[j] = _ref_cross(u[j], grad[j]) * (-1.0 / m)
    return out


def ref_solve_ring_multipliers(u, omega, m, p):
    grad = md.grad_h(u, m, p)
    out = np.empty(len(u), dtype=object if _ref_interval(u) else float)
    for j in range(len(u)):
        gw = _ref_dot(u[j], grad[j]) - omega * float(m) * u[j][2]
        out[j] = -(gw / _ref_dot(u[j], u[j])) / float(m)
    return out


def ref_lagrangian_hstar(u, lam, omega, m, p):
    val = ref_reduced_h(u, m, p) - omega * ref_reduced_phi(u, m)
    acc = _ref_zero(_ref_interval(u))
    for j in range(len(u)):
        acc = acc + lam[j] * (_ref_dot(u[j], u[j]) - 1.0)
    return val + acc * (float(m) / 2.0)


def _endpoints(x):
    """(lo, hi) float arrays of a float, Interval, IntervalArray or object-array value."""
    if isinstance(x, (Interval, IntervalArray)):
        return np.asarray(x.lo, dtype=float), np.asarray(x.hi, dtype=float)
    if _ref_interval(x):
        x = IntervalArray.from_object(x)
        return x.lo, x.hi
    x = np.asarray(x, dtype=float)
    return x, x


def _same_bits(new, ref):
    """Float results equal bit for bit, signed zeros included; interval
    results are interval values with equal endpoints (a zero product is
    +0 in the scalar Interval and may be -0 in an IntervalArray)."""
    interval = isinstance(ref, Interval) or _ref_interval(ref)
    if interval != isinstance(new, (Interval, IntervalArray)):
        return False
    (nlo, nhi), (rlo, rhi) = _endpoints(new), _endpoints(ref)
    if interval:
        return np.array_equal(nlo, rlo) and np.array_equal(nhi, rhi)
    return nlo.shape == rlo.shape and nlo.tobytes() == rlo.tobytes()


def _catalog_rings():
    """Every catalog fixture and label as a float ring, its interval
    enclosure, and its generators padded by 1e-9 and 1e-5."""
    for name in cat.list_fixtures():
        for label in cat.fixture_entry(name).labels:
            ring = cat.fixture(name, label)
            yield f"{name}{label}", ring
            yield f"{name}{label} interval", cat.fixture_interval(name, label)
            for r in (1e-9, 1e-5):
                box = IntervalArray(ring.generators).pad(r)
                yield f"{name}{label} +-{r}", md.RingSystem(ring.m, ring.n, ring.p, box, check=False)


def _reference_input(x):
    return x.to_object() if isinstance(x, IntervalArray) else x


class TestScalarReference:
    """The vectorised functions against the scalar loops they replaced."""

    def test_lift_and_full_space_functions(self):
        for case, ring in _catalog_rings():
            u = _reference_input(ring.generators)
            v = md.lift_rho(ring).vectors
            assert _same_bits(v, ref_lift_rho(u, ring.m, ring.p)), case
            ref_v = _reference_input(v)
            assert _same_bits(md.hamiltonian_H(v), ref_hamiltonian_H(ref_v)), case
            assert _same_bits(md.momentum_Phi(v), ref_momentum_Phi(ref_v)), case
            if not ring.interval_mode:
                assert _same_bits(md.vortex_rhs(v), ref_vortex_rhs(ref_v)), case
                strengths = np.linspace(1.0, 2.0, len(v))
                params = md.VortexParameters(tuple(strengths))
                assert _same_bits(md.vortex_rhs(v, params), ref_vortex_rhs(ref_v, strengths)), case

    def test_reduced_functions(self):
        for case, ring in _catalog_rings():
            u, m, p = _reference_input(ring.generators), ring.m, ring.p
            assert _same_bits(md.reduced_h(ring), ref_reduced_h(u, m, p)), case
            assert _same_bits(md.reduced_phi(ring), ref_reduced_phi(u, m)), case
            assert _same_bits(md.reduced_rhs(ring), ref_reduced_rhs(u, m, p)), case
            lam = np.linspace(-0.5, 0.5, ring.n)
            assert _same_bits(md.lagrangian_hstar(ring.generators, lam, 0.3, m, p), ref_lagrangian_hstar(u, lam, 0.3, m, p)), case
            if not ring.interval_mode:
                assert _same_bits(md.solve_ring_multipliers(ring, 0.3), ref_solve_ring_multipliers(u, 0.3, m, p)), case

    def test_interval_quotients_enclose_the_reference(self):
        """vortex_rhs and solve_ring_multipliers divide: the array quotient
        rounds every endpoint outward, where the scalar Interval keeps a
        quotient it proves exact, so the array results contain the
        reference and are wider by at most a few ulps of the quotients
        (taken as 4 N ulps of 1 + |value|; the catalog's quotients are of
        order one)."""
        for case, ring in _catalog_rings():
            if not ring.interval_mode:
                continue
            u, m, p = _reference_input(ring.generators), ring.m, ring.p
            v = md.lift_rho(ring).vectors
            pairs = [
                (md.vortex_rhs(v), ref_vortex_rhs(v.to_object())),
                (md.solve_ring_multipliers(ring, 0.3), ref_solve_ring_multipliers(u, 0.3, m, p)),
            ]
            for new, ref in pairs:
                (nlo, nhi), (rlo, rhi) = _endpoints(new), _endpoints(ref)
                assert np.all(nlo <= rlo) and np.all(rhi <= nhi), case
                slack = 4 * len(v) * np.finfo(float).eps * (1.0 + np.maximum(np.abs(rlo), np.abs(rhi)))
                assert np.all(rlo - nlo <= slack) and np.all(nhi - rhi <= slack), case

    def test_planted_rotation_order_fault_is_caught(self, monkeypatch):
        """lift_rho rows taken in the wrong rotation order fail the check."""
        rings = [cat.fixture("bipyramid5", (2, 2, 1)), cat.fixture_interval("bipyramid5", (2, 2, 1))]
        refs = [ref_lift_rho(_reference_input(ring.generators), ring.m, ring.p) for ring in rings]
        assert all(_same_bits(md.lift_rho(ring).vectors, ref) for ring, ref in zip(rings, refs))
        orbits = md._ring_orbits
        monkeypatch.setattr(md, "_ring_orbits", lambda U, m: orbits(U, m)[:, ::-1])
        assert not any(_same_bits(md.lift_rho(ring).vectors, ref) for ring, ref in zip(rings, refs))


class TestDomainChecks:
    """Collisions, off-sphere and pole generators raise in both modes."""

    @staticmethod
    def _modes(u):
        return [np.asarray(u, dtype=float), IntervalArray(u).pad(1e-12)]

    def test_collisions(self):
        u = np.array([[0.6, 0.0, 0.8], [0.6, 0.0, 0.8 + 1e-12]])
        for gens in self._modes(u):
            with pytest.raises(DomainError):
                md.FullConfiguration(gens)
            with pytest.raises(DomainError):
                md.hamiltonian_H(gens)
            with pytest.raises(DomainError):
                md.vortex_rhs(gens)
            with pytest.raises(DomainError):
                md.RingSystem(3, 2, 0, gens)
            with pytest.raises(DomainError):
                md.reduced_h(gens, 3, 0)

    def test_hidden_ring_collision(self):
        """A generator whose rotation lands on another generator."""
        c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
        u = np.array([[0.6, 0.0, 0.8], [0.6 * c, 0.6 * s, 0.8]])
        for gens in self._modes(u):
            with pytest.raises(DomainError):
                md.reduced_h(gens, 3, 0)
            with pytest.raises(DomainError):
                md.hamiltonian_H(md.lift_rho(md.RingSystem(3, 2, 0, gens, check=False)))

    def test_off_sphere(self):
        for gens in self._modes(np.array([[0.6, 0.0, 0.8], [0.0, 1.1, 0.0]])):
            with pytest.raises(DomainError, match="generator 1"):
                md.RingSystem(2, 2, 0, gens)
            with pytest.raises(DomainError, match="vortex 1"):
                md.FullConfiguration(gens)

    def test_pole_generator(self):
        for gens in self._modes(np.array([[0.6, 0.0, 0.8], [0.0, 0.0, -1.0]])):
            with pytest.raises(DomainError, match="generator 1"):
                md.RingSystem(2, 2, 0, gens)
            with pytest.raises(DomainError):
                md.reduced_h(gens, 2, 2)


def test_model_and_stability_hold_no_object_arrays():
    """Rings, configurations and the stability layer are float arrays or
    IntervalArrays: no object array of Intervals is built in model.py or
    stability.py."""
    from pathlib import Path

    from vortexcert import stability

    for module in (md, stability):
        text = Path(module.__file__).read_text()
        for needle in ("dtype=object", ".to_object("):
            assert needle not in text, f"{needle} in {module.__name__}"
