"""Augmented map, Newton polishing, contraction-bound validation and
predictor-corrector continuation."""

import math
import os

import numpy as np
import pytest

from vortexcert import catalog as cat
from vortexcert import continuation as cont
from vortexcert import model as md
from vortexcert.intervals import Interval, verify_invertible
from vortexcert.model import to_interval_array

SEED = int(os.environ.get("VORTEX_CERT_SEED", "0"))
RNG = np.random.default_rng(SEED)


def pentagon_point(z=0.1):
    ring, omega = cat.one_ring_family(5, 2, z)
    pt = cont.seed_point(ring, omega)
    return pt, np.asarray(pt.u, dtype=float)


class TestAugmentedMap:
    def test_zero_at_analytic_family(self):
        pt, b0 = pentagon_point(0.1)
        F = cont.augmented_map_F(pt.flat(), pt.omega, b0, 5, 2)
        assert np.max(np.abs(np.asarray(F, dtype=float))) <= 1e-10

    def test_section_row_zero_at_anchor(self):
        pt, b0 = pentagon_point(0.2)
        F = np.asarray(cont.augmented_map_F(pt.flat(), 0.77, b0, 5, 2), dtype=float)
        assert F[-1] == 0.0

    def test_constraint_rows_zero_on_sphere(self):
        ring, omega = cat.one_ring_family(4, 1, 0.3)
        pt = cont.seed_point(ring, omega)
        F = np.asarray(cont.augmented_map_F(pt.flat(), omega, np.asarray(pt.u, dtype=float), 4, 1), dtype=float)
        n = 1
        assert np.max(np.abs(F[3 * n : 4 * n])) <= 1e-15

    def test_jacobian_matches_fd(self):
        pt, b0 = pentagon_point(0.15)
        x = pt.flat() + 1e-3 * RNG.normal(size=pt.flat().shape)
        w = pt.omega
        DF = np.asarray(cont.jacobian_F(x, w, b0, 5, 2), dtype=float)
        h = 1e-6
        for k in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            col = (
                np.asarray(cont.augmented_map_F(xp, w, b0, 5, 2), dtype=float)
                - np.asarray(cont.augmented_map_F(xm, w, b0, 5, 2), dtype=float)
            ) / (2 * h)
            assert np.max(np.abs(DF[:, k] - col)) <= 1e-5

    def test_omega_derivative(self):
        pt, b0 = pentagon_point(0.12)
        x = pt.flat()
        h = 1e-6
        fd = (
            np.asarray(cont.augmented_map_F(x, pt.omega + h, b0, 5, 2), dtype=float)
            - np.asarray(cont.augmented_map_F(x, pt.omega - h, b0, 5, 2), dtype=float)
        ) / (2 * h)
        assert np.max(np.abs(np.asarray(cont.jacobian_F_omega(x, b0, 5, 2), dtype=float) - fd)) <= 1e-9

    def test_jacobian_invertible_at_nondegenerate_re(self):
        pt, b0 = pentagon_point(0.1)
        x = cont.newton_polish(pt.flat(), pt.omega, b0, 5, 2)
        DF = cont.jacobian_F(to_interval_array(x), Interval(pt.omega), b0, 5, 2)
        verify_invertible(DF)  # raises if not certified

    def test_section_row_constant_in_x(self):
        pt, b0 = pentagon_point(0.3)
        x1 = pt.flat()
        x2 = x1 + RNG.normal(size=x1.shape) * 1e-2
        D1 = np.asarray(cont.jacobian_F(x1, pt.omega, b0, 5, 2), dtype=float)
        D2 = np.asarray(cont.jacobian_F(x2, pt.omega, b0, 5, 2), dtype=float)
        assert np.array_equal(D1[-1], D2[-1])


class TestPolish:
    def test_recovers_from_perturbation(self):
        pt, b0 = pentagon_point(0.1)
        x0 = pt.flat() + 1e-4 * RNG.normal(size=pt.flat().shape)
        x = cont.newton_polish(x0, pt.omega, b0, 5, 2)
        F = np.asarray(cont.augmented_map_F(x, pt.omega, b0, 5, 2), dtype=float)
        assert np.max(np.abs(F)) <= 1e-13

    def test_exact_zero_is_fixed(self):
        pt, b0 = pentagon_point(0.1)
        x_star = cont.newton_polish(pt.flat(), pt.omega, b0, 5, 2)
        again = cont.newton_polish(x_star, pt.omega, b0, 5, 2)
        assert np.max(np.abs(again - x_star)) <= 1e-12

    def test_far_data_no_convergence(self):
        pt, b0 = pentagon_point(0.1)
        bad = pt.flat()
        bad[:3] = [0.0, 0.0, 1.0]  # ring generator colliding with the pole
        with pytest.raises(cont.NoConvergence):
            cont.newton_polish(bad, pt.omega, b0, 5, 2, max_iter=12)


class TestPointValidation:
    def test_pentagon_point(self):
        pt, b0 = pentagon_point(0.1)
        x = cont.newton_polish(pt.flat(), pt.omega, b0, 5, 2)
        pc = cont.nk_validate_point(cont.AugmentedPoint.from_flat(x, pt.omega), b0, 5, 2)
        assert pc.bounds.r0 <= 1e-8
        assert pc.bounds.Yhat == 0.0
        alpha = pc.alpha_enclosure()
        assert alpha.contains(0.0) and alpha.width <= 2 * pc.bounds.r0 + 1e-15

    def test_far_point_not_validated(self):
        pt, b0 = pentagon_point(0.1)
        bad = pt.flat() + 0.05
        with pytest.raises(cont.NotValidated):
            cont.nk_validate_point(cont.AugmentedPoint.from_flat(bad, pt.omega), b0, 5, 2)

    def test_zero_residual_radius_algebra(self):
        # Y = 0: a radius exists iff Z < 1
        assert cont._choose_r0(0.0, 0.0, 0.5, 1e-4) is not None
        assert cont._choose_r0(0.0, 0.0, 1.0, 1e-4) is None

    def test_lifted_enclosure_satisfies_full_re_equation(self):
        pt, b0 = pentagon_point(0.1)
        x = cont.newton_polish(pt.flat(), pt.omega, b0, 5, 2)
        pc = cont.nk_validate_point(cont.AugmentedPoint.from_flat(x, pt.omega), b0, 5, 2)
        ring = pc.ring_enclosure()
        a = md.lift_rho(ring).vectors
        rhs = md.vortex_rhs(a)
        omega = Interval(pt.omega)
        for j in range(a.shape[0]):
            expect = (md.J3 @ np.array(a[j], dtype=object)) * omega
            for c in range(3):
                assert (rhs[j][c] - expect[c]).contains(0.0)


class TestSegmentValidation:
    def _pair(self, z0, z1):
        p0, b0 = pentagon_point(z0)
        x0 = cont.newton_polish(p0.flat(), p0.omega, b0, 5, 2)
        ring1, w1 = cat.one_ring_family(5, 2, z1)
        x1 = cont.newton_polish(cont.seed_point(ring1, w1).flat(), w1, b0, 5, 2)
        return (
            cont.AugmentedPoint.from_flat(x0, p0.omega),
            cont.AugmentedPoint.from_flat(x1, w1),
            b0,
        )

    @staticmethod
    def _z_for_omega(w):
        return (-3 + math.sqrt(9 + 4 * w * w)) / (2 * w)

    def test_pentagon_segment_bounds(self):
        """Certify [0.30, 0.31] with every radius below 1e-6.

        A single chord cannot do better than its own deviation from the
        zero curve (about 4e-5 here since r0 >= Yhat), so the range is
        covered by a validated chain of short segments instead.
        """
        ring, _ = cat.one_ring_family(5, 2, self._z_for_omega(0.30))
        res = cont.continue_branch(ring, 0.30, 0.31, step=1.25e-3, seed_omega=0.30)
        assert res.status == "completed"
        assert all(c.bounds.r0 < 1e-6 for c in res.certificates)
        assert math.isclose(res.certificates[0].omega_interval[0], 0.30, rel_tol=1e-12)
        assert math.isclose(res.certificates[-1].omega_interval[1], 0.31, rel_tol=1e-12)

    def test_single_segment_bounds(self):
        a0, a1, b0 = self._pair(self._z_for_omega(0.30), self._z_for_omega(0.301))
        cert = cont.nk_validate_segment(a0, a1, b0, 5, 2)
        assert cert.bounds.r0 < 1e-6
        assert math.isclose(cert.omega_interval[0], 0.30, rel_tol=1e-12)

    def test_degenerate_segment_is_point(self):
        a0, _, b0 = self._pair(0.1, 0.11)
        cert = cont.nk_validate_segment(a0, a0, b0, 5, 2)
        assert cert.bounds.Yhat == 0.0
        pc = cont.nk_validate_point(a0, b0, 5, 2)
        assert abs(cert.bounds.Y - pc.bounds.Y) <= 1e-18

    def test_yhat_monotone_under_nesting(self):
        a0, a1, b0 = self._pair(0.1, 0.104)
        mid_ring, wm = cat.one_ring_family(5, 2, 0.102)
        xm = cont.newton_polish(cont.seed_point(mid_ring, wm).flat(), wm, b0, 5, 2)
        am = cont.AugmentedPoint.from_flat(xm, wm)
        big = cont.nk_validate_segment(a0, a1, b0, 5, 2)
        small = cont.nk_validate_segment(a0, am, b0, 5, 2)
        assert small.bounds.Yhat <= big.bounds.Yhat

    def test_adjacent_tubes_overlap(self):
        seed = cat.fixture("bipyramid5", (2, 2, 1))
        res = cont.continue_branch(seed, 0.2, 0.22, seed_omega=0.0)
        assert res.status == "completed" and len(res.certificates) >= 2
        for c0, c1 in zip(res.certificates, res.certificates[1:]):
            t0 = c0.ring_tube().generators
            t1 = c1.ring_tube().generators
            for j in range(c0.n):
                for k in range(3):
                    assert t0[j][k].hi >= t1[j][k].lo and t1[j][k].hi >= t0[j][k].lo

    def test_certificate_json_round_trip(self):
        a0, a1, b0 = self._pair(0.1, 0.102)
        cert = cont.nk_validate_segment(a0, a1, b0, 5, 2)
        back = cont.BranchCertificate.from_json(cert.to_json())
        assert back.bounds.r0 == cert.bounds.r0
        assert np.array_equal(back.x0.flat(), cert.x0.flat())
        assert back.omega_interval == cert.omega_interval


class TestContinueBranch:
    def test_empty_ranges(self):
        seed = cat.fixture("bipyramid5", (2, 2, 1))
        assert cont.continue_branch(seed, 0.3, 0.3).status == "empty"
        assert cont.continue_branch(seed, 0.3, 0.2, step=0.01).status == "empty"

    def test_n5_short_chain(self):
        seed = cat.fixture("bipyramid5", (2, 2, 1))
        res = cont.continue_branch(seed, 0.2, 0.23, seed_omega=0.0)
        assert res.status == "completed"
        assert res.certificates
        for c in res.certificates:
            assert c.bounds.r0 <= c.bounds.r_star
            alpha0 = abs(c.x0.alpha)
            assert alpha0 <= c.bounds.r0 + 1e-13

    def test_chain_covers_range(self):
        seed = cat.fixture("bipyramid5", (2, 2, 1))
        res = cont.continue_branch(seed, 0.2, 0.23, seed_omega=0.0)
        los = [c.omega_interval[0] for c in res.certificates]
        his = [c.omega_interval[1] for c in res.certificates]
        assert math.isclose(min(los), 0.2, rel_tol=1e-12)
        assert math.isclose(max(his), 0.23, rel_tol=1e-12)
        for h, l in zip(his, los[1:]):
            assert math.isclose(h, l, rel_tol=1e-12)

    def test_m1_near_collision_continuation(self):
        """Asymmetric continuation of the 10-vortex near-collision state
        over a width-0.1 frequency range."""
        ring = cat.fixture("collision10")
        res = cont.continue_branch(ring, 50.0, 50.1, step=0.02, seed_omega=50.0)
        assert res.status == "completed"
        assert res.certificates
        assert math.isclose(res.certificates[-1].omega_interval[1], 50.1, rel_tol=1e-12)
