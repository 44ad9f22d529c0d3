"""Slice construction, block assembly, validated spectra, winding counts
and stability verdicts."""

import math
import os

import numpy as np
import pytest

from vortexcert import catalog as cat
from vortexcert import continuation as cont
from vortexcert import model as md
from vortexcert import stability as stab
from vortexcert import intervals as iv
from vortexcert.intervals import ComplexInterval, Interval, IntervalArray

from test_model import random_ring

SEED = int(os.environ.get("VORTEX_CERT_SEED", "0"))
RNG = np.random.default_rng(SEED)


def block_sizes(basis):
    return {(b.l, b.kind): b.size for b in basis.blocks}


class TestSliceConstruction:
    def test_dimensions_n7(self):
        ring, _ = cat.one_ring_family(5, 2, 0.1)
        basis = stab.build_slice(ring)
        assert block_sizes(basis) == {(0, "P"): 0, (1, "Q"): 3, (2, "Q"): 2}

    def test_dimensions_n8(self):
        basis = stab.build_slice(cat.fixture("antiprism8"))
        assert block_sizes(basis) == {(0, "P"): 2, (1, "Q"): 3, (2, "P"): 4}

    def test_dimensions_m2(self):
        basis = stab.build_slice(cat.fixture("bipyramid5", (2, 2, 1)))
        assert block_sizes(basis) == {(0, "P"): 2, (1, "P"): 4}

    def test_dimensions_m6(self):
        ring = random_ring(6, 1, 1)
        basis = stab.build_slice(ring)
        assert block_sizes(basis) == {(0, "P"): 0, (1, "Q"): 2, (2, "Q"): 2, (3, "P"): 2}

    def test_total_dimension_2N_minus_4(self):
        for mnp in ((2, 3, 1), (3, 2, 2), (4, 2, 0), (5, 2, 1)):
            ring = random_ring(*mnp)
            basis = stab.build_slice(ring)
            total = sum(b.size * (2 if b.kind == "Q" else 1) for b in basis.blocks)
            assert total == 2 * ring.N - 4, mnp

    def test_asymmetric_dimension(self):
        ring = cat.fixture("collision10")
        basis = stab.build_slice(ring)
        assert basis.blocks[0].size == 2 * 10 - 4
        assert basis.permutation is not None

    def test_columns_tangent_and_momentum_free(self):
        """Every slice column is tangent blockwise and killed by d Phi(a)."""
        for mnp in ((2, 2, 1), (3, 2, 0), (4, 2, 2), (5, 1, 2)):
            ring = random_ring(*mnp)
            a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
            basis = stab.build_slice(ring, a)
            for blk in basis.blocks:
                for col in blk.columns:
                    for part in (col.re, col.im):
                        if part is None:
                            continue
                        w = part.reshape(ring.N, 3)
                        assert np.max(np.abs(np.sum(w * a, axis=1))) <= 1e-12
                        assert np.max(np.abs(w.sum(axis=0))) <= 1e-12

    def test_asymmetric_columns_in_kernel_and_transversal(self):
        """m=1 slice: columns span inside ker dPhi; the rotation generator
        s_a is excluded (nonzero residual off the span); the two tilted
        rotations are excluded automatically since mu != 0."""
        ring = cat.fixture("collision10")
        a_all = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        basis = stab.build_slice(ring, a_all)
        a = a_all[basis.permutation]
        cols = np.array([c.re for c in basis.blocks[0].columns]).T
        N = ring.N
        for k in range(cols.shape[1]):
            w = cols[:, k].reshape(N, 3)
            assert np.max(np.abs(np.sum(w * a, axis=1))) <= 1e-10
            assert np.max(np.abs(w.sum(axis=0))) <= 1e-10
        s_a = np.concatenate([md.J3 @ a[j] for j in range(N)])
        resid = s_a - cols @ np.linalg.lstsq(cols, s_a, rcond=None)[0]
        assert np.linalg.norm(resid) > 1e-3 * np.linalg.norm(s_a)
        mu = np.asarray(md.momentum_Phi(a), dtype=float)
        for J in (np.array([[0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]), np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])):
            t = np.concatenate([J @ a[j] for j in range(N)])
            dphi = t.reshape(N, 3).sum(axis=0)
            assert np.linalg.norm(dphi) > 1e-6  # not in ker dPhi when mu != 0

    def test_momentum_formulas(self):
        """Closed-form values of dPhi on the Fourier vectors."""
        for m in (2, 3, 4, 5):
            ring = random_ring(m, 2, 1)
            a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
            for j in range(ring.n):
                x, y, z = np.asarray(ring.generators, dtype=float)[j]
                eta = complex(x, -y)
                for l in range(0, m // 2 + 1):
                    B, C = stab.fourier_vectors(ring, a, j, l)
                    dB_re, dB_im = stab.momentum_derivative(B)
                    dC_re, dC_im = stab.momentum_derivative(C)
                    dB = np.array(dB_re) + 1j * np.array(dB_im)
                    dC = np.array(dC_re) + 1j * np.array(dC_im)
                    if l == 0:
                        assert np.max(np.abs(dB)) <= 1e-12
                        assert np.max(np.abs(dC - np.array([0, 0, -m * abs(eta) ** 2]))) <= 1e-12
                    elif l == 1 and m == 2:
                        assert np.max(np.abs(dB - np.array([-2 * y, 2 * x, 0]))) <= 1e-12
                        assert np.max(np.abs(dC - np.array([2 * z * x, 2 * z * y, 0]))) <= 1e-12
                    elif l == 1:
                        ref = -1j * (m / 2) * eta * np.array([1, 1j, 0])
                        assert np.max(np.abs(dB - ref)) <= 1e-12
                        refC = (m / 2) * z * eta * np.array([1, 1j, 0])
                        assert np.max(np.abs(dC - refC)) <= 1e-12
                    else:
                        assert np.max(np.abs(dB)) <= 1e-12
                        assert np.max(np.abs(dC)) <= 1e-12


class TestIsotypic:
    def test_block_orthogonality(self):
        """Hessian cross terms between different Fourier modes vanish."""
        for mnp in ((3, 2, 1), (4, 2, 0), (5, 1, 2)):
            ring, omega = (random_ring(*mnp), 0.4)
            a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
            hess = md.full_hstar_hessian(a, omega).matrix
            basis = stab.build_slice(ring, a)
            for b1 in basis.blocks:
                for b2 in basis.blocks:
                    if b1.l == b2.l:
                        continue
                    for c1 in b1.columns[:2]:
                        for c2 in b2.columns[:2]:
                            for p1 in (c1.re, c1.im):
                                for p2 in (c2.re, c2.im):
                                    if p1 is None or p2 is None:
                                        continue
                                    val = p1 @ hess @ p2
                                    scale = np.linalg.norm(p1) * np.linalg.norm(p2)
                                    assert abs(val) <= 1e-9 * max(scale, 1.0)

    def test_hermitian_block_spectrum_doubles(self):
        """The real block over the (Re, Im) column pairs carries each
        Hermitian eigenvalue twice.

        With Q = conj(cols)^T H cols the Hermitian entries are twice the
        real pairing, so eig of the column-built real block is eig(Q_l)/2,
        each with multiplicity 2; signatures and definiteness agree.
        """
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
                    cols.append(c.re)
                    cols.append(c.im)
                P = np.array(cols).T
                Pblk = P.T @ hess @ P
                p_eig = np.sort(np.linalg.eigvalsh((Pblk + Pblk.T) / 2))
                q_eig = np.sort(np.linalg.eigvalsh(blk.mid()))
                doubled = np.sort(np.repeat(q_eig / 2.0, 2))
                scale = max(1.0, np.max(np.abs(q_eig)))
                assert np.max(np.abs(p_eig - doubled)) <= 1e-9 * scale
                # the realification of the assembled Hermitian block doubles
                # multiplicities without the pairing factor
                r_eig = np.sort(np.linalg.eigvalsh(blk.realified()))
                assert np.max(np.abs(r_eig - np.sort(np.repeat(q_eig, 2)))) <= 1e-9 * scale

    def test_hermitian_within_rounding(self):
        ring, omega = cat.one_ring_family(5, 2, 0.1)
        a = np.asarray(md.lift_rho(ring).vectors, dtype=float)
        hess = md.full_hstar_hessian(a, omega).matrix
        basis = stab.build_slice(ring, a)
        Bc = stab._stack_columns(basis.blocks[1].columns, "re")
        Cc = stab._stack_columns(basis.blocks[1].columns, "im")
        Q = (Bc.T @ hess @ Bc + Cc.T @ hess @ Cc) + 1j * (Bc.T @ hess @ Cc - Cc.T @ hess @ Bc)
        assert np.max(np.abs(Q - Q.conj().T)) <= 1e-10


class TestEigenValidation:
    def _block(self, M):
        M = np.asarray(M)
        if np.iscomplexobj(M):
            return stab.BlockMatrix(l=0, kind="Q", re=M.real, im=M.imag, interval_mode=False)
        return stab.BlockMatrix(l=0, kind="P", re=M, im=None, interval_mode=False)

    def test_diag_simple(self):
        blk = self._block(np.diag([1.0, 2.0, 3.0]))
        enc = stab.validate_simple_eigenpair(blk, 2.0, np.array([0.0, 1.0, 0.0]))
        assert enc.contains(2.0) and enc.width <= 2e-14

    def test_random_hermitian_all_validated(self):
        for _ in range(3):
            A = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
            M = A + A.conj().T + np.diag(np.arange(8) * 10.0)
            lam, vec = np.linalg.eigh(M)
            blk = self._block(M)
            for i in range(8):
                enc = stab.validate_simple_eigenpair(blk, float(lam[i]), vec[:, i])
                assert enc.contains(lam[i])
                assert enc.width <= 1e-10

    def test_clustered_not_isolated(self):
        blk = self._block(np.diag([1.0, 1.0 + 1e-13]))
        with pytest.raises(stab.NotIsolated):
            stab.validate_simple_eigenpair(blk, 1.0, np.array([1.0, 0.0]))


class TestWinding:
    def _block(self, M):
        M = np.asarray(M)
        if np.iscomplexobj(M):
            return stab.BlockMatrix(l=0, kind="Q", re=M.real, im=M.imag, interval_mode=False)
        return stab.BlockMatrix(l=0, kind="P", re=M, im=None, interval_mode=False)

    def test_near_double(self):
        blk = self._block(np.diag([1.0, 1.000001]))
        assert stab.count_eigenvalues_winding(blk, 1.0, 1e-3) == 2

    def test_spectral_gap_zero(self):
        blk = self._block(np.diag([1.0, 5.0]))
        assert stab.count_eigenvalues_winding(blk, 3.0, 0.5) == 0

    def test_oracle_equivalence_quick(self):
        """Winding counts match the float eigensolver on random Hermitian
        matrices with windows clear of the spectrum (short version; the
        200-matrix run lives in the acceptance suite)."""
        count = 0
        while count < 25:
            d = int(RNG.integers(2, 9))
            A = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
            M = (A + A.conj().T) / 2
            lam = np.sort(np.linalg.eigvalsh(M))
            center = float(RNG.uniform(lam[0] - 1, lam[-1] + 1))
            eps = float(RNG.uniform(0.05, 1.0))
            if np.min(np.abs(lam - (center - eps))) < 0.05 or np.min(np.abs(lam - (center + eps))) < 0.05:
                continue
            expect = int(np.sum((lam > center - eps) & (lam < center + eps)))
            got = stab.count_eigenvalues_winding(self._block(M), center, eps, mesh=4)
            assert got == expect
            count += 1

    def test_boundary_hit_reported(self):
        blk = self._block(np.diag([1.0, 2.0]))
        with pytest.raises(stab.BoundaryHit):
            # eigenvalue exactly on the boundary of the window
            stab.count_eigenvalues_winding(blk, 1.5, 0.5, mesh=8, mesh_max=16)

    def test_near_kernel_pair_counts_through_lu(self, monkeypatch):
        """A Hermitian block with an eigenvalue pair at +-1e-13, like the
        mu=0 kernel of eq11: the count in (-1e-8, 1e-8) is 2, and the cells
        where the polynomial enclosure contains zero go through the stacked
        interval determinant."""
        rng = np.random.default_rng(SEED + 13)
        d = 10
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        lam = np.concatenate([[1e-13, -1e-13], rng.uniform(0.5, 3.0, d - 2)])
        M = (Q * lam) @ Q.conj().T
        M = (M + M.conj().T) / 2
        calls = []
        det = iv.complex_det_enclosure

        def counting(stack):
            calls.append(stack[0].shape[0])
            return det(stack)

        monkeypatch.setattr(iv, "complex_det_enclosure", counting)
        assert stab.count_eigenvalues_winding(self._block(M), 0.0, 1e-8) == 2
        assert len(calls) >= 1


def _char_poly_reference(cmat: np.ndarray) -> list:
    """The scalar Faddeev-LeVerrier recursion on an object array of
    ComplexIntervals (object-array ``@``), as the array routine replaced it."""
    d = cmat.shape[0]
    eye = np.empty((d, d), dtype=object)
    eye[:, :] = ComplexInterval(0.0)
    for i in range(d):
        eye[i, i] = ComplexInterval(1.0)
    coeffs = []
    Mk = cmat.copy()
    for k in range(1, d + 1):
        tr = ComplexInterval(0.0)
        for i in range(d):
            tr = tr + Mk[i, i]
        pk = -(tr) if k == 1 else ComplexInterval(tr.re / (-float(k)), tr.im / (-float(k)))
        coeffs.append(pk)
        if k < d:
            Mk = cmat @ (Mk + eye * pk)
    return coeffs


@pytest.mark.parametrize("d", [1, 2, 5, 9, 12])
def test_char_poly_matches_scalar_reference(d):
    """The array recursion reproduces the scalar coefficients endpoint for
    endpoint, on a thin interval Hermitian block and on a point block."""
    rng = np.random.default_rng(SEED + d)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = (A + A.conj().T) / 2
    rad = np.abs(M.real) * rng.uniform(0, 1e-10, (d, d))
    thin = stab.BlockMatrix(
        l=1, kind="Q", interval_mode=True,
        re=IntervalArray(M.real - rad, M.real + rad).to_object(),
        im=IntervalArray(M.imag - rad, M.imag + rad).to_object(),
    )
    point = stab.BlockMatrix(l=0, kind="P", re=M.real, im=None, interval_mode=False)
    for blk in (thin, point):
        re, im = stab._block_intervals(blk)
        cmat = np.array([[ComplexInterval(re[i, j], im[i, j]) for j in range(d)] for i in range(d)])
        ref = _char_poly_reference(cmat)
        pre, pim = stab._char_poly((re, im))
        assert [(c.re.lo, c.re.hi, c.im.lo, c.im.hi) for c in ref] == list(zip(pre.lo, pre.hi, pim.lo, pim.hi))


class TestVerdicts:
    def test_n7_stable_inside(self):
        ring, omega = cat.one_ring_family(5, 2, 0.1)
        v = stab.stability_test(ring, omega, mu_zero=False)
        assert v.verdict == "CertifiedStable"

    def test_n7_unstable_outside(self):
        zstar = cat.threshold("p2", 7)
        ring, omega = cat.one_ring_family(5, 2, zstar + 0.01)
        v = stab.stability_test(ring, omega, mu_zero=False)
        assert v.verdict == "NotPositive"
        assert v.failing_block == 1

    def test_n7_equator_degenerate(self):
        """The pentagonal bipyramid is a degenerate critical point: the
        mode-2 block has a zero eigenvalue beyond the symmetry kernel."""
        v = stab.stability_test(cat.fixture("bipyramid7"), 0.0)
        assert v.verdict == "Inconclusive"
        assert "l=2" in v.reason

    def test_ring_of_seven_unstable(self):
        ring, omega = cat.one_ring_family(7, 0, 0.5)
        v = stab.stability_test(ring, omega, mu_zero=False)
        assert v.verdict == "NotPositive"

    def test_n8_equilibrium_with_kernel(self):
        v = stab.stability_test(cat.fixture_interval("antiprism8"), 0.0)
        assert v.verdict == "CertifiedStable"
        assert v.kernel_real_dim == 2
        m2 = [b for b in v.blocks if b.l == 2][0]
        assert sorted(c.count for c in m2.clusters) == [2, 2]

    def test_verdict_json_schema(self):
        ring, omega = cat.one_ring_family(5, 2, 0.1)
        v = stab.stability_test(ring, omega, mu_zero=False)
        obj = v.to_json()
        assert set(obj) >= {"omega", "mu", "blocks", "verdict"}
        for b in obj["blocks"]:
            assert set(b) >= {"l", "kind", "size", "eigs", "clusters"}


class TestSegmentStability:
    def _n5_certs(self, w0, w1):
        seed = cat.fixture("bipyramid5", (2, 2, 1))
        res = cont.continue_branch(seed, w0, w1, seed_omega=0.0)
        assert res.status == "completed"
        return res.certificates

    def test_n5_segment_stable(self):
        certs = self._n5_certs(0.28, 0.29)
        sv = stab.stability_over_segment(certs[0])
        assert sv.verdict == "CertifiedStable" and sv.whole_segment

    def test_zero_width_segment_matches_point(self):
        certs = self._n5_certs(0.28, 0.285)
        c = certs[0]
        degenerate = cont.BranchCertificate(
            m=c.m, n=c.n, p=c.p, anchor=c.anchor, x0=c.x0, x1=c.x0, bounds=c.bounds
        )
        sv = stab.stability_over_segment(degenerate)
        pc = cont.nk_validate_point(c.x0, c.anchor, c.m, c.p)
        pv = stab.stability_test(pc.ring_enclosure(), Interval(c.x0.omega), mu_zero=False)
        assert sv.point_verdict.verdict == pv.verdict == "CertifiedStable"
        assert sv.whole_segment

    def test_n6_stability_loss_detected(self):
        """Stability of the staggered-triangle branch holds comfortably at
        omega = 1.35 but cannot be propagated across the loss near 1.415:
        existence still certifies there while the crossing mode defeats the
        tube invertibility, and past the crossing the endpoint itself is
        NotPositive."""
        seed = cat.fixture("octahedron", (3, 2, 0))
        good = cont.continue_branch(seed, 1.35, 1.355, step=5e-3, seed_omega=0.0)
        sv_good = stab.stability_over_segment(good.certificates[0])
        assert sv_good.verdict == "CertifiedStable" and sv_good.whole_segment

        res = cont.continue_branch(seed, 1.41, 1.43, step=5e-3, seed_omega=0.0)
        assert res.status == "completed"  # existence certifies across the loss
        crossing = [c for c in res.certificates if c.omega_interval[0] <= 1.4150 <= c.omega_interval[1]]
        assert crossing
        sv = stab.stability_over_segment(crossing[0])
        assert not sv.whole_segment
        after = [c for c in res.certificates if c.omega_interval[0] >= 1.4199]
        sv_after = stab.stability_over_segment(after[0])
        assert sv_after.point_verdict.verdict == "NotPositive"


# ---------------------------------------------------------------------------
# The array stability layer against the object-array path it replaced
# ---------------------------------------------------------------------------


def _full_hstar_hessian_reference(vecs, omega):
    """The object-array full-space Hessian of H*_omega over scalar Intervals
    (double loop over vortex pairs), as the array routine replaced it;
    returns the matrix and the multipliers."""
    N = vecs.shape[0]
    zero3 = lambda: np.array([Interval(0.0)] * 3, dtype=object)
    norm_sq = lambda d: d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    grad = np.empty((N, 3), dtype=object)
    for j in range(N):
        acc = zero3()
        for i in range(N):
            if i != j:
                d = vecs[j] - vecs[i]
                acc = acc + d / norm_sq(d)
        acc = -acc
        acc[2] = acc[2] - omega
        grad[j] = acc
    c = np.empty(N, dtype=object)
    for j in range(N):
        c[j] = vecs[j][0] * grad[j][0] + vecs[j][1] * grad[j][1] + vecs[j][2] * grad[j][2]
    eye = md.to_interval_array(np.eye(3))
    H = np.empty((3 * N, 3 * N), dtype=object)
    H[:, :] = Interval(0.0)
    for j in range(N):
        diag = np.full((3, 3), Interval(0.0), dtype=object)
        for i in range(N):
            if i == j:
                continue
            d = vecs[j] - vecs[i]
            s = norm_sq(d)
            outer = np.array([[d[a] * d[b] for b in range(3)] for a in range(3)], dtype=object)
            blk = eye / s - (2.0 * outer) / s.sqr()
            H[3 * j : 3 * j + 3, 3 * i : 3 * i + 3] = blk
            diag = diag - blk
        H[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] = diag - eye * c[j]
    return H, c


def _assemble_blocks_reference(basis, hess):
    """The object-array block assembly P^T H P (Hermitian: B/C split) with
    numpy's object ``@``, as the array routine replaced it."""
    out = []
    for blk in basis.blocks:
        stack = lambda part: np.array(
            [(c.re if part == "re" else c.im if c.im is not None else IntervalArray(np.zeros(len(c.re)))).to_object()
             for c in blk.columns], dtype=object).T
        if blk.kind == "P":
            P = stack("re")
            M = P.T @ (hess @ P)
            out.append(((M + M.T) * 0.5, None))
        else:
            Bc, Cc = stack("re"), stack("im")
            HB, HC = hess @ Bc, hess @ Cc
            re, im = Bc.T @ HB + Cc.T @ HC, Bc.T @ HC - Cc.T @ HB
            out.append(((re + re.T) * 0.5, (im - im.T) * 0.5))
    return out


def _branch5_tubes():
    seed = cat.fixture("bipyramid5", (2, 2, 1))
    certs = cont.continue_branch(seed, 0.2, 0.3, seed_omega=0.0).certificates
    return [(certs[k].ring_tube(), certs[k].omega_tube()) for k in (0, 30, min(60, len(certs) - 1))]


def _collision_box():
    return cat.fixture_interval("collision10"), Interval(cat.fixture_entry("collision10").omega)


def _widths_within(new, ref) -> bool:
    """Entrywise width(new) <= width(ref) (1 + 1e-9)."""
    ref = IntervalArray.from_object(ref)
    return bool(np.all(new.hi - new.lo <= (ref.hi - ref.lo) * (1.0 + 1e-9)))


def _contains(enc, x) -> bool:
    return bool(np.all((enc.lo <= x) & (x <= enc.hi)))


@pytest.mark.parametrize("case", ["branch5", "collision10"])
def test_array_stability_layer_against_object_reference(case):
    """On three branch5 tubes (segments 0, 30 and 60) and the m = 1
    collision10 box: the array Hessian and blocks are no wider than the
    object-array reference (x (1 + 1e-9)) and contain the float Hessian and
    blocks at 16 sampled points of the box."""
    rng = np.random.default_rng(SEED + 16)
    boxes = _branch5_tubes() if case == "branch5" else [_collision_box()]
    for ring, omega in boxes:
        a_obj = md.lift_rho(ring).vectors
        basis = stab.build_slice(ring, a_obj, normalize=False)
        if basis.permutation is not None:
            a_obj = a_obj[basis.permutation]
        hess = md.full_hstar_hessian(a_obj, omega).matrix
        blocks = stab.assemble_blocks(basis, hess)
        H_ref, _ = _full_hstar_hessian_reference(a_obj, omega)
        assert isinstance(hess, IntervalArray) and _widths_within(hess, H_ref)
        for blk, (re_ref, im_ref) in zip(blocks, _assemble_blocks_reference(basis, H_ref)):
            assert isinstance(blk.re, IntervalArray) and _widths_within(blk.re, re_ref)
            assert im_ref is None or _widths_within(blk.im, im_ref)

        gens = iv.as_array(ring.generators)
        for _ in range(16):
            u = gens.lo + rng.uniform(size=gens.shape) * (gens.hi - gens.lo)
            w = omega.lo + rng.uniform() * (omega.hi - omega.lo)
            point = md.RingSystem(ring.m, ring.n, ring.p, u, check=False)
            a = np.asarray(md.lift_rho(point).vectors, dtype=float)
            pbasis = stab.build_slice(point, a, normalize=False)
            assert pbasis.permutation == basis.permutation
            if pbasis.permutation is not None:
                a = a[pbasis.permutation]
            H = md.full_hstar_hessian(a, w).matrix
            assert _contains(hess, H)
            for blk, pblk in zip(blocks, stab.assemble_blocks(pbasis, H)):
                assert _contains(blk.re, pblk.re)
                assert pblk.im is None or _contains(blk.im, pblk.im)
