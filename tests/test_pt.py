import cmath
import math
from dataclasses import replace

import mp_reference
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import exceptional_diagnostics, normalization_K
from lbstates import ContractError, ExceptionalPointError, FockCutoff, PhysicalParams
from lbstates.ladders import hamiltonian_spinor_matrix, level_ladder_matrix
from lbstates.levels import alpha_moduli, spectrum_table, theta_table
from lbstates.pt import (alpha, biorth_level_matrices, factorization_defect, level_spinors,
                         phi_norm_bound, pt_spinor_ladder)

CUT = FockCutoff(4, 16, 14)


class TestAlpha:
    def test_value_at_half(self):
        assert alpha(1, 0.5, "plus") == pytest.approx(-0.5 - 0.8660254037844386j, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.floats(0.01, 0.99))
    def test_unimodular_below_one(self, p, v):
        assert abs(abs(alpha(p, v, "plus")) - 1.0) < 1e-12
        assert abs(abs(alpha(p, v, "minus")) - 1.0) < 1e-12

    def test_exact_minus_one_at_exceptional(self):
        assert alpha(2, math.sqrt(2), "plus") == -1.0
        assert alpha(2, math.sqrt(2), "minus") == -1.0

    def test_broken_region_real_with_unit_product(self):
        ap = alpha(1, 9.5, "plus")
        am = alpha(1, 9.5, "minus")
        assert ap.imag == 0.0 and am.imag == 0.0
        assert ap.real * am.real == pytest.approx(1.0, abs=1e-12)


class TestNormalizationK:
    def test_magnitude_at_half(self):
        k_phi, k_psi = normalization_K(1, PhysicalParams(V=0.5))
        expect = (1.0 / 3.0) ** 0.25  # (p / (4 (p - V^2)))^(1/4)
        assert abs(k_phi) == pytest.approx(expect, abs=1e-12)
        assert abs(k_psi) == pytest.approx(expect, abs=1e-12)
        assert abs(k_phi) == pytest.approx(0.7598356856515925, abs=1e-12)

    def test_large_p_limit_recovers_equal_weights(self):
        k_phi, _ = normalization_K(4000, PhysicalParams(V=0.5))
        assert abs(k_phi) == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_exceptional_rejected(self):
        with pytest.raises(ExceptionalPointError):
            normalization_K(4, PhysicalParams(V=2.0))

    def test_product_constraint(self):
        # conj(K_phi) K_psi must reproduce p / (2 (p - V^2 + i V sqrt(...)))
        params = PhysicalParams(V=0.5)
        for p in (1, 2, 7):
            k_phi, k_psi = normalization_K(p, params, "plus")
            s = cmath.sqrt(p - 0.25)
            expect = p / (2 * (p - 0.25 + 1j * 0.5 * s))
            assert np.conj(k_phi) * k_psi == pytest.approx(expect, abs=1e-14)


class TestSpectrum:
    def test_zero_mode_purely_imaginary(self):
        assert spectrum_table([0], PhysicalParams(V=0.5))[0][0] == pytest.approx(1.0j, abs=1e-15)

    def test_unbroken_value(self):
        assert spectrum_table([1], PhysicalParams(V=0.5))[0][0] == pytest.approx(
            1.7320508075688772, abs=1e-14)

    def test_broken_value(self):
        e = spectrum_table([1], PhysicalParams(V=9.5))[0][0]
        assert e.real == 0.0
        assert e.imag == pytest.approx(18.894443627691185, abs=1e-12)

    def test_diagonalization_oracle(self):
        # dense eigenvalues of the truncated block must contain E_p for
        # interior levels
        params = PhysicalParams(V=0.5)
        cut = FockCutoff(0, 24, 22)
        h = hamiltonian_spinor_matrix(params, cut).matrix.toarray()
        eigs = np.linalg.eigvals(h)
        for e in spectrum_table([-5, -1, 0, 1, 5, 12], params)[0]:
            assert np.min(np.abs(eigs - e)) < 1e-9

    def test_negative_branch_sign(self):
        e = spectrum_table([-4], PhysicalParams(V=0.5))[0][0]
        assert e.real < 0 and abs(e.imag) < 1e-15


class TestTheta:
    def test_zero_at_origin(self):
        assert theta_table([0], PhysicalParams(V=0.77))[0] == 0.0

    def test_value_and_modulus(self):
        th = theta_table([1], PhysicalParams(V=0.5))[0]
        assert th == pytest.approx(1.7320508075688772 - 1.0j, abs=1e-14)
        assert abs(th) == pytest.approx(2.0, abs=1e-14)

    def test_negative_branch(self):
        th = theta_table([-1], PhysicalParams(V=0.5))[0]
        assert th == pytest.approx(-(1.7320508075688772 + 1.0j), abs=1e-14)
        assert abs(th) == pytest.approx(2.0, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.floats(0.01, 0.99))
    def test_modulus_identity_small_v(self, p, v):
        moduli = np.abs(theta_table([p, -p], PhysicalParams(V=v)))
        assert (np.abs(moduli - 2 * math.sqrt(p)) < 1e-12).all()


def theta_error(ps, params):
    want = [mp_reference.theta(int(p), params.V, params.eps0) for p in ps]
    return mp_reference.rel_errors(theta_table(ps, params), want).max()


class TestThetaTable:
    """theta_table against 50-digit truth: every entry within 1e-14
    relative, over whole windows and next to the exceptional points."""

    @pytest.mark.parametrize("V", [0.0, 0.5, 0.9, 1.7, 2.5, 9.5])
    @pytest.mark.parametrize("vf,xi", [(1.0, 1.0), (0.7, 1.3)])
    def test_window_within_bound(self, V, vf, xi):
        params = PhysicalParams(vf=vf, xi=xi, V=V)
        assert theta_error(np.arange(-300, 301), params) <= 1e-14

    @pytest.mark.parametrize("p", range(1, 10))
    def test_next_to_exceptional_points(self, p):
        for e in range(4, 12):
            for sign in (1, -1):
                params = PhysicalParams(V=math.sqrt(p) + sign * 10.0 ** -e)
                assert theta_error(np.arange(-12, 13), params) <= 1e-14

    @pytest.mark.parametrize("V", [0.0, 0.5, 0.9, 1.7, 2.5, 9.5])
    @pytest.mark.parametrize("p", [0, 1, -1, 2, -3, 90, -91, 1200, -1200])
    def test_single_levels_within_bound(self, V, p):
        params = PhysicalParams(V=V)
        assert theta_error([p], params) <= 1e-14

    def test_exceptional_level_is_not_refused(self):
        assert theta_error([4, -4, 3], PhysicalParams(V=2.0)) <= 1e-14

    def test_v0_imaginary_parts_are_negative_zeros(self):
        # the sign that V > 0 gives them, so sqrt(theta) is continuous at V = 0
        got = theta_table(np.arange(-5, 6), PhysicalParams(V=0.0))
        assert np.signbit(got.imag).tolist() == [True] * 5 + [False] + [True] * 5

    def test_zero_level_has_positive_zeros(self):
        got = theta_table([0], PhysicalParams(V=0.5))
        assert np.signbit(got.real).tolist() == [False]
        assert np.signbit(got.imag).tolist() == [False]


class TestBiorthFamilies:
    def test_zero_level_shared(self):
        x, y = level_spinors(0, PhysicalParams(V=0.5), CUT.nmax2)
        assert np.array_equal(x, y)
        assert x[0] == 1.0

    def test_dual_family_switches_for_large_v(self):
        # the dual paired with phi_1 is psi_1, lower entry -K alpha^-, for
        # V < 1, and psi-tilde_1, lower entry -K alpha^+, on the broken level
        # 1 at V = 9.5
        half = CUT.nmax2 + 1
        for v, branch in ((0.5, "minus"), (9.5, "plus")):
            _, y = level_spinors(1, PhysicalParams(V=v), CUT.nmax2)
            assert y[half] / y[1] == pytest.approx(-alpha(1, v, branch), abs=1e-14)

    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9, 1.5, 9.5])
    def test_gram_identity(self, v):
        params = PhysicalParams(V=v)
        x, y = biorth_level_matrices(params, CUT)
        gram = y.conj().T @ x
        assert np.abs(gram - np.eye(x.shape[1])).max() < 1e-10

    def test_eigen_relations(self):
        for v in (0.25, 0.5, 9.5):
            params = PhysicalParams(V=v)
            h = hamiltonian_spinor_matrix(params, CUT).matrix
            hd = h.conjugate().T
            ps = range(-CUT.pmax, CUT.pmax + 1)
            for p, e in zip(ps, spectrum_table(ps, params)[0]):
                x, y = level_spinors(p, params, CUT.nmax2)
                assert np.linalg.norm(h @ x - e * x) < 1e-10 * np.linalg.norm(x)
                assert np.linalg.norm(hd @ y - np.conj(e) * y) < 1e-10 * np.linalg.norm(y)

    def test_norm_bound_small_v(self):
        params = PhysicalParams(V=0.5)
        bound = phi_norm_bound(params)
        assert bound == pytest.approx(4.0 / 3.0)
        for p in range(CUT.pmax + 1):
            assert np.linalg.norm(level_spinors(p, params, CUT.nmax2)[0]) ** 2 <= bound + 1e-12

    def test_norm_bound_large_v(self):
        params = PhysicalParams(V=9.5)
        cut = FockCutoff(2, 120, 110)
        bound = phi_norm_bound(params)
        assert bound == pytest.approx(91 / 0.75, rel=1e-12)
        for p in range(91, cut.pmax + 1):
            assert np.linalg.norm(level_spinors(p, params, cut.nmax2)[1]) ** 2 <= bound + 1e-12


class TestHamiltonianV:
    def test_eigen_application(self):
        params = PhysicalParams(V=0.5)
        x, _ = level_spinors(3, params, CUT.nmax2)
        out = hamiltonian_spinor_matrix(params, CUT).matrix @ x
        e = spectrum_table([3], params)[0][0]
        assert np.linalg.norm(out - e * x) < 1e-10

    def test_reduces_to_v0(self, params):
        # H(V) is the V = 0 block (params has V = 0) plus i eps0 V on the
        # upper and -i eps0 V on the lower diagonal
        h0 = hamiltonian_spinor_matrix(params, CUT).matrix.toarray()
        hv = hamiltonian_spinor_matrix(replace(params, V=0.5), CUT).matrix.toarray()
        half = CUT.nmax2 + 1
        assert not np.diag(h0).any()
        assert np.array_equal(hv - h0, np.diag(1j * params.eps0 * 0.5 * np.repeat([1, -1], half)))

    def test_adjoint_defect_scale(self):
        # H(V) - H(V)^+, concentrated on the diagonal blocks, has norm 2 eps0 V
        params = PhysicalParams(V=0.5)
        h = hamiltonian_spinor_matrix(params, CUT).matrix
        defect = np.linalg.norm((h - h.conjugate().T).toarray(), ord=2)
        assert defect == pytest.approx(2 * params.eps0 * params.V, abs=1e-12)


class TestPtLadders:
    def test_annihilation_points(self):
        params = PhysicalParams(V=0.5)
        x0, _ = level_spinors(0, params, CUT.nmax2)
        assert np.linalg.norm(pt_spinor_ladder("A_K_V", params, CUT).matrix @ x0) < 1e-12
        _, ym1 = level_spinors(-1, params, CUT.nmax2)
        assert np.linalg.norm(pt_spinor_ladder("A_K_V", params, CUT).dagger().matrix @ ym1) < 1e-12
        assert np.linalg.norm(pt_spinor_ladder("c2", params, CUT).matrix @ x0) < 1e-12

    def test_ladder_actions(self):
        params = PhysicalParams(V=0.5)
        down_op = pt_spinor_ladder("A_K_V", params, CUT).matrix
        up_op = pt_spinor_ladder("B_K_V", params, CUT).matrix
        phi = {p: level_spinors(p, params, CUT.nmax2)[0] for p in range(-4, 7)}
        for p in (-3, 1, 5):
            down = down_op @ phi[p]
            assert np.linalg.norm(down - math.sqrt(abs(p)) * phi[p - 1]) < 1e-11
            up = up_op @ phi[p]
            assert np.linalg.norm(up - math.sqrt(abs(p + 1)) * phi[p + 1]) < 1e-11

    def test_c2_d2_theta_weights(self):
        params = PhysicalParams(V=0.5)
        th = theta_table([0, 1, 2], params)
        x0, x1, x2 = (level_spinors(p, params, CUT.nmax2)[0] for p in (0, 1, 2))
        want = np.sqrt(th[2]) * x2
        assert np.linalg.norm(pt_spinor_ladder("d2", params, CUT).matrix @ x1 - want) < 1e-11
        got = pt_spinor_ladder("c2", params, CUT).matrix @ x1
        want_down = np.sqrt(th[1]) * x0
        assert np.linalg.norm(got - want_down) < 1e-11

    def test_adjoints_on_dual_family(self):
        params = PhysicalParams(V=0.5)
        _, y2 = level_spinors(2, params, CUT.nmax2)
        _, y3 = level_spinors(3, params, CUT.nmax2)
        want = np.conj(np.sqrt(theta_table([3], params)[0])) * y3
        assert np.linalg.norm(pt_spinor_ladder("c2", params, CUT).dagger().matrix @ y2 - want) < 1e-11

    def test_exceptional_refusal(self):
        for name in ("A_K_V", "B_K_V", "c2", "d2"):
            with pytest.raises(ExceptionalPointError):
                pt_spinor_ladder(name, PhysicalParams(V=2.0), CUT)

    @pytest.mark.parametrize("v", [0.5, 9.5])
    @pytest.mark.parametrize("name", ["A_K_V", "B_K_V", "c2", "d2"])
    def test_sparse_product_matches_dense(self, v, name):
        params = PhysicalParams(V=v)
        x, y = biorth_level_matrices(params, CUT)
        dense = x @ level_ladder_matrix(name, CUT.pmax, params).toarray() @ y.conj().T
        got = pt_spinor_ladder(name, params, CUT).matrix.toarray()
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-14 * np.abs(dense).max())

    @pytest.mark.parametrize("v", [0.0, 0.25, 0.5, 9.5])
    def test_factorization(self, v):
        params = PhysicalParams(V=v)
        assert factorization_defect(params, CUT) < 1e-9


class TestClassification:
    def test_small_v_all_unbroken(self):
        labels = spectrum_table(range(1, 6), PhysicalParams(V=0.5))[1]
        assert labels.tolist() == ["unbroken"] * 5

    def test_zero_mode(self):
        assert spectrum_table([0], PhysicalParams(V=0.5))[1].tolist() == ["zero_mode"]

    def test_large_v_split(self):
        labels = spectrum_table(range(1, 95), PhysicalParams(V=9.5))[1]
        assert labels.tolist() == ["broken"] * 90 + ["unbroken"] * 4

    def test_exceptional_level(self):
        assert spectrum_table([9], PhysicalParams(V=3.0))[1].tolist() == ["exceptional"]

    def test_reality_consistency(self):
        for v in (0.5, 9.5):
            energies, labels = spectrum_table(range(-95, 96), PhysicalParams(V=v))
            for e, label in zip(energies, labels.tolist()):
                if label == "unbroken":
                    assert e.imag == 0.0
                elif label == "broken":
                    assert abs(e.imag) > 0


class TestExceptionalDiagnostics:
    def test_coalescence_at_v1(self):
        rep = exceptional_diagnostics(1, 1.0, CUT)
        assert rep["coincidence_defect"] < 1e-12
        assert rep["alpha_plus"] == -1.0

    def test_self_orthogonality_at_v2(self):
        rep = exceptional_diagnostics(4, 2.0, CUT)
        assert rep["self_orthogonality"] < 1e-12
        assert abs(rep["pair_eigenvalue"]) < 1e-12

    def test_floating_point_v(self):
        rep = exceptional_diagnostics(2, math.sqrt(2), CUT)
        assert rep["coincidence_defect"] < 1e-9

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ContractError):
            exceptional_diagnostics(3, 2.0, CUT)


class TestGainLossAsymptotics:
    def test_frozen_values(self):
        ap, am = (float(m[0]) for m in alpha_moduli([1], 9.5))
        # derived oracle: |alpha+| = 1/(V + sqrt(V^2 - 1)) by the unit product
        assert ap == pytest.approx(1.0 / (9.5 + math.sqrt(9.5 ** 2 - 1)), abs=1e-12)
        assert ap == pytest.approx(0.052778186154407436, abs=1e-12)
        assert am == pytest.approx(18.947221813845594, abs=1e-10)

    def test_limits(self):
        ap1, am1 = alpha_moduli([1], 20.0)
        ap2, am2 = alpha_moduli([1], 200.0)
        assert ap2 < ap1 and am2 > am1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 80), st.floats(9.1, 30.0))
    def test_unit_product(self, p, v):
        if p < v * v:
            ap, am = alpha_moduli([p], v)
            assert ap[0] * am[0] == pytest.approx(1.0, abs=1e-12)


class TestContinuity:
    def test_vectors_converge_in_modulus(self):
        cut = FockCutoff(2, 16, 14)
        p_eps = PhysicalParams(V=1e-4)
        p0 = PhysicalParams(V=0.0)
        worst = 0.0
        for p in range(-cut.pmax, cut.pmax + 1):
            a = np.abs(level_spinors(p, p_eps, cut.nmax2)[0])
            b = np.abs(level_spinors(p, p0, cut.nmax2)[0])
            worst = max(worst, float(np.abs(a - b).max()))
        assert worst < 1e-6

    def test_ladder_entries_converge(self):
        cut = FockCutoff(2, 10, 8)
        a_eps = pt_spinor_ladder("A_K_V", PhysicalParams(V=1e-4), cut).matrix.toarray()
        a_0 = pt_spinor_ladder("A_K_V", PhysicalParams(V=0.0), cut).matrix.toarray()
        assert np.abs(np.abs(a_eps) - np.abs(a_0)).max() < 1e-6


class TestRegimeGuards:
    def test_v_equal_one_is_boundary(self):
        with pytest.raises(ContractError):
            PhysicalParams(V=1.0).regime()

    def test_exceptional_config_detection(self):
        assert PhysicalParams(V=2.0).exceptional_level() == 4
        assert PhysicalParams(V=math.sqrt(2)).exceptional_level() == 2
        assert PhysicalParams(V=9.5).exceptional_level() is None
        assert PhysicalParams(V=0.5).exceptional_level() is None
