import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lbstates import (
    ContractError,
    ExceptionalPointError,
    FockCutoff,
    ModeIndex,
    PhysicalParams,
    alpha,
    apply_HV,
    build_biorth_pair,
    build_pt_ladders,
    classify_levels,
    eigenvalue_E,
    exceptional_diagnostics,
    factorization_defect,
    gain_loss_asymptotics,
    normalization_K,
    theta,
)
from lbstates.pt import (
    biorth_level_matrices,
    dual_spinor,
    hv_adjoint_defect,
    phi_norm_bound,
    phi_spinor,
    pt_level_ladder,
    pt_spinor_ladder,
)
from lbstates.spinor import apply_HK, basis_vector_c, hamiltonian_spinor_matrix

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
        assert eigenvalue_E(0, PhysicalParams(V=0.5)) == pytest.approx(1.0j, abs=1e-15)

    def test_unbroken_value(self):
        assert eigenvalue_E(1, PhysicalParams(V=0.5)) == pytest.approx(
            1.7320508075688772, abs=1e-14)

    def test_broken_value(self):
        e = eigenvalue_E(1, PhysicalParams(V=9.5))
        assert e.real == 0.0
        assert e.imag == pytest.approx(18.894443627691185, abs=1e-12)

    def test_diagonalization_oracle(self):
        # dense eigenvalues of the truncated block must contain E_p for
        # interior levels
        params = PhysicalParams(V=0.5)
        cut = FockCutoff(0, 24, 22)
        h = hamiltonian_spinor_matrix(params, cut).matrix.toarray()
        eigs = np.linalg.eigvals(h)
        for p in (-5, -1, 0, 1, 5, 12):
            e = eigenvalue_E(p, params)
            assert np.min(np.abs(eigs - e)) < 1e-9

    def test_negative_branch_sign(self):
        e = eigenvalue_E(-4, PhysicalParams(V=0.5))
        assert e.real < 0 and abs(e.imag) < 1e-15


class TestTheta:
    def test_zero_at_origin(self):
        assert theta(0, PhysicalParams(V=0.77)) == 0.0

    def test_value_and_modulus(self):
        th = theta(1, PhysicalParams(V=0.5))
        assert th == pytest.approx(1.7320508075688772 - 1.0j, abs=1e-14)
        assert abs(th) == pytest.approx(2.0, abs=1e-14)

    def test_negative_branch(self):
        th = theta(-1, PhysicalParams(V=0.5))
        assert th == pytest.approx(-(1.7320508075688772 + 1.0j), abs=1e-14)
        assert abs(th) == pytest.approx(2.0, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.floats(0.01, 0.99))
    def test_modulus_identity_small_v(self, p, v):
        params = PhysicalParams(V=v)
        for q in (p, -p):
            assert abs(abs(theta(q, params)) - 2 * math.sqrt(p)) < 1e-12


class TestBiorthFamilies:
    def test_zero_level_shared(self):
        params = PhysicalParams(V=0.5)
        x, y = build_biorth_pair(ModeIndex(0, 0), params, CUT)
        assert np.array_equal(x.spinor.upper, y.spinor.upper)
        assert x.spinor.upper[0] == 1.0
        assert y.role == "psi"

    def test_role_switches_for_large_v(self):
        _, y = build_biorth_pair(ModeIndex(0, 1), PhysicalParams(V=9.5), CUT)
        assert y.role == "psi_tilde"

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
            for p in range(-CUT.pmax, CUT.pmax + 1):
                x = phi_spinor(p, params, CUT)
                y = dual_spinor(p, params, CUT)
                e = eigenvalue_E(p, params)
                assert np.linalg.norm(h @ x - e * x) < 1e-10 * np.linalg.norm(x)
                assert np.linalg.norm(hd @ y - np.conj(e) * y) < 1e-10 * np.linalg.norm(y)

    def test_norm_bound_small_v(self):
        params = PhysicalParams(V=0.5)
        bound = phi_norm_bound(params)
        assert bound == pytest.approx(4.0 / 3.0)
        for p in range(CUT.pmax + 1):
            assert np.linalg.norm(phi_spinor(p, params, CUT)) ** 2 <= bound + 1e-12

    def test_norm_bound_large_v(self):
        params = PhysicalParams(V=9.5)
        cut = FockCutoff(2, 120, 110)
        bound = phi_norm_bound(params)
        assert bound == pytest.approx(91 / 0.75, rel=1e-12)
        for p in range(91, cut.pmax + 1):
            assert np.linalg.norm(dual_spinor(p, params, cut)) ** 2 <= bound + 1e-12


class TestApplyHV:
    def test_eigen_application(self):
        params = PhysicalParams(V=0.5)
        x, y = build_biorth_pair(ModeIndex(1, 3), params, CUT)
        out = apply_HV(x.spinor, params, CUT)
        e = eigenvalue_E(3, params)
        assert np.linalg.norm(out.spinor_stack() - e * x.spinor.spinor_stack()) < 1e-10

    def test_reduces_to_v0(self, params):
        st = basis_vector_c(ModeIndex(0, 2), CUT)
        a = apply_HV(st, params, CUT)  # params has V = 0
        b = apply_HK(st, params, CUT)
        assert np.array_equal(a.spinor_stack(), b.spinor_stack())

    def test_adjoint_defect_scale(self):
        params = PhysicalParams(V=0.5)
        assert hv_adjoint_defect(params, CUT) == pytest.approx(2 * params.eps0 * params.V, abs=1e-12)


class TestPtLadders:
    def test_annihilation_points(self):
        params = PhysicalParams(V=0.5)
        ops = build_pt_ladders(params, CUT, representation="spinor")
        x0 = phi_spinor(0, params, CUT)
        assert np.linalg.norm(ops["A_K_V"].matrix @ x0) < 1e-12
        ym1 = dual_spinor(-1, params, CUT)
        assert np.linalg.norm(ops["A_K_V"].dagger().matrix @ ym1) < 1e-12
        assert np.linalg.norm(ops["c2"].matrix @ x0) < 1e-12

    def test_ladder_actions(self):
        params = PhysicalParams(V=0.5)
        ops = build_pt_ladders(params, CUT, representation="spinor")
        for p in (-3, 1, 5):
            x = phi_spinor(p, params, CUT)
            down = ops["A_K_V"].matrix @ x
            assert np.linalg.norm(down - math.sqrt(abs(p)) * phi_spinor(p - 1, params, CUT)) < 1e-11
            up = ops["B_K_V"].matrix @ x
            assert np.linalg.norm(up - math.sqrt(abs(p + 1)) * phi_spinor(p + 1, params, CUT)) < 1e-11

    def test_c2_d2_theta_weights(self):
        params = PhysicalParams(V=0.5)
        ops = build_pt_ladders(params, CUT, representation="spinor")
        x1 = phi_spinor(1, params, CUT)
        want = np.sqrt(theta(2, params)) * phi_spinor(2, params, CUT)
        assert np.linalg.norm(ops["d2"].matrix @ x1 - want) < 1e-11
        got = ops["c2"].matrix @ x1
        want_down = np.sqrt(theta(1, params)) * phi_spinor(0, params, CUT)
        assert np.linalg.norm(got - want_down) < 1e-11

    def test_adjoints_on_dual_family(self):
        params = PhysicalParams(V=0.5)
        ops = build_pt_ladders(params, CUT, representation="spinor")
        y2 = dual_spinor(2, params, CUT)
        want = np.conj(np.sqrt(theta(3, params))) * dual_spinor(3, params, CUT)
        assert np.linalg.norm(ops["c2"].dagger().matrix @ y2 - want) < 1e-11

    def test_exceptional_refusal(self):
        with pytest.raises(ExceptionalPointError):
            build_pt_ladders(PhysicalParams(V=2.0), CUT)

    @pytest.mark.parametrize("v", [0.5, 9.5])
    @pytest.mark.parametrize("name", ["A_K_V", "B_K_V", "c2", "d2"])
    def test_sparse_product_matches_dense(self, v, name):
        params = PhysicalParams(V=v)
        x, y = biorth_level_matrices(params, CUT)
        dense = x @ pt_level_ladder(name, params, CUT).toarray() @ y.conj().T
        got = pt_spinor_ladder(name, params, CUT).matrix.toarray()
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-14 * np.abs(dense).max())

    @pytest.mark.parametrize("v", [0.0, 0.25, 0.5, 9.5])
    def test_factorization(self, v):
        params = PhysicalParams(V=v)
        assert factorization_defect(params, CUT) < 1e-9


class TestClassification:
    def test_small_v_all_unbroken(self):
        cls = classify_levels(PhysicalParams(V=0.5), range(1, 6))
        assert all(c.label == "unbroken" for c in cls)

    def test_zero_mode(self):
        assert classify_levels(PhysicalParams(V=0.5), [0])[0].label == "zero_mode"

    def test_large_v_split(self):
        cls = {c.p: c.label for c in classify_levels(PhysicalParams(V=9.5), range(1, 95))}
        assert all(cls[p] == "broken" for p in range(1, 91))
        assert all(cls[p] == "unbroken" for p in range(91, 95))

    def test_exceptional_level(self):
        assert classify_levels(PhysicalParams(V=3.0), [9])[0].label == "exceptional"

    def test_reality_consistency(self):
        for v in (0.5, 9.5):
            params = PhysicalParams(V=v)
            for cls in classify_levels(params, range(-95, 96)):
                e = eigenvalue_E(cls.p, params)
                if cls.label == "unbroken":
                    assert e.imag == 0.0
                elif cls.label == "broken":
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
        ap, am = gain_loss_asymptotics(1, 9.5)
        # derived oracle: |alpha+| = 1/(V + sqrt(V^2 - 1)) by the unit product
        assert ap == pytest.approx(1.0 / (9.5 + math.sqrt(9.5 ** 2 - 1)), abs=1e-12)
        assert ap == pytest.approx(0.052778186154407436, abs=1e-12)
        assert am == pytest.approx(18.947221813845594, abs=1e-10)

    def test_limits(self):
        ap1, am1 = gain_loss_asymptotics(1, 20.0)
        ap2, am2 = gain_loss_asymptotics(1, 200.0)
        assert ap2 < ap1 and am2 > am1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 80), st.floats(9.1, 30.0))
    def test_unit_product(self, p, v):
        if p < v * v:
            ap, am = gain_loss_asymptotics(p, v)
            assert ap * am == pytest.approx(1.0, abs=1e-12)

    def test_outside_broken_region_rejected(self):
        with pytest.raises(ContractError):
            gain_loss_asymptotics(5, 2.0)


class TestContinuity:
    def test_vectors_converge_in_modulus(self):
        cut = FockCutoff(2, 16, 14)
        p_eps = PhysicalParams(V=1e-4)
        p0 = PhysicalParams(V=0.0)
        worst = 0.0
        for p in range(-cut.pmax, cut.pmax + 1):
            a = np.abs(phi_spinor(p, p_eps, cut))
            b = np.abs(phi_spinor(p, p0, cut))
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
        assert PhysicalParams(V=2.0).is_exceptional_config()
        assert PhysicalParams(V=math.sqrt(2)).is_exceptional_config()
        assert not PhysicalParams(V=9.5).is_exceptional_config()
        assert not PhysicalParams(V=0.5).is_exceptional_config()
