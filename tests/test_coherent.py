import math

import numpy as np
import pytest

from lbstates import (
    ContractError,
    CutoffError,
    FockCutoff,
    LadderKind,
    ModeIndex,
    basis_vector_c,
    build_coherent,
    combined_state_defect,
    eigen_residual,
    resolution_identity_check,
)
from lbstates.coherent import CoherentSpec, gaussian_series_tail, radial_factorial_ratio

CUT = FockCutoff(64, 64, 64)
ZGRID = (0, 1, -1, 1j, -1j, 1 - 1j, 2 + 2j)


class TestConstruction:
    def test_zero_labels_give_quasi_vacuum(self):
        st = build_coherent(CoherentSpec(0.0, 0.0, "A", "plus", CUT))
        ref = basis_vector_c(ModeIndex(0, 0), CUT)
        assert abs(st.inner(ref) - 1.0) < 1e-14
        assert abs(st.norm() - 1.0) < 1e-14

    def test_b_family_zero_label_sits_on_first_level(self):
        st = build_coherent(CoherentSpec(0.0, 0.0, "B", "plus", CUT))
        ref = basis_vector_c(ModeIndex(0, 1), CUT)
        assert abs(st.inner(ref) - 1.0) < 1e-14

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_unit_norms_across_grid(self, family, branch):
        for z1 in (0, 1 - 1j):
            for z2 in ZGRID:
                st = build_coherent(CoherentSpec(z1, z2, family, branch, CUT))
                assert abs(st.norm() - 1.0) < 1e-8

    def test_tail_bound_recorded_and_enforced(self):
        st = build_coherent(CoherentSpec(1.0, 1 - 1j, "A", "plus", CUT))
        assert st.meta["tail_z1"] < 1e-12 and st.meta["tail_z2"] < 1e-12
        with pytest.raises(CutoffError) as err:
            build_coherent(CoherentSpec(0.0, 3 + 3j, "A", "plus", FockCutoff(8, 8, 8)))
        assert err.value.tail_estimate > 0

    def test_tail_bound_is_monotone_in_terms(self):
        bounds = [gaussian_series_tail(2 + 2j, n) for n in range(12, 40)]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))


class TestEigenEquations:
    LEGAL = [("A", "plus", LadderKind.A2), ("A", "minus", LadderKind.A2DAG),
             ("B", "plus", LadderKind.B2DAG), ("B", "minus", LadderKind.B2)]

    @pytest.mark.parametrize("family,branch,op", LEGAL)
    def test_legal_residuals_small(self, family, branch, op):
        for z2 in (1.0, 1 - 1j, 2 + 2j):
            spec = CoherentSpec(0.5j, z2, family, branch, CUT)
            assert eigen_residual(spec, build_coherent(spec), op) < 1e-8
            assert eigen_residual(spec, build_coherent(spec), LadderKind.A1) < 1e-8

    def test_off_branch_is_not_an_eigenstate(self):
        spec = CoherentSpec(1.0, 1 - 1j, "A", "minus", CUT)
        with pytest.raises(ContractError):
            eigen_residual(spec, build_coherent(spec), LadderKind.A2)
        residual = eigen_residual(spec, build_coherent(spec), LadderKind.A2, strict=False)
        assert residual > 0.5  # documents the branch asymmetry

    def test_plus_branch_lowering_example(self):
        spec = CoherentSpec(1.0, 1 - 1j, "A", "plus", CUT)
        assert eigen_residual(spec, build_coherent(spec), LadderKind.A2) < 1e-8

    def test_minus_branch_raising_acts_as_lowering(self):
        spec = CoherentSpec(1.0, 1 - 1j, "A", "minus", CUT)
        assert eigen_residual(spec, build_coherent(spec), LadderKind.A2DAG) < 1e-8


class TestOrthogonality:
    def test_branches_orthogonal_same_labels(self):
        for family in ("A", "B"):
            for z in (0.3, 1 - 1j):
                plus = build_coherent(CoherentSpec(z, z, family, "plus", CUT))
                minus = build_coherent(CoherentSpec(z, z, family, "minus", CUT))
                assert abs(plus.inner(minus)) < 1e-12

    def test_a_family_branches_orthogonal_different_labels(self):
        plus = build_coherent(CoherentSpec(0.0, 1.0, "A", "plus", CUT))
        minus = build_coherent(CoherentSpec(0.0, 2 + 2j, "A", "minus", CUT))
        assert abs(plus.inner(minus)) < 1e-12


class TestResolutionOfIdentity:
    SMALL = FockCutoff(10, 12, 10)

    def test_quadrature_factors_are_factorials(self):
        r = radial_factorial_ratio(40)
        np.testing.assert_allclose(r, np.ones(41), rtol=0, atol=1e-12)

    def test_vacuum_pair(self):
        f = basis_vector_c(ModeIndex(0, 0), self.SMALL)
        assert resolution_identity_check("plus", f, f, self.SMALL) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_targets(self):
        f = basis_vector_c(ModeIndex(0, 1), self.SMALL)
        g = basis_vector_c(ModeIndex(0, 2), self.SMALL)
        assert abs(resolution_identity_check("plus", f, g, self.SMALL)) < 1e-8

    def test_minus_branch_pair(self):
        f = basis_vector_c(ModeIndex(1, -2), self.SMALL)
        assert resolution_identity_check("minus", f, f, self.SMALL) == pytest.approx(1.0, abs=1e-6)

    def test_reproduces_subspace_gram(self):
        idxs = [(n, p) for n in range(3) for p in range(4)]
        states = {i: basis_vector_c(ModeIndex(*i), self.SMALL) for i in idxs}
        for i in idxs:
            for j in idxs:
                got = resolution_identity_check("plus", states[i], states[j], self.SMALL)
                want = 1.0 if i == j else 0.0
                assert got == pytest.approx(want, abs=1e-6)

    def test_subspace_mismatch_rejected(self):
        f = basis_vector_c(ModeIndex(0, -1), self.SMALL)
        with pytest.raises(ContractError):
            resolution_identity_check("plus", f, f, self.SMALL)

    def test_b_family_resolution(self):
        f = basis_vector_c(ModeIndex(0, 1), self.SMALL)
        assert resolution_identity_check("plus", f, f, self.SMALL, family="B") == pytest.approx(
            1.0, abs=1e-6
        )


class TestCombinedState:
    SMALL = FockCutoff(10, 12, 10)

    def test_pure_plus_pair_loses_half(self):
        f = basis_vector_c(ModeIndex(0, 0), self.SMALL)
        defect = combined_state_defect(f, f, self.SMALL)
        assert defect == pytest.approx(-0.5, abs=1e-10)
        assert abs(defect) > 0.1

    def test_cross_subspace_pair_keeps_cross_integral(self):
        f = basis_vector_c(ModeIndex(0, 1), self.SMALL)
        g = basis_vector_c(ModeIndex(0, -2), self.SMALL)
        # <f,g> = 0; the integral reduces to the surviving cross term, which
        # couples c_{0,n2} to c_{0,-n2-1}: here n2 = 1 pairs f with g exactly
        defect = combined_state_defect(f, g, self.SMALL)
        assert defect == pytest.approx(0.5, abs=1e-10)

    def test_zero_states(self):
        f = basis_vector_c(ModeIndex(0, 0), self.SMALL)
        zero = type(f)(f.first_register * 0, f.upper * 0, f.lower * 0)
        assert combined_state_defect(zero, zero, self.SMALL) == 0.0


class TestBruteForceQuadratureOracle:
    def test_resolution_matches_polar_quadrature(self):
        # fully independent route for the double-label integral: dense polar
        # trapezoid instead of the analytic-angular + Gauss-Laguerre path
        small = FockCutoff(12, 8, 6)
        f = basis_vector_c(ModeIndex(1, 2), small)
        got = resolution_identity_check("plus", f, f, small)
        rs = np.linspace(1e-9, 7.0, 4000)

        def radial(n):
            vals = np.exp(-rs ** 2) * rs ** (2 * n) / math.factorial(n) * rs
            return 2.0 * np.trapezoid(vals, rs)

        assert got == pytest.approx(radial(1) * radial(2), abs=1e-10)
