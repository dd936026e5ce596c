import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lbstates import (
    ContractError,
    CutoffError,
    ExceptionalPointError,
    FockCutoff,
    PhysicalParams,
    bicoherent_eigen_residual,
    build_bicoherent,
    convergence_certificate,
    normalization_N,
    quasi_basis_check,
    theta_factorial,
)
from lbstates.bicoherent import BicoherentSpec, bi_product, theta_sequence
from lbstates.pt import dual_spinor, phi_spinor
from lbstates.spinor import SpinorState, first_register_basis

P_HALF = PhysicalParams(V=0.5)
P_BIG = PhysicalParams(V=9.5)
CUT = FockCutoff(24, 64, 64)
CUT_BIG = FockCutoff(24, 150, 150)


def spec(z2, family="theta", side="ket", branch="plus", params=P_HALF, cut=CUT, z1=0.0):
    return BicoherentSpec(z1, z2, family, side, branch, params, cut)


class TestThetaFactorial:
    def test_empty_product(self):
        prod, mod = theta_factorial(0, P_HALF)
        assert prod == 1.0 and mod == 1.0

    def test_modulus_is_scaled_factorial(self):
        _, mod = theta_factorial(3, P_HALF)
        assert mod == pytest.approx(8 * math.sqrt(6), abs=1e-12)
        assert mod == pytest.approx(19.595917942265423, abs=1e-10)

    def test_real_positive_at_v0(self):
        prod, _ = theta_factorial(2, PhysicalParams(V=0.0))
        assert prod.imag == 0.0 and prod.real > 0

    def test_direct_product_oracle(self):
        # independent oracle: multiply the eigenvalue differences directly
        params = PhysicalParams(V=0.3)
        seq = [2 * (cmath.sqrt(k - 0.09) - 0.3j) for k in range(1, 6)]
        expect = np.prod(seq)
        got, mod = theta_factorial(5, params)
        assert got == pytest.approx(expect, rel=1e-13)
        assert mod == pytest.approx(abs(expect), rel=1e-13)

    def test_minus_branch_uses_negative_levels(self):
        got, _ = theta_factorial(2, P_BIG, branch="minus")
        seq = theta_sequence(2, P_BIG, "minus")
        assert got == pytest.approx(seq[1] * seq[2], rel=1e-13)


class TestNormalizationN:
    def test_zero_label(self):
        assert normalization_N(0.0, P_HALF, CUT).value == 1.0

    def test_partial_sum_oracle_value(self):
        # sum 1/(2^n sqrt(n!)) = 1.7441338665578656, frozen from an
        # independent partial-sum computation
        res = normalization_N(1.0, P_HALF, CUT)
        assert res.value == pytest.approx(1.7441338665578656 ** -0.5, abs=1e-10)
        assert res.value == pytest.approx(0.7571991059008585, abs=1e-10)
        assert res.tail < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 2 * math.pi), st.floats(0.1, 2.0))
    def test_phase_independent(self, angle, radius):
        z = radius * cmath.exp(1j * angle)
        a = normalization_N(abs(z), P_HALF, CUT).value
        b = normalization_N(z, P_HALF, CUT).value
        assert a == b  # depends on z2 only through |z2|

    def test_monotone_decreasing(self):
        values = [normalization_N(r, P_HALF, CUT).value for r in (0.0, 0.3, 0.9, 1.7, 2.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)

    def test_cutoff_error_with_estimate(self):
        with pytest.raises(CutoffError) as err:
            normalization_N(3.0, P_HALF, FockCutoff(2, 6, 6))
        assert err.value.tail_estimate is None or err.value.tail_estimate > 0


class TestConstruction:
    def test_standard_binormalized(self):
        s = spec(1 - 1j, family="standard")
        assert bi_product(s) == pytest.approx(1.0, abs=1e-8)

    def test_theta_binormalized_and_n_value(self):
        s = spec(1 - 1j)
        st_ = build_bicoherent(s)
        assert bi_product(s) == pytest.approx(1.0, abs=1e-10)
        assert st_.meta["normalization_N"] == pytest.approx(
            normalization_N(1 - 1j, P_HALF, CUT).value, abs=1e-12)

    def test_branch_cross_products_vanish(self):
        for family in ("standard", "theta"):
            ket = build_bicoherent(spec(1 - 1j, family=family, branch="plus"))
            bra = build_bicoherent(spec(1 - 1j, family=family, side="bra", branch="minus"))
            assert abs(ket.inner(bra)) < 1e-10

    def test_theta_binormalized_large_v(self):
        s = spec(1 - 1j, params=P_BIG, cut=CUT_BIG)
        assert bi_product(s) == pytest.approx(1.0, abs=1e-8)
        s_minus = spec(1 - 1j, branch="minus", params=P_BIG, cut=CUT_BIG)
        assert bi_product(s_minus) == pytest.approx(1.0, abs=1e-10)

    def test_binormalization_grid(self):
        # measuring the pairing in floats costs eps * ||ket|| * ||bra||, so
        # the tolerance is scaled by the states' sizes (the dual families
        # are exponentially large deep in the broken phase)
        for v, cut in ((0.25, CUT), (0.5, CUT), (9.5, CUT_BIG)):
            params = PhysicalParams(V=v)
            for z2 in (0.0, 1.0, 1j, 1 - 1j, 2.0):
                for branch in ("plus", "minus"):
                    s = spec(z2, branch=branch, params=params, cut=cut)
                    ket = build_bicoherent(s)
                    bra = build_bicoherent(s.dual())
                    tol = max(1e-8, 50 * np.finfo(float).eps * ket.norm() * bra.norm())
                    assert abs(ket.inner(bra) - 1.0) < tol

    def test_exceptional_params_rejected(self):
        with pytest.raises(ExceptionalPointError):
            spec(1.0, params=PhysicalParams(V=2.0))

    def test_window_too_small(self):
        with pytest.raises(CutoffError):
            build_bicoherent(spec(1 - 1j, params=P_BIG, cut=FockCutoff(4, 40, 40)))


class TestEigenEquations:
    CASES = [
        ("A_K_V", "standard", "ket", "plus"),
        ("B_K_V", "standard", "ket", "minus"),
        ("A_K_V_dag", "standard", "bra", "minus"),
        ("B_K_V_dag", "standard", "bra", "plus"),
        ("C2", "theta", "ket", "plus"),
        ("D2", "theta", "ket", "minus"),
        ("C2dag", "theta", "bra", "minus"),
        ("D2dag", "theta", "bra", "plus"),
    ]

    @pytest.mark.parametrize("op,family,side,branch", CASES)
    def test_legal_pairings_small_v(self, op, family, side, branch):
        s = spec(1 - 1j, family=family, side=side, branch=branch)
        assert bicoherent_eigen_residual(s, build_bicoherent(s), op) < 1e-8

    @pytest.mark.parametrize("op,family,side,branch", CASES)
    def test_legal_pairings_large_v(self, op, family, side, branch):
        s = spec(1 - 1j, family=family, side=side, branch=branch, params=P_BIG, cut=CUT_BIG)
        st_ = build_bicoherent(s)
        tol = 1e-8 * max(1.0, st_.norm())
        assert bicoherent_eigen_residual(s, build_bicoherent(s), op) < tol

    def test_first_register_label(self):
        s = spec(1.0, z1=2 + 1j, cut=FockCutoff(48, 48, 48))
        assert bicoherent_eigen_residual(s, build_bicoherent(s), "A1") < 1e-8

    def test_illegal_pairing_rejected(self):
        with pytest.raises(ContractError):
            s = spec(1.0)
            bicoherent_eigen_residual(s, build_bicoherent(s), "D2")
        with pytest.raises(ContractError):
            s = spec(1.0, family="standard")
            bicoherent_eigen_residual(s, build_bicoherent(s), "C2")


class TestExceptionalLevels:
    # V = 2 makes p = V^2 = 4 exceptional; only a series that reaches it fails
    P_EXC = PhysicalParams(V=2.0)

    def test_series_stopping_before_exceptional_level_builds(self):
        st = build_bicoherent(spec(1e-3, family="standard", params=self.P_EXC))
        assert np.count_nonzero(st.upper) == 4  # levels 0..3
        assert st.norm2() > 0.0

    def test_series_reaching_exceptional_level_raises(self):
        with pytest.raises(ExceptionalPointError):
            build_bicoherent(spec(1 - 1j, family="standard", params=self.P_EXC))


class TestQuasiBasis:
    SMALL = FockCutoff(8, 10, 8)

    def _dual_pair(self, n, p, params):
        half = self.SMALL.nmax2 + 1
        y = dual_spinor(p, params, self.SMALL)
        x = phi_spinor(p, params, self.SMALL)
        f = SpinorState(first_register_basis(n, self.SMALL.nmax1), y[:half], y[half:])
        g = SpinorState(first_register_basis(n, self.SMALL.nmax1), x[:half], x[half:])
        return f, g

    def test_biorthogonal_gram_reproduced(self):
        for n, p in ((0, 0), (1, 1), (2, 3)):
            f, g = self._dual_pair(n, p, P_HALF)
            got = quasi_basis_check(f, g, P_HALF, self.SMALL, branch="plus")
            assert got == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_cross_pair(self):
        f, _ = self._dual_pair(0, 1, P_HALF)
        _, g = self._dual_pair(0, 2, P_HALF)
        assert abs(quasi_basis_check(f, g, P_HALF, self.SMALL, branch="plus")) < 1e-8

    def test_swapped_order_agrees(self):
        f, g = self._dual_pair(1, 2, P_HALF)
        a = quasi_basis_check(f, g, P_HALF, self.SMALL, branch="plus")
        b = quasi_basis_check(g, f, P_HALF, self.SMALL, branch="plus", order="psi_phi")
        assert a == pytest.approx(b, abs=1e-8)

    def test_minus_branch(self):
        f, g = self._dual_pair(0, -2, P_HALF)
        assert quasi_basis_check(f, g, P_HALF, self.SMALL, branch="minus") == pytest.approx(
            1.0, abs=1e-6)


class TestV0Limit:
    def test_theta_family_reduces_in_modulus(self):
        cut = FockCutoff(20, 48, 48)
        for branch in ("plus", "minus"):
            eps = build_bicoherent(BicoherentSpec(0.5, 1 - 1j, "theta", "ket", branch,
                                                  PhysicalParams(V=1e-4), cut))
            zero = build_bicoherent(BicoherentSpec(0.5, 1 - 1j, "theta", "ket", branch,
                                                   PhysicalParams(V=0.0), cut))
            for a, b in ((eps.upper, zero.upper), (eps.lower, zero.lower),
                         (eps.first_register, zero.first_register)):
                assert np.abs(np.abs(a) - np.abs(b)).max() < 1e-6


class TestConvergenceCertificate:
    def test_small_v_bound(self):
        rep = convergence_certificate(spec(1 - 1j))
        assert rep["norm_bound"] == pytest.approx(4.0 / 3.0)
        assert rep["norm_bound_holds"] and rep["passes"]
        assert rep["measured_max_norm2"] <= rep["norm_bound"] + 1e-12
        assert rep["tail_estimate"] < 1e-12

    def test_large_v_split_bound(self):
        rep = convergence_certificate(spec(1 - 1j, params=P_BIG, cut=CUT_BIG))
        assert rep["norm_bound"] == pytest.approx(91 / 0.75, rel=1e-12)
        assert rep["bound_applies_from_level"] == 91
        assert rep["norm_bound_holds"] and rep["passes"]
        # broken-region norms may exceed the unbroken bound; they are
        # reported separately
        assert rep["measured_max_norm2"] >= rep["measured_max_norm2_in_bound_region"]

    def test_v0_norms_exactly_one(self):
        rep = convergence_certificate(spec(1.0, params=PhysicalParams(V=0.0)))
        assert rep["norm_bound"] == 1.0
        assert rep["measured_max_norm2"] == pytest.approx(1.0, abs=1e-12)

    def test_failing_window_reported(self):
        rep = convergence_certificate(spec(1 - 1j, params=P_BIG, cut=FockCutoff(4, 40, 40)))
        assert not rep["passes"]
