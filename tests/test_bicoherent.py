import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mp_reference
from lbstates import (ContractError, CutoffError, ExceptionalPointError, FockCutoff,
                      PhysicalParams, build_bicoherent)
from lbstates.bicoherent import (FAMILIES, BicoherentSpec, _theta_series,
                                 bicoherent_eigen_residual)
from lbstates import bicoherent
from lbstates.checks import first_register_basis, normalization_N, quasi_basis_check
from lbstates.levels import PAIRINGS, level_table, theta_table
from lbstates.pt import level_spinors, phi_norm_bound
from lbstates.spinor import SpinorState

P_HALF = PhysicalParams(V=0.5)
P_BIG = PhysicalParams(V=9.5)
CUT = FockCutoff(24, 64, 64)
CUT_BIG = FockCutoff(24, 150, 150)


def spec(z2, family="theta", side="ket", branch="plus", params=P_HALF, cut=CUT, z1=0.0):
    return BicoherentSpec(z1, z2, family, side, branch, params, cut)


def theta_sequence(count, params, branch="plus"):
    """theta_(+-k) along the branch for k = 0..count, one `theta_table` call."""
    return theta_table((1 if branch == "plus" else -1) * np.arange(count + 1), params)


def theta_factorial(levels, params):
    """theta_p1 ... theta_pn over the levels, one theta_table product."""
    return complex(np.prod(theta_table(levels, params)))


class TestThetaFactorial:
    def test_empty_product(self):
        prod = theta_factorial([], P_HALF)
        assert prod == 1.0 and abs(prod) == 1.0

    def test_modulus_is_scaled_factorial(self):
        mod = abs(theta_factorial([1, 2, 3], P_HALF))
        assert mod == pytest.approx(8 * math.sqrt(6), abs=1e-12)
        assert mod == pytest.approx(19.595917942265423, abs=1e-10)

    def test_real_positive_at_v0(self):
        prod = theta_factorial([1, 2], PhysicalParams(V=0.0))
        assert prod.imag == 0.0 and prod.real > 0

    def test_direct_product_oracle(self):
        # independent oracle: multiply the eigenvalue differences directly
        params = PhysicalParams(V=0.3)
        seq = [2 * (cmath.sqrt(k - 0.09) - 0.3j) for k in range(1, 6)]
        expect = np.prod(seq)
        got = theta_factorial(range(1, 6), params)
        assert got == pytest.approx(expect, rel=1e-13)
        assert abs(got) == pytest.approx(abs(expect), rel=1e-13)

    def test_minus_branch_uses_negative_levels(self):
        got = theta_factorial([-1, -2], P_BIG)
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
    # abs(z) and math.hypot(z.real, z.imag) differ by an ulp here
    @example(1.1252655007825998, 1.1252655007825998)
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

    @pytest.mark.parametrize("z2", [complex(1.7e308, 1.7e308), math.nan])
    def test_label_without_finite_modulus_is_refused(self, z2):
        # abs() raised OverflowError on the first, and nan ended in a
        # CutoffError that printed |z2|=nan
        with pytest.raises(ContractError, match="modulus is not finite"):
            normalization_N(z2, P_HALF, FockCutoff(8, 8))

    def test_label_whose_square_overflows_does_not_reach_its_tail(self):
        # rho ** 2 raised OverflowError; pytest turns a numpy warning into an error
        with pytest.raises(CutoffError, match="does not reach tail") as err:
            normalization_N(1e200, P_HALF, FockCutoff(8, 8))
        assert err.value.tail_estimate == math.inf


class TestConstruction:
    def test_standard_binormalized(self):
        ket = build_bicoherent(spec(1 - 1j, family="standard"))
        assert ket.inner(ket.dual) == pytest.approx(1.0, abs=1e-8)

    def test_theta_binormalized_and_n_value(self):
        s = spec(1 - 1j)
        st_ = build_bicoherent(s)
        assert st_.inner(st_.dual) == pytest.approx(1.0, abs=1e-10)
        assert st_.meta["normalization_N"] == pytest.approx(
            normalization_N(1 - 1j, P_HALF, CUT).value, abs=1e-12)

    def test_branch_cross_products_vanish(self):
        for family in ("standard", "theta"):
            ket = build_bicoherent(spec(1 - 1j, family=family, branch="plus"))
            bra = build_bicoherent(spec(1 - 1j, family=family, side="bra", branch="minus"))
            assert abs(ket.inner(bra)) < 1e-10

    def test_theta_binormalized_large_v(self):
        for branch, tol in (("plus", 1e-8), ("minus", 1e-10)):
            ket = build_bicoherent(spec(1 - 1j, branch=branch, params=P_BIG, cut=CUT_BIG))
            assert ket.inner(ket.dual) == pytest.approx(1.0, abs=tol)

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

    @pytest.mark.parametrize("tol", [2.0, 1.0, 0.0, -1e-12, math.nan, math.inf])
    @pytest.mark.parametrize("family", ["standard", "theta"])
    def test_tolerance_outside_unit_interval_is_refused(self, tol, family):
        with pytest.raises(ContractError, match=r"tail tolerance must be in \(0, 1\)"):
            BicoherentSpec(0.1, 0.1, family, "ket", "plus", P_HALF, CUT, tol)

    @pytest.mark.parametrize("z1, z2", [(complex(1.7e308, 1.7e308), 0.1),
                                        (0.1, complex(1.7e308, -1.7e308)), (0.1, math.nan)])
    @pytest.mark.parametrize("family", ["standard", "theta"])
    def test_label_whose_modulus_is_not_finite_is_refused(self, z1, z2, family):
        with pytest.raises(ContractError, match="modulus is not finite"):
            BicoherentSpec(z1, z2, family, "ket", "plus", P_HALF, CUT)

    def test_window_too_small(self):
        with pytest.raises(CutoffError):
            build_bicoherent(spec(1 - 1j, params=P_BIG, cut=FockCutoff(4, 40, 40)))


def full_window_series(spec):
    """The theta series as it was summed before the cut: every term of the
    window, one numpy-scalar step at a time, with the tail judged at the
    window edge by the smallest |theta_k| past it, found by scanning the
    levels up to [V^2] + 1 beyond the edge.  Returns (ket, bra, tail) or
    raises CutoffError."""
    cap = spec.require_levels()
    seq = theta_sequence(cap + 2 + math.floor(spec.params.V ** 2), spec.params, spec.branch)
    z = complex(spec.z2)
    steps = np.sqrt(seq[1:cap + 1])
    ket, bra = [np.complex128(1.0)], [np.complex128(1.0)]
    for step, conj_step in zip(steps, np.conj(steps)):
        ket.append(ket[-1] * z / step)
        bra.append(bra[-1] * z / conj_step)
    ket, bra = np.array(ket), np.array(bra)
    if abs(z) == 0.0:
        return ket, bra, 0.0
    ratio = abs(z) / math.sqrt(np.abs(seq[cap + 1:]).min())
    if ratio >= 1.0:
        raise CutoffError(f"theta series for |z2|={abs(z):.3g} is still growing at the window"
                          f" edge pmax={spec.cutoff.pmax}", tail_estimate=math.inf)
    mods = np.abs(ket)
    tail = mods[cap] * ratio / (1.0 - ratio)
    if tail > spec.tail_tol * max(1.0, mods.max()):
        raise CutoffError(f"theta series tail {tail:.3e} above tolerance at"
                          f" pmax={spec.cutoff.pmax}", tail_estimate=tail)
    return ket, bra, tail


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def series_bound(n):
    """Relative error bound of term n of a cumulative-product series (and
    of a normalization over n terms): each step rounds a few times (the
    theta entry, its root, one complex quotient and one product), so
    8 (n + 1) eps; measured at most 1.2 (n + 1) eps."""
    return 8 * (np.asarray(n) + 1) * mp_reference.EPS


def within_series_bound(got, want):
    """got within series_bound of the 50-digit want term by term; terms
    below the normal range of doubles (1e-290) lose relative precision and
    are held to 1e-290 absolute instead."""
    got = np.asarray(got)
    want_c = np.array([complex(w) for w in want])
    err = np.abs(got - want_c)
    return bool((err <= series_bound(np.arange(got.size)) * np.abs(want_c) + 1e-290).all())


class TestThetaCut:
    """The theta series stops at its tail bound.  The full-window
    recurrence it replaced is the oracle for the cut and the refusals, and
    50-digit mpmath for the terms kept."""

    CASES = [(v, branch, z2) for v in (0.5, 1.7, 2.5, 9.5) for branch in ("plus", "minus")
             for z2 in (0.5 + 0.5j, 1 - 1j, 1.5j, -2 + 0.5j)]

    @pytest.mark.parametrize("V,branch,z2", CASES)
    def test_kept_terms_are_true_and_the_tail_bounds_the_rest(self, V, branch, z2):
        s = spec(z2, branch=branch, params=PhysicalParams(V=V), cut=FockCutoff(24, 150, 150))
        old_ket = full_window_series(s)[0]
        series = _theta_series(s)
        assert series.ket.size < old_ket.size
        step = 1 if branch == "plus" else -1
        ket, bra = mp_reference.theta_series(z2, V, 2.0, step, old_ket.size)
        assert within_series_bound(series.ket, ket[:series.ket.size])
        assert within_series_bound(series.bra, bra[:series.ket.size])
        dropped = sum(abs(complex(c)) for c in ket[series.ket.size:])
        assert dropped <= series.tail
        assert series.tail <= s.tail_tol * max(1.0, np.abs(series.ket).max())

    def test_refusals_at_the_window_edge_are_unchanged(self):
        outcomes = set()
        for v in (0.5, 1.7, 2.5, 9.5):
            for branch in ("plus", "minus"):
                for window in (2, 4, 8, 12, 24, 40, 96):
                    for z2 in (0.5, 1.5 - 1j, 3j, 6.0):
                        s = spec(z2, branch=branch, params=PhysicalParams(V=v),
                                 cut=FockCutoff(4, window, window))
                        try:
                            old_ket = full_window_series(s)[0]
                        except CutoffError as err:
                            with pytest.raises(CutoffError) as new:
                                _theta_series(s)
                            assert str(new.value) == str(err)
                            old, got = err.tail_estimate, new.value.tail_estimate
                            assert got == old or abs(got - old) <= series_bound(window) * old
                            outcomes.add("growing" if "still growing" in str(err) else "tail")
                            continue
                        ket = _theta_series(s).ket
                        # both sides are within series_bound of the truth
                        assert np.all(np.abs(ket - old_ket[:ket.size])
                                      <= 2 * series_bound(np.arange(ket.size)) * np.abs(ket))
                        outcomes.add("built")
        # both refusals and builds occur
        assert outcomes == {"built", "growing", "tail"}

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0.5, 1.7, 2.5, 9.5]), st.sampled_from(["plus", "minus"]),
           st.floats(0.0, 2.0), st.floats(0.0, 2 * math.pi))
    def test_series_and_normalization_match_mpmath(self, V, branch, rho, angle):
        z2 = complex(rho * math.cos(angle), rho * math.sin(angle))
        s = spec(z2, branch=branch, params=PhysicalParams(V=V), cut=CUT_BIG)
        try:
            series = _theta_series(s)
        except CutoffError:
            assume(False)
        step = 1 if branch == "plus" else -1
        ket, bra = mp_reference.theta_series(z2, V, 2.0, step, series.ket.size)
        assert within_series_bound(series.ket, ket)
        assert within_series_bound(series.bra, bra)
        norm = series.normalization
        assert norm == normalization_N(z2, s.params, s.cutoff, branch)
        want = float(mp_reference.normalization(abs(z2), V, 2.0, step, norm.n_terms))
        assert abs(norm.value - want) <= series_bound(norm.n_terms) * want

    def test_one_theta_evaluation_follows_the_cut(self, monkeypatch):
        calls = []
        table = bicoherent.theta_table
        monkeypatch.setattr(bicoherent, "theta_table",
                            lambda ps, params: calls.append(len(ps)) or table(ps, params))
        cut = FockCutoff(4, 200000, 200000)
        for V, branch in ((0.5, "plus"), (9.5, "minus"), (9.5, "plus")):
            calls.clear()
            series = _theta_series(spec(0.1 + 0.1j, branch=branch, params=PhysicalParams(V=V),
                                        cut=cut))
            assert len(calls) == 1 and calls[0] < 300 and series.ket.size < 100

    @pytest.mark.parametrize("V,cut", [(0.5, CUT), (9.5, CUT_BIG)])
    @pytest.mark.parametrize("key", [key for key in PAIRINGS if key[0] in FAMILIES])
    def test_dual_equals_a_separate_build(self, V, cut, key):
        family, branch = key
        s = BicoherentSpec(0.5 - 0.25j, 1 - 1j, *FAMILIES[family], branch, PhysicalParams(V=V),
                           cut)
        dual, separate = build_bicoherent(s).dual, build_bicoherent(s.dual())
        for a, b in ((dual.first_register, separate.first_register), (dual.upper, separate.upper),
                     (dual.lower, separate.lower), (dual.rows.table, separate.rows.table)):
            assert np.array_equal(bits(a), bits(b))
        assert np.array_equal(dual.rows.ps, separate.rows.ps)
        assert dual.meta == separate.meta and dual.meta["side"] != s.side


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
        x, y = level_spinors(p, params, self.SMALL.nmax2)
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

    @pytest.mark.parametrize("order", ["psi-phi", "phi", "", "PHI_PSI"])
    def test_unknown_order_is_refused(self, order):
        f, g = self._dual_pair(0, 1, P_HALF)
        with pytest.raises(ContractError, match="unknown order"):
            quasi_basis_check(f, g, P_HALF, self.SMALL, order=order)


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

    @pytest.mark.parametrize("side", ["ket", "bra"])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_theta_family_is_continuous_entrywise(self, side, branch):
        # theta_-k has imaginary part -eps0 V < 0 for V > 0 and -0.0 at V = 0,
        # so sqrt(theta) takes the same side of its cut on both
        cut = FockCutoff(8, 80, 80)
        zero, eps = (build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "theta", side, branch,
                                                     PhysicalParams(V=v), cut))
                     for v in (0.0, 1e-9))
        for a, b in ((eps.upper, zero.upper), (eps.lower, zero.lower),
                     (eps.first_register, zero.first_register)):
            assert np.abs(a - b).max() < 1e-8


class TestConvergenceCertificate:
    """The bound chain behind the series: the squared norms of phi_p over
    the plus branch's levels (from `level_table`) stay within
    `phi_norm_bound`, beyond the broken region for V > 1, and the theta
    series is cut inside the window or refused."""

    @staticmethod
    def norms2(params, cut):
        upper, lower = level_table(np.arange(cut.pmax + 1), params)[:2]
        return np.abs(upper) ** 2 + np.abs(lower) ** 2

    def test_small_v_bound(self):
        bound = phi_norm_bound(P_HALF)
        assert bound == pytest.approx(4.0 / 3.0)
        assert self.norms2(P_HALF, CUT).max() <= bound + 1e-12
        assert _theta_series(spec(1 - 1j)).tail < 1e-12

    def test_large_v_split_bound(self):
        bound = phi_norm_bound(P_BIG)
        assert bound == pytest.approx(91 / 0.75, rel=1e-12)
        measured = self.norms2(P_BIG, CUT_BIG)
        assert measured[91:].max() <= bound * (1 + 1e-12)
        _theta_series(spec(1 - 1j, params=P_BIG, cut=CUT_BIG))  # cut inside the window
        # broken-region norms may exceed the unbroken bound
        assert measured.max() >= measured[91:].max()

    def test_v0_norms_exactly_one(self):
        params = PhysicalParams(V=0.0)
        assert phi_norm_bound(params) == 1.0
        assert self.norms2(params, CUT).max() == pytest.approx(1.0, abs=1e-12)

    def test_failing_window_reported(self):
        with pytest.raises(CutoffError):
            _theta_series(spec(1 - 1j, params=P_BIG, cut=FockCutoff(4, 40, 40)))
