import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

import mp_reference
from lbstates import ContractError, CutoffError, FockCutoff, build_coherent
from lbstates import coherent
from lbstates.checks import (basis_vector_c, combined_state_defect, radial_factorial_ratio,
                             resolution_identity_check)
from lbstates.coherent import (CoherentSpec, coherent_coefficients, eigen_residual, gaussian_terms,
                               series_cut)
from lbstates.levels import ladder_apply

CUT = FockCutoff(64, 64, 64)
ZGRID = (0, 1, -1, 1j, -1j, 1 - 1j, 2 + 2j)


class TestConstruction:
    def test_zero_labels_give_quasi_vacuum(self):
        st = build_coherent(CoherentSpec(0.0, 0.0, "A", "plus", CUT))
        ref = basis_vector_c((0, 0), CUT)
        assert abs(st.inner(ref) - 1.0) < 1e-14
        assert abs(st.norm() - 1.0) < 1e-14

    def test_b_family_zero_label_sits_on_first_level(self):
        st = build_coherent(CoherentSpec(0.0, 0.0, "B", "plus", CUT))
        ref = basis_vector_c((0, 1), CUT)
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

    @pytest.mark.parametrize("tol", [2.0, 1.0, 0.0, -1e-12, math.nan, math.inf])
    def test_tolerance_outside_unit_interval_is_refused(self, tol):
        with pytest.raises(ContractError, match=r"tail tolerance must be in \(0, 1\)"):
            CoherentSpec(0.1, 0.1, "A", "plus", CUT, tol)

    @pytest.mark.parametrize("z1, z2", [(complex(1.7e308, 1.7e308), 0.1),
                                        (0.1, complex(-1.7e308, 1.7e308)),
                                        (math.nan, 0.1), (0.1, complex(0.0, math.inf))])
    def test_label_whose_modulus_is_not_finite_is_refused(self, z1, z2):
        with pytest.raises(ContractError, match="modulus is not finite"):
            CoherentSpec(z1, z2, "A", "plus", CUT)

    def test_tail_bound_is_monotone_in_terms(self):
        size = np.abs(coherent_coefficients(2 + 2j, 41))
        _, bounds = series_cut(size, abs(2 + 2j) / np.sqrt(np.arange(1, 42)), 0.0)
        assert np.isinf(bounds[:8]).all()
        assert all(b <= a for a, b in zip(bounds[12:], bounds[13:]))


class TestEigenEquations:
    LEGAL = [("A", "plus", "A2"), ("A", "minus", "A2dag"),
             ("B", "plus", "B2dag"), ("B", "minus", "B2")]

    @pytest.mark.parametrize("family,branch,op", LEGAL)
    def test_legal_residuals_small(self, family, branch, op):
        for z2 in (1.0, 1 - 1j, 2 + 2j):
            spec = CoherentSpec(0.5j, z2, family, branch, CUT)
            assert eigen_residual(spec, build_coherent(spec), op) < 1e-8
            assert eigen_residual(spec, build_coherent(spec), "A1") < 1e-8

    def test_off_branch_is_not_an_eigenstate(self):
        spec = CoherentSpec(1.0, 1 - 1j, "A", "minus", CUT)
        with pytest.raises(ContractError):
            eigen_residual(spec, build_coherent(spec), "A2")
        state = build_coherent(spec)
        moved = ladder_apply("A2", state.rows, state.spinor_stack(), CUT)
        residual = (np.linalg.norm(moved - spec.z2 * state.spinor_stack())
                    * np.linalg.norm(state.first_register))
        assert residual > 0.5  # documents the branch asymmetry

    def test_plus_branch_lowering_example(self):
        spec = CoherentSpec(1.0, 1 - 1j, "A", "plus", CUT)
        assert eigen_residual(spec, build_coherent(spec), "A2") < 1e-8

    def test_minus_branch_raising_acts_as_lowering(self):
        spec = CoherentSpec(1.0, 1 - 1j, "A", "minus", CUT)
        assert eigen_residual(spec, build_coherent(spec), "A2dag") < 1e-8


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

    def test_cached_quadrature_factors_are_read_only(self):
        # one cached array serves every caller, so a write must fail
        with pytest.raises(ValueError, match="read-only"):
            radial_factorial_ratio(40)[0] = 0.0

    def test_vacuum_pair(self):
        f = basis_vector_c((0, 0), self.SMALL)
        assert resolution_identity_check("plus", f, f, self.SMALL) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_targets(self):
        f = basis_vector_c((0, 1), self.SMALL)
        g = basis_vector_c((0, 2), self.SMALL)
        assert abs(resolution_identity_check("plus", f, g, self.SMALL)) < 1e-8

    def test_minus_branch_pair(self):
        f = basis_vector_c((1, -2), self.SMALL)
        assert resolution_identity_check("minus", f, f, self.SMALL) == pytest.approx(1.0, abs=1e-6)

    def test_reproduces_subspace_gram(self):
        idxs = [(n, p) for n in range(3) for p in range(4)]
        states = {i: basis_vector_c(i, self.SMALL) for i in idxs}
        for i in idxs:
            for j in idxs:
                got = resolution_identity_check("plus", states[i], states[j], self.SMALL)
                want = 1.0 if i == j else 0.0
                assert got == pytest.approx(want, abs=1e-6)

    def test_subspace_mismatch_rejected(self):
        f = basis_vector_c((0, -1), self.SMALL)
        with pytest.raises(ContractError):
            resolution_identity_check("plus", f, f, self.SMALL)

    def test_b_family_resolution(self):
        f = basis_vector_c((0, 1), self.SMALL)
        assert resolution_identity_check("plus", f, f, self.SMALL, family="B") == pytest.approx(
            1.0, abs=1e-6
        )


class TestCombinedState:
    SMALL = FockCutoff(10, 12, 10)

    def test_pure_plus_pair_loses_half(self):
        f = basis_vector_c((0, 0), self.SMALL)
        defect = combined_state_defect(f, f, self.SMALL)
        assert defect == pytest.approx(-0.5, abs=1e-10)
        assert abs(defect) > 0.1

    def test_cross_subspace_pair_keeps_cross_integral(self):
        f = basis_vector_c((0, 1), self.SMALL)
        g = basis_vector_c((0, -2), self.SMALL)
        # <f,g> = 0; the integral reduces to the surviving cross term, which
        # couples c_{0,n2} to c_{0,-n2-1}: here n2 = 1 pairs f with g exactly
        defect = combined_state_defect(f, g, self.SMALL)
        assert defect == pytest.approx(0.5, abs=1e-10)

    def test_zero_states(self):
        f = basis_vector_c((0, 0), self.SMALL)
        zero = type(f)(f.first_register * 0, f.upper * 0, f.lower * 0)
        assert combined_state_defect(zero, zero, self.SMALL) == 0.0


class TestBruteForceQuadratureOracle:
    def test_resolution_matches_polar_quadrature(self):
        # fully independent route for the double-label integral: dense polar
        # trapezoid instead of the analytic-angular + Gauss-Laguerre path
        small = FockCutoff(12, 8, 6)
        f = basis_vector_c((1, 2), small)
        got = resolution_identity_check("plus", f, f, small)
        rs = np.linspace(1e-9, 7.0, 4000)

        def radial(n):
            vals = np.exp(-rs ** 2) * rs ** (2 * n) / math.factorial(n) * rs
            return 2.0 * np.trapezoid(vals, rs)

        assert got == pytest.approx(radial(1) * radial(2), abs=1e-10)


def lgamma_tail(z, n_terms):
    """The closed-form bound on the terms past the first n_terms of the
    Gaussian series, from math.lgamma (+inf while |z| >= sqrt(n_terms + 1)):

        exp(-|z|^2/2) |z|^n_terms / sqrt(n_terms!) / (1 - |z| / sqrt(n_terms + 1))
    """
    r = abs(z)
    if r == 0.0:
        return 0.0
    if r >= math.sqrt(n_terms + 1):
        return math.inf
    log_head = -0.5 * r * r + n_terms * math.log(r) - 0.5 * math.lgamma(n_terms + 1)
    return math.exp(log_head) / (1.0 - r / math.sqrt(n_terms + 1))


def scan_series_length(z, cap, tol):
    """The term-by-term scan over the closed-form bound: the oracle for
    where `gaussian_terms` cuts."""
    for n_terms in range(1, cap + 2):
        est = lgamma_tail(z, n_terms)
        if est < tol:
            return n_terms, est
    return None, lgamma_tail(z, cap + 1)


def same_tail(got, want, n_terms, z):
    """Two roundings of one bound: the cumulative product (8 (n + 1 +
    |z|^2) eps, as `test_coefficients_match_mpmath`) against lgamma in the
    exponent."""
    if math.isinf(want) or want == 0.0:
        return got == want
    return abs(got - want) <= 8 * (n_terms + 1 + abs(z) ** 2) * mp_reference.EPS * want


class TestSeriesLength:
    """The cut on the computed terms must choose the count that the scalar
    scan over the closed-form bound does, and report the same bound up to
    rounding."""

    @pytest.mark.parametrize("tol", [10.0 ** -k for k in range(6, 16)])
    def test_matches_scalar_scan(self, tol):
        for r in np.linspace(0.0, 6.0, 97):
            for phase in (0.0, 2.3):
                z = complex(r * math.cos(phase), r * math.sin(phase))
                for cap in (0, 3, 12, 40, 64, 400):
                    want = scan_series_length(z, cap, tol)
                    if want[0] is None:
                        with pytest.raises(CutoffError) as err:
                            gaussian_terms(z, cap, tol)
                        assert same_tail(err.value.tail_estimate, want[1], cap + 1, z)
                    else:
                        terms, tail = gaussian_terms(z, cap, tol)
                        assert terms.size == want[0]
                        assert same_tail(tail, want[1], want[0], z)
                        assert np.array_equal(terms, coherent_coefficients(z, want[0]))

    def test_work_follows_the_series_not_the_cap(self):
        tracemalloc.start()
        try:
            terms, _ = gaussian_terms(0.1, 10 ** 9, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert terms.size == scan_series_length(0.1, 100, 1e-12)[0]
        assert peak < 1e5


def gammaln_series_length(z, cap, tol):
    """The first count whose tail bound, evaluated with scipy's gammaln as
    the package did before it used math.lgamma, is below tol (None when no
    count up to cap + 1 is)."""
    r = abs(z)
    if r == 0.0:
        return 1
    for n_terms in range(1, cap + 2):
        if r < math.sqrt(n_terms + 1):
            head = -0.5 * r * r + n_terms * math.log(r) - 0.5 * float(gammaln(n_terms + 1))
            if math.exp(head) / (1.0 - r / math.sqrt(n_terms + 1)) < tol:
                return n_terms
    return None


# |z|^2 of the benchmark's labels with the windows they are drawn for
# (bench/jobs.py: STATE_SLOTS, the cli round, WINDOW_SLOTS and GRID_SLOTS),
# and the README's labels at theirs
LABEL_WINDOWS = [(2.5, 500), (1.25, 300), (3.25, 300), (2.5, 400), (1.25, 400), (1.25, 200),
                 (2.5, 200), (2.5, 250), (1.25, 350), (3.25, 350), (2.5, 450), (3.25, 220),
                 (1.25, 220), (2.5, 280), (1.25, 64), (2.5, 64), (0.625, 32), (1.25, 32),
                 (1.25, 250), (0.125, 24), (0.3125, 24), (0.625, 40), (1.25, 40), (1.25, 48),
                 (2.125, 48), (2.0, 64), (2.0, 150), (0.0, 150)]
LATTICE = [k * 0.25 for k in range(-6, 7)]


class TestScipyFreeBounds:
    def test_counts_unchanged_at_benchmark_and_readme_labels(self):
        checked = 0
        for r2, window in LABEL_WINDOWS:
            labels = [complex(a, b) for a in LATTICE for b in LATTICE if a * a + b * b == r2]
            for z in labels or [complex(math.sqrt(r2))]:
                for cap in (window, window - 1):
                    want = gammaln_series_length(z, cap, 1e-12)
                    assert want is not None
                    assert gaussian_terms(z, cap, 1e-12)[0].size == want
                    checked += 1
        assert checked > 300

    def test_tail_bound_agrees_with_gammaln(self):
        for z in (0.1, 1 - 1j, 2.5j, 6.0):
            for tol in 10.0 ** -np.arange(1.0, 60.0):
                terms, tail = gaussian_terms(z, 400, tol)
                r, n_terms = abs(z), terms.size
                head = -0.5 * r * r + n_terms * math.log(r) - 0.5 * float(gammaln(n_terms + 1))
                want = math.exp(head) / (1.0 - r / math.sqrt(n_terms + 1))
                assert tail == pytest.approx(want, rel=1e-13)

    def test_radial_ratio_log_factorials(self):
        n = np.arange(301)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(n[1:]))])
        np.testing.assert_allclose(log_fact, gammaln(n + 1), rtol=1e-15, atol=1e-12)

    def test_module_imports_no_scipy(self):
        assert "scipy" not in inspect.getsource(coherent)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 8.0), st.floats(0.0, 2 * math.pi), st.integers(1, 300))
    def test_coefficients_match_mpmath(self, rho, angle, n_terms):
        # relative error of term n below 8 (n + 1 + |z|^2) eps: a few
        # roundings per step, and exp(-|z|^2/2) inherits the rounding of
        # |z|^2 / 2; measured at most 1.2 (n + 1 + |z|^2) eps.  Terms below
        # the normal range (1e-290) are held to 1e-290 absolute.
        z = complex(rho * math.cos(angle), rho * math.sin(angle))
        got = coherent_coefficients(z, n_terms)
        want = np.array([complex(w) for w in mp_reference.gaussian_series(z, n_terms)])
        bound = 8 * (np.arange(n_terms) + 1 + rho * rho) * mp_reference.EPS
        assert (np.abs(got - want) <= bound * np.abs(want) + 1e-290).all()
