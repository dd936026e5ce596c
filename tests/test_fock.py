import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from helpers import eval_mode
from lbstates import CutoffError, FockCutoff
from lbstates import ladders
from lbstates.fock import PSI_HARD_LIMIT, circular_antidiagonals, oscillator_table
from lbstates.ladders import circular_mode, ladder_matrices

SQRT2 = math.sqrt(2.0)


def psi_polynomial_oracle(n, x):
    """Independent oracle: explicit physicists' Hermite polynomial values
    with the closed-form normalization (only trustworthy for small n)."""
    h_prev = np.ones_like(np.asarray(x, dtype=float))
    h_cur = 2.0 * np.asarray(x, dtype=float)
    if n == 0:
        h = h_prev
    elif n == 1:
        h = h_cur
    else:
        for k in range(1, n):
            h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
        h = h_cur
    norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return h * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / norm


class TestOscillatorPsi:
    """psi_n is row n of `oscillator_table`."""

    def test_ground_state_at_origin(self):
        assert oscillator_table(0, 0.0)[0, 0] == pytest.approx(0.7511255444649425, abs=1e-14)

    def test_odd_function_vanishes_at_origin(self):
        assert oscillator_table(1, 0.0)[1, 0] == 0.0

    def test_n2_matches_polynomial_oracle(self):
        # H_2(x) = 4x^2 - 2 with the closed-form normalization
        expected = (4.0 - 2.0) * math.exp(-0.5) / math.sqrt(4 * 2 * math.sqrt(math.pi))
        assert expected == pytest.approx(0.3221441825567376, abs=1e-15)
        assert oscillator_table(2, 1.0)[2, 0] == pytest.approx(expected, rel=1e-12)

    def test_hard_limit(self):
        with pytest.raises(CutoffError):
            oscillator_table(513, 0.0)
        # indices up to the limit evaluate
        assert np.isfinite(oscillator_table(PSI_HARD_LIMIT, 3.0)).all()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20), st.floats(-10, 10))
    def test_recurrence_matches_polynomial(self, n, x):
        a = float(oscillator_table(n, x)[n, 0])
        b = float(psi_polynomial_oracle(n, np.array([x]))[0])
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_normalization_by_quadrature(self):
        x = np.linspace(-12, 12, 2001)
        table = oscillator_table(17, x)
        for n in (0, 3, 17):
            assert simpson(table[n] ** 2, x=x) == pytest.approx(1.0, abs=1e-8)

    def test_table_agrees_with_single_evaluations(self):
        # row n does not depend on how many rows the table holds, so one
        # table serves every n below its height bit for bit
        x = np.linspace(-4, 4, 9)
        table = oscillator_table(6, x)
        for n in range(7):
            np.testing.assert_array_equal(table[n], oscillator_table(n, x)[n])


def vacuum_2d(x, y):
    """The ground state psi_0(x) psi_0(y) on the grid x (rows) by y
    (columns), the product of two rows 0 of the oscillator table."""
    return np.outer(oscillator_table(0, x)[0], oscillator_table(0, y)[0])


class TestVacuum:
    def test_closed_form_at_origin(self):
        origin = vacuum_2d(0.0, 0.0)[0, 0]
        assert origin == pytest.approx(0.5641895835477563, abs=1e-15)
        assert origin ** 2 == pytest.approx(0.3183098861837907, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_radial_symmetry(self, x, y):
        assert vacuum_2d(x, y) == vacuum_2d(-x, -y)

    def test_unit_mass_on_grid(self):
        x = np.linspace(-8, 8, 321)
        vals = vacuum_2d(x, x)
        mass = simpson(simpson(vals ** 2, x=x, axis=1), x=x)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestCircularModes:
    def test_vacuum_is_unit_vector(self, small_cutoff):
        m = circular_mode(0, 0, small_cutoff)
        assert m.coeffs[0, 0] == 1.0
        assert np.abs(m.coeffs).sum() == 1.0

    def test_first_raised_mode_coefficients(self, small_cutoff):
        # symbolic expansion oracle: (a_X^+ + i a_Y^+)/sqrt(2) |00>
        m = circular_mode(1, 0, small_cutoff)
        assert m.coeffs[1, 0] == pytest.approx(1 / SQRT2, abs=1e-14)
        assert m.coeffs[0, 1] == pytest.approx(1j / SQRT2, abs=1e-14)
        m2 = circular_mode(0, 1, small_cutoff)
        assert m2.coeffs[1, 0] == pytest.approx(1 / SQRT2, abs=1e-14)
        assert m2.coeffs[0, 1] == pytest.approx(-1j / SQRT2, abs=1e-14)

    def test_binomial_expansion_oracle(self, small_cutoff):
        # (A1+)^n1 (A2+)^n2 |00> expanded through the two binomials
        n1, n2 = 2, 3
        d = small_cutoff.nmax2 + 1
        expect = np.zeros((d, d), dtype=complex)
        for a in range(n1 + 1):
            for b in range(n2 + 1):
                j = a + b
                k = (n1 - a) + (n2 - b)
                amp = (
                    math.comb(n1, a) * math.comb(n2, b)
                    * (1j) ** (n1 - a) * (-1j) ** (n2 - b)
                    * math.sqrt(math.factorial(j) * math.factorial(k))
                )
                expect[j, k] += amp
        expect /= SQRT2 ** (n1 + n2) * math.sqrt(math.factorial(n1) * math.factorial(n2))
        got = circular_mode(n1, n2, small_cutoff).coeffs
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    def test_orthonormality(self, small_cutoff):
        vecs = [circular_mode(a, b, small_cutoff).coeffs.ravel()
                for a in range(9) for b in range(9 - a)]
        m = np.array(vecs)
        gram = m.conj() @ m.T
        assert np.abs(gram - np.eye(len(vecs))).max() < 1e-10

    def test_raising_matrices_built_once_per_window(self, monkeypatch):
        # the modes equal, bit for bit, a build from fresh matrices each time
        cut = FockCutoff(0, 12)
        fresh = []
        for n1 in range(11):
            for n2 in range(11 - n1):
                ops = ladder_matrices(cut)
                v = np.zeros(13 * 13, dtype=complex)
                v[0] = 1.0
                for k in range(n2):
                    v = ops["A2"].matrix.conjugate().T.tocsr() @ v / math.sqrt(k + 1.0)
                for k in range(n1):
                    v = ops["A1"].matrix.conjugate().T.tocsr() @ v / math.sqrt(k + 1.0)
                fresh.append(v)
        calls = []
        real = ladders.ladder_matrices
        monkeypatch.setattr(ladders, "ladder_matrices", lambda c: calls.append(c) or real(c))
        ladders._raising_matrices.cache_clear()
        modes = [circular_mode(n1, n2, cut).coeffs.ravel()
                 for n1 in range(11) for n2 in range(11 - n1)]
        assert len(calls) == 1
        assert np.array_equal(np.array(modes), np.array(fresh))

    def test_norms_near_one(self, small_cutoff):
        for a, b in ((0, 0), (3, 4), (5, 0)):
            assert abs(circular_mode(a, b, small_cutoff).norm - 1.0) < 1e-12

    def test_window_violation(self, small_cutoff):
        with pytest.raises(CutoffError):
            circular_mode(7, 6, small_cutoff)

    def test_antidiagonal_blocks_match_matrix_path(self, small_cutoff):
        # e_{0,N} = sum_j (-i)^(N-j) B[N, j] |j, N-j>, and nothing off its
        # anti-diagonal, against the mode raised with the sparse A2^+
        table = circular_antidiagonals(small_cutoff.nmax2)
        for big_n in range(small_cutoff.nmax2 + 1):
            j = np.arange(big_n + 1)
            full = circular_mode(0, big_n, small_cutoff).coeffs
            np.testing.assert_allclose((-1j) ** (big_n - j) * table[big_n, :big_n + 1],
                                       full[j, big_n - j], rtol=0, atol=1e-14)
            full[j, big_n - j] = 0.0
            assert np.abs(full).max() == 0.0


class TestAntidiagonalBlocks:
    def test_column_zero_matches_its_closed_form(self):
        # B[N, j] = sqrt(C(N, j) / 2^N), the only column the density of a
        # built state reads, at every N up to the psi limit, and 0 for
        # j > N; the integer quotient is rounded once to float before the root
        table = circular_antidiagonals(PSI_HARD_LIMIT)
        exact = np.zeros_like(table)
        for n in range(PSI_HARD_LIMIT + 1):
            exact[n, :n + 1] = [math.sqrt(math.comb(n, j) / 2 ** n) for j in range(n + 1)]
        assert np.abs(table - exact).max() <= 1e-15
        assert np.array_equal(table == 0, exact == 0)
        # each row has unit norm: sum_j C(N, j) / 2^N = 1
        assert np.abs(np.square(table).sum(axis=1) - 1.0).max() <= 1e-14

    def test_columns_do_not_depend_on_how_many_are_kept(self):
        # a row does not depend on how many rows the table holds, so a
        # density's bytes do not depend on how far its weights reach
        wide = circular_antidiagonals(PSI_HARD_LIMIT)
        for n_top in (0, 1, 6, 40):
            np.testing.assert_array_equal(circular_antidiagonals(n_top),
                                          wide[:n_top + 1, :n_top + 1])


class TestLadderMatrices:
    def test_creation_entry(self):
        cut = FockCutoff(0, 6)
        ops = ladder_matrices(cut)
        adag = ops["a_X"].matrix.conjugate().T
        d = cut.nmax2 + 1
        vac = np.zeros(d * d)
        vac[0] = 1.0
        one = adag @ vac
        assert one[1 * d + 0] == pytest.approx(1.0)

    def test_commutators_on_interior(self):
        cut = FockCutoff(0, 9)
        ops = ladder_matrices(cut)
        d = cut.nmax2 + 1
        interior = [j * d + k for j in range(d - 1) for k in range(d - 1)]
        eye = np.eye(d * d)
        for name in ("a_X", "a_Y", "A1", "A2"):
            a = ops[name].matrix
            comm = (a @ a.conjugate().T - a.conjugate().T @ a).toarray()
            assert np.abs((comm - eye)[np.ix_(interior, interior)]).max() < 1e-12
        cross = (ops["A1"].matrix @ ops["A2"].matrix
                 - ops["A2"].matrix @ ops["A1"].matrix).toarray()
        assert np.abs(cross[np.ix_(interior, interior)]).max() < 1e-12
        cross2 = (ops["A1"].matrix @ ops["A2"].matrix.conjugate().T
                  - ops["A2"].matrix.conjugate().T @ ops["A1"].matrix).toarray()
        assert np.abs(cross2[np.ix_(interior, interior)]).max() < 1e-12


class TestEvalMode:
    def test_vacuum_value(self, small_cutoff):
        m = circular_mode(0, 0, small_cutoff)
        assert eval_mode(m, 0.0, 0.0) == pytest.approx(vacuum_2d(0.0, 0.0)[0, 0], abs=1e-14)

    def test_raised_mode_vanishes_at_origin(self, small_cutoff):
        m = circular_mode(1, 0, small_cutoff)
        assert abs(eval_mode(m, 0.0, 0.0)) < 1e-15

    def test_conjugation_symmetry(self, small_cutoff):
        a = eval_mode(circular_mode(0, 1, small_cutoff), 1.0, 0.0)
        b = eval_mode(circular_mode(1, 0, small_cutoff), 1.0, 0.0)
        # closed forms differ only by conjugation of the angular factor
        assert abs(a) == pytest.approx(abs(b), rel=1e-12)
        assert a == pytest.approx(np.conj(b), rel=1e-12)

    def test_unit_mass_on_grid(self, small_cutoff):
        x = np.linspace(-7.5, 7.5, 151)
        px = oscillator_table(small_cutoff.nmax2, x)
        for n1, n2 in ((0, 1), (2, 2)):
            c = circular_mode(n1, n2, small_cutoff).coeffs
            vals = px.T @ c @ px
            mass = simpson(simpson(np.abs(vals) ** 2, x=x, axis=1), x=x)
            assert mass == pytest.approx(1.0, abs=1e-6)


class TestFockCutoff:
    def test_validation(self):
        with pytest.raises(CutoffError):
            FockCutoff(-1, 4)
        with pytest.raises(CutoffError):
            FockCutoff(0, 0)
        with pytest.raises(CutoffError):
            FockCutoff(2, 4, 5)  # pmax beyond nmax2

    def test_pmax_defaults_to_nmax2(self):
        assert FockCutoff(2, 7).pmax == 7
