"""The sparse oracle of the ladders: the V = 0 level ladders on the level
window p = -pmax..pmax, A1 on the first register, and their realizations
on the spinor register.  Each ladder acts on one index alone, so each is
tested on its own window."""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import norm as sparse_norm

from lbstates import FockCutoff
from lbstates.errors import ShapeError
from lbstates.ladders import (
    annihilator,
    commutator_defect,
    factorization_defect_v0,
    hamiltonian_spinor_matrix,
    level_ladder_matrix,
    spinor_ladder_matrix,
    subspace_closure_check,
)
from lbstates.levels import PAIRINGS, V0_LADDERS, window_levels
from lbstates.pt import level_spinors
from lbstates.spinor import V0, level_matrix


CUT = FockCutoff(3, 10, 8)
PS = window_levels(CUT.pmax)


def col(mat, p):
    """Column of level p of a level-window matrix, dense."""
    return mat[:, p + CUT.pmax].toarray().ravel()


class TestLadderActions:
    @pytest.mark.parametrize("key,amp,dp", [
        ("A2", lambda p: math.sqrt(abs(p)), -1),
        ("A2dag", lambda p: math.sqrt(abs(p + 1)), +1),
        ("B2", lambda p: math.sqrt(abs(p)), +1),
        ("B2dag", lambda p: math.sqrt(abs(p - 1)), -1),
    ])
    def test_entrywise_patterns(self, key, amp, dp):
        mat = level_ladder_matrix(key, CUT.pmax)
        for p in range(-CUT.pmax + 1, CUT.pmax):
            expect = np.zeros(PS.size, dtype=complex)
            expect[p + dp + CUT.pmax] = amp(p)
            np.testing.assert_array_equal(col(mat, p), expect)

    def test_a1_lowers_first_register(self):
        column = annihilator(CUT.nmax1)[:, 2].toarray().ravel()
        assert column[1] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(column) == 1

    def test_annihilation_points(self):
        for key, p in (("A2", 0), ("A2dag", -1), ("B2", 0), ("B2dag", 1)):
            assert np.abs(col(level_ladder_matrix(key, CUT.pmax), p)).max() == 0.0

    def test_a1_ccr_on_interior(self):
        a1 = annihilator(CUT.nmax1)
        comm = (a1 @ a1.conjugate().T - a1.conjugate().T @ a1).toarray()
        inner = CUT.nmax1
        assert np.abs(comm[:inner, :inner] - np.eye(inner)).max() < 1e-12

    def test_adjoint_consistency(self):
        a2 = level_ladder_matrix("A2", CUT.pmax).toarray()
        a2dag = level_ladder_matrix("A2dag", CUT.pmax).toarray()
        sub = slice(1, -1)
        np.testing.assert_allclose(a2dag[sub, sub], a2.conj().T[sub, sub], atol=1e-14)

    def test_number_operator_diagonal_and_positive(self):
        a2 = level_ladder_matrix("A2", CUT.pmax)
        num = (a2.conjugate().T @ a2).toarray()
        off = num - np.diag(np.diag(num))
        assert np.abs(off).max() == 0.0
        diag = np.diag(num).real
        assert diag.min() >= 0.0
        for p in range(-CUT.pmax + 1, CUT.pmax):
            assert diag[p + CUT.pmax] == pytest.approx(abs(p), abs=1e-12)


def quasi_vacua(mat, labels):
    """Labels (|label| < pmax) of the zero columns of a ladder's matrix:
    the basis vectors it annihilates."""
    hit = (sparse_norm(mat, axis=0) < 1e-14) & (np.abs(labels) < CUT.pmax)
    return labels[hit].tolist()


class TestQuasiVacua:
    def test_a2_family(self):
        assert quasi_vacua(level_ladder_matrix("A2", CUT.pmax), PS) == [0]

    def test_a2dag_family(self):
        assert quasi_vacua(level_ladder_matrix("A2dag", CUT.pmax), PS) == [-1]

    def test_b2_families(self):
        assert quasi_vacua(level_ladder_matrix("B2", CUT.pmax), PS) == [0]
        assert quasi_vacua(level_ladder_matrix("B2dag", CUT.pmax), PS) == [1]

    def test_a1_row(self):
        assert quasi_vacua(annihilator(CUT.nmax1), np.arange(CUT.nmax1 + 1)) == [0]


def projected_hamiltonian(params):
    """H of the spinor register on the level window, v^H H v over the V = 0
    basis: built by applying the register's block matrix to each v_p (not
    from the eigenvalue formula), so commutators with it cross-check."""
    vm = level_matrix(CUT)
    return vm.conj().T @ (hamiltonian_spinor_matrix(params, CUT).matrix @ vm)


class TestCommutators:
    def test_h_commutes_with_number_products(self, params):
        h = projected_hamiltonian(params)
        a2 = level_ladder_matrix("A2", CUT.pmax)
        assert commutator_defect(h, (a2.conjugate().T @ a2).toarray(), CUT.pmax) < 1e-10
        b2 = level_ladder_matrix("B2", CUT.pmax)
        assert commutator_defect(h, (b2 @ b2.conjugate().T).toarray(), CUT.pmax) < 1e-10

    def test_identity_commutes_exactly(self):
        a2 = level_ladder_matrix("A2", CUT.pmax)
        n_op = (a2.conjugate().T @ a2).toarray()
        assert commutator_defect(np.eye(PS.size), n_op, CUT.pmax) == 0.0

    def test_enumeration_mismatch_rejected(self, params):
        h = projected_hamiltonian(params)
        other = spinor_ladder_matrix("A2", CUT).matrix.toarray()
        with pytest.raises(ShapeError):
            commutator_defect(h, other, CUT.pmax)


def _defect_at(cutoff, params):
    """The interior defects of `factorization_defect_v0` by level p."""
    defects = factorization_defect_v0(cutoff, params)
    assert defects.shape == (2 * cutoff.pmax - 1,)
    return dict(zip(range(-cutoff.pmax + 1, cutoff.pmax), defects.tolist()))


class TestNonFactorizability:
    def test_per_level_defects_match_eigenvalue_gap(self, params):
        # the defect on level p is exactly |eps0 sign(p) sqrt(|p|) - |p||
        for p, measured in _defect_at(CUT, params).items():
            expect = abs(params.eps0 * math.copysign(math.sqrt(abs(p)), p) - abs(p)) if p else 0.0
            assert measured == pytest.approx(expect, abs=1e-10)

    def test_documented_values(self, params):
        defects = _defect_at(CUT, params)
        assert defects[1] == pytest.approx(1.0, abs=1e-10)
        assert defects[-1] == pytest.approx(3.0, abs=1e-10)
        assert defects[0] == pytest.approx(0.0, abs=1e-12)

    def test_strictly_positive_away_from_accidental_levels(self, params):
        # the operators agree only on p = 0 and on the single level where
        # eps0 sqrt(p) = p (p = 4 in default units)
        defects = _defect_at(CUT, params)
        for p in (-3, -2, -1, 1, 2, 3, 5, 6):
            assert defects[p] > 0.17

    def test_min_over_levels(self, params):
        # the minimum over p != 0 lands on the accidental p = 4 agreement
        # when that level is inside the window
        def least(cutoff):
            return min(d for p, d in _defect_at(cutoff, params).items() if p != 0)

        assert least(CUT) == pytest.approx(0.0, abs=1e-12)
        assert least(FockCutoff(2, 4, 3)) > 0.4


class TestSubspaceClosure:
    def test_a_pair_respects_h_split(self):
        for key in ("A2", "A2dag"):
            for branch in ("plus", "minus"):
                assert subspace_closure_check(key, PAIRINGS[("A", branch)], CUT.pmax)

    def test_b_pair_respects_k_split_not_h(self):
        for key in ("B2", "B2dag"):
            for branch in ("plus", "minus"):
                assert subspace_closure_check(key, PAIRINGS[("B", branch)], CUT.pmax)
        # B2 pushes p = -1 into p = 0, leaving the lower half of the A split
        assert not subspace_closure_check("B2", PAIRINGS[("A", "minus")], CUT.pmax)
        assert not subspace_closure_check("B2dag", PAIRINGS[("A", "plus")], CUT.pmax)


class TestSpinorRealization:
    @pytest.mark.parametrize("key", V0_LADDERS)
    def test_sparse_product_matches_dense(self, key):
        vm = level_matrix(CUT)
        dense = vm @ level_ladder_matrix(key, CUT.pmax).toarray() @ vm.conj().T
        got = spinor_ladder_matrix(key, CUT).matrix.toarray()
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-14 * np.abs(dense).max())

    def test_matches_level_action(self):
        # applying the spinor-register realization to a basis spinor moves
        # the level exactly like the level matrix says
        mat = spinor_ladder_matrix("A2", CUT).matrix
        for p in (-3, -1, 0, 2):
            out = mat @ level_spinors(p, V0, CUT.nmax2)[0]
            if p == 0:
                assert np.linalg.norm(out) < 1e-13
            else:
                target = math.sqrt(abs(p)) * level_spinors(p - 1, V0, CUT.nmax2)[0]
                assert np.linalg.norm(out - target) < 1e-12

    def test_a1_is_refused(self):
        with pytest.raises(ShapeError):
            spinor_ladder_matrix("A1", CUT)
