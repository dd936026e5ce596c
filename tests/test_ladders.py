import math

import numpy as np
import pytest
from scipy.sparse.linalg import norm as sparse_norm

from lbstates import FockCutoff, LadderKind, SubspaceTag
from lbstates.errors import ShapeError
from lbstates.fock import SparseOperator
from lbstates.ladders import (
    _mode_grid,
    build_ladder,
    commutator_defect,
    decomposition_respected,
    factorization_defect_v0,
    hamiltonian_mode_matrix,
    level_ladder_matrix,
    spinor_ladder_matrix,
    subspace_closure_check,
)
from lbstates.levels import level_spinors
from lbstates.spinor import V0, ModeWindow, level_matrix


CUT = FockCutoff(3, 10, 8)
WIN = ModeWindow.of(CUT)


class TestLadderActions:
    @pytest.mark.parametrize("kind,amp,dp", [
        (LadderKind.A2, lambda p: math.sqrt(abs(p)), -1),
        (LadderKind.A2DAG, lambda p: math.sqrt(abs(p + 1)), +1),
        (LadderKind.B2, lambda p: math.sqrt(abs(p)), +1),
        (LadderKind.B2DAG, lambda p: math.sqrt(abs(p - 1)), -1),
    ])
    def test_entrywise_patterns(self, kind, amp, dp):
        mat = build_ladder(kind, CUT).matrix
        for n in range(CUT.nmax1 + 1):
            for p in range(-CUT.pmax + 1, CUT.pmax):
                col = np.asarray(mat[:, WIN.index(n, p)].todense()).ravel()
                expect = np.zeros(WIN.dim, dtype=complex)
                expect[WIN.index(n, p + dp)] = amp(p)
                np.testing.assert_array_equal(col, expect)

    def test_a1_lowers_first_register(self):
        mat = build_ladder(LadderKind.A1, CUT).matrix
        col = np.asarray(mat[:, WIN.index(2, 1)].todense()).ravel()
        assert col[WIN.index(1, 1)] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(col) == 1

    def test_annihilation_points(self):
        a2 = build_ladder(LadderKind.A2, CUT).matrix
        assert np.abs(a2[:, WIN.index(3, 0)].todense()).max() == 0.0
        a2dag = build_ladder(LadderKind.A2DAG, CUT).matrix
        assert np.abs(a2dag[:, WIN.index(3, -1)].todense()).max() == 0.0
        b2 = build_ladder(LadderKind.B2, CUT).matrix
        assert np.abs(b2[:, WIN.index(1, 0)].todense()).max() == 0.0
        b2dag = build_ladder(LadderKind.B2DAG, CUT).matrix
        assert np.abs(b2dag[:, WIN.index(1, 1)].todense()).max() == 0.0

    def test_a1_ccr_on_interior(self):
        a1 = build_ladder(LadderKind.A1, CUT).matrix
        comm = (a1 @ a1.conjugate().T - a1.conjugate().T @ a1).toarray()
        interior = [WIN.index(n, p) for n in range(CUT.nmax1)
                    for p in range(-CUT.pmax, CUT.pmax + 1)]
        assert np.abs((comm - np.eye(WIN.dim))[np.ix_(interior, interior)]).max() < 1e-12

    def test_adjoint_consistency(self):
        a2 = build_ladder(LadderKind.A2, CUT).matrix.toarray()
        a2dag = build_ladder(LadderKind.A2DAG, CUT).matrix.toarray()
        interior = [WIN.index(n, p) for n in range(CUT.nmax1 + 1)
                    for p in range(-CUT.pmax + 1, CUT.pmax)]
        sub = np.ix_(interior, interior)
        np.testing.assert_allclose(a2dag[sub], a2.conj().T[sub], atol=1e-14)

    def test_number_operator_diagonal_and_positive(self):
        a2 = build_ladder(LadderKind.A2, CUT).matrix
        num = (a2.conjugate().T @ a2).toarray()
        off = num - np.diag(np.diag(num))
        assert np.abs(off).max() == 0.0
        diag = np.diag(num).real
        assert diag.min() >= 0.0
        for n in range(CUT.nmax1 + 1):
            for p in range(-CUT.pmax + 1, CUT.pmax):
                assert diag[WIN.index(n, p)] == pytest.approx(abs(p), abs=1e-12)


def quasi_vacua(kind):
    """(n, p) of the basis vectors with |p| < pmax that the ladder's mode
    matrix annihilates: its zero columns."""
    ns, ps = _mode_grid(CUT)
    hit = (sparse_norm(build_ladder(kind, CUT).matrix, axis=0) < 1e-14) & (np.abs(ps) < CUT.pmax)
    return list(zip(ns[hit].tolist(), ps[hit].tolist()))


class TestQuasiVacua:
    def test_a2_family(self):
        idxs = quasi_vacua(LadderKind.A2)
        assert idxs and all(p == 0 for _, p in idxs)
        assert len({n for n, _ in idxs}) == CUT.nmax1 + 1

    def test_a2dag_family(self):
        assert all(p == -1 for _, p in quasi_vacua(LadderKind.A2DAG))

    def test_b2_families(self):
        assert all(p == 0 for _, p in quasi_vacua(LadderKind.B2))
        assert all(p == 1 for _, p in quasi_vacua(LadderKind.B2DAG))

    def test_a1_row(self):
        idxs = quasi_vacua(LadderKind.A1)
        assert idxs and all(n == 0 for n, _ in idxs)


class TestCommutators:
    def test_h_commutes_with_number_products(self, params):
        h = hamiltonian_mode_matrix(params, CUT)
        a2 = build_ladder(LadderKind.A2, CUT)
        n_op = SparseOperator(a2.matrix.conjugate().T @ a2.matrix, "mode", "A2+A2")
        assert commutator_defect(h, n_op, CUT) < 1e-10
        b2 = build_ladder(LadderKind.B2, CUT)
        bb = SparseOperator(b2.matrix @ b2.matrix.conjugate().T, "mode", "B2B2+")
        assert commutator_defect(h, bb, CUT) < 1e-10

    def test_identity_commutes_exactly(self, params):
        import scipy.sparse as sp

        a2 = build_ladder(LadderKind.A2, CUT)
        n_op = SparseOperator(a2.matrix.conjugate().T @ a2.matrix, "mode", "A2+A2")
        eye = SparseOperator(sp.identity(WIN.dim, format="csr", dtype=complex), "mode", "1")
        assert commutator_defect(eye, n_op, CUT) == 0.0

    def test_enumeration_mismatch_rejected(self, params):
        h = hamiltonian_mode_matrix(params, CUT)
        other = spinor_ladder_matrix(LadderKind.A2, CUT)
        with pytest.raises(ShapeError):
            commutator_defect(h, other, CUT)


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
        assert subspace_closure_check(LadderKind.A2, SubspaceTag.H2PLUS, CUT)
        assert subspace_closure_check(LadderKind.A2DAG, SubspaceTag.H2MINUS, CUT)
        assert decomposition_respected(LadderKind.A2, "H", CUT)
        assert decomposition_respected(LadderKind.A2DAG, "H", CUT)

    def test_b_pair_respects_k_split_not_h(self):
        assert decomposition_respected(LadderKind.B2, "K", CUT)
        assert decomposition_respected(LadderKind.B2DAG, "K", CUT)
        # B2 pushes p = -1 into p = 0, leaving the lower H half
        assert not subspace_closure_check(LadderKind.B2, SubspaceTag.H2MINUS, CUT)
        assert not decomposition_respected(LadderKind.B2, "H", CUT)
        assert not subspace_closure_check(LadderKind.B2DAG, SubspaceTag.H2PLUS, CUT)


class TestSpinorRealization:
    @pytest.mark.parametrize("kind", [LadderKind.A2, LadderKind.A2DAG, LadderKind.B2, LadderKind.B2DAG])
    def test_sparse_product_matches_dense(self, kind):
        vm = level_matrix(CUT)
        dense = vm @ level_ladder_matrix(kind, CUT.pmax).toarray() @ vm.conj().T
        got = spinor_ladder_matrix(kind, CUT).matrix.toarray()
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-14 * np.abs(dense).max())

    def test_matches_mode_action(self, params):
        # applying the spinor-register realization to a basis spinor moves
        # the level exactly like the mode matrix says
        mat = spinor_ladder_matrix(LadderKind.A2, CUT).matrix
        for p in (-3, -1, 0, 2):
            out = mat @ level_spinors(p, V0, CUT.nmax2)[0]
            if p == 0:
                assert np.linalg.norm(out) < 1e-13
            else:
                target = math.sqrt(abs(p)) * level_spinors(p - 1, V0, CUT.nmax2)[0]
                assert np.linalg.norm(out - target) < 1e-12
