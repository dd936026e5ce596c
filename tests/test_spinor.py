import math

import numpy as np
import pytest

from lbstates import CutoffError, FockCutoff, PhysicalParams
from lbstates.ladders import dense_hamiltonian, hamiltonian_spinor_matrix, restricted_spinor_block
from lbstates.checks import basis_vector_c, first_register_basis
from lbstates.levels import spectrum_table, window_levels
from lbstates.pt import level_spinors
from lbstates.spinor import V0, SpinorState, level_matrix


class TestBasisVectors:
    def test_zero_level_structure(self, small_cutoff):
        st = basis_vector_c((0, 0), small_cutoff)
        assert st.upper[0] == 1.0
        assert np.all(st.lower == 0)
        assert np.all(st.upper[1:] == 0)

    def test_positive_level_structure(self, small_cutoff):
        st = basis_vector_c((2, 3), small_cutoff)
        assert st.first_register[2] == 1.0
        assert st.upper[3] == pytest.approx(1 / math.sqrt(2))
        assert st.lower[2] == pytest.approx(-1j / math.sqrt(2))

    def test_negative_level_conjugate_sign(self, small_cutoff):
        st = basis_vector_c((0, -2), small_cutoff)
        assert st.upper[2] == pytest.approx(1 / math.sqrt(2))
        assert st.lower[1] == pytest.approx(+1j / math.sqrt(2))

    def test_unit_norm(self, small_cutoff):
        assert basis_vector_c((2, 3), small_cutoff).norm() == pytest.approx(1.0, abs=1e-12)

    def test_plus_minus_orthogonal(self, small_cutoff):
        a = basis_vector_c((0, 1), small_cutoff)
        b = basis_vector_c((0, -1), small_cutoff)
        assert abs(a.inner(b)) < 1e-14

    def test_orthonormality_gram(self, small_cutoff):
        vm = level_matrix(small_cutoff)
        gram = vm.conj().T @ vm
        assert np.abs(gram - np.eye(vm.shape[1])).max() < 1e-10

    def test_window_violations(self, small_cutoff):
        with pytest.raises(CutoffError):
            basis_vector_c((0, small_cutoff.pmax + 1), small_cutoff)
        with pytest.raises(CutoffError):
            basis_vector_c((small_cutoff.nmax1 + 1, 0), small_cutoff)
        with pytest.raises(CutoffError):
            level_spinors(small_cutoff.nmax2 + 1, V0, small_cutoff.nmax2)


class TestHamiltonianAction:
    """The V = 0 Hamiltonian (params has V = 0) on the stacked spinors."""

    def test_eigen_level_one(self, params, small_cutoff):
        st = basis_vector_c((0, 1), small_cutoff).spinor_stack()
        out = hamiltonian_spinor_matrix(params, small_cutoff).matrix @ st
        assert np.linalg.norm(out - 2.0 * st) < 1e-10

    def test_zero_mode_annihilated(self, params, small_cutoff):
        cut = FockCutoff(6, 12, 10)
        st = basis_vector_c((5, 0), cut).spinor_stack()
        out = hamiltonian_spinor_matrix(params, cut).matrix @ st
        assert np.linalg.norm(out) < 1e-12

    def test_negative_level_eigenvalue(self, params):
        cut = FockCutoff(2, 12, 10)
        st = basis_vector_c((0, -4), cut).spinor_stack()
        out = hamiltonian_spinor_matrix(params, cut).matrix @ st
        assert np.linalg.norm(out - (-4.0) * st) < 1e-12

    def test_interior_residuals(self, params):
        # || H v_p - E_p v_p || of the levels |p| <= pmax - 2, one column each
        cut = FockCutoff(4, 16, 14)
        h = hamiltonian_spinor_matrix(params, cut).matrix
        vecs = level_matrix(cut)[:, 2:-2]
        e = spectrum_table(window_levels(cut.pmax - 2), params)[0]
        assert np.linalg.norm(h @ vecs - vecs * e, axis=0).max() < 1e-10


class TestEnergy:
    """E_p = sign(p) eps0 sqrt(|p|) at V = 0, from the spectrum table."""

    def test_values(self, params):
        energies = spectrum_table([1, 0, -9], params)[0]
        assert energies[0] == pytest.approx(2.0)
        assert energies[1] == 0.0
        assert energies[2] == pytest.approx(-6.0)
        assert not energies.imag.any()

    def test_scaling_with_units(self):
        p = PhysicalParams(vf=3.0, xi=2.0)
        assert spectrum_table([4], p)[0][0] == pytest.approx(2 * 3.0 / 2.0 * 2)


class TestDenseHamiltonian:
    def test_hermitian_at_v0(self, params):
        cut = FockCutoff(0, 10)
        h = dense_hamiltonian(params, cut).matrix
        assert abs(h - h.conjugate().T).max() < 1e-12

    def test_interior_spectrum_from_cartesian_form(self, params):
        # restrict the Cartesian-spinor matrix to the invariant subspace
        # spanned by circular-mode spinors (upper total <= N, lower <= N-1)
        from lbstates.ladders import circular_mode

        cut = FockCutoff(0, 10)
        big_n = 8
        h = dense_hamiltonian(params, cut).matrix.toarray()
        d2 = (cut.nmax2 + 1) ** 2
        cols = []
        for total_cap, offset in ((big_n, 0), (big_n - 1, d2)):
            for n1 in range(total_cap + 1):
                for n2 in range(total_cap + 1 - n1):
                    col = np.zeros(2 * d2, dtype=complex)
                    col[offset:offset + d2] = circular_mode(n1, n2, cut).coeffs.ravel()
                    cols.append(col)
        w = np.array(cols).T
        block = w.conj().T @ h @ w
        eigs = np.sort(np.linalg.eigvals(block).real)
        expect = [0.0] * (big_n + 1)
        for n2 in range(1, big_n + 1):
            expect += [2 * math.sqrt(n2), -2 * math.sqrt(n2)] * (big_n + 1 - n2)
        np.testing.assert_allclose(eigs, np.sort(expect), atol=1e-9)

    def test_interior_trace_vanishes(self, params):
        block = restricted_spinor_block(params, FockCutoff(0, 12))
        assert abs(np.trace(block)) < 1e-12

    def test_restricted_block_multiset(self, params):
        block = restricted_spinor_block(params, FockCutoff(0, 24))
        eigs = np.sort(np.linalg.eigvals(block).real)
        expect = np.sort([0.0] + [s * 2 * math.sqrt(k) for k in range(1, 25) for s in (1, -1)])
        np.testing.assert_allclose(eigs, expect, atol=1e-9)


class TestSubspaceOrthogonality:
    def test_different_levels_orthogonal(self, rng):
        cut = FockCutoff(6, 12, 10)
        for p, q in ((0, 1), (3, -3), (-1, -2), (5, 2)):
            fr1 = rng.normal(size=cut.nmax1 + 1) + 1j * rng.normal(size=cut.nmax1 + 1)
            fr2 = rng.normal(size=cut.nmax1 + 1) + 1j * rng.normal(size=cut.nmax1 + 1)
            vp, vq = (level_spinors(k, V0, cut.nmax2)[0] for k in (p, q))
            f = SpinorState(fr1, vp[:cut.nmax2 + 1], vp[cut.nmax2 + 1:])
            g = SpinorState(fr2, vq[:cut.nmax2 + 1], vq[cut.nmax2 + 1:])
            assert abs(f.inner(g)) < 1e-10 * f.norm() * g.norm()


class TestFirstRegister:
    def test_basis_bounds(self):
        with pytest.raises(CutoffError):
            first_register_basis(5, 4)
