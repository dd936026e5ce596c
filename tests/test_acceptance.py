"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion.

Desk scale is nmax1 = nmax2 = 64, pmax = 32.  Where a series construction
cannot meet its tail contract inside that window (labels of modulus 2.83
on the level register, and the theta family at V = 9.5, whose series only
starts decaying beyond the broken region), the window is enlarged to the
size the tail bound demands; everything else runs at desk scale.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import exceptional_diagnostics
from lbstates import ExceptionalPointError, FockCutoff, PhysicalParams
from lbstates.bicoherent import BicoherentSpec, bicoherent_eigen_residual, build_bicoherent
from lbstates.checks import (basis_vector_c, combined_state_defect, normalization_N,
                             resolution_identity_check)
from lbstates.coherent import CoherentSpec, build_coherent, eigen_residual
from lbstates.densities import GridSpec, density, gain_loss
from lbstates.ladders import (annihilator, factorization_defect_v0, hamiltonian_spinor_matrix,
                              ladder_matrices, restricted_spinor_block)
from lbstates.levels import alpha_moduli, spectrum_table
from lbstates.pt import (alpha, biorth_level_matrices, factorization_defect, level_spinors,
                         pt_spinor_ladder)
from lbstates.spinor import level_matrix

DESK = FockCutoff(64, 64, 32)
DESK_WIDE = FockCutoff(64, 64, 64)   # level window for |z2| up to 2*sqrt(2)
BIG = FockCutoff(24, 150, 150)       # theta family at V = 9.5
PARAMS = PhysicalParams()


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {title}")


def test_criterion_01_spectrum():
    with criterion(1, "V=0 spectrum: eigen-residuals and dense-diagonalization multiset"):
        h = hamiltonian_spinor_matrix(PARAMS, DESK).matrix
        vm = level_matrix(DESK)
        energies = np.array([math.copysign(2 * math.sqrt(abs(p)), p) if p else 0.0
                             for p in range(-DESK.pmax, DESK.pmax + 1)])
        residuals = np.linalg.norm(h @ vm - vm * energies[None, :], axis=0)
        assert residuals.max() < 1e-10
        # the degeneracy register is untouched: spot-check full states too,
        # against E_p of the spectrum table
        for n in (0, 17, 64):
            for p, e in zip((-32, -5, 0, 1, 32), spectrum_table([-32, -5, 0, 1, 32], PARAMS)[0]):
                st = basis_vector_c((n, p), DESK)
                res = np.linalg.norm(h @ st.spinor_stack() - e * st.spinor_stack())
                assert res * np.linalg.norm(st.first_register) < 1e-10
        block = restricted_spinor_block(PARAMS, DESK)
        eigs = np.sort(np.linalg.eigvals(block).real)
        expect = np.sort([0.0] + [s * 2 * math.sqrt(k) for k in range(1, 65) for s in (1, -1)])
        assert np.abs(eigs - expect).max() < 1e-9


def test_criterion_02_ccrs():
    with criterion(2, "canonical commutators on the interior window"):
        ops = ladder_matrices(DESK)
        d = DESK.nmax2 + 1
        interior = np.array([j * d + k for j in range(d - 1) for k in range(d - 1)])
        import scipy.sparse as sp

        eye = sp.identity(d * d, format="csr", dtype=complex)
        worst = 0.0
        for name in ("a_X", "a_Y", "A1", "A2"):
            a = ops[name].matrix
            defect = (a @ a.conjugate().T - a.conjugate().T @ a - eye).tocoo()
            mask = np.isin(defect.row, interior) & np.isin(defect.col, interior)
            if mask.any():
                worst = max(worst, float(np.abs(defect.data[mask]).max()))
        cross = (ops["A1"].matrix @ ops["A2"].matrix - ops["A2"].matrix @ ops["A1"].matrix).tocoo()
        mask = np.isin(cross.row, interior) & np.isin(cross.col, interior)
        if mask.any():
            worst = max(worst, float(np.abs(cross.data[mask]).max()))
        # the degeneracy-register lowering operator satisfies the same CCR
        a1 = annihilator(DESK.nmax1)
        comm = (a1 @ a1.conjugate().T - a1.conjugate().T @ a1).toarray()
        worst = max(worst, float(np.abs((comm - np.eye(65))[:64, :64]).max()))
        assert worst < 1e-12


def test_criterion_03_coherent_states():
    with criterion(3, "coherent norms, eigen-equations, resolutions, combined defect"):
        zgrid = (0, 1, -1, 1j, -1j, 1 - 1j, 2 + 2j)
        legal = {("A", "plus"): "A2", ("A", "minus"): "A2dag",
                 ("B", "plus"): "B2dag", ("B", "minus"): "B2"}
        for family in ("A", "B"):
            for branch in ("plus", "minus"):
                for z1 in (0, 1 - 1j):
                    for z2 in zgrid:
                        spec = CoherentSpec(z1, z2, family, branch, DESK_WIDE)
                        st = build_coherent(spec)
                        assert abs(st.norm() - 1.0) < 1e-8
                spec = CoherentSpec(1 - 1j, 1 + 0.5j, family, branch, DESK_WIDE)
                assert eigen_residual(spec, build_coherent(spec), legal[(family, branch)]) < 1e-8
                assert eigen_residual(spec, build_coherent(spec), "A1") < 1e-8
        # quadrature resolutions reproduce the subspace Grams
        small = FockCutoff(8, 12, 10)
        for branch, sign in (("plus", +1), ("minus", -1)):
            idxs = [(n, sign * (k + (0 if sign > 0 else 1)))
                    for n in range(3) for k in range(3)]
            for i in idxs:
                for j in idxs:
                    f = basis_vector_c(i, small)
                    g = basis_vector_c(j, small)
                    got = resolution_identity_check(branch, f, g, small)
                    assert abs(got - f.inner(g)) < 1e-6
        f0 = basis_vector_c((0, 0), small)
        defect = combined_state_defect(f0, f0, small)
        assert abs(defect) > 0.1
        assert defect == pytest.approx(-0.5, abs=1e-10)


def test_criterion_04_v0_nonfactorizability():
    with criterion(4, "measured gap between H and the number-type product"):
        defects = factorization_defect_v0(DESK, PARAMS)
        for p, measured in zip(range(-DESK.pmax + 1, DESK.pmax), defects.tolist()):
            if p == 0:
                continue
            expect = abs(2 * math.copysign(math.sqrt(abs(p)), p) - abs(p))
            assert measured == pytest.approx(expect, abs=1e-10)


def test_criterion_05_biorthonormality():
    with criterion(5, "biorthonormal Grams at V=0.5 and V=9.5"):
        for v in (0.5, 9.5):
            x, y = biorth_level_matrices(PhysicalParams(V=v), DESK)
            gram = y.conj().T @ x
            assert np.abs(gram - np.eye(x.shape[1])).max() < 1e-10


def test_criterion_06_pt_spectrum():
    with criterion(6, "PT spectrum: reality pattern and the imaginary zero mode"):
        params = PhysicalParams(V=0.5)
        ps = np.arange(-DESK.pmax, DESK.pmax + 1)
        energies = spectrum_table(ps, params)[0]
        assert energies[DESK.pmax] == pytest.approx(1.0j, abs=1e-15)
        assert (np.abs(energies[ps != 0].imag) < 1e-12).all()
        params = PhysicalParams(V=9.5)
        for p in range(1, 121):
            for e in spectrum_table([p, -p], params)[0]:
                if p <= 90:
                    assert abs(e.imag) > 0
                else:
                    assert e.imag == 0.0


def test_criterion_07_factorization():
    with criterion(7, "shifted-Hamiltonian factorization through the ladder pair"):
        for v in (0.25, 0.5, 9.5):
            assert factorization_defect(PhysicalParams(V=v), DESK) < 1e-9


def test_criterion_08_alpha_identities():
    with criterion(8, "mixing-coefficient identities in all regimes"):
        for v in (0.25, 0.5, 0.9):
            for p in range(1, 33):
                assert abs(abs(alpha(p, v, "plus")) - 1.0) < 1e-12
                assert abs(abs(alpha(p, v, "minus")) - 1.0) < 1e-12
        assert alpha(2, math.sqrt(2), "plus") == -1.0
        assert alpha(2, math.sqrt(2), "minus") == -1.0
        ap, am = alpha_moduli(np.arange(1, 91), 9.5)
        assert (np.abs(ap * am - 1.0) < 1e-12).all()
        # derived oracle for the first broken level at V = 9.5: the unit
        # product gives |alpha+| = 1/(V + sqrt(V^2 - 1)) = 0.0527782
        oracle = 1.0 / (9.5 + math.sqrt(9.5 ** 2 - 1.0))
        ap = float(alpha_moduli([1], 9.5)[0][0])
        print(f"  |alpha+_1(9.5)| = {ap:.7f} (oracle {oracle:.7f})")
        assert ap == pytest.approx(oracle, abs=1e-6)


def test_criterion_09_norm_bounds():
    with criterion(9, "uniform norm bounds on the eigenfamilies"):
        params = PhysicalParams(V=0.5)
        for p in range(0, DESK.pmax + 1):
            assert np.linalg.norm(level_spinors(p, params, DESK.nmax2)[0]) ** 2 <= 4.0 / 3.0 + 1e-12
        params = PhysicalParams(V=9.5)
        cut = FockCutoff(2, 120, 110)
        for p in range(91, cut.pmax + 1):
            assert np.linalg.norm(level_spinors(p, params, cut.nmax2)[1]) ** 2 <= 121.34


def test_criterion_10_bicoherent_identities():
    with criterion(10, "bicoherent bi-normalization, N value, ladder eigen-equations"):
        params = PhysicalParams(V=0.5)
        n1 = normalization_N(1.0, params, DESK_WIDE)
        print(f"  N(1) = {n1.value:.6f}")
        assert n1.value == pytest.approx(0.75718, abs=1e-4)
        ket = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "theta", "ket", "plus", params,
                                              DESK_WIDE))
        assert ket.inner(ket.dual) == pytest.approx(1.0, abs=1e-8)
        for op, (family, side, branch) in (
            ("C2", ("theta", "ket", "plus")),
            ("D2", ("theta", "ket", "minus")),
            ("C2dag", ("theta", "bra", "minus")),
            ("D2dag", ("theta", "bra", "plus")),
        ):
            s = BicoherentSpec(0.0, 1 - 1j, family, side, branch, params, DESK_WIDE)
            assert bicoherent_eigen_residual(s, build_bicoherent(s), op) < 1e-8
            assert bicoherent_eigen_residual(s, build_bicoherent(s), "A1") < 1e-8
        s1 = BicoherentSpec(2 + 1j, 1 - 1j, "theta", "ket", "plus", params, DESK_WIDE)
        assert bicoherent_eigen_residual(s1, build_bicoherent(s1), "A1") < 1e-8
        # the same identities hold deep in the broken phase
        s95 = BicoherentSpec(0.0, 1 - 1j, "theta", "ket", "plus", PhysicalParams(V=9.5), BIG)
        ket95 = build_bicoherent(s95)
        assert ket95.inner(ket95.dual) == pytest.approx(1.0, abs=1e-8)
        assert bicoherent_eigen_residual(s95, ket95, "C2") < 1e-8


def test_criterion_11_figure_reproduction():
    with criterion(11, "density-grid structure at the figure parameters"):
        grid = GridSpec(-8, 8, 257, -8, 8, 257)
        # (a) the V = 0 reference state is roughly balanced
        st0 = build_coherent(CoherentSpec(0.0, 1 - 1j, "A", "plus", DESK))
        rep0 = gain_loss(st0)
        assert 0.4 < rep0["ratio"] < 2.5
        fld0 = density(st0, grid)
        assert fld0.integral() == pytest.approx(st0.norm2(), rel=1e-3)
        # (b) gain in the first component of the theta-family ket at V = 9.5
        params = PhysicalParams(V=9.5)
        eta = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "theta", "ket", "plus", params, BIG))
        rep_eta = gain_loss(eta)
        assert rep_eta["ratio"] > 10
        fld_eta = density(eta, grid, params)
        assert fld_eta.integral() == pytest.approx(eta.norm2(), rel=1e-3)
        # (c) gain in the second component of the dual minus state
        xi = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "theta", "bra", "minus", params, BIG))
        rep_xi = gain_loss(xi)
        assert rep_xi["mass_lower"] / rep_xi["mass_upper"] > 10
        fld_xi = density(xi, grid, params)
        assert fld_xi.integral() == pytest.approx(xi.norm2(), rel=1e-3)
        print(f"  ratios: V=0 {rep0['ratio']:.3f}, eta+ {rep_eta['ratio']:.1f},"
              f" xi- {rep_xi['mass_lower'] / rep_xi['mass_upper']:.1f}")


def test_criterion_12_v0_continuity():
    with criterion(12, "theta family converges to the V=0 coherent family in modulus"):
        cut = FockCutoff(20, 48, 48)
        worst = 0.0
        for branch in ("plus", "minus"):
            eps = build_bicoherent(BicoherentSpec(0.5, 1 - 1j, "theta", "ket", branch,
                                                  PhysicalParams(V=1e-4), cut))
            zero = build_bicoherent(BicoherentSpec(0.5, 1 - 1j, "theta", "ket", branch,
                                                   PhysicalParams(V=0.0), cut))
            for a, b in ((eps.upper, zero.upper), (eps.lower, zero.lower),
                         (eps.first_register, zero.first_register)):
                worst = max(worst, float(np.abs(np.abs(a) - np.abs(b)).max()))
        assert worst < 1e-6


def test_criterion_13_exceptional_points():
    with criterion(13, "exceptional point at V=2, p=4: coalescence and refusal"):
        rep = exceptional_diagnostics(4, 2.0, DESK)
        assert rep["coincidence_defect"] < 1e-10
        assert rep["self_orthogonality"] < 1e-10
        assert abs(rep["pair_eigenvalue"]) < 1e-12
        for name in ("A_K_V", "B_K_V", "c2", "d2"):
            with pytest.raises(ExceptionalPointError):
                pt_spinor_ladder(name, PhysicalParams(V=2.0), DESK)
