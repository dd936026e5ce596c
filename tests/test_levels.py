"""The array level table against 50-digit truth.

`mp_reference.level_entries` evaluates each level from its definition with
mpmath at 50 digits (alpha, the constrained product conj(K_phi) K_psi, the
normalization constants, the re-paired duals).  Every entry of the table
must lie within REL = 1e-14 relative of it, over whole windows and next to
the exceptional points p = V^2, where p - V^2 cancels.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import mp_reference as ref
from helpers import normalization_K
from lbstates import (CoherentSpec, ContractError, CutoffError, ExceptionalPointError,
                      FockCutoff, PhysicalParams)
from lbstates import bicoherent, checks, coherent, levels, pt, spinor
from lbstates.bicoherent import BicoherentSpec
from lbstates.params import discriminant

REL = 1e-14


def ref_table(ps, V):
    return np.array([ref.level_entries(int(p), V) for p in ps], dtype=object).T


def table_error(ps, V):
    return ref.rel_errors(levels.level_table(ps, PhysicalParams(V=V)), ref_table(ps, V)).max()


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


PMAX = {0.0: 1200, 0.5: 4000, 0.9: 4000, 1.7: 600, 2.5: 600, 9.5: 600}
# V within 1e-4 .. 1e-11 of sqrt(p), on both sides, for p = 1..9
NEAR_EXCEPTIONAL = [(p, sign * 10.0 ** -e) for p in range(1, 10) for e in range(4, 12)
                    for sign in (1, -1)]


class TestMpmathOracle:
    @pytest.mark.parametrize("V", sorted(PMAX))
    def test_window_within_bound(self, V):
        assert table_error(np.arange(-PMAX[V], PMAX[V] + 1), V) <= REL

    @pytest.mark.parametrize("p,offset", NEAR_EXCEPTIONAL)
    def test_next_to_exceptional_points(self, p, offset):
        V = math.sqrt(p) + offset
        assert discriminant(p, V) != 0.0  # not snapped: the level is built
        assert table_error(np.arange(-12, 13), V) <= REL

    @pytest.mark.parametrize("V", sorted(PMAX))
    def test_windows_across_v_squared_and_single_levels(self, V):
        v2 = int(V * V)
        for ps in (range(0, v2 + 3), range(-v2 - 2, 1), range(-v2 - 2, v2 + 3, 3),
                   [v2 + 1, -(v2 + 1), 0, 1, -1]):
            assert table_error(list(ps), V) <= REL
        whole = levels.level_table(np.arange(-v2 - 3, v2 + 4), PhysicalParams(V=V))
        for k, p in enumerate(range(-v2 - 3, v2 + 4)):
            # a level's entries do not depend on the other levels requested
            assert np.array_equal(bits(levels.level_table([p], PhysicalParams(V=V))[:, 0]),
                                  bits(whole[:, k]))

    @pytest.mark.parametrize("V", [0.0, 0.5, 0.9, 1.7, 2.5, 9.5, math.sqrt(2), 2.0 + 1e-9])
    def test_scalars_within_bound(self, V):
        params = PhysicalParams(V=V)
        for p in range(1, 120):
            for branch, sign in (("plus", 1), ("minus", -1)):
                if discriminant(p, V) == 0.0:
                    # snapped exceptional level: alpha is -V / sqrt(p) by definition
                    assert pt.alpha(p, V, branch) == -V / math.sqrt(p)
                    continue
                assert ref.rel_errors([pt.alpha(p, V, branch)], [ref.alpha(p, V, sign)]).max() <= REL
                level = sign * p
                want = ref.level_entries(level, V)
                k_psi = ref.level_entries(-level, V)[2] if discriminant(p, V) < 0 else want[2]
                got = normalization_K(p, params, branch)
                assert ref.rel_errors(got, [want[0], k_psi]).max() <= REL

    def test_exact_discriminant(self):
        # p - V^2 rounded once from its exact value, next to p = V^2 where
        # q - V * V in floats keeps only the rounding error of V * V
        from fractions import Fraction
        for p, offset in NEAR_EXCEPTIONAL:
            V = math.sqrt(p) + offset
            exact = p - Fraction(V) ** 2
            assert discriminant(p, V) == float(exact)
        assert discriminant(np.arange(1, 5), 2.0).tolist() == [-3.0, -2.0, -1.0, 0.0]
        assert discriminant(4, 2.0 + 1e-14) == 0.0  # snapped within EXCEPTIONAL_RTOL


class TestSpectrumTable:
    """E_p with each level's class, and |alpha+-|, over whole windows from
    one evaluation each, against 50 digits."""

    @pytest.mark.parametrize("V", sorted(PMAX) + [math.sqrt(2) + 1e-9, math.sqrt(7) - 1e-11])
    def test_within_bound(self, V):
        params = PhysicalParams(V=V)
        ps = np.arange(-120, 121)
        energies, labels = levels.spectrum_table(ps, params)
        want = [ref.energy(int(p), V, params.eps0) for p in ps]
        assert ref.rel_errors(energies, want).max() <= REL
        with ref.mp.workdps(ref.DPS):
            signs = [int(ref.mp.sign(abs(int(p)) - ref.mpf(V) ** 2)) for p in ps]
        assert labels.tolist() == ["zero_mode" if p == 0 else
                                   {-1: "broken", 1: "unbroken"}[sign]
                                   for p, sign in zip(ps.tolist(), signs)]
        qs = np.arange(1, 121)
        moduli = np.concatenate(levels.alpha_moduli(qs, V))
        want = [abs(ref.alpha(int(q), V, sign)) for sign in (1, -1) for q in qs]
        assert ref.rel_errors(moduli, want).max() <= REL

    def test_exceptional_levels_and_refusals(self):
        energies, labels = levels.spectrum_table([-9, 0, 9], PhysicalParams(V=3.0))
        assert labels.tolist() == ["exceptional", "zero_mode", "exceptional"]
        assert bits(energies).tolist() == bits([complex(-0.0, 0.0), 6j, 0j]).tolist()
        with pytest.raises(ContractError):
            levels.alpha_moduli([0, 1], 0.5)


class TestRefusals:
    def test_exceptional_level_raises_only_when_requested(self):
        params = PhysicalParams(V=2.0)
        for ps in ([-3, -2, -1, 0, 1, 2, 3], [5, -5, 6], [0]):
            assert table_error(ps, 2.0) <= REL
        for ps in ([4], [-4], [0, 1, 2, 3, 4, 5], [-6, -5, -4, -3]):
            with pytest.raises(ExceptionalPointError) as new:
                levels.level_table(ps, params)
            assert str(new.value) == "level p = 4 is exceptional at V = 2.0"
            assert (new.value.p, new.value.V) == (4, 2.0)
            assert type(new.value.p) is int

    def test_exceptional_scalar_refusals(self):
        with pytest.raises(ExceptionalPointError, match="level p = 4 is exceptional"):
            normalization_K(4, PhysicalParams(V=2.0), "minus")
        with pytest.raises(ContractError):
            normalization_K(0, PhysicalParams(V=0.5))
        with pytest.raises(ContractError):
            pt.alpha(0, 0.5, "plus")

    def test_levels_beyond_the_register_raise_cutoff(self):
        params = PhysicalParams(V=0.5)
        xu, xl, _, _ = levels.level_table([0, 4, -5], params)
        with pytest.raises(CutoffError, match=r"level \|p\|=5 exceeds nmax2=4"):
            levels.two_entry_columns([0, 4, -5], xu, xl, 4)
        with pytest.raises(CutoffError):
            levels.series_stack([0, 4, -5], xu, xl, np.ones(3), 4)
        with pytest.raises(CutoffError):
            pt.level_spinors(5, params, 4)


class TestDenseFills:
    @pytest.mark.parametrize("V", [0.0, 0.5, 1.7, 9.5])
    def test_single_level_spinors_equal_the_two_entry_columns(self, V):
        params = PhysicalParams(V=V)
        nmax2 = 12
        for p in range(-nmax2, nmax2 + 1):
            if V == 0.0 or discriminant(max(abs(p), 1), V) != 0.0:
                xu, xl, yu, yl = levels.level_table([p], params)
                got = pt.level_spinors(p, params, nmax2)
                x = levels.two_entry_columns([p], xu, xl, nmax2)
                y = levels.two_entry_columns([p], yu, yl, nmax2)
                assert np.array_equal(bits(got[0]), bits(x[:, 0]))
                assert np.array_equal(bits(got[1]), bits(y[:, 0]))

    def test_series_stack_equals_the_term_by_term_sum(self):
        params = PhysicalParams(V=0.9)
        ps = list(range(0, 30))
        xu, xl, _, _ = levels.level_table(ps, params)
        w = coherent.coherent_coefficients(1.5 - 0.5j, len(ps))
        got = levels.series_stack(ps, xu, xl, w, 40)
        ref = np.zeros(82, dtype=complex)
        for k, p in enumerate(ps):
            ref += levels.two_entry_columns([p], w[k:k + 1] * xu[k:k + 1],
                                            w[k:k + 1] * xl[k:k + 1], 40)[:, 0]
        assert np.array_equal(bits(got), bits(ref))

    def test_states_and_single_level_helpers_build_no_sparse_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sparse matrix built")

        monkeypatch.setattr(sp, "csc_matrix", refuse)
        monkeypatch.setattr(sp, "csr_matrix", refuse)
        monkeypatch.setattr(levels, "two_entry_columns", refuse)
        cut = FockCutoff(40, 40, 40)
        params = PhysicalParams(V=0.5)
        coherent.build_coherent(CoherentSpec(0.5, 1 - 1j, "A", "minus", cut))
        for fam, side in (("standard", "ket"), ("theta", "bra")):
            bicoherent.build_bicoherent(
                BicoherentSpec(0.5, 0.5 + 0.5j, fam, side, "plus", params, cut))
        pt.level_spinors(-3, spinor.V0, cut.nmax2)
        checks.basis_vector_c((1, 2), cut)
        pt.level_spinors(3, params, cut.nmax2)
        pt.level_spinors(-3, params, cut.nmax2)
