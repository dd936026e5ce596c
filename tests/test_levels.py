"""The array level table against the scalar coefficient chain it replaced.

The reference below evaluates each level with CPython complex scalars, one
call per level (alpha, the constrained product conj(K_phi) K_psi, the
normalization constants, the re-paired duals).  The table must equal it bit
for bit, signed zeros included, because states and exported densities are
byte-stable.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from lbstates import (
    CoherentSpec,
    ContractError,
    CutoffError,
    ExceptionalPointError,
    FockCutoff,
    PhysicalParams,
    alpha,
    normalization_K,
)
from lbstates import bicoherent, coherent, levels, pt, spinor
from lbstates.bicoherent import BicoherentSpec
from lbstates.params import level_discriminant, sqrt_discriminant
from lbstates.spinor import ModeIndex

_OTHER = {"plus": "minus", "minus": "plus"}


def ref_alpha(p, V, branch):
    sign = {"plus": -1.0, "minus": +1.0}[branch]
    s = sqrt_discriminant(p, V)
    return complex((-V + sign * 1j * s) / math.sqrt(p))


def ref_eq39_product(p, V, branch):
    d = level_discriminant(p, V)
    s = sqrt_discriminant(p, V)
    sign = {"plus": +1.0, "minus": -1.0}[branch]
    den = 2.0 * (d + sign * 1j * V * s)
    return complex(p / den)


def ref_normalization_K(p, params, branch):
    d = level_discriminant(p, params.V)
    if d == 0.0:
        raise ExceptionalPointError(
            f"level p = {p} is exceptional at V = {params.V}", p=p, V=params.V
        )
    if d > 0.0:
        r = ref_eq39_product(p, params.V, branch)
        k_psi = math.sqrt(abs(r))
        k_phi = np.conj(r) / k_psi
        return complex(k_phi), complex(k_psi)
    r_plus_pair = ref_eq39_product(p, params.V, "minus").real
    r_minus_pair = ref_eq39_product(p, params.V, "plus").real
    if branch == "plus":
        return complex(math.sqrt(abs(r_plus_pair))), complex(math.sqrt(abs(r_minus_pair)))
    return complex(-math.sqrt(abs(r_minus_pair))), complex(math.sqrt(abs(r_plus_pair)))


def ref_coefficients(p, params):
    if p == 0:
        return 1.0, 0.0, 1.0, 0.0
    q = abs(p)
    branch = "plus" if p > 0 else "minus"
    k_phi, k_psi = ref_normalization_K(q, params, branch)
    dual = branch
    if params.V > 1.0 and level_discriminant(q, params.V) < 0.0:
        dual = _OTHER[branch]
        _, k_psi = ref_normalization_K(q, params, dual)
    return (k_phi, k_phi * ref_alpha(q, params.V, branch),
            k_psi, -k_psi * ref_alpha(q, params.V, _OTHER[dual]))


def ref_table(ps, params):
    coefs = np.array([ref_coefficients(int(p), params) for p in ps], dtype=complex)
    return coefs.reshape(-1, 4).T


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


PMAX = {0.0: 1200, 0.5: 4000, 0.9: 4000, 1.7: 600, 2.5: 600, 9.5: 600}


class TestBitwiseOracle:
    @pytest.mark.parametrize("V", sorted(PMAX))
    def test_window_matches_scalar_chain(self, V):
        params = PhysicalParams(V=V)
        ps = np.arange(-PMAX[V], PMAX[V] + 1)
        got = np.array(levels.level_table(ps, params))
        assert np.array_equal(bits(got), bits(ref_table(ps, params)))

    @pytest.mark.parametrize("V", sorted(PMAX))
    def test_windows_across_v_squared_and_single_levels(self, V):
        params = PhysicalParams(V=V)
        v2 = int(V * V)
        for ps in (range(0, v2 + 3), range(-v2 - 2, 1), range(-v2 - 2, v2 + 3, 3),
                   [v2 + 1, -(v2 + 1), 0, 1, -1]):
            got = np.array(levels.level_table(list(ps), params))
            assert np.array_equal(bits(got), bits(ref_table(ps, params)))
        for p in range(-v2 - 3, v2 + 4):
            got = np.array(levels.level_table([p], params))
            assert np.array_equal(bits(got), bits(ref_table([p], params)))

    def test_signed_zeros_are_present(self):
        # the contract is only meaningful if signed zeros occur in the table
        got = np.array(levels.level_table(np.arange(-6, 7), PhysicalParams(V=0.0)))
        parts = np.concatenate([got.real.ravel(), got.imag.ravel()])
        zeros = parts[parts == 0.0]
        assert np.signbit(zeros).any() and (~np.signbit(zeros)).any()

    @pytest.mark.parametrize("V", [0.0, 0.5, 0.9, 1.7, 2.5, 9.5, math.sqrt(2)])
    def test_scalars_match_scalar_chain(self, V):
        params = PhysicalParams(V=V)
        for p in range(1, 120):
            for branch in ("plus", "minus"):
                assert bits(alpha(p, V, branch)).tolist() == bits(ref_alpha(p, V, branch)).tolist()
                if level_discriminant(p, V) == 0.0:
                    continue
                got = normalization_K(p, params, branch)
                ref = ref_normalization_K(p, params, branch)
                assert bits(np.array(got)).tolist() == bits(np.array(ref)).tolist()
        assert pt.alpha is alpha


class TestRefusals:
    def test_exceptional_level_raises_only_when_requested(self):
        params = PhysicalParams(V=2.0)
        for ps in ([-3, -2, -1, 0, 1, 2, 3], [5, -5, 6], [0]):
            got = np.array(levels.level_table(ps, params))
            assert np.array_equal(bits(got), bits(ref_table(ps, params)))
        for ps in ([4], [-4], [0, 1, 2, 3, 4, 5], [-6, -5, -4, -3]):
            with pytest.raises(ExceptionalPointError) as new:
                levels.level_table(ps, params)
            with pytest.raises(ExceptionalPointError) as ref:
                ref_table(ps, params)
            assert str(new.value) == str(ref.value) == "level p = 4 is exceptional at V = 2.0"
            assert (new.value.p, new.value.V) == (ref.value.p, ref.value.V) == (4, 2.0)
            assert type(new.value.p) is int

    def test_exceptional_scalar_refusals(self):
        with pytest.raises(ExceptionalPointError, match="level p = 4 is exceptional"):
            normalization_K(4, PhysicalParams(V=2.0), "minus")
        with pytest.raises(ContractError):
            normalization_K(0, PhysicalParams(V=0.5))
        with pytest.raises(ContractError):
            alpha(0, 0.5, "plus")

    def test_levels_beyond_the_register_raise_cutoff(self):
        params = PhysicalParams(V=0.5)
        xu, xl, _, _ = levels.level_table([0, 4, -5], params)
        with pytest.raises(CutoffError, match=r"level \|p\|=5 exceeds nmax2=4"):
            levels.two_entry_columns([0, 4, -5], xu, xl, 4)
        with pytest.raises(CutoffError):
            levels.series_stack([0, 4, -5], xu, xl, np.ones(3), 4)
        with pytest.raises(CutoffError):
            levels.level_spinors(5, params, 4)
        with pytest.raises(CutoffError):
            levels.level_columns(range(-5, 6), params, 4)


class TestDenseFills:
    @pytest.mark.parametrize("V", [0.0, 0.5, 1.7, 9.5])
    def test_single_level_spinors_equal_the_sparse_columns(self, V):
        params = PhysicalParams(V=V)
        nmax2 = 12
        for p in range(-nmax2, nmax2 + 1):
            if V == 0.0 or level_discriminant(max(abs(p), 1), V) != 0.0:
                x, y = levels.level_columns([p], params, nmax2)
                got = levels.level_spinors(p, params, nmax2)
                assert np.array_equal(bits(got[0]), bits(x.toarray()[:, 0]))
                assert np.array_equal(bits(got[1]), bits(y.toarray()[:, 0]))

    def test_series_stack_equals_the_term_by_term_sum(self):
        params = PhysicalParams(V=0.9)
        ps = list(range(0, 30))
        xu, xl, _, _ = levels.level_table(ps, params)
        w = coherent.coherent_coefficients(1.5 - 0.5j, len(ps))
        got = levels.series_stack(ps, xu, xl, w, 40)
        ref = np.zeros(82, dtype=complex)
        for k, p in enumerate(ps):
            ref += levels.two_entry_columns([p], w[k:k + 1] * xu[k:k + 1],
                                            w[k:k + 1] * xl[k:k + 1], 40).toarray()[:, 0]
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
        spinor.level_vector(-3, cut.nmax2)
        spinor.basis_vector_c(ModeIndex(1, 2), cut)
        pt.phi_spinor(3, params, cut)
        pt.dual_spinor(-3, params, cut)
        pt.build_biorth_pair(ModeIndex(0, -2), params, cut)
