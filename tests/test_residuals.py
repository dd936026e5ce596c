"""Matrix-free ladder residuals against the sparse realizations.

`coherent.eigen_residual` and `bicoherent.bicoherent_eigen_residual` apply
the ladder that `levels.PAIRINGS` pairs with the state as X(P(Y^H s))
(`levels.ladder_apply`) and A1 as sqrt(n+1) fr[n+1], without building a
matrix.  The oracle computes the same residual with
`ladder_residual` below on the realized matrices: `ladders.ladder_matrix`
(and its dagger) and `ladders.annihilator` on the first register.  The
two sum in another order, so they agree to rounding only: to RTOL of the
residual plus ATOL of |z| ||state||, the size of the two vectors whose
difference the residual measures (theta states at V = 9.5 reach norms
near 1e4).
"""

from dataclasses import replace

import numpy as np
import pytest

from lbstates import ContractError, FockCutoff, PhysicalParams, ShapeError
from lbstates import bicoherent as bc
from lbstates import coherent as ch
from lbstates.ladders import SparseOperator, annihilator, ladder_matrix
from lbstates.levels import (PAIRINGS, V0_LADDERS, ladder_apply, level_rows, near_levels,
                             window_levels)
from lbstates.spinor import V0, SpinorState, lower_first_register

RTOL, ATOL = 1e-12, 1e-15
Z1, Z2 = 0.5 + 0.25j, 1 - 1j
# the level windows of the bicoherent.eigen_residuals check
BICOHERENT_CASES = [(0.5, FockCutoff(24, 48, 48)), (9.5, FockCutoff(24, 150, 150))]
COHERENT_CUT = FockCutoff(24, 64, 64)


def assert_close(fast, slow, state, z):
    scale = max(1.0, abs(z) * state.norm())
    assert abs(fast - slow) <= RTOL * abs(slow) + ATOL * scale, (fast, slow, scale)


BICOHERENT_KEYS = [key for key in PAIRINGS if key[0] in bc.FAMILIES]
COHERENT_KEYS = [key for key in PAIRINGS if key[0] in ("A", "B")]


def ladder_residual(state, matrix, z):
    """|| O state - z state || with the realized matrix of a ladder O of
    the spinor register."""
    own, other = state.spinor_stack(), state.first_register
    return float(np.linalg.norm(matrix @ own - z * own) * np.linalg.norm(other))


def a1_residual(state, z):
    """|| A1 state - z state || with A1 realized on the first register."""
    own, other = state.first_register, state.spinor_stack()
    a1 = annihilator(own.size - 1)
    return float(np.linalg.norm(a1 @ own - z * own) * np.linalg.norm(other))


def realized(key, params, cut):
    """The sparse realization of the ladder paired with a (family, branch)."""
    row = PAIRINGS[key]
    op = SparseOperator(ladder_matrix(row.ladder, params, cut), row.ladder)
    return (op.dagger() if row.adjoint else op).matrix


def moved_residual(state, key, z, cut):
    """|| O state - z state || for the ladder O that `PAIRINGS` pairs with
    key, applied through `levels.ladder_apply` on the rows the state
    carries, whatever family and branch the state was built on."""
    row = PAIRINGS[key]
    own = state.spinor_stack()
    moved = ladder_apply(row.ladder, state.rows, own, cut, row.adjoint)
    return float(np.linalg.norm(moved - z * own)) * float(np.linalg.norm(state.first_register))


def bicoherent_spec(key, params, cut):
    family, branch = key
    return bc.BicoherentSpec(Z1, Z2, *bc.FAMILIES[family], branch, params, cut)


def bicoherent_states(params, cut):
    specs = {key: bicoherent_spec(key, params, cut) for key in BICOHERENT_KEYS}
    return specs, {key: bc.build_bicoherent(spec) for key, spec in specs.items()}


class TestBicoherentResiduals:
    @pytest.mark.parametrize("V,cut", BICOHERENT_CASES)
    @pytest.mark.parametrize("key", BICOHERENT_KEYS)
    def test_legal_pairing_matches_realization(self, V, cut, key):
        params = PhysicalParams(V=V)
        spec = bicoherent_spec(key, params, cut)
        state = bc.build_bicoherent(spec)
        fast = bc.bicoherent_eigen_residual(spec, state, PAIRINGS[key].op)
        assert_close(fast, ladder_residual(state, realized(key, params, cut), Z2), state, Z2)
        assert fast < 1e-8
        fast_a1 = bc.bicoherent_eigen_residual(spec, state, "A1")
        assert_close(fast_a1, a1_residual(state, Z1), state, Z1)

    @pytest.mark.parametrize("V,cut", BICOHERENT_CASES)
    def test_off_branch_states_match_realization(self, V, cut):
        # each legal spec applied to the states of the other seven pairings:
        # they are no eigenvectors, so the residual is of order one
        params = PhysicalParams(V=V)
        specs, states = bicoherent_states(params, cut)
        largest = 0.0
        for key, spec in specs.items():
            op = PAIRINGS[key].op
            matrix = realized(key, params, cut)
            for other, state in states.items():
                if other == key:
                    continue
                fast = bc.bicoherent_eigen_residual(spec, state, op)
                assert_close(fast, ladder_residual(state, matrix, Z2), state, Z2)
                largest = max(largest, fast)
        assert largest > 0.1


class TestCoherentResiduals:
    @pytest.mark.parametrize("key", COHERENT_KEYS)
    def test_every_ladder_on_every_branch(self, key):
        # the legal pairing is an eigen-equation; the other three are not,
        # and eigen_residual refuses them
        spec = ch.CoherentSpec(Z1, Z2, *key, COHERENT_CUT)
        state = ch.build_coherent(spec)
        for other in COHERENT_KEYS:
            fast = moved_residual(state, other, Z2, COHERENT_CUT)
            slow = ladder_residual(state, realized(other, V0, COHERENT_CUT), Z2)
            assert_close(fast, slow, state, Z2)
            if other == key:
                assert fast == ch.eigen_residual(spec, state, PAIRINGS[other].op)
                assert fast < 1e-8
            else:
                with pytest.raises(ContractError, match="no eigenvalue equation"):
                    ch.eigen_residual(spec, state, PAIRINGS[other].op)
                assert fast > 0.1
        fast_a1 = ch.eigen_residual(spec, state, "A1")
        slow_a1 = a1_residual(state, Z1)
        assert_close(fast_a1, slow_a1, state, Z1)


def zero_padded(spec, state, factor=10):
    """The spec on a window `factor` times larger, and the state padded
    with zeros to it, carrying the state's level rows."""
    cut = spec.cutoff
    big = FockCutoff(factor * cut.nmax1, factor * cut.nmax2, factor * cut.pmax)

    def pad(a, size):
        return np.concatenate([a, np.zeros(size - a.size, dtype=complex)])

    return replace(spec, cutoff=big), SpinorState(
        pad(state.first_register, big.nmax1 + 1), pad(state.upper, big.nmax2 + 1),
        pad(state.lower, big.nmax2 + 1), rows=state.rows)


class TestWindowIndependence:
    """Residuals are evaluated on the levels the state carries, its series
    levels and their neighbours, so padding the window with empty levels
    changes nothing."""

    @pytest.mark.parametrize("V,cut", BICOHERENT_CASES)
    @pytest.mark.parametrize("key", BICOHERENT_KEYS)
    def test_bicoherent(self, V, cut, key):
        spec = bicoherent_spec(key, PhysicalParams(V=V), cut)
        state = bc.build_bicoherent(spec)
        big_spec, big_state = zero_padded(spec, state)
        for op in ("A1", PAIRINGS[key].op):
            small = bc.bicoherent_eigen_residual(spec, state, op)
            big = bc.bicoherent_eigen_residual(big_spec, big_state, op)
            assert big == pytest.approx(small, rel=1e-14, abs=0.0), (op, small, big)
        # built on the larger window, the state stops its series at the same
        # term, so it carries a table of the same length
        assert bc.build_bicoherent(big_spec).rows.ps.size == state.rows.ps.size

    @pytest.mark.parametrize("key", COHERENT_KEYS)
    def test_coherent(self, key):
        # every V = 0 ladder, so most residuals are of order one
        spec = ch.CoherentSpec(Z1, Z2, *key, COHERENT_CUT)
        state = ch.build_coherent(spec)
        big_spec, big_state = zero_padded(spec, state)
        small = ch.eigen_residual(spec, state, "A1")
        big = ch.eigen_residual(big_spec, big_state, "A1")
        assert big == pytest.approx(small, rel=1e-14, abs=0.0), ("A1", small, big)
        for other in COHERENT_KEYS:
            small = moved_residual(state, other, Z2, spec.cutoff)
            big = moved_residual(big_state, other, Z2, big_spec.cutoff)
            assert big == pytest.approx(small, rel=1e-14, abs=0.0), (other, small, big)


def bare_rows(stack, cut, params):
    """The rows a bare stack is evaluated on: the levels of the window
    whose two rows carry weight, and their neighbours."""
    half, pmax = cut.nmax2 + 1, cut.pmax
    live = stack[:pmax + 1] != 0
    live[1:] |= stack[half:half + pmax] != 0
    return level_rows(near_levels(np.flatnonzero(live), pmax), params)


class TestLadderApplication:
    """The matrix-free products themselves, on random vectors."""

    @pytest.mark.parametrize("V", [0.0, 0.5, 9.5])
    @pytest.mark.parametrize("name", ["A_K_V", "B_K_V", "c2", "d2"])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_pt_ladder(self, V, name, adjoint, rng):
        params = PhysicalParams(V=V)
        cut = FockCutoff(2, 110, 100)
        stack = rng.normal(size=222) + 1j * rng.normal(size=222)
        mat = ladder_matrix(name, params, cut)
        want = (mat.conj().T if adjoint else mat) @ stack
        got = ladder_apply(name, bare_rows(stack, cut, params), stack, cut, adjoint)
        assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", V0_LADDERS)
    def test_level_ladder(self, kind, rng):
        cut = FockCutoff(2, 40, 33)
        stack = rng.normal(size=82) + 1j * rng.normal(size=82)
        mat = ladder_matrix(kind, V0, cut)
        for adjoint in (False, True):
            want = (mat.conj().T if adjoint else mat) @ stack
            got = ladder_apply(kind, bare_rows(stack, cut, V0), stack, cut, adjoint)
            assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)
        # the V = 0 ladders act on the V = 0 basis, not on rows at another V
        with pytest.raises(ContractError):
            ladder_apply(kind, bare_rows(stack, cut, PhysicalParams(V=0.5)), stack, cut)

    @pytest.mark.parametrize("pairing", list(PAIRINGS.values()))
    def test_sparse_vectors(self, pairing, rng):
        # a few scattered levels, with weight on one row of a level only:
        # the support and its neighbours must give the whole-window product
        key, adjoint = pairing.ladder, pairing.adjoint
        params = V0 if key in V0_LADDERS else PhysicalParams(V=2.5)
        cut = FockCutoff(2, 60, 50)
        stack = np.zeros(122, dtype=complex)
        for row in (0, 7, 8, 50, 60, 61 + 3, 61 + 30, 61 + 59):
            stack[row] = rng.normal() + 1j * rng.normal()
        mat = ladder_matrix(key, params, cut)
        want = (mat.conj().T if adjoint else mat) @ stack
        got = ladder_apply(key, bare_rows(stack, cut, params), stack, cut, adjoint)
        assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)
        zero = np.zeros(122)
        assert np.array_equal(ladder_apply(key, bare_rows(zero, cut, params), zero, cut, adjoint),
                              zero)

    def test_first_register_lowering(self, rng):
        fr = rng.normal(size=17) + 1j * rng.normal(size=17)
        assert np.array_equal(lower_first_register(fr), annihilator(16) @ fr)

    def test_window_mismatch_is_refused(self):
        rows = level_rows(window_levels(10), PhysicalParams(V=0.5))
        with pytest.raises(ShapeError):
            ladder_apply("c2", rows, np.ones(20), FockCutoff(2, 10, 10))
