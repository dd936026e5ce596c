"""Matrix-free ladder residuals against the sparse realizations.

`coherent.eigen_residual` and `bicoherent.bicoherent_eigen_residual` apply
each ladder to the state as X(P(Y^H s)) and A1 as sqrt(n+1) fr[n+1],
without building a matrix.  The oracle computes the same residual with
`spinor.ladder_residual` on the realized matrices: `spinor_ladder_matrix`,
`pt_spinor_ladder` (and its dagger) and `first_register_lowering`.  The
two sum in another order, so they agree to rounding only: to RTOL of the
residual plus ATOL of |z| ||state||, the size of the two vectors whose
difference the residual measures (theta states at V = 9.5 reach norms
near 1e4).
"""

import numpy as np
import pytest

from lbstates import FockCutoff, LadderKind, PhysicalParams, ShapeError
from lbstates import bicoherent as bc
from lbstates import coherent as ch
from lbstates.ladders import spinor_ladder_apply, spinor_ladder_matrix
from lbstates.pt import pt_ladder_apply, pt_spinor_ladder
from lbstates.spinor import first_register_lowering, ladder_residual, lower_first_register

RTOL, ATOL = 1e-12, 1e-15
Z1, Z2 = 0.5 + 0.25j, 1 - 1j
# the level windows of the bicoherent.eigen_residuals check
BICOHERENT_CASES = [(0.5, FockCutoff(24, 48, 48)), (9.5, FockCutoff(24, 150, 150))]
COHERENT_CUT = FockCutoff(24, 64, 64)


def assert_close(fast, slow, state, z):
    scale = max(1.0, abs(z) * state.norm())
    assert abs(fast - slow) <= RTOL * abs(slow) + ATOL * scale, (fast, slow, scale)


def realized(operator: str, params, cut):
    """The sparse realization of a bicoherent pairing's ladder."""
    base = operator.removesuffix("dag").rstrip("_")
    op = pt_spinor_ladder(base.lower() if base in ("C2", "D2") else base, params, cut)
    return op.dagger() if operator.endswith("dag") else op


def bicoherent_states(params, cut):
    specs = {key: bc.BicoherentSpec(Z1, Z2, *key, params, cut) for key in bc._LEGAL}
    return specs, {key: bc.build_bicoherent(spec) for key, spec in specs.items()}


class TestBicoherentResiduals:
    @pytest.mark.parametrize("V,cut", BICOHERENT_CASES)
    @pytest.mark.parametrize("key", list(bc._LEGAL))
    def test_legal_pairing_matches_realization(self, V, cut, key):
        params = PhysicalParams(V=V)
        spec = bc.BicoherentSpec(Z1, Z2, *key, params, cut)
        state = bc.build_bicoherent(spec)
        op = bc._LEGAL[key]
        fast = bc.bicoherent_eigen_residual(spec, state, op)
        assert_close(fast, ladder_residual(state, realized(op, params, cut), Z2), state, Z2)
        assert fast < 1e-8
        fast_a1 = bc.bicoherent_eigen_residual(spec, state, "A1")
        assert_close(fast_a1, ladder_residual(state, first_register_lowering(cut.nmax1), Z1),
                     state, Z1)

    @pytest.mark.parametrize("V,cut", BICOHERENT_CASES)
    def test_off_branch_states_match_realization(self, V, cut):
        # each legal spec applied to the states of the other seven pairings:
        # they are no eigenvectors, so the residual is of order one
        params = PhysicalParams(V=V)
        specs, states = bicoherent_states(params, cut)
        largest = 0.0
        for key, spec in specs.items():
            op = bc._LEGAL[key]
            matrix = realized(op, params, cut)
            for other, state in states.items():
                if other == key:
                    continue
                fast = bc.bicoherent_eigen_residual(spec, state, op)
                assert_close(fast, ladder_residual(state, matrix, Z2), state, Z2)
                largest = max(largest, fast)
        assert largest > 0.1


class TestCoherentResiduals:
    @pytest.mark.parametrize("key", list(ch._LEGAL_OPS))
    def test_every_ladder_on_every_branch(self, key):
        # the legal pairing is an eigen-equation; the other three are not
        spec = ch.CoherentSpec(Z1, Z2, *key, COHERENT_CUT)
        state = ch.build_coherent(spec)
        for kind in ch._LEGAL_OPS.values():
            fast = ch.eigen_residual(spec, state, kind, strict=False)
            slow = ladder_residual(state, spinor_ladder_matrix(kind, COHERENT_CUT), Z2)
            assert_close(fast, slow, state, Z2)
            if kind is ch._LEGAL_OPS[key]:
                assert fast < 1e-8
            else:
                assert fast > 0.1
        fast_a1 = ch.eigen_residual(spec, state, LadderKind.A1)
        slow_a1 = ladder_residual(state, first_register_lowering(COHERENT_CUT.nmax1), Z1)
        assert_close(fast_a1, slow_a1, state, Z1)


class TestLadderApplication:
    """The matrix-free products themselves, on random vectors."""

    @pytest.mark.parametrize("V", [0.0, 0.5, 9.5])
    @pytest.mark.parametrize("name", ["A_K_V", "B_K_V", "c2", "d2"])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_pt_ladder(self, V, name, adjoint, rng):
        params = PhysicalParams(V=V)
        cut = FockCutoff(2, 110, 100)
        stack = rng.normal(size=222) + 1j * rng.normal(size=222)
        op = pt_spinor_ladder(name, params, cut)
        want = (op.dagger() if adjoint else op).matrix @ stack
        got = pt_ladder_apply(name, params, cut, stack, adjoint)
        assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", list(ch._LEGAL_OPS.values()))
    def test_level_ladder(self, kind, rng):
        cut = FockCutoff(2, 40, 33)
        stack = rng.normal(size=82) + 1j * rng.normal(size=82)
        want = spinor_ladder_matrix(kind, cut).matrix @ stack
        got = spinor_ladder_apply(kind, cut, stack)
        assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)

    def test_first_register_lowering(self, rng):
        fr = rng.normal(size=17) + 1j * rng.normal(size=17)
        assert np.array_equal(lower_first_register(fr), first_register_lowering(16).matrix @ fr)

    def test_window_mismatch_is_refused(self):
        with pytest.raises(ShapeError):
            pt_ladder_apply("c2", PhysicalParams(V=0.5), FockCutoff(2, 10, 10), np.ones(20))
