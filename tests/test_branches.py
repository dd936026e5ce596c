"""The pairing table `levels.PAIRINGS` against the hand-written level maps
it replaced, and every series builder against its tail tolerance and
against the terms it drops."""

import cmath
import math

import numpy as np
import pytest

import mp_reference
from lbstates import CutoffError, FockCutoff, PhysicalParams
from lbstates.bicoherent import FAMILIES, BicoherentSpec, _theta_series, build_bicoherent
from lbstates.checks import normalization_N
from lbstates.coherent import CoherentSpec, build_coherent, gaussian_series
from lbstates.levels import PAIRINGS, window_levels

# (CLI family, branch) -> (sigma(n), level cap at pmax, support predicate),
# as each spec class and check wrote them before the table
OLD_MAPS = {
    ("A", "plus"): (lambda n: n, lambda pm: pm, lambda p: p >= 0),
    ("A", "minus"): (lambda n: -n - 1, lambda pm: pm - 1, lambda p: p <= -1),
    ("B", "plus"): (lambda n: n + 1, lambda pm: pm - 1, lambda p: p >= 1),
    ("B", "minus"): (lambda n: -n, lambda pm: pm, lambda p: p <= 0),
    ("phi", "plus"): (lambda n: n, lambda pm: pm, lambda p: p >= 0),
    ("phi", "minus"): (lambda n: -n - 1, lambda pm: pm - 1, lambda p: p <= -1),
    ("psi", "plus"): (lambda n: n, lambda pm: pm, lambda p: p >= 0),
    ("psi", "minus"): (lambda n: -n - 1, lambda pm: pm - 1, lambda p: p <= -1),
    ("eta", "plus"): (lambda n: n, lambda pm: pm, lambda p: p >= 0),
    ("eta", "minus"): (lambda n: -n - 1, lambda pm: pm - 1, lambda p: p <= -1),
    ("xi", "plus"): (lambda n: n, lambda pm: pm, lambda p: p >= 0),
    ("xi", "minus"): (lambda n: -n - 1, lambda pm: pm - 1, lambda p: p <= -1),
}
# the subspaces H2+- and K2+- (the halves of the two splits) as their tags
# wrote them, and the branch rows whose support the closure checks read
OLD_SUBSPACES = {
    "H2plus": (("A", "plus"), lambda p: p >= 0),
    "H2minus": (("A", "minus"), lambda p: p <= -1),
    "K2plus": (("B", "plus"), lambda p: p >= 1),
    "K2minus": (("B", "minus"), lambda p: p <= 0),
}
# (CLI family, branch) -> (reported operator name, ladder key, adjoint), as
# the pairing table held them before it carried the levels
OLD_LADDERS = {
    ("A", "plus"): ("A2", "A2", False), ("A", "minus"): ("A2dag", "A2dag", False),
    ("B", "plus"): ("B2dag", "B2dag", False), ("B", "minus"): ("B2", "B2", False),
    ("phi", "plus"): ("A_K_V", "A_K_V", False), ("phi", "minus"): ("B_K_V", "B_K_V", False),
    ("psi", "minus"): ("A_K_V_dag", "A_K_V", True), ("psi", "plus"): ("B_K_V_dag", "B_K_V", True),
    ("eta", "plus"): ("C2", "c2", False), ("eta", "minus"): ("D2", "d2", False),
    ("xi", "minus"): ("C2dag", "c2", True), ("xi", "plus"): ("D2dag", "d2", True),
}
PMAXES = range(0, 13)


def make_spec(key, z1, z2, params, cut):
    family, branch = key
    if family in ("A", "B"):
        return CoherentSpec(z1, z2, family, branch, cut)
    return BicoherentSpec(z1, z2, *FAMILIES[family], branch, params, cut)


def test_one_row_per_pairing():
    assert list(PAIRINGS) == list(OLD_LADDERS) and set(PAIRINGS) == set(OLD_MAPS)
    for key, row in PAIRINGS.items():
        assert (row.op, row.ladder, row.adjoint) == OLD_LADDERS[key]
        assert row.step == (1 if key[1] == "plus" else -1)


@pytest.mark.parametrize("key", sorted(OLD_MAPS))
def test_table_matches_old_maps(key):
    sigma, cap, pred = OLD_MAPS[key]
    row = PAIRINGS[key]
    for pmax in PMAXES:
        assert row.cap(pmax) == cap(pmax)
        n = np.arange(cap(pmax) + 2)
        assert row.sigma(n).tolist() == [sigma(k) for k in n]
        assert [row.sigma(int(k)) for k in n] == [sigma(k) for k in n]
        ps = window_levels(pmax)
        assert row.support(ps).tolist() == [pred(p) for p in ps]
        # the cap is the last series index inside the window
        assert abs(sigma(cap(pmax))) <= pmax < abs(sigma(cap(pmax) + 1))


@pytest.mark.parametrize("key", sorted(OLD_MAPS))
def test_specs_read_the_table(key):
    sigma, cap, _ = OLD_MAPS[key]
    for pmax in PMAXES:
        spec = make_spec(key, 0.0, 0.5, PhysicalParams(V=0.5), FockCutoff(2, max(pmax, 1), pmax))
        assert spec.key == key
        assert spec.level_cap == cap(pmax)
        n = np.arange(max(cap(pmax), 0) + 1)
        assert spec.series_rows(n.size)[0].tolist() == [sigma(k) for k in n]


@pytest.mark.parametrize("tag", list(OLD_SUBSPACES))
def test_subspace_tags_read_the_table(tag):
    key, pred = OLD_SUBSPACES[tag]
    ps = window_levels(12)
    assert PAIRINGS[key].support(ps).tolist() == [pred(p) for p in ps]


def theta_modulus(p: int, V: float, eps0: float = 2.0) -> float:
    """|E_p - E_0| from the closed forms: eps0 sqrt(|p|) on unbroken levels,
    eps0 (V -+ sqrt(V^2 - |p|)) on broken ones (p > 0, p < 0)."""
    q = abs(p)
    if q > V * V:
        return eps0 * math.sqrt(q)
    root = math.sqrt(V * V - q)
    return eps0 * (V - root if p > 0 else V + root)


def theta_scale(spec) -> float:
    """Largest |z2|^n / |theta_1 ... theta_n|^(1/2) over the series: the
    theta series' tail is held to tol times max(1, this)."""
    r, best, term = abs(spec.z2), 1.0, 1.0
    for n in range(1, spec.level_cap + 1):
        term *= r / math.sqrt(theta_modulus(PAIRINGS[spec.key].sigma(n), spec.params.V))
        best = max(best, term)
    return best


WINDOWS = [(4, 0), (4, 1), (6, 3), (8, 8), (12, 12), (24, 16), (40, 40)]


@pytest.mark.parametrize("key", sorted(OLD_MAPS))
def test_builders_meet_the_tolerance_or_refuse(key):
    """Each builder at small windows either keeps every recorded tail under
    its tolerance, or raises CutoffError with an estimate."""
    family = key[0]
    vs = [0.0] if family in ("A", "B") else [0.5, 1.7, 2.5]
    built = refused = 0
    for v in vs:
        params = PhysicalParams(V=v)
        for nmax, pmax in WINDOWS:
            cut = FockCutoff(nmax, nmax, pmax)
            for r1 in (0.0, 1.2):
                for r2 in (0.0, 0.5, 1.5, 3.0):
                    spec = make_spec(key, r1 * cmath.exp(0.3j), r2 * cmath.exp(-1.1j), params, cut)
                    build = build_coherent if family in ("A", "B") else build_bicoherent
                    try:
                        state = build(spec)
                    except CutoffError as err:
                        assert err.tail_estimate is not None
                        if spec.level_cap < 0:
                            assert "no level inside" in str(err)
                        refused += 1
                        continue
                    built += 1
                    tails = {k: v for k, v in state.meta.items() if k.startswith("tail")}
                    assert set(tails) == {"tail_z1", "tail_z2"}
                    assert 0.0 <= tails["tail_z1"] < spec.tail_tol
                    if family in ("eta", "xi"):
                        assert tails["tail_z2"] <= spec.tail_tol * theta_scale(spec) * (1 + 1e-9)
                    else:
                        assert 0.0 <= tails["tail_z2"] < spec.tail_tol
                    # the coefficient tail bounds the lost mass: ||fr||^2 is
                    # 1 up to the square of the bound (and rounding)
                    fr2 = float(np.vdot(state.first_register, state.first_register).real)
                    assert abs(1.0 - fr2) <= tails["tail_z1"] ** 2 + 1e-13
                    if family in ("A", "B"):
                        sp2 = state.norm2() / fr2
                        assert abs(1.0 - sp2) <= tails["tail_z2"] ** 2 + 1e-13
    assert built and refused


def omitted(terms, kept: int) -> float:
    """Summed moduli of the 50-digit terms from index `kept` on."""
    return float(sum(abs(t) for t in terms[kept:]))


def normalization_terms(rho: float, V: float, step: int, count: int) -> list:
    """rho^(2n) / (|theta_1| ... |theta_n|) for n < count, in 50 digits."""
    with mp_reference.mp.workdps(mp_reference.DPS):
        terms = [mp_reference.mpf(1)]
        for k in range(1, count):
            terms.append(terms[-1] * mp_reference.mpf(rho) ** 2
                         / abs(mp_reference.theta(step * k, V, 2.0)))
        return terms


# labels and the window: every series below stops well inside it, and the
# terms past the cut are summed 300 further, where they no longer count
TAIL_LABELS = (0.5 + 0.5j, 1.5 - 1j, -2 + 0.5j, 3j)
TAIL_CUT = FockCutoff(150, 400, 400)
EXTRA = 300


class TestTailsBoundWhatTheyDrop:
    """Every reported tail (tail_z1, tail_z2 and the normalization tail) is
    at least the summed moduli of the terms its series omits."""

    @pytest.mark.parametrize("V", [0.0, 0.5, 3.5, 9.5])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_gaussian_tails(self, V, branch):
        key = ("A" if V == 0.0 else "phi", branch)
        for z in TAIL_LABELS:
            spec = make_spec(key, z, z, PhysicalParams(V=V), TAIL_CUT)
            state = build_coherent(spec) if V == 0.0 else build_bicoherent(spec)
            kept1 = int(np.count_nonzero(state.first_register))
            kept2 = gaussian_series(spec)[2].size
            truth = mp_reference.gaussian_series(z, max(kept1, kept2) + EXTRA)
            assert state.meta["tail_z1"] >= omitted(truth, kept1)
            assert state.meta["tail_z2"] >= omitted(truth, kept2)

    @pytest.mark.parametrize("V", [0.0, 0.5, 3.5, 9.5])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_theta_and_normalization_tails(self, V, branch):
        params, step = PhysicalParams(V=V), PAIRINGS[("eta", branch)].step
        for z in TAIL_LABELS:
            spec = BicoherentSpec(0.0, z, "theta", "ket", branch, params, TAIL_CUT)
            series = _theta_series(spec)
            assert build_bicoherent(spec).meta["tail_z2"] == series.tail
            ket = mp_reference.theta_series(z, V, 2.0, step, series.ket.size + EXTRA)[0]
            assert series.tail >= omitted(ket, series.ket.size)
            assert series.normalization == normalization_N(z, params, TAIL_CUT, branch)
        for rho in (0.5, 1.5, 3.0, 4.0):
            norm = normalization_N(rho, params, TAIL_CUT, branch)
            truth = normalization_terms(rho, V, step, norm.n_terms + EXTRA)
            assert norm.tail >= omitted(truth, norm.n_terms)
