"""Named invariant suites, aggregated by the `check` CLI subcommand.

Each check returns a CheckResult with the measured value and the pinned
tolerance.  Cutoffs here are kept modest so the full registry runs in a
few seconds; the test suite exercises the same invariants at the desk
scale.

The oracles that only these checks and the tests evaluate live here too:
the quadrature resolutions of identity (`resolution_sum` and the three
checks built on it), the classical normalization `normalization_N` of the
theta family on its own, the V = 0 eigenvectors c_{n,p} as states
(`basis_vector_c`) and the text of each value of an array (`texts`).
Quadrature resolutions are evaluated with the angular integrals done
analytically (they enforce index matching) and the radial integrals by
Gauss-Laguerre.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson

from . import bicoherent as bc
from . import coherent as ch
from . import fock
from . import ladders as ld
from . import levels as lv
from . import pt
from . import floattext
from . import spinor as spn
from .densities import GridSpec, density, export, gain_loss
from .errors import ContractError, CutoffError
from .params import PhysicalParams


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    value: float
    tol: float
    detail: str = ""


def _result(value, tol, detail="", ok=None):
    if ok is None:
        ok = value <= tol
    return CheckResult("", bool(ok), float(value), float(tol), detail)


ALL_CHECKS = []  # in definition order; callers may wrap entries (setting __wrapped__)


def _check(name):
    """Register the decorated check under `name`, which its result carries."""
    def register(fn):
        run = functools.wraps(fn)(lambda: replace(fn(), name=name))
        run.check_name = name
        ALL_CHECKS.append(run)
        return run
    return register


def _hermite_poly_psi(n, x):
    # independent oracle: explicit polynomial recurrence + normalization
    h_prev, h_cur = np.ones_like(x), 2.0 * x
    if n == 0:
        h = h_prev
    elif n == 1:
        h = h_cur
    else:
        for k in range(1, n):
            h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
        h = h_cur
    norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return h * np.exp(-0.5 * x * x) / norm


@_check("fock.psi_recurrence_vs_polynomial")
def check_psi_recurrence():
    x = np.linspace(-10, 10, 401)
    table = fock.oscillator_table(20, x)
    worst = 0.0
    for n, a in enumerate(table):
        b = _hermite_poly_psi(n, x)
        scale = np.maximum(np.abs(b), 1e-30)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    return _result(worst, 1e-9)


@_check("fock.circular_gram")
def check_circular_gram():
    cut = fock.FockCutoff(0, 12)
    modes = [ld.circular_mode(n1, n2, cut).coeffs.ravel()
             for n1 in range(11) for n2 in range(11 - n1)]
    m = np.array(modes)
    gram = m.conj() @ m.T
    return _result(float(np.abs(gram - np.eye(len(modes))).max()), 1e-10)


@_check("fock.ccr_interior")
def check_ccr_interior():
    cut = fock.FockCutoff(0, 10)
    ops = ld.ladder_matrices(cut)
    d = cut.nmax2 + 1
    interior = [j * d + k for j in range(d - 1) for k in range(d - 1)]
    worst = 0.0
    for name in ("a_X", "a_Y", "A1", "A2"):
        a = ops[name].matrix
        comm = (a @ a.conjugate().T - a.conjugate().T @ a).toarray()
        defect = comm - np.eye(d * d)
        worst = max(worst, float(np.abs(defect[np.ix_(interior, interior)]).max()))
    cross = (ops["A1"].matrix @ ops["A2"].matrix - ops["A2"].matrix @ ops["A1"].matrix).toarray()
    worst = max(worst, float(np.abs(cross[np.ix_(interior, interior)]).max()))
    return _result(worst, 1e-12)


@_check("fock.eval_mode_norm")
def check_eval_mode_norm():
    cut = fock.FockCutoff(0, 8)
    xs = np.linspace(-7, 7, 141)
    worst = 0.0
    for n1, n2 in ((0, 0), (1, 2), (3, 1)):
        vec = ld.circular_mode(n1, n2, cut)
        px = fock.oscillator_table(cut.nmax2, xs)
        vals = px.T @ vec.coeffs @ px
        mass = simpson(simpson(np.abs(vals) ** 2, x=xs, axis=1), x=xs)
        worst = max(worst, abs(mass - 1.0))
    return _result(worst, 1e-6)


@_check("spinor.orthonormality")
def check_c_basis_orthonormality():
    cut = fock.FockCutoff(6, 10, 8)
    vm = spn.level_matrix(cut)
    gram = vm.conj().T @ vm
    return _result(float(np.abs(gram - np.eye(vm.shape[1])).max()), 1e-10)


@_check("spinor.eigen_residuals")
def check_eigen_residuals_v0():
    params = PhysicalParams()
    cut = fock.FockCutoff(4, 16, 14)
    h = ld.hamiltonian_spinor_matrix(params, cut).matrix
    vecs = spn.level_matrix(cut)
    e = lv.spectrum_table(lv.window_levels(cut.pmax), params)[0]
    return _result(float(np.linalg.norm(h @ vecs - vecs * e, axis=0).max()), 1e-10)


@_check("spinor.dense_spectrum")
def check_dense_spectrum():
    params = PhysicalParams()
    cut = fock.FockCutoff(0, 12)
    h = ld.dense_hamiltonian(params, cut).matrix
    herm = float(np.abs((h - h.conjugate().T).toarray()).max())
    block = ld.restricted_spinor_block(params, cut)
    eigs = np.sort(np.linalg.eigvals(block).real)
    expect = np.sort(np.concatenate([[0.0], [s * 2 * math.sqrt(k) for k in range(1, 13) for s in (1, -1)]]))
    diff = float(np.abs(eigs - expect).max())
    return _result(max(herm, diff), 1e-9)


@_check("spinor.subspace_orthogonality")
def check_subspace_orthogonality():
    cut = fock.FockCutoff(5, 10, 8)
    worst = 0.0
    half = cut.nmax2 + 1
    rng = np.random.default_rng(7)
    for p, q in ((0, 1), (2, -2), (-1, -3)):
        fr = rng.normal(size=cut.nmax1 + 1) + 1j * rng.normal(size=cut.nmax1 + 1)
        vp, vq = (pt.level_spinors(k, spn.V0, cut.nmax2)[0] for k in (p, q))
        f = spn.SpinorState(fr, vp[:half], vp[half:])
        g = spn.SpinorState(fr, vq[:half], vq[half:])
        worst = max(worst, abs(f.inner(g)))
    return _result(worst, 1e-10)


@_check("ladders.entry_patterns")
def check_ladder_patterns():
    pmax = 6
    worst = 0.0
    for key, amp, dp in (
        ("A2", lambda p: math.sqrt(abs(p)), -1),
        ("A2dag", lambda p: math.sqrt(abs(p + 1)), +1),
        ("B2", lambda p: math.sqrt(abs(p)), +1),
        ("B2dag", lambda p: math.sqrt(abs(p - 1)), -1),
    ):
        mat = ld.level_ladder_matrix(key, pmax)
        for p in range(-pmax + 1, pmax):
            worst = max(worst, abs(mat[p + dp + pmax, p + pmax] - amp(p)))
    return _result(worst, 0.0, ok=worst == 0.0)


@_check("ladders.number_diagonal")
def check_number_operator():
    pmax = 6
    a2 = ld.level_ladder_matrix("A2", pmax)
    num = (a2.conjugate().T @ a2).toarray()
    ps = lv.window_levels(pmax)
    off = num - np.diag(np.diag(num))
    interior = np.abs(ps) < pmax
    diag_err = float(np.abs(np.diag(num)[interior] - np.abs(ps[interior])).max())
    worst = max(diag_err, float(np.abs(off).max()))
    neg = float(min(np.diag(num).real.min(), 0.0))
    return _result(max(worst, -neg), 1e-12)


@_check("ladders.h_commutators")
def check_h_commutators():
    # H of the spinor register projected onto the level window, v^H H v
    cut = fock.FockCutoff(0, 12, 10)
    vm = spn.level_matrix(cut)
    h = vm.conj().T @ (ld.hamiltonian_spinor_matrix(PhysicalParams(), cut).matrix @ vm)
    a2 = ld.level_ladder_matrix("A2", cut.pmax)
    b2 = ld.level_ladder_matrix("B2", cut.pmax)
    worst = max(
        ld.commutator_defect(h, (a2.conjugate().T @ a2).toarray(), cut.pmax),
        ld.commutator_defect(h, (b2 @ b2.conjugate().T).toarray(), cut.pmax),
    )
    return _result(worst, 1e-10)


@_check("ladders.v0_factorization_formula")
def check_v0_factorization_defect():
    cut = fock.FockCutoff(2, 12, 10)
    params = PhysicalParams()
    ps = np.arange(-cut.pmax + 1, cut.pmax)
    expect = np.abs(params.eps0 * np.sign(ps) * np.sqrt(np.abs(ps)) - np.abs(ps))
    return _result(np.abs(ld.factorization_defect_v0(cut, params) - expect).max(), 1e-10)


@_check("ladders.split_closure")
def check_k_closure():
    # each V = 0 ladder keeps both halves of its family's split (A: p >= 0 /
    # p <= -1, B: p >= 1 / p <= 0); B2 leaves the lower A half
    pmax = 6
    rows = [(fam, row) for (fam, _), row in lv.PAIRINGS.items() if fam in ("A", "B")]
    ok = all(ld.subspace_closure_check(a.ladder, b, pmax) for f, a in rows for g, b in rows if f == g)
    ok = ok and not ld.subspace_closure_check("B2", lv.PAIRINGS[("A", "minus")], pmax)
    return _result(0.0 if ok else 1.0, 0.5, ok=ok)


_ZGRID = (0, 1, -1, 1j, -1j, 1 - 1j, 2 + 2j)


@_check("coherent.norms")
def check_coherent_norms():
    cut = fock.FockCutoff(64, 64, 64)
    worst = 0.0
    for family in ("A", "B"):
        for branch in ("plus", "minus"):
            for z1 in (0, 1 - 1j):
                for z2 in _ZGRID:
                    st = ch.build_coherent(ch.CoherentSpec(z1, z2, family, branch, cut))
                    worst = max(worst, abs(st.norm() - 1.0))
    return _result(worst, 1e-8)


@_check("coherent.eigen_residuals")
def check_coherent_residuals():
    cut = fock.FockCutoff(40, 40, 40)
    worst = 0.0
    for (family, branch), row in lv.PAIRINGS.items():
        if family not in ("A", "B"):
            continue  # the V != 0 families
        spec = ch.CoherentSpec(1 - 1j, 1 + 0.5j, family, branch, cut)
        st = ch.build_coherent(spec)
        worst = max(worst, ch.eigen_residual(spec, st, row.op))
        worst = max(worst, ch.eigen_residual(spec, st, "A1"))
    return _result(worst, 1e-8)


@_check("coherent.branch_orthogonality")
def check_coherent_orthogonality():
    cut = fock.FockCutoff(40, 40, 40)
    worst = 0.0
    for family in ("A", "B"):
        plus = ch.build_coherent(ch.CoherentSpec(0.5, 1 - 1j, family, "plus", cut))
        minus = ch.build_coherent(ch.CoherentSpec(0.5, 1 - 1j, family, "minus", cut))
        worst = max(worst, abs(plus.inner(minus)))
    return _result(worst, 1e-12)


def first_register_basis(n: int, nmax1: int) -> np.ndarray:
    if not (0 <= n <= nmax1):
        raise CutoffError(f"first-register index n={n} outside [0, {nmax1}]")
    fr = np.zeros(nmax1 + 1, dtype=complex)
    fr[n] = 1.0
    return fr


def basis_vector_c(idx, cutoff: fock.FockCutoff) -> spn.SpinorState:
    """The relabeled eigenvector c_{n,p}, idx = (n, p), as a SpinorState
    (unit norm)."""
    n, p = idx
    if abs(p) > cutoff.pmax:
        raise CutoffError(f"|p|={abs(p)} exceeds pmax={cutoff.pmax}")
    stack = pt.level_spinors(p, spn.V0, cutoff.nmax2)[0]
    half = cutoff.nmax2 + 1
    return spn.SpinorState(first_register_basis(n, cutoff.nmax1), stack[:half], stack[half:])


# Gauss-Laguerre order of the radial integrals: exact for the monomials up
# to n = 255, and raised for a larger nmax
QUADRATURE_ORDER = 128


@functools.lru_cache(maxsize=16)
def radial_factorial_ratio(nmax: int) -> np.ndarray:
    """Gauss-Laguerre values of the radial integrals, divided by n!.

    R_n = (2 int_0^inf r^{2n+1} e^{-r^2} dr) / n!  ->  1 exactly; computing
    it by quadrature keeps the resolution-of-identity checks honest.
    """
    order = max(QUADRATURE_ORDER, (nmax + 2) // 2 + 1)
    nodes, weights = np.polynomial.laguerre.laggauss(order)
    n = np.arange(nmax + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(n[1:]))])  # log(n!)
    log_terms = np.log(weights)[None, :] + n[:, None] * np.log(nodes)[None, :] - log_fact[:, None]
    ratio = np.exp(log_terms).sum(axis=1)
    ratio.setflags(write=False)  # one cached array serves every caller: read only
    return ratio


def resolution_sum(f: spn.SpinorState, g: spn.SpinorState, cutoff: fock.FockCutoff,
                   terms) -> complex:
    """The double coherent-state integral between f and g: the angular
    integrals are exact (index Kronecker deltas) and the radial ones
    Gauss-Laguerre, which leaves

        sum_n1 r1[n1] conj(f1[n1]) g1[n1]  x  sum_n r2[n] conj(<L_n, f>) <R_n, g>.

    `terms` lists (levels, L rows, R rows) over the series indices n;
    L_n and R_n are the sums over the terms of their two-entry columns n."""
    r1 = radial_factorial_ratio(cutoff.nmax1)
    m = min(f.first_register.size, g.first_register.size, r1.size)
    fr = np.sum(r1[:m] * np.conj(f.first_register[:m]) * g.first_register[:m])
    fs, gs = f.spinor_stack(), g.spinor_stack()
    left = sum(lv.column_coefficients(ps, *rows, fs, cutoff.nmax2) for ps, rows, _ in terms)
    right = sum(lv.column_coefficients(ps, *rows, gs, cutoff.nmax2) for ps, _, rows in terms)
    r2 = radial_factorial_ratio(left.size - 1)
    return complex(fr * np.sum(r2 * np.conj(left) * right))


def _v0_terms(rows, cutoff: fock.FockCutoff, scale: float = 1.0) -> list:
    """`resolution_sum` terms L = R = scale v_p over the levels of the
    `PAIRINGS` rows, on the series indices all of them reach."""
    n = np.arange(min(row.cap(cutoff.pmax) for row in rows) + 1)
    pairs = [(row.sigma(n), scale * lv.level_table(row.sigma(n), spn.V0)[:2]) for row in rows]
    return [(ps, v, v) for ps, v in pairs]


def resolution_identity_check(branch: str, f: spn.SpinorState, g: spn.SpinorState,
                              cutoff: fock.FockCutoff, family: str = "A") -> complex:
    """Evaluate the double coherent-state integral against f, g.

    The result reproduces <f, g> when both states live in the branch
    subspace (which is checked).
    """
    row = lv.PAIRINGS[(family, branch)]
    ps = lv.window_levels(cutoff.pmax)
    off = ps[~row.support(ps)]
    for state in (f, g):
        coefs = lv.column_coefficients(off, *lv.level_table(off, spn.V0)[:2],
                                       state.spinor_stack(), cutoff.nmax2)
        bad = np.abs(coefs).max(initial=0.0)
        if bad > 1e-12 * max(state.norm(), 1.0):
            raise ContractError(f"state has weight {bad:.3e} outside the {family}/{branch} subspace")
    return resolution_sum(f, g, cutoff, _v0_terms([row], cutoff))


def combined_state_defect(f: spn.SpinorState, g: spn.SpinorState,
                          cutoff: fock.FockCutoff) -> complex:
    """Defect of the resolution of identity for the normalized sum of the
    two A-family branches, (Phi+ + Phi-)/sqrt(2): the double integral minus
    <f, g>.  Nonzero in general: the branch projectors each contribute only
    half of <f, g>, plus two cross terms coupling the halves."""
    rows = [lv.PAIRINGS[("A", "plus")], lv.PAIRINGS[("A", "minus")]]
    integral = resolution_sum(f, g, cutoff, _v0_terms(rows, cutoff, math.sqrt(0.5)))
    return complex(integral - f.inner(g))


def quasi_basis_check(f: spn.SpinorState, g: spn.SpinorState, params: PhysicalParams,
                      cutoff: fock.FockCutoff, branch: str = "plus",
                      order: str = "phi_psi") -> complex:
    """Evaluate the standard-family double integral (Lebesgue measure over
    both z planes) between f and g, with analytic angular reduction and
    Gauss-Laguerre radial integrals.

    order='phi_psi' evaluates int <f, phi><psi, g>; 'psi_phi' swaps the
    roles.  Either reproduces <f, g> on the branch span.
    """
    if order not in ("phi_psi", "psi_phi"):
        raise ContractError(f"unknown order {order!r}: expected 'phi_psi' or 'psi_phi'")
    row = lv.PAIRINGS[("phi", branch)]
    ps = row.sigma(np.arange(row.cap(cutoff.pmax) + 1))
    table = lv.level_table(ps, params)
    x, y = table[:2], table[2:]
    terms = [(ps, x, y) if order == "phi_psi" else (ps, y, x)]
    return resolution_sum(f, g, cutoff, terms)


def normalization_N(z2: complex, params: PhysicalParams, cutoff: fock.FockCutoff,
                    branch: str = "plus") -> bc.NormalizationN:
    """(sum_n |z2|^(2n) / |theta_n|!)^(-1/2), in (0, 1], with the computed
    tail estimate: the normalization a theta-family build records, summed
    alone over the window.  Depends on z2 only through |z2|, which must be
    finite (ContractError) and is taken as the build takes it, abs(z2)."""
    ch.require_finite_label("z2", z2)
    rho = abs(complex(z2))
    seq, lows = bc._branch_thetas(params, branch, cutoff.pmax)
    return bc._normalization(rho, seq, lows, cutoff.pmax)


@_check("coherent.resolution_identity")
def check_resolution_identity():
    cut = fock.FockCutoff(8, 10, 8)
    worst = 0.0
    for branch, pairs in (("plus", ((0, 0, 0, 0), (0, 1, 0, 2), (1, 2, 1, 2))),
                          ("minus", ((0, -1, 0, -1), (1, -2, 1, -2), (0, -1, 0, -3)))):
        for n1, p1, n2, p2 in pairs:
            f = basis_vector_c((n1, p1), cut)
            g = basis_vector_c((n2, p2), cut)
            got = resolution_identity_check(branch, f, g, cut)
            worst = max(worst, abs(got - f.inner(g)))
    return _result(worst, 1e-6)


@_check("coherent.combined_state_defect")
def check_combined_defect():
    cut = fock.FockCutoff(8, 10, 8)
    f = basis_vector_c((0, 0), cut)
    defect = combined_state_defect(f, f, cut)
    ok = abs(defect + 0.5) < 1e-10 and abs(defect) > 0.1
    return _result(abs(defect + 0.5), 1e-10, ok=ok,
                   detail=f"defect={defect:.6f}")


@_check("pt.alpha_identities")
def check_alpha_identities():
    worst = 0.0
    for v in (0.25, 0.5, 0.9):
        moduli = np.array(lv.alpha_moduli(np.arange(1, 11), v))
        worst = max(worst, float(np.abs(moduli - 1.0).max()))
    for v in (1.5, 9.5):
        ap, am = lv.alpha_moduli(np.arange(1, int(v * v)), v)
        worst = max(worst, float(np.abs(ap * am - 1.0).max()))
    worst = max(worst, abs(pt.alpha(2, math.sqrt(2), "plus") + 1.0))
    return _result(worst, 1e-12)


@_check("pt.biorth_gram")
def check_biorth_gram():
    worst = 0.0
    for v in (0.25, 0.5, 0.9, 1.5, 9.5):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(2, 14, 12)
        x, y = pt.biorth_level_matrices(params, cut)
        gram = y.conj().T @ x
        worst = max(worst, float(np.abs(gram.conj().T - np.eye(x.shape[1])).max()))
    return _result(worst, 1e-10)


@_check("pt.eigen_residuals")
def check_hv_residuals():
    worst = 0.0
    for v in (0.25, 0.5, 9.5):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(2, 14, 12)
        h = ld.hamiltonian_spinor_matrix(params, cut).matrix
        x, y = pt.biorth_level_matrices(params, cut)
        e = lv.spectrum_table(lv.window_levels(cut.pmax), params)[0]
        for vecs, op, ev in ((x, h, e), (y, h.conjugate().T, np.conj(e))):
            res = np.linalg.norm(op @ vecs - vecs * ev, axis=0) / np.linalg.norm(vecs, axis=0)
            worst = max(worst, float(res.max()))
    return _result(worst, 1e-10)


@_check("pt.theta_modulus")
def check_theta_modulus():
    worst = 0.0
    ps = np.array(list(range(-12, 0)) + list(range(1, 13)))
    for v in (0.25, 0.5, 0.9):
        params = PhysicalParams(V=v)
        defect = np.abs(np.abs(lv.theta_table(ps, params)) - params.eps0 * np.sqrt(np.abs(ps)))
        worst = max(worst, float(defect.max()))
    return _result(worst, 1e-12)


@_check("pt.norm_bounds")
def check_norm_bounds():
    worst_excess = 0.0
    # phi_p for p >= 0 at V = 0.5; the duals beyond the broken region at 9.5
    for v, window, family, p_from in ((0.5, (2, 20, 18), 0, 0), (9.5, (2, 120, 110), 1, 91)):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(*window)
        vecs = pt.biorth_level_matrices(params, cut)[family][:, cut.pmax + p_from:]
        excess = np.linalg.norm(vecs, axis=0) ** 2 - pt.phi_norm_bound(params)
        worst_excess = max(worst_excess, float(excess.max()))
    return _result(max(worst_excess, 0.0), 1e-12)


@_check("pt.factorization_defect")
def check_pt_factorization():
    worst = 0.0
    for v in (0.25, 0.5, 9.5):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(2, 14, 12)
        worst = max(worst, pt.factorization_defect(params, cut))
    return _result(worst, 1e-9)


@_check("pt.reality_pattern")
def check_reality_pattern():
    ok = True
    for v, broken_top in ((0.5, 0), (9.5, 90)):
        imag = np.abs(lv.spectrum_table(np.arange(1, 95), PhysicalParams(V=v))[0].imag)
        ok = ok and (imag[:broken_top] > 0).all() and (imag[broken_top:] < 1e-12).all()
    return _result(0.0 if ok else 1.0, 0.5, ok=ok)


@_check("pt.ladder_duality")
def check_ladder_duality():
    # the conjugate transpose of the spinor realization must raise the dual
    # family with the sqrt(|p+1|) weights
    worst = 0.0
    for v in (0.5, 9.5):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(2, 12, 10)
        adag = pt.pt_spinor_ladder("A_K_V", params, cut).dagger().matrix
        _, y = pt.biorth_level_matrices(params, cut)
        qs = np.arange(-cut.pmax + 1, cut.pmax - 1)
        moved = adag @ y[:, qs + cut.pmax] - np.sqrt(np.abs(qs + 1)) * y[:, qs + cut.pmax + 1]
        worst = max(worst, float(np.linalg.norm(moved, axis=0).max()))
    return _result(worst, 1e-10)


@_check("pt.v0_continuity_moduli")
def check_v0_continuity():
    cut = fock.FockCutoff(2, 16, 14)
    a, _ = pt.biorth_level_matrices(PhysicalParams(V=1e-4), cut)
    b, _ = pt.biorth_level_matrices(PhysicalParams(V=0.0), cut)
    worst = float(np.abs(np.abs(a) - np.abs(b)).max())
    return _result(worst, 1e-6)


@_check("bicoherent.binormalization")
def check_binormalization():
    worst = 0.0
    for v, window in ((0.25, 48), (0.5, 48), (9.5, 150)):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(10, window, window)
        for branch in ("plus", "minus"):
            for family in ("standard", "theta"):
                ket = bc.build_bicoherent(bc.BicoherentSpec(0.0, 1 - 1j, family, "ket", branch,
                                                            params, cut))
                worst = max(worst, abs(ket.inner(ket.dual) - 1.0))
                other = bc.BicoherentSpec(0.0, 1 - 1j, family, "bra",
                                          "minus" if branch == "plus" else "plus", params, cut)
                worst = max(worst, abs(ket.inner(bc.build_bicoherent(other))))
    return _result(worst, 1e-8)


@_check("bicoherent.eigen_residuals")
def check_bicoherent_residuals():
    worst = 0.0
    for v, window in ((0.5, 48), (9.5, 150)):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(10, window, window)
        for (family, branch), row in lv.PAIRINGS.items():
            if family not in bc.FAMILIES:
                continue  # the V = 0 families
            spec = bc.BicoherentSpec(0.0, 1 - 1j, *bc.FAMILIES[family], branch, params, cut)
            st = bc.build_bicoherent(spec)
            worst = max(worst, bc.bicoherent_eigen_residual(spec, st, row.op))
            worst = max(worst, bc.bicoherent_eigen_residual(spec, st, "A1"))
    return _result(worst, 1e-8)


@_check("bicoherent.v0_limit_moduli")
def check_theta_family_v0_limit():
    cut = fock.FockCutoff(20, 48, 48)
    worst = 0.0
    for branch in ("plus", "minus"):
        eps = bc.build_bicoherent(bc.BicoherentSpec(0.5, 1 - 1j, "theta", "ket", branch,
                                                    PhysicalParams(V=1e-4), cut))
        zero = bc.build_bicoherent(bc.BicoherentSpec(0.5, 1 - 1j, "theta", "ket", branch,
                                                     PhysicalParams(V=0.0), cut))
        for a, b in ((eps.upper, zero.upper), (eps.lower, zero.lower),
                     (eps.first_register, zero.first_register)):
            worst = max(worst, float(np.abs(np.abs(a) - np.abs(b)).max()))
    return _result(worst, 1e-6)


@_check("bicoherent.normalization_monotone")
def check_normalization_monotone():
    params = PhysicalParams(V=0.5)
    cut = fock.FockCutoff(2, 64, 64)
    values = [normalization_N(r, params, cut).value for r in (0.0, 0.5, 1.0, 1.5, 2.0)]
    ok = values[0] == 1.0 and all(b < a for a, b in zip(values, values[1:]))
    phase_same = normalization_N(1.0, params, cut).value == normalization_N(
        np.exp(0.7j), params, cut).value
    return _result(0.0 if (ok and phase_same) else 1.0,
                   0.5, ok=ok and phase_same)


@_check("bicoherent.quasi_basis")
def check_quasi_basis():
    params = PhysicalParams(V=0.5)
    cut = fock.FockCutoff(8, 10, 8)
    worst = 0.0
    half = cut.nmax2 + 1
    for n, p in ((0, 0), (1, 2), (0, 1)):
        xstack, ystack = pt.level_spinors(p, params, cut.nmax2)
        f = spn.SpinorState(first_register_basis(n, cut.nmax1), ystack[:half], ystack[half:])
        g = spn.SpinorState(first_register_basis(n, cut.nmax1), xstack[:half], xstack[half:])
        got = quasi_basis_check(f, g, params, cut, branch="plus")
        worst = max(worst, abs(got - 1.0))
        swapped = quasi_basis_check(g, f, params, cut, branch="plus", order="psi_phi")
        worst = max(worst, abs(swapped - 1.0))
    return _result(worst, 1e-6)


@_check("density.consistency")
def check_density_consistency():
    cut = fock.FockCutoff(32, 32, 32)
    st = ch.build_coherent(ch.CoherentSpec(0.0, 1 - 1j, "A", "plus", cut))
    fld = density(st, GridSpec(-8, 8, 161, -8, 8, 161))
    split = float(np.abs(fld.total - fld.upper - fld.lower).max())
    agree = abs(fld.integral() - st.norm2())
    return _result(max(split, agree), 1e-3,
                   detail=f"split={split:.2e} integral={agree:.2e}")


@_check("density.gain_monotone")
def check_gain_monotone():
    # per-level gain table at the pinned strengths (the coherent series
    # cannot be built at exceptional V^2 = 9, 36), plus the state-level
    # ratio at the two constructible strengths
    ratios = [1.0 / float(lv.alpha_moduli([2], v)[0][0]) ** 2 for v in (0.5, 3.0, 6.0, 9.5)]
    ok = all(b >= a for a, b in zip(ratios, ratios[1:]))
    state_ratios = []
    for v, window in ((0.5, 40), (9.5, 40)):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(10, window, window)
        st = bc.build_bicoherent(bc.BicoherentSpec(0.0, 1 - 1j, "standard", "ket", "plus", params, cut))
        state_ratios.append(gain_loss(st)["ratio"])
    ok = ok and state_ratios[1] > state_ratios[0]
    return _result(0.0 if ok else 1.0, 0.5, ok=ok,
                   detail=f"levels={['%.3g' % r for r in ratios]} states={['%.3g' % r for r in state_ratios]}")


# where '%.17g' and repr change layout (1e-5, 1e-4, 1e16, 1e17), round
# through a power of ten, sit on a decimal tie, or are left to Python
# (zeros, subnormals, the ends of the float range, and powers of two in
# repr, where a symmetric interval would give 2^-44 and 2^64 too few digits)
_FLOAT_EDGES = (0.0, 5e-324, 2.2250738585072014e-308, 1e-290, 9.9999999999999995e-05,
                1e-4, 1e-5, 0.1, 0.5, 1.0, 2.0 ** -44, 2.0 ** 52, 2.0 ** 64, 1e15,
                1000000000000000.25, 1e16, 1e17, 1e22, 1e23, 1e290, 1.7976931348623157e308)


def texts(values: np.ndarray, style: str) -> list:
    """The text of each value of the flattened array, as bytes: one
    `floattext.Texts` written to one buffer, split at its separators."""
    t = floattext.Texts(values, style, ord("\n"))
    ends = np.cumsum(t.length)
    out = np.empty(ends[-1] if ends.size else 0, dtype=np.uint8)
    t.write(out, ends - t.length)
    return out.tobytes().split(b"\n")[:-1]


def _reference_csv(fld) -> bytes:
    lines = ["x,y,total,upper,lower\n"]
    for i, x in enumerate(fld.grid.x.tolist()):
        for j, y in enumerate(fld.grid.y.tolist()):
            lines.append("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                x, y, fld.total[i, j], fld.upper[i, j], fld.lower[i, j]))
    return "".join(lines).encode()


@_check("density.export_determinism")
def check_export_determinism():
    # the exported bytes equal Python's own formatting of the field, and
    # floattext prints the edge values as Python does
    cut = fock.FockCutoff(2, 24, 24)
    st = ch.build_coherent(ch.CoherentSpec(0.0, 1.0, "A", "plus", cut))
    fld = density(st, GridSpec(-6, 6, 33, -6, 6, 33))
    doc = {"meta": fld.meta, "grid": {"x": fld.grid.x.tolist(), "y": fld.grid.y.tolist()},
           "total": fld.total.tolist(), "upper": fld.upper.tolist(), "lower": fld.lower.tolist()}
    want = {"csv": _reference_csv(fld),
            "json": (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()}
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            path = os.path.join(tmp, f"field.{fmt}")
            export(fld, fmt, path)
            with open(path, "rb") as fh:
                bad += fh.read() != want[fmt]
    edges = np.array(_FLOAT_EDGES)
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges[:-1], np.inf)])
    edges = np.concatenate([edges, -edges])
    for style, fmt in (("g17", "%.17g".__mod__), ("repr", float.__repr__)):
        bad += sum(got != fmt(v).encode()
                   for got, v in zip(texts(edges, style), edges.tolist()))
    return _result(float(bad), 0.5, detail=f"{bad} documents or edge values differ")


def run_checks(names=None) -> list:
    """Run, in registry order, the checks whose name contains any of
    `names` (every check when `names` is empty); unselected checks never run."""
    named = ((fn, inspect.unwrap(fn, stop=lambda f: hasattr(f, "check_name")).check_name)
             for fn in ALL_CHECKS)
    return [fn() for fn, name in named if not names or any(s in name for s in names)]
