"""Named invariant suites, aggregated by the `check` CLI subcommand.

Each check returns a CheckResult with the measured value and the pinned
tolerance.  Cutoffs here are kept modest so the full registry runs in a
few seconds; the test suite exercises the same invariants at the desk
scale.
"""

from __future__ import annotations

import functools
import inspect
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
from . import pt
from . import spinor as spn
from .densities import GridSpec, density, export, gain_loss
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
    worst = 0.0
    for n in range(21):
        a = fock.oscillator_psi(n, x)
        b = _hermite_poly_psi(n, x)
        scale = np.maximum(np.abs(b), 1e-30)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    return _result(worst, 1e-9)


@_check("fock.circular_gram")
def check_circular_gram():
    cut = fock.FockCutoff(0, 12)
    modes = [fock.circular_mode(n1, n2, cut).coeffs.ravel()
             for n1 in range(11) for n2 in range(11 - n1)]
    m = np.array(modes)
    gram = m.conj() @ m.T
    return _result(float(np.abs(gram - np.eye(len(modes))).max()), 1e-10)


@_check("fock.ccr_interior")
def check_ccr_interior():
    cut = fock.FockCutoff(0, 10)
    ops = fock.ladder_matrices(cut)
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
        vec = fock.circular_mode(n1, n2, cut)
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
    worst = 0.0
    for p in range(-cut.pmax, cut.pmax + 1):
        worst = max(worst, spn.eigen_residual_hk(spn.ModeIndex(1, p), params, cut))
    return _result(worst, 1e-10)


@_check("spinor.dense_spectrum")
def check_dense_spectrum():
    params = PhysicalParams()
    cut = fock.FockCutoff(0, 12)
    h = spn.dense_hamiltonian(params, cut).matrix
    herm = float(np.abs((h - h.conjugate().T).toarray()).max())
    block = spn.restricted_spinor_block(params, cut)
    eigs = np.sort(np.linalg.eigvals(block).real)
    expect = np.sort(np.concatenate([[0.0], [s * 2 * math.sqrt(k) for k in range(1, 13) for s in (1, -1)]]))
    diff = float(np.abs(eigs - expect).max())
    return _result(max(herm, diff), 1e-9)


@_check("spinor.subspace_orthogonality")
def check_subspace_orthogonality():
    cut = fock.FockCutoff(5, 10, 8)
    worst = 0.0
    rng = np.random.default_rng(7)
    for p, q in ((0, 1), (2, -2), (-1, -3)):
        fr = rng.normal(size=cut.nmax1 + 1) + 1j * rng.normal(size=cut.nmax1 + 1)
        up_p, lo_p = spn.level_vector(p, cut.nmax2)
        up_q, lo_q = spn.level_vector(q, cut.nmax2)
        f = spn.SpinorState(fr, up_p, lo_p)
        g = spn.SpinorState(fr, up_q, lo_q)
        worst = max(worst, abs(f.inner(g)))
    return _result(worst, 1e-10)


@_check("ladders.entry_patterns")
def check_ladder_patterns():
    cut = fock.FockCutoff(3, 8, 6)
    win = spn.ModeWindow.of(cut)
    worst = 0.0
    for kind, amp, dp in (
        (ld.LadderKind.A2, lambda p: math.sqrt(abs(p)), -1),
        (ld.LadderKind.A2DAG, lambda p: math.sqrt(abs(p + 1)), +1),
        (ld.LadderKind.B2, lambda p: math.sqrt(abs(p)), +1),
        (ld.LadderKind.B2DAG, lambda p: math.sqrt(abs(p - 1)), -1),
    ):
        mat = ld.build_ladder(kind, cut).matrix
        for n in range(cut.nmax1 + 1):
            for p in range(-cut.pmax + 1, cut.pmax):
                got = mat[win.index(n, p + dp), win.index(n, p)]
                worst = max(worst, abs(got - amp(p)))
    return _result(worst, 0.0, ok=worst == 0.0)


@_check("ladders.number_diagonal")
def check_number_operator():
    cut = fock.FockCutoff(2, 8, 6)
    a2 = ld.build_ladder(ld.LadderKind.A2, cut).matrix
    num = (a2.conjugate().T @ a2).toarray()
    win = spn.ModeWindow.of(cut)
    diag_expect = np.array([abs(idx.p) for idx in win.indices()], dtype=float)
    off = num - np.diag(np.diag(num))
    interior = [win.index(n, p) for n in range(cut.nmax1 + 1) for p in range(-cut.pmax + 1, cut.pmax)]
    diag_err = float(np.abs(np.diag(num)[interior] - diag_expect[interior]).max())
    worst = max(diag_err, float(np.abs(off).max()))
    neg = float(min(np.diag(num).real.min(), 0.0))
    return _result(max(worst, -neg), 1e-12)


@_check("ladders.h_commutators")
def check_h_commutators():
    params = PhysicalParams()
    cut = fock.FockCutoff(3, 12, 10)
    h = ld.hamiltonian_mode_matrix(params, cut)
    a2 = ld.build_ladder(ld.LadderKind.A2, cut)
    b2 = ld.build_ladder(ld.LadderKind.B2, cut)
    n_op = fock.SparseOperator(a2.matrix.conjugate().T @ a2.matrix, "mode", "A2+A2")
    bb = fock.SparseOperator(b2.matrix @ b2.matrix.conjugate().T, "mode", "B2B2+")
    worst = max(
        ld.commutator_defect(h, n_op, cut),
        ld.commutator_defect(h, bb, cut),
    )
    return _result(worst, 1e-10)


@_check("ladders.v0_factorization_formula")
def check_v0_factorization_defect():
    cut = fock.FockCutoff(2, 12, 10)
    params = PhysicalParams()
    worst = 0.0
    for p in range(-cut.pmax + 1, cut.pmax):
        measured = ld.factorization_defect_v0(cut, params, p=p)
        expect = abs(params.eps0 * math.copysign(math.sqrt(abs(p)), p) - abs(p)) if p else 0.0
        worst = max(worst, abs(measured - expect))
    return _result(worst, 1e-10)


@_check("ladders.split_closure")
def check_k_closure():
    cut = fock.FockCutoff(2, 8, 6)
    ok = (
        ld.decomposition_respected(ld.LadderKind.B2, "K", cut)
        and ld.decomposition_respected(ld.LadderKind.B2DAG, "K", cut)
        and ld.decomposition_respected(ld.LadderKind.A2, "H", cut)
        and ld.decomposition_respected(ld.LadderKind.A2DAG, "H", cut)
        and not ld.subspace_closure_check(ld.LadderKind.B2, ld.SubspaceTag.H2MINUS, cut)
    )
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
    for (family, branch), op in ch._LEGAL_OPS.items():
        spec = ch.CoherentSpec(1 - 1j, 1 + 0.5j, family, branch, cut)
        st = ch.build_coherent(spec)
        worst = max(worst, ch.eigen_residual(spec, st, op))
        worst = max(worst, ch.eigen_residual(spec, st, ld.LadderKind.A1))
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


@_check("coherent.resolution_identity")
def check_resolution_identity():
    cut = fock.FockCutoff(8, 10, 8)
    worst = 0.0
    for branch, pairs in (("plus", ((0, 0, 0, 0), (0, 1, 0, 2), (1, 2, 1, 2))),
                          ("minus", ((0, -1, 0, -1), (1, -2, 1, -2), (0, -1, 0, -3)))):
        for n1, p1, n2, p2 in pairs:
            f = spn.basis_vector_c(spn.ModeIndex(n1, p1), cut)
            g = spn.basis_vector_c(spn.ModeIndex(n2, p2), cut)
            got = ch.resolution_identity_check(branch, f, g, cut)
            worst = max(worst, abs(got - f.inner(g)))
    return _result(worst, 1e-6)


@_check("coherent.combined_state_defect")
def check_combined_defect():
    cut = fock.FockCutoff(8, 10, 8)
    f = spn.basis_vector_c(spn.ModeIndex(0, 0), cut)
    defect = ch.combined_state_defect(f, f, cut)
    ok = abs(defect + 0.5) < 1e-10 and abs(defect) > 0.1
    return _result(abs(defect + 0.5), 1e-10, ok=ok,
                   detail=f"defect={defect:.6f}")


@_check("pt.alpha_identities")
def check_alpha_identities():
    worst = 0.0
    for v in (0.25, 0.5, 0.9):
        for p in range(1, 11):
            worst = max(worst, abs(abs(pt.alpha(p, v, "plus")) - 1.0))
            worst = max(worst, abs(abs(pt.alpha(p, v, "minus")) - 1.0))
    for v in (1.5, 9.5):
        for p in range(1, int(v * v)):
            ap, am = pt.gain_loss_asymptotics(p, v)
            worst = max(worst, abs(ap * am - 1.0))
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
        h = spn.hamiltonian_spinor_matrix(params, cut).matrix
        x, y = pt.biorth_level_matrices(params, cut)
        e = np.array([pt.eigenvalue_E(p, params) for p in range(-cut.pmax, cut.pmax + 1)])
        for vecs, op, ev in ((x, h, e), (y, h.conjugate().T, np.conj(e))):
            res = np.linalg.norm(op @ vecs - vecs * ev, axis=0) / np.linalg.norm(vecs, axis=0)
            worst = max(worst, float(res.max()))
    return _result(worst, 1e-10)


@_check("pt.theta_modulus")
def check_theta_modulus():
    worst = 0.0
    for v in (0.25, 0.5, 0.9):
        params = PhysicalParams(V=v)
        for p in list(range(-12, 0)) + list(range(1, 13)):
            worst = max(worst, abs(abs(pt.theta(p, params)) - params.eps0 * math.sqrt(abs(p))))
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
        params = PhysicalParams(V=v)
        for p in range(1, 95):
            e = pt.eigenvalue_E(p, params)
            if p <= broken_top:
                ok = ok and abs(e.imag) > 0
            else:
                ok = ok and abs(e.imag) < 1e-12
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
                spec = bc.BicoherentSpec(0.0, 1 - 1j, family, "ket", branch, params, cut)
                worst = max(worst, abs(bc.bi_product(spec) - 1.0))
                other = bc.BicoherentSpec(0.0, 1 - 1j, family, "bra",
                                          "minus" if branch == "plus" else "plus", params, cut)
                worst = max(worst, abs(bc.build_bicoherent(spec).inner(bc.build_bicoherent(other))))
    return _result(worst, 1e-8)


@_check("bicoherent.eigen_residuals")
def check_bicoherent_residuals():
    worst = 0.0
    for v, window in ((0.5, 48), (9.5, 150)):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(10, window, window)
        for (family, side, branch), op in bc._LEGAL.items():
            spec = bc.BicoherentSpec(0.0, 1 - 1j, family, side, branch, params, cut)
            st = bc.build_bicoherent(spec)
            worst = max(worst, bc.bicoherent_eigen_residual(spec, st, op))
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
    values = [bc.normalization_N(r, params, cut).value for r in (0.0, 0.5, 1.0, 1.5, 2.0)]
    ok = values[0] == 1.0 and all(b < a for a, b in zip(values, values[1:]))
    phase_same = bc.normalization_N(1.0, params, cut).value == bc.normalization_N(
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
        ystack = pt.dual_spinor(p, params, cut)
        xstack = pt.phi_spinor(p, params, cut)
        f = spn.SpinorState(spn.first_register_basis(n, cut.nmax1), ystack[:half], ystack[half:])
        g = spn.SpinorState(spn.first_register_basis(n, cut.nmax1), xstack[:half], xstack[half:])
        got = bc.quasi_basis_check(f, g, params, cut, branch="plus")
        worst = max(worst, abs(got - 1.0))
        swapped = bc.quasi_basis_check(g, f, params, cut, branch="plus", order="psi_phi")
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
    ratios = []
    for v in (0.5, 3.0, 6.0, 9.5):
        if v < 1.0:
            ratios.append(1.0 / abs(pt.alpha(2, v, "plus")) ** 2)
        else:
            ap, _ = pt.gain_loss_asymptotics(2, v)
            ratios.append(1.0 / ap ** 2)
    ok = all(b >= a for a, b in zip(ratios, ratios[1:]))
    state_ratios = []
    for v, window in ((0.5, 40), (9.5, 40)):
        params = PhysicalParams(V=v)
        cut = fock.FockCutoff(10, window, window)
        st = bc.build_bicoherent(bc.BicoherentSpec(0.0, 1 - 1j, "standard", "ket", "plus", params, cut))
        state_ratios.append(gain_loss(st, params).ratio)
    ok = ok and state_ratios[1] > state_ratios[0]
    return _result(0.0 if ok else 1.0, 0.5, ok=ok,
                   detail=f"levels={['%.3g' % r for r in ratios]} states={['%.3g' % r for r in state_ratios]}")


@_check("density.export_determinism")
def check_export_determinism():
    cut = fock.FockCutoff(2, 24, 24)
    st = ch.build_coherent(ch.CoherentSpec(0.0, 1.0, "A", "plus", cut))
    fld = density(st, GridSpec(-6, 6, 33, -6, 6, 33))
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        export(fld, "csv", p1)
        export(fld, "csv", p2)
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p2, "rb") as fh:
            b2 = fh.read()
        ok = b1 == b2
        data = np.genfromtxt(p1, delimiter=",", names=True)
        ok = ok and np.array_equal(data["total"].reshape(33, 33), fld.total)
    return _result(0.0 if ok else 1.0, 0.5, ok=ok)


def run_checks(names=None) -> list:
    """Run, in registry order, the checks whose name contains any of
    `names` (every check when `names` is empty); unselected checks never run."""
    named = ((fn, inspect.unwrap(fn, stop=lambda f: hasattr(f, "check_name")).check_name)
             for fn in ALL_CHECKS)
    return [fn() for fn, name in named if not names or any(s in name for s in names)]
