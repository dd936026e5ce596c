"""The chemical-potential system: spectra, biorthonormal eigenfamilies,
non-standard ladder operators and the factorization of the shifted
Hamiltonian.

For strength V the Hamiltonian block is (2i v_F / xi) [[V, a^+], [-a, -V]],
not self-adjoint for V != 0.  Levels |p| < V^2 are PT-broken (complex
conjugate eigenvalue pairs), |p| > V^2 unbroken (real eigenvalues), and
|p| = V^2 is an exceptional point where the two eigenvectors coalesce and
every construction below refuses to proceed.

The eigenvectors phi_p and their biorthogonal duals are the two-entry
level spinors of `levels`; for V > 1 the dual family is re-paired on
broken levels (psi-tilde), restoring biorthonormality of the x/y pairing.
The shifted eigenvalues theta_p = E_p - E_0 come from one array table,
`theta_table`.  Each ladder is X P Y^H for a bidiagonal level matrix P:
`pt_spinor_ladder` realizes it as a sparse matrix (for checks and as the
tests' oracle), `pt_ladder_apply` applies it to a vector as X(P(Y^H s))
without building a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ContractError
from .fock import FockCutoff, SparseOperator
from .ladders import LadderKind, level_ladder_action
from .levels import (_mul, alpha, bidiagonal, bidiagonal_apply, level_columns, level_spinors,
                     level_table, rank_one_sum, two_entry_columns, window_levels)
from .params import EXCEPTIONAL_RTOL, PhysicalParams, level_discriminant, sqrt_discriminant
from .spinor import (
    ModeIndex,
    SpinorState,
    apply_spinor_operator,
    first_register_basis,
    hamiltonian_spinor_matrix,
)


def eigenvalue_E(p: int, params: PhysicalParams) -> complex:
    """eps0 sqrt(p - V^2) for p >= 1 (principal root, imaginary when
    broken); i eps0 V at p = 0; -eps0 sqrt(-p - V^2) for p <= -1."""
    if p == 0:
        return complex(0.0, params.eps0 * params.V)
    if p >= 1:
        return params.eps0 * sqrt_discriminant(p, params.V)
    return -params.eps0 * sqrt_discriminant(-p, params.V)


def theta_table(ps, params: PhysicalParams) -> np.ndarray:
    """Shifted eigenvalues theta_p = E_p - E_0 over the levels ps: zero at
    p = 0, eps0 (s - iV) for p >= 1 and -eps0 (s + iV) for p <= -1, with s
    the principal root of |p| - V^2 (snapped to zero at exceptional
    levels).  Moduli are eps0 sqrt(|p|) on unbroken levels.

    Equal bit for bit, signed zeros included, to evaluating each level with
    CPython complex scalars: the products are replayed on (re, im) pairs
    with a float operand promoted to (x, +0.0), as in `levels.level_table`.
    """
    V = params.V
    ps = np.asarray(ps, dtype=int).reshape(-1)
    d = np.abs(ps) - V * V
    d[np.abs(d) < EXCEPTIONAL_RTOL * max(1.0, V * V)] = 0.0
    root = np.sqrt(np.abs(d))
    s = np.where(d < 0.0, 0.0, root), np.where(d < 0.0, root, 0.0)
    iv = _mul((0.0, 1.0), (V, 0.0))
    plus = ps > 0
    u = (np.where(plus, s[0] - iv[0], s[0] + iv[0]), np.where(plus, s[1] - iv[1], s[1] + iv[1]))
    eps = np.where(plus, params.eps0, -params.eps0)
    re, im = _mul((eps, 0.0), u)
    out = np.empty(ps.size, dtype=complex)
    out.real = np.where(ps == 0, 0.0, re)
    out.imag = np.where(ps == 0, 0.0, im)
    return out


def theta(p: int, params: PhysicalParams) -> complex:
    """Shifted eigenvalue E_p - E_0 of one level (see `theta_table`)."""
    return complex(theta_table([p], params)[0])


def phi_spinor(p: int, params: PhysicalParams, cutoff: FockCutoff) -> np.ndarray:
    """Stacked (upper, lower) components of phi_p on the spinor register."""
    return level_spinors(p, params, cutoff.nmax2)[0]


def dual_spinor(p: int, params: PhysicalParams, cutoff: FockCutoff) -> np.ndarray:
    """The member of the dual family paired with phi_p: psi_p for V < 1,
    psi-tilde_p for V > 1."""
    return level_spinors(p, params, cutoff.nmax2)[1]


@dataclass(frozen=True)
class BiorthVector:
    role: str  # "phi" | "psi" | "psi_tilde"
    index: ModeIndex
    spinor: SpinorState


def build_biorth_pair(idx: ModeIndex, params: PhysicalParams, cutoff: FockCutoff) -> tuple:
    """(x_{n,p}, y_{n,p}) with y drawn from the regime's dual family."""
    n, p = idx
    if abs(p) > cutoff.pmax:
        raise ContractError(f"|p|={abs(p)} exceeds pmax={cutoff.pmax}")
    fr = first_register_basis(n, cutoff.nmax1)
    half = cutoff.nmax2 + 1
    roles = ("phi", "psi_tilde" if params.V > 1.0 else "psi")
    return tuple(BiorthVector(role, ModeIndex(n, p), SpinorState(fr.copy(), s[:half], s[half:]))
                 for role, s in zip(roles, level_spinors(p, params, cutoff.nmax2)))


def biorth_level_matrices(params: PhysicalParams, cutoff: FockCutoff) -> tuple:
    """Column matrices X, Y of phi_p and its dual over p = -pmax..pmax."""
    x, y = level_columns(window_levels(cutoff.pmax), params, cutoff.nmax2)
    return x.toarray(), y.toarray()


def apply_HV(state: SpinorState, params: PhysicalParams, cutoff: FockCutoff) -> SpinorState:
    """Apply (2i v_F/xi) [[V, A2^+], [-A2, -V]] blockwise."""
    return apply_spinor_operator(hamiltonian_spinor_matrix(params, cutoff), state)


def hv_adjoint_defect(params: PhysicalParams, cutoff: FockCutoff) -> float:
    """Operator norm of H(V) - H(V)^+, concentrated on the diagonal blocks;
    equals 2 eps0 V and measures the non-self-adjointness."""
    h = hamiltonian_spinor_matrix(params, cutoff).matrix
    diff = (h - h.conjugate().T).toarray()
    return float(np.linalg.norm(diff, ord=2))


_PT_LADDER_NAMES = ("A_K_V", "B_K_V", "c2", "d2")


def pt_level_ladder(name: str, params: PhysicalParams, cutoff: FockCutoff) -> sp.csr_matrix:
    """Ladder matrix in the x/y (level) bases, where all four are bidiagonal.

    A_K_V : sqrt(|p|)   at (p-1, p)     B_K_V : sqrt(|p+1|) at (p+1, p)
    c2    : sqrt(th_p)  at (p-1, p)     d2    : sqrt(th_{p+1}) at (p+1, p)

    with principal square roots throughout.
    """
    return bidiagonal(*_pt_action(name, params, cutoff.pmax), cutoff.pmax)


def _pt_action(name: str, params: PhysicalParams, pmax: int) -> tuple:
    """(amplitudes over p = -pmax..pmax, target shift) of a PT ladder."""
    if name == "A_K_V":
        return level_ladder_action(LadderKind.A2, pmax)
    if name == "B_K_V":
        return level_ladder_action(LadderKind.A2DAG, pmax)
    if name not in ("c2", "d2"):
        raise ContractError(f"unknown ladder {name!r}")
    ps = window_levels(pmax)
    if name == "c2":
        return np.sqrt(theta_table(ps, params)), -1
    return np.sqrt(theta_table(ps + 1, params)), 1


def pt_spinor_ladder(name: str, params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """Spinor-register realization through the biorthogonal rank-one sums,
    sum_p amp(p) |phi_target><dual_p|."""
    params.require_non_exceptional(f"ladder {name}")
    x, y = level_columns(window_levels(cutoff.pmax), params, cutoff.nmax2)
    mat = rank_one_sum(x, pt_level_ladder(name, params, cutoff), y)
    return SparseOperator(mat, "kregister", name)


def pt_ladder_apply(name: str, params: PhysicalParams, cutoff: FockCutoff, stack: np.ndarray,
                    adjoint: bool = False) -> np.ndarray:
    """The realization of `pt_spinor_ladder` (or its adjoint) applied to a
    stacked spinor as X(P(Y^H stack)), without building a matrix."""
    params.require_non_exceptional(f"ladder {name}")
    ps = window_levels(cutoff.pmax)
    table = level_table(ps, params)
    return bidiagonal_apply(ps, table[:2], *_pt_action(name, params, cutoff.pmax), table[2:],
                            stack, cutoff.nmax2, adjoint)


def build_pt_ladders(params: PhysicalParams, cutoff: FockCutoff,
                     representation: str = "level") -> dict:
    """All four ladders, in the bidiagonal level representation (default) or
    realized on the spinor register ('spinor').  Refuses exceptional V."""
    params.require_non_exceptional("ladder construction")
    if representation == "level":
        return {
            name: SparseOperator(pt_level_ladder(name, params, cutoff), "level", name)
            for name in _PT_LADDER_NAMES
        }
    if representation == "spinor":
        return {name: pt_spinor_ladder(name, params, cutoff) for name in _PT_LADDER_NAMES}
    raise ContractError(f"unknown representation {representation!r}")


def factorization_defect(params: PhysicalParams, cutoff: FockCutoff) -> float:
    """max over interior p of ||(d2 c2 - (H - E_0)) phi_p|| / ||phi_p||.

    d2 c2 is applied through the spinor-register realizations, H through its
    block matrix, so the identity is a cross-check between the rank-one and
    the differential forms.
    """
    params.require_non_exceptional("factorization")
    c2 = pt_spinor_ladder("c2", params, cutoff).matrix
    d2 = pt_spinor_ladder("d2", params, cutoff).matrix
    h = hamiltonian_spinor_matrix(params, cutoff).matrix
    e0 = eigenvalue_E(0, params)
    x, _ = level_columns(range(-cutoff.pmax + 1, cutoff.pmax), params, cutoff.nmax2)
    defect = d2 @ (c2 @ x) - h @ x + e0 * x
    return float((sp.linalg.norm(defect, axis=0) / sp.linalg.norm(x, axis=0)).max(initial=0.0))


@dataclass(frozen=True)
class LevelClass:
    p: int
    label: str  # "broken" | "unbroken" | "zero_mode" | "exceptional"


def classify_levels(params: PhysicalParams, p_range) -> list:
    """Classify each level: zero mode at p=0, exceptional at |p| = V^2,
    broken for 1 <= |p| < V^2, unbroken beyond."""
    out = []
    v2 = params.V * params.V
    for p in p_range:
        q = abs(p)
        if p == 0:
            label = "zero_mode"
        elif level_discriminant(q, params.V) == 0.0:
            label = "exceptional"
        elif q < v2:
            label = "broken"
        else:
            label = "unbroken"
        out.append(LevelClass(int(p), label))
    return out


def exceptional_diagnostics(p: int, v_star: float, cutoff: FockCutoff) -> dict:
    """Measured coalescence at the exceptional point p = V*^2: distance of
    the unit-normalized branch eigenvectors, the (vanishing) eigenvalue of
    the coincident pair, and the self-orthogonality defect |<phi_p, psi_p>|.
    """
    if abs(v_star * v_star - p) > 1e-9 * max(1.0, p):
        raise ContractError(f"V*^2 = {v_star * v_star} does not match p = {p}")
    params = PhysicalParams(V=v_star)
    a_plus, a_minus = alpha(p, v_star, "plus"), alpha(p, v_star, "minus")

    # the two branch vectors, then the duals with the lower sign flipped,
    # as in the psi family
    cols = two_entry_columns([p] * 4, np.ones(4), [a_plus, a_minus, -a_minus, -a_plus],
                             cutoff.nmax2).toarray()
    u_plus, u_minus, w_plus, w_minus = (cols / np.linalg.norm(cols, axis=0)).T
    coincidence = float(np.linalg.norm(u_plus - u_minus))
    self_orth = max(abs(np.vdot(u_plus, w_plus)), abs(np.vdot(u_minus, w_minus)))
    return {
        "p": p,
        "V": v_star,
        "alpha_plus": a_plus,
        "alpha_minus": a_minus,
        "coincidence_defect": coincidence,
        "pair_eigenvalue": eigenvalue_E(p, params),
        "self_orthogonality": float(self_orth),
    }


def gain_loss_asymptotics(p: int, V: float) -> tuple:
    """(|alpha^+_p|, |alpha^-_p|) in the broken region: (V -+ sqrt(V^2-p)) /
    sqrt(p); their product is 1 identically."""
    if not (1 <= p and level_discriminant(p, V) < 0.0):
        raise ContractError("asymptotics are defined for broken levels 1 <= p < V^2")
    root = math.sqrt(V * V - p)
    return (V - root) / math.sqrt(p), (V + root) / math.sqrt(p)


def phi_norm_bound(params: PhysicalParams) -> float:
    """Uniform bound on ||phi_n||^2: 1/(1-V^2) for V < 1; for V > 1 the
    bound ([V^2]+1)/([V^2]+1-V^2) valid on unbroken levels n >= [V^2]+1."""
    if params.regime() == "small":
        return 1.0 / (1.0 - params.V ** 2)
    floor_v2 = math.floor(params.V ** 2)
    return (floor_v2 + 1) / (floor_v2 + 1 - params.V ** 2)
