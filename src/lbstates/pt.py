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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ContractError
from .fock import FockCutoff, SparseOperator
from .ladders import LadderKind, level_ladder_matrix
from .levels import alpha, level_table, rank_one_sum, two_entry_columns, window_levels
from .params import PhysicalParams, level_discriminant, sqrt_discriminant
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


def theta(p: int, params: PhysicalParams) -> complex:
    """Shifted eigenvalue E_p - E_0 (zero at p = 0; modulus eps0 sqrt(|p|)
    whenever the level is unbroken)."""
    if p == 0:
        return 0.0 + 0.0j
    if p >= 1:
        return params.eps0 * (sqrt_discriminant(p, params.V) - 1j * params.V)
    return -params.eps0 * (sqrt_discriminant(-p, params.V) + 1j * params.V)


def phi_spinor(p: int, params: PhysicalParams, cutoff: FockCutoff) -> np.ndarray:
    """Stacked (upper, lower) components of phi_p on the spinor register."""
    return level_table([p], params, cutoff.nmax2)[0].toarray()[:, 0]


def dual_spinor(p: int, params: PhysicalParams, cutoff: FockCutoff) -> np.ndarray:
    """The member of the dual family paired with phi_p: psi_p for V < 1,
    psi-tilde_p for V > 1."""
    return level_table([p], params, cutoff.nmax2)[1].toarray()[:, 0]


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
    xs, ys = (m.toarray()[:, 0] for m in level_table([p], params, cutoff.nmax2))
    x = BiorthVector("phi", ModeIndex(n, p), SpinorState(fr.copy(), xs[:half], xs[half:]))
    role = "psi_tilde" if params.V > 1.0 else "psi"
    y = BiorthVector(role, ModeIndex(n, p), SpinorState(fr.copy(), ys[:half], ys[half:]))
    return x, y


def biorth_level_matrices(params: PhysicalParams, cutoff: FockCutoff) -> tuple:
    """Column matrices X, Y of phi_p and its dual over p = -pmax..pmax."""
    x, y = level_table(window_levels(cutoff.pmax), params, cutoff.nmax2)
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
    pm = cutoff.pmax
    if name == "A_K_V":
        return level_ladder_matrix(LadderKind.A2, pm)
    if name == "B_K_V":
        return level_ladder_matrix(LadderKind.A2DAG, pm)
    dim = 2 * pm + 1
    rows, cols, vals = [], [], []
    for p in range(-pm, pm + 1):
        if name == "c2":
            q, amp = p - 1, np.sqrt(theta(p, params))
        elif name == "d2":
            q, amp = p + 1, np.sqrt(theta(p + 1, params))
        else:
            raise ContractError(f"unknown ladder {name!r}")
        if abs(q) <= pm and amp != 0:
            rows.append(q + pm)
            cols.append(p + pm)
            vals.append(amp)
    return sp.csr_matrix((np.asarray(vals, dtype=complex), (rows, cols)), shape=(dim, dim))


def pt_spinor_ladder(name: str, params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """Spinor-register realization through the biorthogonal rank-one sums,
    sum_p amp(p) |phi_target><dual_p|."""
    params.require_non_exceptional(f"ladder {name}")
    x, y = level_table(window_levels(cutoff.pmax), params, cutoff.nmax2)
    mat = rank_one_sum(x, pt_level_ladder(name, params, cutoff), y)
    return SparseOperator(mat, "kregister", name)


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
    x, _ = level_table(range(-cutoff.pmax + 1, cutoff.pmax), params, cutoff.nmax2)
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
    a_plus = alpha(p, v_star, "plus")
    a_minus = alpha(p, v_star, "minus")

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
