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
The eigenvalues E_p with each level's class come from
`levels.spectrum_table`, |alpha+-| from `levels.alpha_moduli` and the
shifted eigenvalues theta_p = E_p - E_0 from `levels.theta_table` (all
three also reachable here).  The four ladders A_K_V, B_K_V, c2 and d2 are
entries of the one ladder table of `ladders`; `pt_level_ladder` and
`pt_spinor_ladder` are its bidiagonal level matrix and its sparse
spinor-register realization X P Y^H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ContractError
from .fock import FockCutoff, SparseOperator
from .ladders import LADDERS, V0_LADDERS, ladder_matrix, level_ladder_matrix
from .levels import (alpha, alpha_moduli, level_columns, level_spinors, spectrum_table,
                     theta_table, two_entry_columns, window_levels)
from .params import PhysicalParams, discriminant
from .spinor import (
    ModeIndex,
    SpinorState,
    apply_spinor_operator,
    first_register_basis,
    hamiltonian_spinor_matrix,
)


def eigenvalue_E(p: int, params: PhysicalParams) -> complex:
    """Eigenvalue E_p of one level (see `spectrum_table`)."""
    return complex(spectrum_table([p], params)[0][0])


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


def pt_level_ladder(name: str, params: PhysicalParams, cutoff: FockCutoff) -> sp.csr_matrix:
    """Ladder matrix in the x/y (level) bases, where all four are
    bidiagonal (amplitudes in `ladders.LADDERS`)."""
    return level_ladder_matrix(name, cutoff.pmax, params)


def pt_spinor_ladder(name: str, params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """Spinor-register realization through the biorthogonal rank-one sums,
    sum_p amp(p) |phi_target><dual_p|.  Refuses exceptional V."""
    return SparseOperator(ladder_matrix(name, params, cutoff), "kregister", name)


def build_pt_ladders(params: PhysicalParams, cutoff: FockCutoff) -> dict:
    """All four ladders realized on the spinor register.  Refuses
    exceptional V."""
    return {name: pt_spinor_ladder(name, params, cutoff)
            for name in LADDERS if name not in V0_LADDERS}


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


def classify_levels(params: PhysicalParams, p_range) -> np.ndarray:
    """The class label of each level of p_range, in order: zero_mode at
    p = 0, exceptional at |p| = V^2, broken for 1 <= |p| < V^2, unbroken
    beyond (the labels of `spectrum_table`)."""
    return spectrum_table(p_range, params)[1]


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
    """(|alpha^+_p|, |alpha^-_p|) of one broken level (see `alpha_moduli`):
    (V -+ sqrt(V^2-p)) / sqrt(p); their product is 1 identically."""
    if not (1 <= p and discriminant(p, V) < 0.0):
        raise ContractError("asymptotics are defined for broken levels 1 <= p < V^2")
    ap, am = alpha_moduli([p], V)
    return float(ap[0]), float(am[0])


def phi_norm_bound(params: PhysicalParams) -> float:
    """Uniform bound on ||phi_n||^2: 1/(1-V^2) for V < 1; for V > 1 the
    bound ([V^2]+1)/([V^2]+1-V^2) valid on unbroken levels n >= [V^2]+1."""
    if params.regime() == "small":
        return 1.0 / (1.0 - params.V ** 2)
    floor_v2 = math.floor(params.V ** 2)
    return (floor_v2 + 1) / (floor_v2 + 1 - params.V ** 2)
