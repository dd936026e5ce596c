"""Float helpers that only the tests read, shared by more than one test
file: one-level normalization constants, the measured coalescence at an
exceptional point and the pointwise value of a Cartesian mode vector.
Each is a few lines over the package's own tables."""

import numpy as np

from lbstates import ContractError, FockCutoff, PhysicalParams
from lbstates.fock import oscillator_table
from lbstates.ladders import CartesianModeVector
from lbstates.levels import level_table, spectrum_table, two_entry_columns
from lbstates.params import discriminant
from lbstates.pt import alpha


def normalization_K(p: int, params: PhysicalParams, branch: str = "plus") -> tuple:
    """(K_phi, K_psi) of level p >= 1 on the branch, with the product
    constraint satisfied against the branch's biorthogonal dual (on broken
    levels, the dual constant of the mirrored level)."""
    if p < 1:
        raise ContractError("normalization_K is defined for p >= 1")
    level = {"plus": p, "minus": -p}[branch]
    k_phi, _, k_psi, _ = level_table([level, -level], params)
    mirrored = discriminant(p, params.V) < 0.0
    return complex(k_phi[0]), complex(k_psi[1] if mirrored else k_psi[0])


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
                             cutoff.nmax2)
    u_plus, u_minus, w_plus, w_minus = (cols / np.linalg.norm(cols, axis=0)).T
    coincidence = float(np.linalg.norm(u_plus - u_minus))
    self_orth = max(abs(np.vdot(u_plus, w_plus)), abs(np.vdot(u_minus, w_minus)))
    return {
        "p": p,
        "V": v_star,
        "alpha_plus": a_plus,
        "alpha_minus": a_minus,
        "coincidence_defect": coincidence,
        "pair_eigenvalue": complex(spectrum_table([p], params)[0][0]),
        "self_orthogonality": float(self_orth),
    }


def eval_mode(vec: CartesianModeVector, x: float, y: float) -> complex:
    """Position-space value sum_{j,k} coeffs[j,k] psi_j(X) psi_k(Y)."""
    top = vec.coeffs.shape[0] - 1
    px = oscillator_table(top, np.atleast_1d(float(x)))[:, 0]
    py = oscillator_table(top, np.atleast_1d(float(y)))[:, 0]
    return complex(px @ vec.coeffs @ py)
