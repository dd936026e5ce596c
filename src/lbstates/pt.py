"""The chemical-potential system: biorthonormal eigenfamilies, non-standard
ladder operators and the factorization of the shifted Hamiltonian.

For strength V the Hamiltonian block is (2i v_F / xi) [[V, a^+], [-a, -V]],
not self-adjoint for V != 0.  Levels |p| < V^2 are PT-broken (complex
conjugate eigenvalue pairs), |p| > V^2 unbroken (real eigenvalues), and
|p| = V^2 is an exceptional point where the two eigenvectors coalesce and
every construction below refuses to proceed.

The eigenvectors phi_p and their biorthogonal duals are the two-entry
level spinors of `levels`, here as window matrices
(`biorth_level_matrices`) and one level at a time (`level_spinors`); for
V > 1 the dual family is re-paired on broken levels (psi-tilde),
restoring biorthonormality of the x/y pairing.  The eigenvalues E_p with
each level's class, |alpha+-| and the shifted eigenvalues theta_p = E_p -
E_0 are the tables of `levels`; `alpha` is one level of its mixing
coefficients.  The four ladders A_K_V, B_K_V, c2 and d2 are entries of
the one ladder table of `levels`; `pt_spinor_ladder` is the sparse
spinor-register realization X P Y^H of one of them, from the oracle
module `ladders`.  Like `ladders`, this module serves `check` and the
tests; no other command loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .fock import FockCutoff
from .ladders import SparseOperator, hamiltonian_spinor_matrix, ladder_matrix
from .levels import (_mixing, level_table, series_stack, spectrum_table, two_entry_columns,
                     window_levels)
from .params import PhysicalParams, discriminant


def biorth_level_matrices(params: PhysicalParams, cutoff: FockCutoff) -> tuple:
    """Column matrices X, Y of phi_p and its dual over p = -pmax..pmax."""
    ps = window_levels(cutoff.pmax)
    table = level_table(ps, params)
    return (two_entry_columns(ps, *table[:2], cutoff.nmax2),
            two_entry_columns(ps, *table[2:], cutoff.nmax2))


def level_spinors(p: int, params: PhysicalParams, nmax2: int) -> tuple:
    """Stacked spinors of phi_p and of its regime dual (one-term series):
    one level of `biorth_level_matrices`, on any window nmax2 >= |p|."""
    xu, xl, yu, yl = level_table([p], params)
    return series_stack([p], xu, xl, np.ones(1), nmax2), series_stack([p], yu, yl, np.ones(1), nmax2)


def alpha(p: int, V: float, branch: str) -> complex:
    """Spinor mixing coefficient of level p >= 1 (`levels.alpha_moduli`
    gives the moduli over many levels).

    Unimodular for p > V^2; real with |alpha^+||alpha^-| = 1 in the broken
    region; exactly -V/sqrt(p) = -1 at the exceptional point (the
    discriminant is snapped to zero within tolerance).
    """
    if p < 1:
        raise ContractError("alpha is defined for p >= 1")
    pair = _mixing(np.array([p]), discriminant(np.array([p]), V), V)
    return complex(pair[{"plus": 0, "minus": 1}[branch]][0])


def pt_spinor_ladder(name: str, params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """Spinor-register realization through the biorthogonal rank-one sums,
    sum_p amp(p) |phi_target><dual_p|.  Refuses exceptional V."""
    return SparseOperator(ladder_matrix(name, params, cutoff), name)


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
    e0 = complex(spectrum_table([0], params)[0][0])
    ps = np.arange(-cutoff.pmax + 1, cutoff.pmax)
    x = two_entry_columns(ps, *level_table(ps, params)[:2], cutoff.nmax2)
    defect = d2 @ (c2 @ x) - h @ x + e0 * x
    return float((np.linalg.norm(defect, axis=0) / np.linalg.norm(x, axis=0)).max(initial=0.0))


def phi_norm_bound(params: PhysicalParams) -> float:
    """Uniform bound on ||phi_n||^2: 1/(1-V^2) for V < 1; for V > 1 the
    bound ([V^2]+1)/([V^2]+1-V^2) valid on unbroken levels n >= [V^2]+1."""
    if params.regime() == "small":
        return 1.0 / (1.0 - params.V ** 2)
    floor_v2 = math.floor(params.V ** 2)
    return (floor_v2 + 1) / (floor_v2 + 1 - params.V ** 2)
