"""Level spinors: the two-entry vectors every state, ladder and check is
built from.

Each level p of the stacked (upper, lower) spinor register is a vector
with two nonzero entries.  For p >= 1, on the plus (p > 0) or minus
(p < 0) branch,

    phi_p  = K_phi (e_|p|,  alpha e_|p|-1)
    psi_p  = K_psi (e_|p|, -alpha' e_|p|-1)

with alpha^{+-} = (-V -+ i sqrt(|p| - V^2)) / sqrt(|p|) (principal root)
and alpha' the other branch's coefficient; phi_0 = psi_0 = (e_0, 0).  For
V > 1 the dual paired with phi_p is re-paired on broken levels
(psi-tilde: the swapped branch).  At V = 0 both families reduce to the
orthonormal basis v_p of the V=0 problem.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, CutoffError, ExceptionalPointError
from .params import PhysicalParams, level_discriminant, sqrt_discriminant

_OTHER = {"plus": "minus", "minus": "plus"}


def alpha(p: int, V: float, branch: str) -> complex:
    """Spinor mixing coefficient of level p >= 1.

    Unimodular for p > V^2; real with |alpha^+||alpha^-| = 1 in the broken
    region; exactly -V/sqrt(p) = -1 at the exceptional point (the
    discriminant is snapped to zero within tolerance).
    """
    if p < 1:
        raise ContractError("alpha is defined for p >= 1")
    sign = {"plus": -1.0, "minus": +1.0}[branch]
    s = sqrt_discriminant(p, V)
    return complex((-V + sign * 1j * s) / math.sqrt(p))


def eq39_product(p: int, V: float, branch: str) -> complex:
    """The constrained product conj(K_phi) K_psi = p / (2 (p - V^2 +- i V
    sqrt(p - V^2))) for the given branch."""
    d = level_discriminant(p, V)
    s = sqrt_discriminant(p, V)
    sign = {"plus": +1.0, "minus": -1.0}[branch]
    den = 2.0 * (d + sign * 1j * V * s)
    if den == 0:
        raise ExceptionalPointError("normalization degenerates at p = V^2", p=p, V=V)
    return complex(p / den)


def normalization_K(p: int, params: PhysicalParams, branch: str = "plus") -> tuple:
    """(K_phi, K_psi) for the branch, with the product constraint satisfied
    against the branch's biorthogonal dual.

    Magnitudes are split symmetrically, |K_phi| = |K_psi| = |product|^(1/2)
    (equal to (p/(4(p-V^2)))^(1/4) in the unbroken region); K_psi is chosen
    real positive and K_phi carries the product's phase.  In the broken
    region the dual of phi^{+-} is psi^{-+}, so the branch constants are
    fixed through the re-paired products.
    """
    if p < 1:
        raise ContractError("normalization_K is defined for p >= 1")
    d = level_discriminant(p, params.V)
    if d == 0.0:
        raise ExceptionalPointError(
            f"level p = {p} is exceptional at V = {params.V}", p=p, V=params.V
        )
    if d > 0.0:
        r = eq39_product(p, params.V, branch)
        k_psi = math.sqrt(abs(r))
        k_phi = np.conj(r) / k_psi
        return complex(k_phi), complex(k_psi)
    # broken region: conj(K_phi^+) K_psi^- = eq39(minus) > 0,
    #                conj(K_phi^-) K_psi^+ = eq39(plus) < 0
    r_plus_pair = eq39_product(p, params.V, "minus").real
    r_minus_pair = eq39_product(p, params.V, "plus").real
    if branch == "plus":
        k_phi = math.sqrt(abs(r_plus_pair))
        k_psi = math.sqrt(abs(r_minus_pair))
    else:
        k_phi = -math.sqrt(abs(r_minus_pair))
        k_psi = math.sqrt(abs(r_plus_pair))
    return complex(k_phi), complex(k_psi)


def is_repaired_level(p_abs: int, params: PhysicalParams) -> bool:
    """True when the dual family at |p| is the swapped branch (V > 1 and
    the level is broken)."""
    return p_abs >= 1 and params.V > 1.0 and level_discriminant(p_abs, params.V) < 0.0


def two_entry_columns(ps, upper, lower, nmax2: int) -> sp.csc_matrix:
    """Sparse columns over the levels ps on the stacked register: upper[k]
    at e_|p_k| of the upper component, lower[k] at e_(|p_k|-1) of the lower
    one (p = 0 has no lower entry)."""
    q = np.abs(np.asarray(ps, dtype=int))
    if q.size and q.max() > nmax2:
        raise CutoffError(f"level |p|={q.max()} exceeds nmax2={nmax2}")
    keep = np.stack([np.ones(q.size, dtype=bool), q > 0], axis=1)
    rows = np.stack([q, nmax2 + q], axis=1)[keep]
    data = np.stack([np.asarray(upper, dtype=complex), np.asarray(lower, dtype=complex)], axis=1)[keep]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csc_matrix((data, rows, indptr), shape=(2 * (nmax2 + 1), q.size))


def _coefficients(p: int, params: PhysicalParams) -> tuple:
    """(upper, lower) of phi_p, then (upper, lower) of its regime dual."""
    if p == 0:
        return 1.0, 0.0, 1.0, 0.0
    q = abs(p)
    branch = "plus" if p > 0 else "minus"
    k_phi, k_psi = normalization_K(q, params, branch)
    dual = branch
    if is_repaired_level(q, params):
        dual = _OTHER[branch]
        _, k_psi = normalization_K(q, params, dual)
    return (k_phi, k_phi * alpha(q, params.V, branch),
            k_psi, -k_psi * alpha(q, params.V, _OTHER[dual]))


def level_table(ps, params: PhysicalParams, nmax2: int) -> tuple:
    """Sparse column matrices (X, Y) of phi_p and of its regime dual over
    the levels ps, two nonzeros per column.

    Only the requested levels are evaluated, so an exceptional level
    raises ExceptionalPointError only when it is requested.
    """
    coefs = np.array([_coefficients(int(p), params) for p in ps], dtype=complex).reshape(-1, 4)
    return (two_entry_columns(ps, coefs[:, 0], coefs[:, 1], nmax2),
            two_entry_columns(ps, coefs[:, 2], coefs[:, 3], nmax2))


def series_stack(columns: sp.csc_matrix, weights: np.ndarray) -> np.ndarray:
    """The stacked spinor sum_k weights[k] columns[:, k].  Each product is
    formed weight first, as in the term-by-term series, which keeps the
    result bit-identical to summing the terms one level at a time."""
    out = np.zeros(columns.shape[0], dtype=complex)
    np.add.at(out, columns.indices, np.repeat(weights, np.diff(columns.indptr)) * columns.data)
    return out


def window_levels(pmax: int) -> np.ndarray:
    """The level window p = -pmax..pmax."""
    return np.arange(-pmax, pmax + 1)


def rank_one_sum(x: sp.spmatrix, pmat: sp.spmatrix, y: sp.spmatrix) -> sp.csr_matrix:
    """sum over (q, p) of pmat[q, p] |x_q><y_p|, i.e. X P Y^H, kept sparse:
    with two nonzeros per column of X and Y, each nonzero of P gives at
    most four entries."""
    out = (x @ pmat @ y.conjugate().T).tocsr()
    out.eliminate_zeros()
    return out
