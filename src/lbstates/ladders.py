"""Ladder operators on the relabeled (n, p) basis at V=0.

Two non-standard pairs act on the level index p:

    A2  c_{n,p} = sqrt(|p|)   c_{n,p-1}      (quasi-vacuum p = 0)
    A2+ c_{n,p} = sqrt(|p+1|) c_{n,p+1}      (quasi-vacuum p = -1)
    B2  c_{n,p} = sqrt(|p|)   c_{n,p+1}      (quasi-vacuum p = 0)
    B2+ c_{n,p} = sqrt(|p-1|) c_{n,p-1}      (quasi-vacuum p = 1)

while A1 lowers the degeneracy index n with the standard sqrt(n) weights.
The A2 pair leaves each half of the p >= 0 / p <= -1 split invariant; the
B2 pair respects the p >= 1 / p <= 0 split instead.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError
from .fock import FockCutoff, SparseOperator
from .levels import bidiagonal, bidiagonal_apply, level_table, rank_one_sum, window_levels
from .params import PhysicalParams
from .spinor import (V0, ModeIndex, ModeWindow, basis_columns, hamiltonian_spinor_matrix,
                     level_matrix)


class LadderKind(str, Enum):
    A1 = "A1"
    A2 = "A2"
    A2DAG = "A2dag"
    B2 = "B2"
    B2DAG = "B2dag"


class SubspaceTag(str, Enum):
    H2PLUS = "H2plus"    # span{c_{n,p} : p >= 0}
    H2MINUS = "H2minus"  # p <= -1
    K2PLUS = "K2plus"    # p >= 1
    K2MINUS = "K2minus"  # p <= 0


_SUBSPACE_PRED = {
    SubspaceTag.H2PLUS: lambda p: p >= 0,
    SubspaceTag.H2MINUS: lambda p: p <= -1,
    SubspaceTag.K2PLUS: lambda p: p >= 1,
    SubspaceTag.K2MINUS: lambda p: p <= 0,
}

# (amplitude over the levels p, target shift) for the level-index ladders.
_P_ACTION = {
    LadderKind.A2: (lambda p: np.sqrt(np.abs(p)), -1),
    LadderKind.A2DAG: (lambda p: np.sqrt(np.abs(p + 1)), +1),
    LadderKind.B2: (lambda p: np.sqrt(np.abs(p)), +1),
    LadderKind.B2DAG: (lambda p: np.sqrt(np.abs(p - 1)), -1),
}


def level_ladder_action(kind: LadderKind, pmax: int) -> tuple:
    """(amplitudes over p = -pmax..pmax, target shift) of a level-index ladder."""
    amp, shift = _P_ACTION[kind]
    return amp(window_levels(pmax)), shift


def level_ladder_matrix(kind: LadderKind, pmax: int) -> sp.csr_matrix:
    """The p-window matrix of a level-index ladder."""
    return bidiagonal(*level_ladder_action(kind, pmax), pmax)


def build_ladder(kind: LadderKind, cutoff: FockCutoff) -> SparseOperator:
    """Matrix of the ladder on the enumerated (n, p) window."""
    kind = LadderKind(kind)
    win = ModeWindow.of(cutoff)
    eye_n = sp.identity(cutoff.nmax1 + 1, format="csr", dtype=complex)
    if kind is LadderKind.A1:
        a1 = sp.diags(np.sqrt(np.arange(1, cutoff.nmax1 + 1, dtype=float)), 1, format="csr").astype(complex)
        mat = sp.kron(a1, sp.identity(win.pdim, format="csr", dtype=complex), format="csr")
    else:
        mat = sp.kron(eye_n, level_ladder_matrix(kind, cutoff.pmax), format="csr")
    return SparseOperator(mat, "mode", kind.value)


def spinor_ladder_matrix(kind: LadderKind, cutoff: FockCutoff) -> SparseOperator:
    """The same ladder realized on the stacked (upper, lower) spinor register
    through the rank-one sums over the basis spinors v_p."""
    kind = LadderKind(kind)
    if kind is LadderKind.A1:
        raise ShapeError("A1 acts on the first register, not the spinor register")
    vm = basis_columns(cutoff)
    mat = rank_one_sum(vm, level_ladder_matrix(kind, cutoff.pmax), vm)
    return SparseOperator(mat, "kregister", kind.value)


def spinor_ladder_apply(kind: LadderKind, cutoff: FockCutoff, stack: np.ndarray) -> np.ndarray:
    """The realization of `spinor_ladder_matrix` applied to a stacked spinor
    as V(P(V^H stack)), without building a matrix."""
    ps = window_levels(cutoff.pmax)
    cols = level_table(ps, V0)[:2]
    return bidiagonal_apply(ps, cols, *level_ladder_action(LadderKind(kind), cutoff.pmax), cols,
                            stack, cutoff.nmax2)


def hamiltonian_mode_matrix(params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """H on the (n, p) enumeration, built by applying the spinor-register
    realization to each v_p and projecting back (not from the eigenvalue
    formula), so commutator checks against it are a genuine cross-check."""
    vm = level_matrix(cutoff)
    h = hamiltonian_spinor_matrix(params, cutoff, V=0.0).matrix
    hp = vm.conjugate().T @ (h @ vm)
    mat = sp.kron(
        sp.identity(cutoff.nmax1 + 1, format="csr", dtype=complex),
        sp.csr_matrix(hp),
        format="csr",
    )
    return SparseOperator(mat, "mode", "H_K")


def commutator_defect(h: SparseOperator, n: SparseOperator, cutoff: FockCutoff,
                      n_margin: int = 2, p_margin: int = 2) -> float:
    """max over interior basis vectors f of ||(HN - NH) f||."""
    if not h.same_enumeration(n):
        raise ShapeError(f"operators on different enumerations: {h.space}{h.shape} vs {n.space}{n.shape}")
    comm = (h.matrix @ n.matrix - n.matrix @ h.matrix).tocsc()
    win = ModeWindow.of(cutoff)
    worst = 0.0
    for idx in win.interior(n_margin, p_margin):
        col = comm[:, win.index(*idx)]
        worst = max(worst, float(sp.linalg.norm(col)))
    return worst


def quasi_vacua(kind: LadderKind, cutoff: FockCutoff) -> list:
    """The basis family annihilated by the ladder, found by applying its
    matrix (not read off a table).

    For the level ladders this is an entire n-family at a single p; for A1
    it is the n = 0 row across all p.
    """
    kind = LadderKind(kind)
    win = ModeWindow.of(cutoff)
    norms = sp.linalg.norm(build_ladder(kind, cutoff).matrix, axis=0)
    ns = [0] if kind is LadderKind.A1 else range(cutoff.nmax1 + 1)
    return [ModeIndex(n, p) for p in range(-cutoff.pmax + 1, cutoff.pmax) for n in ns
            if norms[win.index(n, p)] < 1e-14]


def factorization_defect_v0(cutoff: FockCutoff, params: PhysicalParams | None = None,
                            p: int | None = None):
    """Defect || (H - A2^+ A2) c_{n,p} || documenting that H is not the
    number-type product (their eigenvalues differ: eps0*sign(p)*sqrt(|p|)
    against |p|).

    With ``p`` given, returns the defect at that level (n-independent).
    Otherwise returns the minimum over interior levels p != 0.  Note the
    two operators do agree on p = 0, and accidentally on the single level
    where eps0*sqrt(p) = p (p = 4 in default units), so the minimum is only
    informative away from those levels; per-level values are exact.
    """
    if params is None:
        params = PhysicalParams()
    vm = level_matrix(cutoff)
    h = hamiltonian_spinor_matrix(params, cutoff, V=0.0).matrix
    a2 = spinor_ladder_matrix(LadderKind.A2, cutoff).matrix
    num = a2.conjugate().T @ a2
    diff = h - num

    def defect_at(level: int) -> float:
        col = vm[:, level + cutoff.pmax]
        return float(np.linalg.norm(diff @ col))

    if p is not None:
        return defect_at(p)
    return min(defect_at(q) for q in range(-cutoff.pmax + 1, cutoff.pmax) if q != 0)


def subspace_closure_check(kind: LadderKind, tag: SubspaceTag, cutoff: FockCutoff,
                           tol: float = 1e-12) -> bool:
    """True iff the ladder maps every interior basis vector of the tagged
    subspace to a vector with no component outside it."""
    pred = _SUBSPACE_PRED[SubspaceTag(tag)]
    win = ModeWindow.of(cutoff)
    outside = np.array([not pred(idx.p) for idx in win.indices()])
    inside = [win.index(*idx) for idx in win.interior(1, 1) if pred(idx.p)]
    leak = build_ladder(LadderKind(kind), cutoff).matrix[outside][:, inside].toarray()
    return bool(np.abs(leak).max(initial=0.0) <= tol)


def decomposition_respected(kind: LadderKind, split: str, cutoff: FockCutoff) -> bool:
    """True iff the ladder leaves both halves of the named split invariant
    ('H' for the p>=0 / p<=-1 split, 'K' for p>=1 / p<=0)."""
    if split == "H":
        tags = (SubspaceTag.H2PLUS, SubspaceTag.H2MINUS)
    elif split == "K":
        tags = (SubspaceTag.K2PLUS, SubspaceTag.K2MINUS)
    else:
        raise ShapeError(f"unknown split {split!r}")
    return all(subspace_closure_check(kind, t, cutoff) for t in tags)
