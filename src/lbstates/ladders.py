"""The ladder operators of every state family, in one table.

Each ladder moves level p to p + shift with an amplitude (a bidiagonal
level matrix P) and acts on the spinor register as the rank-one sum
X P Y^H over two-entry level spinors.  At V = 0,

    A2  c_{n,p} = sqrt(|p|)   c_{n,p-1}      (quasi-vacuum p = 0)
    A2+ c_{n,p} = sqrt(|p+1|) c_{n,p+1}      (quasi-vacuum p = -1)
    B2  c_{n,p} = sqrt(|p|)   c_{n,p+1}      (quasi-vacuum p = 0)
    B2+ c_{n,p} = sqrt(|p-1|) c_{n,p-1}      (quasi-vacuum p = 1)

act on the orthonormal basis v_p (X = Y), while A1 lowers the degeneracy
index n with the standard sqrt(n) weights.  The A2 pair leaves each half
of the p >= 0 / p <= -1 split invariant; the B2 pair respects the
p >= 1 / p <= 0 split instead.  At strength V, A_K_V and B_K_V move the
levels with the A2 and A2+ amplitudes, and c2 (sqrt(theta_p), down) and
d2 (sqrt(theta_{p+1}), up) factorize the shifted Hamiltonian, d2 c2 =
H - E_0; all four act between phi_p (X) and its regime dual (Y).

`LADDERS` names each ladder once and `PAIRINGS` the one with an eigenvalue
equation on each family and branch.  `BRANCHES` gives the levels each
family and branch builds its series on; the specs of both state modules
read them through `BranchSeries`.  `ladder_apply` applies a ladder to a
vector without a matrix; `ladder_matrix` realizes it as a sparse matrix
(for checks and as the tests' oracle).
"""

from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, CutoffError, ShapeError
from .fock import FockCutoff, SparseOperator, annihilator
from .levels import (LevelRows, bidiagonal, column_coefficients, level_rows, level_table,
                     rank_one_sum, series_stack, theta_table, two_entry_columns, window_levels)
from .params import PhysicalParams
from .spinor import (V0, ModeWindow, hamiltonian_spinor_matrix, level_matrix,
                     lower_first_register)


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

    @property
    def branch(self) -> "Branch":
        """The branch spanning the subspace: A's for the H split, B's for K."""
        return BRANCHES[("A" if self.value[0] == "H" else "B", self.value[2:])]


# ladder key -> (amplitudes over the levels ps at params, target shift)
LADDERS = {
    "A2": (lambda ps, params: np.sqrt(np.abs(ps)), -1),
    "A2dag": (lambda ps, params: np.sqrt(np.abs(ps + 1)), +1),
    "B2": (lambda ps, params: np.sqrt(np.abs(ps)), +1),
    "B2dag": (lambda ps, params: np.sqrt(np.abs(ps - 1)), -1),
    "A_K_V": (lambda ps, params: np.sqrt(np.abs(ps)), -1),
    "B_K_V": (lambda ps, params: np.sqrt(np.abs(ps + 1)), +1),
    "c2": (lambda ps, params: np.sqrt(theta_table(ps, params)), -1),
    "d2": (lambda ps, params: np.sqrt(theta_table(ps + 1, params)), +1),
}
# the ladders on the V = 0 basis v_p; the others pair phi_p with its dual
V0_LADDERS = ("A2", "A2dag", "B2", "B2dag")

# (CLI family, branch) -> (reported operator name, ladder key, adjoint): the
# ladder whose eigenvector the state is, with eigenvalue z2
PAIRINGS = {
    ("A", "plus"): ("A2", "A2", False), ("A", "minus"): ("A2dag", "A2dag", False),
    ("B", "plus"): ("B2dag", "B2dag", False), ("B", "minus"): ("B2", "B2", False),
    ("phi", "plus"): ("A_K_V", "A_K_V", False), ("phi", "minus"): ("B_K_V", "B_K_V", False),
    ("psi", "minus"): ("A_K_V_dag", "A_K_V", True), ("psi", "plus"): ("B_K_V_dag", "B_K_V", True),
    ("eta", "plus"): ("C2", "c2", False), ("eta", "minus"): ("D2", "d2", False),
    ("xi", "minus"): ("C2dag", "c2", True), ("xi", "plus"): ("D2dag", "d2", True),
}
_BY_NAME = {name: (key, adjoint) for name, key, adjoint in PAIRINGS.values()}


class Branch(NamedTuple):
    """The levels of one series branch: term n (an int or an integer array)
    sits on level first + step n, with step +1 on plus and -1 on minus."""

    first: int
    step: int

    def sigma(self, n):
        return self.first + self.step * n

    def cap(self, pmax: int) -> int:
        """Largest series index whose level lies inside |p| <= pmax."""
        return pmax - abs(self.first)

    def support(self, ps) -> np.ndarray:
        """Mask of the levels ps that lie on the branch."""
        return self.step * (np.asarray(ps) - self.first) >= 0


# (CLI family, branch) -> the levels of its series, from the first one.  With
# no ground state to start from, each family builds on one half of a split:
# A and the V != 0 families on p >= 0 / p <= -1, B on p >= 1 / p <= 0.
BRANCHES = {key: Branch(first, 1 if key[1] == "plus" else -1) for key, first in {
    ("A", "plus"): 0, ("A", "minus"): -1, ("B", "plus"): 1, ("B", "minus"): 0,
    ("phi", "plus"): 0, ("phi", "minus"): -1, ("psi", "plus"): 0, ("psi", "minus"): -1,
    ("eta", "plus"): 0, ("eta", "minus"): -1, ("xi", "plus"): 0, ("xi", "minus"): -1,
}.items()}


class BranchSeries:
    """The series layout of a state spec from its `BRANCHES` row `key`; a
    spec also provides `cutoff` and `params`."""

    def sigma(self, n):
        return BRANCHES[self.key].sigma(n)

    @property
    def level_cap(self) -> int:
        """Largest usable series index so sigma stays inside the p window."""
        return BRANCHES[self.key].cap(self.cutoff.pmax)

    def require_levels(self) -> int:
        """level_cap, refusing (CutoffError) a branch with no level inside
        the window."""
        cap = self.level_cap
        if cap < 0:
            family, branch = self.key
            raise CutoffError(f"the {branch} branch of {family} has no level inside"
                              f" pmax={self.cutoff.pmax}", tail_estimate=math.inf)
        return cap

    def series_rows(self, n_terms: int) -> tuple:
        """(levels of the first n_terms series terms, the `LevelRows` a state
        on them carries): one table over those levels and their neighbours,
        which serves both sides and the residuals.  At an exceptional V only
        the series levels are evaluated: a neighbour may be the exceptional
        level, and no ladder pairs with the state there (`_ladder` refuses)."""
        ps = self.sigma(np.arange(n_terms))
        if self.params.exceptional_level() is None:
            return ps, level_rows(near_levels(np.abs(ps), self.cutoff.pmax), self.params)
        return ps, level_rows(np.sort(ps), self.params)


def _ladder(key, params: PhysicalParams) -> tuple:
    """(key, amplitude function, shift) of a ladder, refusing unknown keys
    and, off V = 0, exceptional V."""
    key = getattr(key, "value", key)
    if key not in LADDERS:
        raise ContractError(f"unknown ladder {key!r}")
    if key not in V0_LADDERS:
        params.require_non_exceptional(f"ladder {key}")
    return (key, *LADDERS[key])


def _bases(key: str, table: np.ndarray) -> tuple:
    """Rows (upper, lower) of X and Y in a level table: the V = 0 basis v_p
    twice (a table at V = 0), or phi_p and its regime dual."""
    return table[:2], table[:2] if key in V0_LADDERS else table[2:]


def level_ladder_matrix(key, pmax: int, params: PhysicalParams = V0) -> sp.csr_matrix:
    """The bidiagonal p-window matrix P of a ladder."""
    _, amp, shift = _ladder(key, params)
    return bidiagonal(amp(window_levels(pmax), params), shift, pmax)


def ladder_matrix(key, params: PhysicalParams, cutoff: FockCutoff) -> sp.csr_matrix:
    """The ladder realized on the stacked (upper, lower) spinor register as
    the sparse rank-one sum X P Y^H, sum_p amp(p) |x_{p+shift}><y_p|."""
    key = _ladder(key, params)[0]
    ps = window_levels(cutoff.pmax)
    table = level_table(ps, V0 if key in V0_LADDERS else params)
    x, y = (two_entry_columns(ps, *rows, cutoff.nmax2) for rows in _bases(key, table))
    return rank_one_sum(x, level_ladder_matrix(key, cutoff.pmax, params), y)


def near_levels(q, pmax: int) -> np.ndarray:
    """The levels of magnitude q or q +- 1 inside |p| <= pmax, in
    increasing order (p and -p share their rows): the levels a ladder
    gathers from or scatters to when the rows of magnitude q carry weight."""
    near = np.unique(np.concatenate([q - 1, q, q + 1]))
    near = near[(near >= 0) & (near <= pmax)]
    return np.concatenate([-near[::-1], near[near > 0]])


def support_levels(stack: np.ndarray, cutoff: FockCutoff) -> np.ndarray:
    """The levels of the window whose two rows carry weight in a bare
    stacked spinor, and their neighbours, in increasing order."""
    half, pmax = cutoff.nmax2 + 1, cutoff.pmax
    live = stack[:pmax + 1] != 0
    live[1:] |= stack[half:half + pmax] != 0
    return near_levels(np.flatnonzero(live), pmax)


def ladder_apply(key, rows: LevelRows, stack: np.ndarray, cutoff: FockCutoff,
                 adjoint: bool = False) -> np.ndarray:
    """`ladder_matrix` (or its adjoint Y P^H X^H) applied to a stacked
    spinor as X(P(Y^H stack)), without building a matrix: gather one
    coefficient per level from its two rows, move it one level with its
    amplitude and scatter it back as `series_stack` does.  Only the levels
    of `rows` are evaluated (a built state's carried rows, or those of
    `support_levels` for a bare stack); they must hold every level whose
    rows carry weight and its neighbours, and the others add exact zeros,
    so the result does not depend on the window.  The rows are at the
    ladder's parameters; the V = 0 ladders need rows at V = 0."""
    params = rows.params
    key, amp, shift = _ladder(key, params)
    if key in V0_LADDERS and params.V != 0.0:
        raise ContractError(f"ladder {key} acts on the V = 0 basis, not on rows at V = {params.V}")
    if stack.size != 2 * (cutoff.nmax2 + 1):
        raise ShapeError("operator and state live on different spinor windows")
    ps = rows.ps
    x, y = _bases(key, rows.table)
    if adjoint:
        x, y = y, x
    coef = column_coefficients(ps, *y, stack, cutoff.nmax2)
    # P moves level p to p + shift with amps(p); P^H takes level p from p + shift
    src = ps + shift if adjoint else ps - shift
    k = np.minimum(np.searchsorted(ps, src), ps.size - 1)
    has = ps[k] == src
    k, amps = k[has], amp(ps, params)
    moved = np.zeros_like(coef)
    moved[has] = (np.conj(amps[has]) if adjoint else amps[k]) * coef[k]
    return series_stack(ps, *x, moved, cutoff.nmax2)


def pairing_residual(spec, state, operator, strict: bool = True) -> float:
    """|| O state - z state || for the state built from spec: O = A1 with
    z = z1 on the first register, or the ladder `PAIRINGS` pairs with the
    spec's family and branch (`spec.key`), with z = z2 on the
    spinor register, applied without a matrix on the level rows the state
    carries; the other register enters through its norm.  Any other ladder
    of the table raises ContractError unless strict=False, and so does a
    state without rows at the spec's parameters."""
    operator = getattr(operator, "value", operator)
    if operator == "A1":
        own, other, z = state.first_register, state.spinor_stack(), spec.z1
        moved = lower_first_register(own)
    else:
        if operator not in _BY_NAME:
            raise ContractError(f"unknown operator {operator!r}")
        if strict and PAIRINGS[spec.key][0] != operator:
            raise ContractError(f"{operator} has no eigenvalue equation on {'/'.join(spec.key)}")
        key, adjoint = _BY_NAME[operator]
        if state.rows is None or state.rows.params != spec.params:
            raise ContractError(f"{operator} reads the level rows a state carries; this state"
                                f" carries none built at V = {spec.params.V}")
        own, other, z = state.spinor_stack(), state.first_register, spec.z2
        moved = ladder_apply(key, state.rows, own, spec.cutoff, adjoint)
    return float(np.linalg.norm(moved - z * own)) * float(np.linalg.norm(other))


def build_ladder(kind: LadderKind, cutoff: FockCutoff) -> SparseOperator:
    """Matrix of the ladder on the enumerated (n, p) window."""
    kind = LadderKind(kind)
    win = ModeWindow.of(cutoff)
    eye_n = sp.identity(cutoff.nmax1 + 1, format="csr", dtype=complex)
    if kind is LadderKind.A1:
        mat = sp.kron(annihilator(cutoff.nmax1), sp.identity(win.pdim, format="csr", dtype=complex), format="csr")
    else:
        mat = sp.kron(eye_n, level_ladder_matrix(kind, cutoff.pmax), format="csr")
    return SparseOperator(mat, "mode", kind.value)


def spinor_ladder_matrix(kind: LadderKind, cutoff: FockCutoff) -> SparseOperator:
    """A V = 0 ladder realized on the stacked (upper, lower) spinor register
    through the rank-one sums over the basis spinors v_p."""
    kind = LadderKind(kind)
    if kind is LadderKind.A1:
        raise ShapeError("A1 acts on the first register, not the spinor register")
    return SparseOperator(ladder_matrix(kind, V0, cutoff), "kregister", kind.value)


def hamiltonian_mode_matrix(params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """H on the (n, p) enumeration, built by applying the spinor-register
    realization to each v_p and projecting back (not from the eigenvalue
    formula), so commutator checks against it are a genuine cross-check."""
    vm = level_matrix(cutoff)
    h = hamiltonian_spinor_matrix(replace(params, V=0.0), cutoff).matrix
    hp = vm.conjugate().T @ (h @ vm)
    mat = sp.kron(
        sp.identity(cutoff.nmax1 + 1, format="csr", dtype=complex),
        sp.csr_matrix(hp),
        format="csr",
    )
    return SparseOperator(mat, "mode", "H_K")


def _mode_grid(cutoff: FockCutoff) -> tuple:
    """(n, p) of each column of the enumerated (n, p) window, in
    `ModeWindow.index` order, as two integer arrays."""
    win = ModeWindow.of(cutoff)
    ns, ps = np.divmod(np.arange(win.dim), win.pdim)
    return ns, ps - cutoff.pmax


def commutator_defect(h: SparseOperator, n: SparseOperator, cutoff: FockCutoff) -> float:
    """max over the basis vectors f two or more steps inside the window (in
    n and in p) of ||(HN - NH) f||."""
    if not h.same_enumeration(n):
        raise ShapeError(f"operators on different enumerations: {h.space}{h.shape} vs {n.space}{n.shape}")
    comm = h.matrix @ n.matrix - n.matrix @ h.matrix
    ns, ps = _mode_grid(cutoff)
    cols = (ns <= cutoff.nmax1 - 2) & (np.abs(ps) <= cutoff.pmax - 2)
    return float(sp.linalg.norm(comm, axis=0)[cols].max(initial=0.0))


def factorization_defect_v0(cutoff: FockCutoff, params: PhysicalParams) -> np.ndarray:
    """Defects || (H - A2^+ A2) c_{n,p} || over the interior levels p =
    -pmax+1..pmax-1 (n-independent), from one build of both operators:
    H is not the number-type product, as their eigenvalues differ
    (eps0*sign(p)*sqrt(|p|) against |p|).  The two agree on p = 0, and
    accidentally on the single level where eps0*sqrt(p) = p (p = 4 in
    default units).
    """
    vm = level_matrix(cutoff)[:, 1:-1]
    h = hamiltonian_spinor_matrix(replace(params, V=0.0), cutoff).matrix
    a2 = spinor_ladder_matrix(LadderKind.A2, cutoff).matrix
    return np.linalg.norm((h - a2.conjugate().T @ a2) @ vm, axis=0)


def subspace_closure_check(kind: LadderKind, tag: SubspaceTag, cutoff: FockCutoff,
                           tol: float = 1e-12) -> bool:
    """True iff the ladder maps every interior basis vector of the tagged
    subspace to a vector with no component outside it."""
    ns, ps = _mode_grid(cutoff)
    on = SubspaceTag(tag).branch.support(ps)
    inside = np.flatnonzero(on & (ns < cutoff.nmax1) & (np.abs(ps) < cutoff.pmax))
    leak = build_ladder(LadderKind(kind), cutoff).matrix[~on][:, inside].toarray()
    return bool(np.abs(leak).max(initial=0.0) <= tol)


def decomposition_respected(kind: LadderKind, split: str, cutoff: FockCutoff) -> bool:
    """True iff the ladder leaves both halves of the named split invariant
    ('H' for the p>=0 / p<=-1 split, 'K' for p>=1 / p<=0)."""
    if split not in ("H", "K"):
        raise ShapeError(f"unknown split {split!r}")
    return all(subspace_closure_check(kind, t, cutoff) for t in SubspaceTag if t.value[0] == split)
