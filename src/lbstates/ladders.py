"""The sparse oracle: every matrix realization of the package's operators.

No command builds a matrix.  States, residuals and densities are filled
from the level table and the ladder table of `levels` (`ladder_apply`
moves a level without a matrix), so only `checks`, `pt` and the tests
import this module: neither `import lbstates` nor any command but `check`
loads it.  Here the same operators are scipy sparse matrices, the
independent side of those checks:

* the one-mode annihilator (`annihilator`), the Cartesian and circular
  ladders on the (j, k) oscillator grid (`ladder_matrices`), and the
  circular modes raised from the vacuum with them (`circular_mode`), the
  independent side of the binomial modes e_{0,N} that `densities.density`
  reads;
* the Hamiltonian block (2i v_F / xi) [[V, a^+], [-a, -V]] on the stacked
  (upper, lower) spinor register and on two stacked (j, k) grids;
* each ladder of `levels.LADDERS`, as its bidiagonal matrix P on the level
  window p = -pmax..pmax (`level_ladder_matrix`) and on the spinor
  register as the rank-one sum X P Y^H over the two-entry level spinors
  (`ladder_matrix`).

A ladder of the level register acts on p alone and A1 on the degeneracy
index n alone, so each is checked on its own window: the level ladders
on the p window, with H projected onto it as v^H H v over the V = 0
basis v_p, and A1 as `annihilator(nmax1)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import CutoffError, ShapeError
from .fock import SQRT2, FockCutoff
from .levels import (V0_LADDERS, Pairing, _bases, _ladder, level_table, two_entry_columns,
                     window_levels)
from .params import PhysicalParams
from .spinor import V0, level_matrix


@dataclass(frozen=True)
class SparseOperator:
    """A complex sparse matrix with the name of the operator it realizes."""

    matrix: sp.spmatrix
    name: str

    def dagger(self) -> "SparseOperator":
        return SparseOperator(self.matrix.conjugate().T.tocsr(), self.name + "^+")


def annihilator(nmax: int) -> sp.csr_matrix:
    """The one-mode lowering matrix on 0..nmax: sqrt(k) at (k - 1, k)."""
    return sp.diags(np.sqrt(np.arange(1, nmax + 1, dtype=float)), 1, format="csr").astype(complex)


def ladder_matrices(cutoff: FockCutoff) -> dict:
    """Truncated matrices of a_X, a_Y, A1 = (a_X - i a_Y) / sqrt(2) and
    A2 = (a_X + i a_Y) / sqrt(2) on the (j, k) grid, index j*(nmax2+1)+k.

    The commutator [A, A^+] equals the identity on every basis vector with
    total excitation < nmax2 (the interior window); the boundary row is
    zeroed rather than wrapped.
    """
    a1d = annihilator(cutoff.nmax2)
    eye = sp.identity(cutoff.nmax2 + 1, format="csr", dtype=complex)
    ax = sp.kron(a1d, eye, format="csr")
    ay = sp.kron(eye, a1d, format="csr")
    a_one = ((ax - 1j * ay) / SQRT2).tocsr()
    a_two = ((ax + 1j * ay) / SQRT2).tocsr()
    return {
        "a_X": SparseOperator(ax, "a_X"),
        "a_Y": SparseOperator(ay, "a_Y"),
        "A1": SparseOperator(a_one, "A1"),
        "A2": SparseOperator(a_two, "A2"),
    }


@dataclass(frozen=True)
class CartesianModeVector:
    """Expansion of a state over products psi_j(X) psi_k(Y), with its norm."""

    coeffs: np.ndarray  # complex, shape (nmax2+1, nmax2+1)
    norm: float = field(default=0.0)


@lru_cache(maxsize=8)
def _raising_matrices(nmax2: int) -> tuple:
    """A1^+ and A2^+ on the (j, k) grid, built once per window and shared
    by every `circular_mode` call on it (read only)."""
    ops = ladder_matrices(FockCutoff(0, nmax2))
    return tuple(ops[name].matrix.conjugate().T.tocsr() for name in ("A1", "A2"))


def circular_mode(n1: int, n2: int, cutoff: FockCutoff) -> CartesianModeVector:
    """Normalized circular mode e_{n1,n2} built by repeated application of
    the truncated raising matrices to the vacuum unit vector (at n1 = 0
    the oracle of the closed binomial table `fock.circular_antidiagonals`).

    Requires n1 + n2 <= nmax2 so that no raising application exits the
    truncation window.
    """
    if n1 < 0 or n2 < 0:
        raise CutoffError("mode indices must be nonnegative")
    if n1 + n2 > cutoff.nmax2:
        raise CutoffError(
            f"circular mode ({n1},{n2}) needs total excitation {n1 + n2} > nmax2={cutoff.nmax2}"
        )
    a1dag, a2dag = _raising_matrices(cutoff.nmax2)
    d = cutoff.nmax2 + 1
    v = np.zeros(d * d, dtype=complex)
    v[0] = 1.0
    for k in range(n2):
        v = a2dag @ v / math.sqrt(k + 1.0)
    for k in range(n1):
        v = a1dag @ v / math.sqrt(k + 1.0)
    return CartesianModeVector(v.reshape(d, d), float(np.linalg.norm(v)))


def _hamiltonian_block(params: PhysicalParams, a: sp.spmatrix) -> sp.csr_matrix:
    """(2i v_F / xi) [[V I, a^+], [-a, -V I]] for the annihilator a of one
    component."""
    eye = sp.identity(a.shape[0], format="csr", dtype=complex)
    scale = 1j * params.eps0
    return sp.bmat(
        [[scale * params.V * eye, scale * a.conjugate().T], [-scale * a, -scale * params.V * eye]],
        format="csr",
    )


def hamiltonian_spinor_matrix(params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """The spinor-register block matrix (2i v_F / xi) [[V, a^+], [-a, -V]]
    acting on the stacked (upper, lower) register."""
    mat = _hamiltonian_block(params, annihilator(cutoff.nmax2))
    return SparseOperator(mat, f"H(V={params.V})")


def dense_hamiltonian(params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """The Hamiltonian on the enumerated Cartesian spinor basis: two stacked
    (j, k) blocks.  Hermitian at V=0."""
    mat = _hamiltonian_block(params, ladder_matrices(cutoff)["A2"].matrix)
    return SparseOperator(mat, f"H_cart(V={params.V})")


def restricted_spinor_block(params: PhysicalParams, cutoff: FockCutoff) -> np.ndarray:
    """The spinor-register Hamiltonian restricted to its largest invariant
    truncated subspace (upper 0..nmax2, lower 0..nmax2-1).

    Dense diagonalization of this block is an independent oracle for the
    spectrum: its eigenvalue multiset is exactly {0} + {+-eps0 sqrt(k)}.
    """
    h = hamiltonian_spinor_matrix(replace(params, V=0.0), cutoff).matrix.toarray()
    d = cutoff.nmax2 + 1
    keep = list(range(d)) + list(range(d, 2 * d - 1))
    return h[np.ix_(keep, keep)]


def bidiagonal(amps, shift: int, pmax: int) -> sp.csr_matrix:
    """The p-window matrix with amps[k] at (p_k + shift, p_k) over p_k =
    -pmax..pmax; zero amplitudes and targets outside the window are dropped
    (boundary rows are zeroed, not wrapped)."""
    ps = window_levels(pmax)
    amps = np.asarray(amps, dtype=complex)
    keep = (amps != 0) & (np.abs(ps + shift) <= pmax)
    return sp.csr_matrix((amps[keep], (ps[keep] + shift + pmax, ps[keep] + pmax)),
                         shape=(ps.size, ps.size))


def rank_one_sum(x: sp.spmatrix, pmat: sp.spmatrix, y: sp.spmatrix) -> sp.csr_matrix:
    """sum over (q, p) of pmat[q, p] |x_q><y_p|, i.e. X P Y^H, kept sparse:
    with two nonzeros per column of X and Y, each nonzero of P gives at
    most four entries."""
    out = (x @ pmat @ y.conjugate().T).tocsr()
    out.eliminate_zeros()
    return out


def level_ladder_matrix(key: str, pmax: int, params: PhysicalParams = V0) -> sp.csr_matrix:
    """The bidiagonal p-window matrix P of a ladder, index p + pmax."""
    _, amp, shift = _ladder(key, params)
    return bidiagonal(amp(window_levels(pmax), params), shift, pmax)


def ladder_matrix(key: str, params: PhysicalParams, cutoff: FockCutoff) -> sp.csr_matrix:
    """The ladder realized on the stacked (upper, lower) spinor register as
    the sparse rank-one sum X P Y^H, sum_p amp(p) |x_{p+shift}><y_p|."""
    key = _ladder(key, params)[0]
    ps = window_levels(cutoff.pmax)
    table = level_table(ps, V0 if key in V0_LADDERS else params)
    x, y = (sp.csc_matrix(two_entry_columns(ps, *rows, cutoff.nmax2))
            for rows in _bases(key, table))
    return rank_one_sum(x, level_ladder_matrix(key, cutoff.pmax, params), y)


def spinor_ladder_matrix(key: str, cutoff: FockCutoff) -> SparseOperator:
    """A V = 0 ladder realized on the stacked (upper, lower) spinor register
    through the rank-one sums over the basis spinors v_p."""
    if key == "A1":
        raise ShapeError("A1 acts on the first register, not the spinor register")
    return SparseOperator(ladder_matrix(key, V0, cutoff), key)


def commutator_defect(h, n, pmax: int) -> float:
    """max over the levels two or more steps inside the window |p| <= pmax
    of ||(HN - NH) e_p||, for H and N on the level window (dense arrays)."""
    if h.shape != n.shape:
        raise ShapeError(f"operators on different windows: {h.shape} vs {n.shape}")
    comm = h @ n - n @ h
    inside = np.abs(window_levels(pmax)) <= pmax - 2
    return float(np.linalg.norm(comm, axis=0)[inside].max(initial=0.0))


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
    a2 = spinor_ladder_matrix("A2", cutoff).matrix
    return np.linalg.norm((h - a2.conjugate().T @ a2) @ vm, axis=0)


def subspace_closure_check(key: str, row: Pairing, pmax: int) -> bool:
    """True iff the V = 0 ladder maps every level of the `PAIRINGS` row's
    support inside the window |p| < pmax to no component above 1e-12 off it."""
    ps = window_levels(pmax)
    on = row.support(ps)
    inside = np.flatnonzero(on & (np.abs(ps) < pmax))
    leak = level_ladder_matrix(key, pmax)[~on][:, inside].toarray()
    return bool(np.abs(leak).max(initial=0.0) <= 1e-12)
