"""The V=0 eigenproblem on the spinor Hilbert space.

States are kept in tensor-product form: a coefficient array over the
first (degeneracy) register, tensored with a two-component coefficient
pair (upper, lower) over the second-register Fock basis.  The relabeled
eigenbasis c_{n,p} has

    p = 0   ->  (e_0, 0)
    p >= 1  ->  (e_p, -i e_{p-1}) / sqrt(2)
    p <= -1 ->  (e_{|p|}, +i e_{|p|-1}) / sqrt(2)

on the spinor register, with first-register factor e_n: the level
spinors of `levels` at V = 0 (`levels.level_spinors`), whose energies
sign(p) eps0 sqrt(|p|) are `levels.spectrum_table` at V = 0.  The (n, p)
window is flattened in row-major order with p offset-encoded
(`ModeWindow.index`); this enumeration is part of the public contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import CutoffError
from .fock import FockCutoff, SparseOperator, annihilator, ladder_matrices
from .levels import LevelRows, level_spinors, level_table, two_entry_columns, window_levels
from .params import PhysicalParams

# The V=0 basis spinors v_p are the level table at V = 0.
V0 = PhysicalParams()


class ModeIndex(NamedTuple):
    """Pair (n, p): degeneracy index and level index."""

    n: int
    p: int


@dataclass(frozen=True)
class ModeWindow:
    """Enumeration of the (n, p) window: index = n*(2*pmax+1) + (p+pmax)."""

    nmax1: int
    pmax: int

    @property
    def dim(self) -> int:
        return (self.nmax1 + 1) * (2 * self.pmax + 1)

    @property
    def pdim(self) -> int:
        return 2 * self.pmax + 1

    def index(self, n: int, p: int) -> int:
        if not (0 <= n <= self.nmax1 and abs(p) <= self.pmax):
            raise CutoffError(f"(n={n}, p={p}) outside window")
        return n * self.pdim + (p + self.pmax)

    @staticmethod
    def of(cutoff: FockCutoff) -> "ModeWindow":
        return ModeWindow(cutoff.nmax1, cutoff.pmax)


@dataclass
class SpinorState:
    """Separable state: first_register (x) (upper, lower).

    The scalar product is the spinor-register sum tensored with the
    first-register product, ``<f,g> = <fr_f,fr_g> (<u_f,u_g> + <l_f,l_g>)``,
    antilinear in the first argument.

    A built state also carries `rows`, the level rows it was filled from
    (its series levels and their neighbours, `levels.LevelRows`), which its
    residuals read; a bicoherent state carries `dual`, the state of the
    other side built from the same first register, weights and rows.
    """

    first_register: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    meta: dict = field(default_factory=dict)
    rows: LevelRows | None = None
    dual: SpinorState | None = None

    def norm2(self) -> float:
        fr = float(np.vdot(self.first_register, self.first_register).real)
        sp2 = float((np.vdot(self.upper, self.upper) + np.vdot(self.lower, self.lower)).real)
        return fr * sp2

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def inner(self, other: "SpinorState") -> complex:
        fr = _padded_vdot(self.first_register, other.first_register)
        spn = _padded_vdot(self.upper, other.upper) + _padded_vdot(self.lower, other.lower)
        return complex(fr * spn)

    def spinor_stack(self) -> np.ndarray:
        return np.concatenate([self.upper, self.lower])

    def component_masses(self) -> tuple:
        fr = float(np.vdot(self.first_register, self.first_register).real)
        up = fr * float(np.vdot(self.upper, self.upper).real)
        lo = fr * float(np.vdot(self.lower, self.lower).real)
        return up, lo


def _padded_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    m = min(a.size, b.size)
    return complex(np.vdot(a[:m], b[:m]))


def first_register_basis(n: int, nmax1: int) -> np.ndarray:
    if not (0 <= n <= nmax1):
        raise CutoffError(f"first-register index n={n} outside [0, {nmax1}]")
    fr = np.zeros(nmax1 + 1, dtype=complex)
    fr[n] = 1.0
    return fr


def basis_vector_c(idx: ModeIndex, cutoff: FockCutoff) -> SpinorState:
    """The relabeled eigenvector c_{n,p} as a SpinorState (unit norm)."""
    n, p = idx
    if abs(p) > cutoff.pmax:
        raise CutoffError(f"|p|={abs(p)} exceeds pmax={cutoff.pmax}")
    stack = level_spinors(p, V0, cutoff.nmax2)[0]
    half = cutoff.nmax2 + 1
    return SpinorState(first_register_basis(n, cutoff.nmax1), stack[:half], stack[half:])


def level_matrix(cutoff: FockCutoff) -> np.ndarray:
    """Columns are the stacked spinors v_p for p = -pmax..pmax.

    Shape (2*(nmax2+1), 2*pmax+1); the columns are orthonormal.
    """
    ps = window_levels(cutoff.pmax)
    return two_entry_columns(ps, *level_table(ps, V0)[:2], cutoff.nmax2).toarray()


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
    return SparseOperator(mat, "kregister", f"H(V={params.V})")


def lower_first_register(fr: np.ndarray) -> np.ndarray:
    """The degeneracy-register lowering operator (`fock.annihilator`, the
    standard sqrt(n) entries) applied to the first-register coefficients:
    sqrt(n+1) fr[n+1]."""
    out = np.zeros_like(fr)
    out[:-1] = np.sqrt(np.arange(1, fr.size)) * fr[1:]
    return out


def dense_hamiltonian(params: PhysicalParams, cutoff: FockCutoff) -> SparseOperator:
    """The Hamiltonian on the enumerated Cartesian spinor basis: two stacked
    (j, k) blocks.  Hermitian at V=0."""
    mat = _hamiltonian_block(params, ladder_matrices(cutoff)["A2"].matrix)
    return SparseOperator(mat, "cartesian_spinor", f"H_cart(V={params.V})")


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
