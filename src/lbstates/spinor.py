"""The V=0 eigenproblem on the spinor Hilbert space.

States are kept in tensor-product form: a coefficient array over the
first (degeneracy) register, tensored with a two-component coefficient
pair (upper, lower) over the second-register Fock basis.  The relabeled
eigenbasis c_{n,p} has

    p = 0   ->  (e_0, 0)
    p >= 1  ->  (e_p, -i e_{p-1}) / sqrt(2)
    p <= -1 ->  (e_{|p|}, +i e_{|p|-1}) / sqrt(2)

on the spinor register, with first-register factor e_n.  The (n, p)
window is flattened in row-major order with p offset-encoded; this
enumeration is part of the public contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import CutoffError, ShapeError
from .fock import FockCutoff, SparseOperator, ladder_matrices
from .levels import level_table, window_levels
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

    def indices(self):
        for n in range(self.nmax1 + 1):
            for p in range(-self.pmax, self.pmax + 1):
                yield ModeIndex(n, p)

    def interior(self, n_margin: int = 1, p_margin: int = 1):
        for n in range(self.nmax1 + 1 - n_margin):
            for p in range(-self.pmax + p_margin, self.pmax - p_margin + 1):
                yield ModeIndex(n, p)

    @staticmethod
    def of(cutoff: FockCutoff) -> "ModeWindow":
        return ModeWindow(cutoff.nmax1, cutoff.pmax)


@dataclass
class SpinorState:
    """Separable state: first_register (x) (upper, lower).

    The scalar product is the spinor-register sum tensored with the
    first-register product, ``<f,g> = <fr_f,fr_g> (<u_f,u_g> + <l_f,l_g>)``,
    antilinear in the first argument.
    """

    first_register: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    meta: dict = field(default_factory=dict)

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

    def with_spinor_stack(self, stack: np.ndarray) -> "SpinorState":
        half = stack.size // 2
        return SpinorState(self.first_register.copy(), stack[:half].copy(), stack[half:].copy(), dict(self.meta))

    def component_masses(self) -> tuple:
        fr = float(np.vdot(self.first_register, self.first_register).real)
        up = fr * float(np.vdot(self.upper, self.upper).real)
        lo = fr * float(np.vdot(self.lower, self.lower).real)
        return up, lo


def _padded_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    m = min(a.size, b.size)
    return complex(np.vdot(a[:m], b[:m]))


def level_vector(p: int, nmax2: int) -> tuple:
    """Spinor-register components (upper, lower) of the basis spinor v_p."""
    stack = level_table([p], V0, nmax2)[0].toarray()[:, 0]
    return stack[:nmax2 + 1], stack[nmax2 + 1:]


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
    upper, lower = level_vector(p, cutoff.nmax2)
    return SpinorState(first_register_basis(n, cutoff.nmax1), upper, lower)


def level_matrix(cutoff: FockCutoff) -> np.ndarray:
    """Columns are the stacked spinors v_p for p = -pmax..pmax.

    Shape (2*(nmax2+1), 2*pmax+1); the columns are orthonormal.
    """
    return level_table(window_levels(cutoff.pmax), V0, cutoff.nmax2)[0].toarray()


def level_coefficients(state: SpinorState, cutoff: FockCutoff) -> np.ndarray:
    """Array over p of <v_p, spinor part of state>, p = -pmax..pmax."""
    vm = level_table(window_levels(cutoff.pmax), V0, cutoff.nmax2)[0]
    return vm.conjugate().T @ state.spinor_stack()


def energy(idx: ModeIndex, params: PhysicalParams) -> float:
    """sign(p) (2 v_F / xi) sqrt(|p|); independent of n."""
    p = idx.p if isinstance(idx, ModeIndex) else int(idx)
    if p == 0:
        return 0.0
    return math.copysign(params.eps0 * math.sqrt(abs(p)), p)


def second_register_annihilation(nmax2: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, nmax2 + 1, dtype=float)), 1, format="csr").astype(complex)


def first_register_lowering(nmax1: int) -> SparseOperator:
    """The degeneracy-register lowering operator (standard sqrt(n) entries)."""
    mat = sp.diags(np.sqrt(np.arange(1, nmax1 + 1, dtype=float)), 1, format="csr").astype(complex)
    return SparseOperator(mat, "first", "A1_register")


def _hamiltonian_block(params: PhysicalParams, a: sp.spmatrix, V: float) -> sp.csr_matrix:
    """(2i v_F / xi) [[V I, a^+], [-a, -V I]] for the annihilator a of one
    component."""
    eye = sp.identity(a.shape[0], format="csr", dtype=complex)
    scale = 1j * params.eps0
    return sp.bmat(
        [[scale * V * eye, scale * a.conjugate().T], [-scale * a, -scale * V * eye]],
        format="csr",
    )


def hamiltonian_spinor_matrix(params: PhysicalParams, cutoff: FockCutoff, V: float | None = None) -> SparseOperator:
    """The spinor-register block matrix (2i v_F / xi) [[V, a^+], [-a, -V]]
    acting on the stacked (upper, lower) register.  V defaults to params.V."""
    if V is None:
        V = params.V
    mat = _hamiltonian_block(params, second_register_annihilation(cutoff.nmax2), V)
    return SparseOperator(mat, "kregister", f"H(V={V})")


def apply_spinor_operator(op: SparseOperator, state: SpinorState) -> SpinorState:
    if op.space != "kregister":
        raise ShapeError(f"expected a kregister operator, got {op.space}")
    stack = state.spinor_stack()
    if op.shape[1] != stack.size:
        raise ShapeError("operator and state live on different spinor windows")
    return state.with_spinor_stack(op.matrix @ stack)


def ladder_residual(state: SpinorState, op: SparseOperator, z: complex) -> float:
    """|| O state - z state || for an operator on either register of the
    separable state; the other register enters through its norm."""
    if op.space == "first":
        own, other = state.first_register, state.spinor_stack()
    elif op.space == "kregister":
        own, other = state.spinor_stack(), state.first_register
    else:
        raise ShapeError(f"expected a first or kregister operator, got {op.space}")
    if op.shape[1] != own.size:
        raise ShapeError("operator and state live on different windows")
    return float(np.linalg.norm(op.matrix @ own - z * own)) * float(np.linalg.norm(other))


def apply_HK(state: SpinorState, params: PhysicalParams, cutoff: FockCutoff) -> SpinorState:
    """Apply the V=0 Hamiltonian (2i v_F/xi) [[0, A2^+], [-A2, 0]] blockwise."""
    return apply_spinor_operator(hamiltonian_spinor_matrix(params, cutoff, V=0.0), state)


def dense_hamiltonian(params: PhysicalParams, cutoff: FockCutoff, V: float | None = None) -> SparseOperator:
    """The Hamiltonian on the enumerated Cartesian spinor basis: two stacked
    (j, k) blocks.  Hermitian at V=0."""
    if V is None:
        V = params.V
    mat = _hamiltonian_block(params, ladder_matrices(cutoff)["A2"].matrix, V)
    return SparseOperator(mat, "cartesian_spinor", f"H_cart(V={V})")


def eigen_residual_hk(idx: ModeIndex, params: PhysicalParams, cutoff: FockCutoff) -> float:
    """|| H c_{n,p} - E_{n,p} c_{n,p} ||_2."""
    state = basis_vector_c(idx, cutoff)
    h_state = apply_HK(state, params, cutoff)
    e = energy(idx, params)
    diff = h_state.spinor_stack() - e * state.spinor_stack()
    return float(np.linalg.norm(diff))


def restricted_spinor_block(params: PhysicalParams, cutoff: FockCutoff) -> np.ndarray:
    """The spinor-register Hamiltonian restricted to its largest invariant
    truncated subspace (upper 0..nmax2, lower 0..nmax2-1).

    Dense diagonalization of this block is an independent oracle for the
    spectrum: its eigenvalue multiset is exactly {0} + {+-eps0 sqrt(k)}.
    """
    h = hamiltonian_spinor_matrix(params, cutoff, V=0.0).matrix.toarray()
    d = cutoff.nmax2 + 1
    keep = list(range(d)) + list(range(d, 2 * d - 1))
    return h[np.ix_(keep, keep)]
