"""Truncated one- and two-mode bosonic Fock machinery.

Provides the 1D oscillator eigenfunctions (stable normalized recurrence),
the Cartesian ladder pair (a_X, a_Y) on a truncated (j, k) grid, and the
circular combinations

    A1 = (a_X - i a_Y) / sqrt(2),      A2 = (a_X + i a_Y) / sqrt(2),

whose normalized excitations e_{n1,n2} diagonalize the Landau problem.
`circular_antidiagonals` yields their map to the (j, k) grid one stable
block per anti-diagonal j + k = N, good to ~1e-14 up to N = 512.
All operators advertise an interior window on which the canonical
commutation relations hold exactly; truncation artifacts live on the
boundary row/column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import CutoffError

SQRT2 = math.sqrt(2.0)

# 1D oscillator functions are guaranteed stable up to this index.
PSI_HARD_LIMIT = 512


@dataclass(frozen=True)
class FockCutoff:
    """Truncation window.

    nmax1 : cutoff of the first-register (degeneracy) index n
    nmax2 : cutoff of the Cartesian oscillator indices feeding the spinor
            register (each of j, k runs over 0..nmax2)
    pmax  : level window |p| <= pmax (defaults to nmax2; never larger)
    """

    nmax1: int
    nmax2: int
    pmax: int | None = None

    def __post_init__(self):
        if self.nmax1 < 0:
            raise CutoffError("nmax1 must be >= 0")
        if self.nmax2 < 1:
            raise CutoffError("nmax2 must be >= 1")
        if self.pmax is None:
            object.__setattr__(self, "pmax", self.nmax2)
        if not (0 <= self.pmax <= self.nmax2):
            raise CutoffError("pmax must satisfy 0 <= pmax <= nmax2")

    @property
    def cart_dim(self) -> int:
        """Dimension of the truncated (j, k) grid."""
        return (self.nmax2 + 1) ** 2


@dataclass(frozen=True)
class SparseOperator:
    """A complex sparse matrix tagged with the enumeration it acts on.

    Spaces used in this package:
      'cartesian2d'     -- the (j, k) oscillator grid, index j*(nmax2+1)+k
      'cartesian_spinor'-- two stacked cartesian2d blocks (upper, lower)
      'kregister'       -- stacked 1D registers (upper, lower), index
                           comp*(nmax2+1)+k
      'first'           -- the first (degeneracy) register
      'mode'            -- the (n, p) window, index n*(2*pmax+1)+(p+pmax)
      'level'           -- the p window alone, index p+pmax
    """

    matrix: sp.spmatrix
    space: str
    name: str

    @property
    def shape(self):
        return self.matrix.shape

    def dagger(self) -> "SparseOperator":
        return SparseOperator(self.matrix.conjugate().T.tocsr(), self.space, self.name + "^+")

    def same_enumeration(self, other: "SparseOperator") -> bool:
        return self.space == other.space and self.shape == other.shape


def oscillator_psi(n: int, x):
    """Normalized 1D oscillator eigenfunction psi_n(x): row n of
    `oscillator_table` (a float for scalar x)."""
    row = oscillator_table(n, x)[n]
    return float(row[0]) if np.ndim(x) == 0 else row


def oscillator_table(nmax: int, x) -> np.ndarray:
    """Matrix psi[j, i] = psi_j(x_i) for j = 0..nmax, by the stable
    three-term recurrence on the normalized functions,

        psi_{k+1} = x sqrt(2/(k+1)) psi_k - sqrt(k/(k+1)) psi_{k-1},

    never through raw Hermite polynomials (which overflow near n ~ 150)."""
    if nmax < 0:
        raise CutoffError("oscillator index must be >= 0")
    if nmax > PSI_HARD_LIMIT:
        raise CutoffError(f"oscillator index {nmax} above hard limit {PSI_HARD_LIMIT}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1, arr.size), dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * arr * arr)
    if nmax >= 1:
        out[1] = SQRT2 * arr * out[0]
    for k in range(1, nmax):
        out[k + 1] = arr * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


@dataclass(frozen=True)
class CartesianModeVector:
    """Expansion of a state over products psi_j(X) psi_k(Y), with its norm."""

    coeffs: np.ndarray  # complex, shape (nmax2+1, nmax2+1)
    norm: float = field(default=0.0)


def annihilator(nmax: int) -> sp.csr_matrix:
    """The one-mode lowering matrix on 0..nmax: sqrt(k) at (k - 1, k)."""
    return sp.diags(np.sqrt(np.arange(1, nmax + 1, dtype=float)), 1, format="csr").astype(complex)


def ladder_matrices(cutoff: FockCutoff) -> dict:
    """Truncated matrices of a_X, a_Y, A1, A2 on the (j, k) grid.

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
        "a_X": SparseOperator(ax, "cartesian2d", "a_X"),
        "a_Y": SparseOperator(ay, "cartesian2d", "a_Y"),
        "A1": SparseOperator(a_one, "cartesian2d", "A1"),
        "A2": SparseOperator(a_two, "cartesian2d", "A2"),
    }


@lru_cache(maxsize=8)
def _raising_matrices(nmax2: int) -> tuple:
    """A1^+ and A2^+ on the (j, k) grid, built once per window and shared
    by every `circular_mode` call on it (read only)."""
    ops = ladder_matrices(FockCutoff(0, nmax2))
    return tuple(ops[name].matrix.conjugate().T.tocsr() for name in ("A1", "A2"))


def circular_mode(n1: int, n2: int, cutoff: FockCutoff) -> CartesianModeVector:
    """Normalized circular mode e_{n1,n2} built by repeated application of
    the truncated raising matrices to the vacuum unit vector.

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


def eval_mode(vec: CartesianModeVector, x: float, y: float) -> complex:
    """Position-space value sum_{j,k} coeffs[j,k] psi_j(X) psi_k(Y)."""
    top = vec.coeffs.shape[0] - 1
    px = oscillator_table(top, np.atleast_1d(float(x)))[:, 0]
    py = oscillator_table(top, np.atleast_1d(float(y)))[:, 0]
    return complex(px @ vec.coeffs @ py)


def circular_antidiagonals(n_top: int, n1_top: int):
    """Yield (N, R_N), N = 0..n_top, with e_{n1,N-n1} = sum_j i^(N-j)
    R_N[j, n1] |j, N-j> for n1 <= min(N, n1_top).

    R_N is a real Wigner d(pi/2)-type block, built from R_{N-1} by the
    number operator: N e_{n1,n2} = sqrt(n1) A1^+ e_{n1-1,n2} + sqrt(n2)
    A2^+ e_{n1,n2-1}.  Its coefficients are at most 1 in modulus, so it is
    stable (Risbo's scheme) where raising single modes is not.  Column n1
    reads columns n1-1 and n1 only, so columns above n1_top are never built.
    """
    sq = np.sqrt(np.arange(n_top + 1))
    block = np.ones((1, 1))
    yield 0, block
    for big_n in range(1, n_top + 1):
        cols, have = min(big_n, n1_top) + 1, block.shape[1]
        # sqrt(n1) R_{N-1}[:, n1-1] and sqrt(n2) R_{N-1}[:, n1], n2 = N - n1
        left = np.zeros((big_n, cols))
        np.multiply(block[:, :cols - 1], sq[1:cols], out=left[:, 1:])
        right = np.zeros((big_n, cols))
        np.multiply(block, sq[big_n - have + 1:big_n + 1][::-1], out=right[:, :have])
        block = np.empty((big_n + 1, cols))
        block[0] = 0.0
        np.add(left, right, out=block[1:])
        block[1:] *= sq[1:big_n + 1, None] / (SQRT2 * big_n)
        left -= right
        left *= sq[big_n:0:-1, None] / (SQRT2 * big_n)
        block[:-1] += left
        yield big_n, block
