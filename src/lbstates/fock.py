"""Truncated one- and two-mode bosonic Fock machinery.

Provides the truncation window (`FockCutoff`), the 1D oscillator
eigenfunctions (stable normalized recurrence) and the map of the circular
modes e_{n1,n2}, the normalized excitations of

    A1 = (a_X - i a_Y) / sqrt(2),      A2 = (a_X + i a_Y) / sqrt(2),

which diagonalize the Landau problem, to the Cartesian (j, k) grid:
`circular_antidiagonals` yields it one stable block per anti-diagonal
j + k = N, good to ~1e-14 up to N = 512.  Everything here is numpy; the
truncated ladder matrices and the modes raised with them, the oracle of
that map, are in `ladders`, which no command but `check` imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
