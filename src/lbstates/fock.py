"""Truncated one- and two-mode bosonic Fock machinery.

Provides the truncation window (`FockCutoff`), the 1D oscillator
eigenfunctions (`oscillator_table`, whose row n is psi_n, by a stable
normalized recurrence) and the map of the circular modes e_{n1,n2}, the
normalized excitations of

    A1 = (a_X - i a_Y) / sqrt(2),      A2 = (a_X + i a_Y) / sqrt(2),

which diagonalize the Landau problem, to the Cartesian (j, k) grid for
the modes e_{0,N} that a built state's density reads:
`circular_antidiagonals` gives their closed binomial coefficients, good
to ~3e-16 up to N = 512.  Everything here is numpy; the truncated ladder
matrices and the modes raised with them, the oracle of that map, are in
`ladders`, which no command but `check` imports.
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


def circular_antidiagonals(n_top: int) -> np.ndarray:
    """The table B[N, j] = sqrt(C(N, j) / 2^N) for j <= N <= n_top, zero
    for j > N: row N expands e_{0,N} on its anti-diagonal j + k = N,

        e_{0,N} = (A2^+)^N |0,0> / sqrt(N!) = sum_j (-i)^(N-j) B[N, j] |j, N-j>,

    the binomial expansion of A2^+ = (a_X^+ - i a_Y^+) / sqrt(2).  Each row
    is the root of 2^-N times the cumulative product of the ratios
    (N - i) / (i + 1), one rounding of the root per entry (within 3.1e-16
    of exact `math.comb` up to N = 512), never a sum of log-factorials."""
    n = np.arange(n_top + 1)
    steps = np.empty((n_top + 1, n_top + 1))
    steps[:, 0] = 0.5 ** n
    steps[:, 1:] = np.maximum(n[:, None] - n[:-1], 0) / (n[:-1] + 1.0)
    return np.sqrt(np.cumprod(steps, axis=1))
