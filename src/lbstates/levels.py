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

One coefficient table, `level_table`, evaluates these over any set of
levels as plain numpy complex expressions; the scalars `alpha` and
`normalization_K` are one-level evaluations of the same code.  States and
the stacked spinors of one level (`level_spinors`: phi_p and its dual,
or v_p at V = 0) are filled from its rows, and a built state keeps the
rows it was filled from (`LevelRows`) for its residuals; sparse columns
are built only for ladder products and projections.  The shifted
eigenvalues theta_p = E_p - E_0 (behind the theta family and the c2/d2
ladders) come from `theta_table`, and the eigenvalues E_p with each
level's PT class from `spectrum_table`; `alpha_moduli` gives |alpha+-|
over any set of levels.  The tables take p - V^2 from
`params.discriminant`, which is exact next to the exceptional points, and
avoid every cancelling difference, so each entry is within 1e-14 relative
of its 50-digit value (`tests/test_levels.py` checks this with mpmath over
whole windows and at V within 1e-4 to 1e-11 of sqrt(p)).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, CutoffError, ExceptionalPointError
from .params import PhysicalParams, discriminant


def _mixing(q, d, V: float) -> tuple:
    """(alpha^+, alpha^-) over level magnitudes q >= 1 with discriminants d
    = q - V^2: (-V -+ i sqrt(d)) / sqrt(q).  On broken levels both are
    real, and the cancelling V - sqrt(V^2 - q) is taken as
    q / (V + sqrt(V^2 - q))."""
    sq, root = np.sqrt(q), np.sqrt(np.abs(d))
    w = V + root
    broken = d < 0.0
    return (np.where(broken, -sq / w, (-V - 1j * root) / sq),
            np.where(broken, -w / sq, (-V + 1j * root) / sq))


def level_table(ps, params: PhysicalParams) -> np.ndarray:
    """Rows (upper, lower) of phi_p, then (upper, lower) of its regime
    dual, over the levels ps: a complex array of shape (4, len(ps)).

    Only the requested levels are evaluated, so an exceptional level
    raises ExceptionalPointError only when it is requested.  The dual's
    lower entry takes alpha of the other branch, or of the own one on
    broken levels.  K_psi = |r|^(1/2) and K_phi = conj(r) / K_psi for r =
    conj(K_phi) K_psi = p / (2 (d -+ i V s)), d = p - V^2, s its root and
    -+ by the dual's branch (plus/minus); without cancellation, r is
    (s +- i V) / (2 s) on unbroken levels and (V + |s|) / (2 |s|) or
    -p / (2 |s| (V + |s|)) on broken ones."""
    V = params.V
    ps = np.asarray(ps, dtype=int).reshape(-1)
    lv = ps[ps != 0]
    q = np.abs(lv)
    d = discriminant(q, V)
    if (d == 0.0).any():
        p = int(q[d == 0.0][0])
        raise ExceptionalPointError(f"level p = {p} is exceptional at V = {V}", p=p, V=V)
    root = np.sqrt(np.abs(d))
    plus, broken = lv > 0, d < 0.0
    dual_plus = plus == broken
    a_plus, a_minus = _mixing(q, d, V)
    t = np.where(broken, np.where(dual_plus, V + root, -q / (V + root)),
                 root + 1j * np.where(dual_plus, V, -V))
    r = t / (2.0 * root)
    k_psi = np.sqrt(np.abs(r))
    k_phi = np.conj(r) / k_psi
    table = np.zeros((4, ps.size), dtype=complex)
    table[0::2] = 1.0
    table[:, ps != 0] = (k_phi, k_phi * np.where(plus, a_plus, a_minus),
                         k_psi, -k_psi * np.where(dual_plus, a_plus, a_minus))
    return table


class LevelRows(NamedTuple):
    """Levels ps in increasing order with their `level_table` rows at
    params: what a built state carries and `ladders.ladder_apply` reads."""

    ps: np.ndarray
    table: np.ndarray
    params: PhysicalParams

    def at(self, levels) -> np.ndarray:
        """The table columns of the given levels, all of them carried."""
        return self.table[:, np.searchsorted(self.ps, levels)]


def level_rows(ps, params: PhysicalParams) -> LevelRows:
    """The rows of the levels ps, given in increasing order."""
    ps = np.asarray(ps, dtype=int).reshape(-1)
    return LevelRows(ps, level_table(ps, params), params)


def theta_table(ps, params: PhysicalParams) -> np.ndarray:
    """Shifted eigenvalues theta_p = E_p - E_0 over the levels ps: zero at
    p = 0, eps0 (s - iV) for p >= 1 and -eps0 (s + iV) for p <= -1, with s
    the principal root of |p| - V^2 (zero at exceptional levels).  Moduli
    are eps0 sqrt(|p|) on unbroken levels; on the broken levels of the plus
    branch the cancelling V - |s| is taken as |p| / (V + |s|)."""
    V, eps0 = params.V, params.eps0
    ps = np.asarray(ps, dtype=int).reshape(-1)
    q = np.abs(ps)
    d = discriminant(q, V)
    root = np.sqrt(np.abs(d))
    broken, plus = d < 0.0, ps > 0
    gap = np.divide(q, V + root, out=np.zeros(q.size), where=broken)
    out = np.empty(ps.size, dtype=complex)
    out.real = np.where(broken, 0.0, np.where(plus, eps0, -eps0) * root)
    # -(x), not 0.0 - x: at V = 0 the imaginary part is -0.0, so the minus
    # branch sits below sqrt's cut, on the side it takes for every V > 0
    out.imag = -(eps0 * np.where(broken, np.where(plus, gap, V + root), V))
    out[ps == 0] = 0.0
    return out


# the class of each level in `spectrum_table`, by code
LEVEL_CLASSES = np.array(["unbroken", "broken", "exceptional", "zero_mode"])


def spectrum_table(ps, params: PhysicalParams) -> tuple:
    """(E, labels) over the levels ps: the eigenvalues E_p = eps0 s for p >=
    1, -eps0 s for p <= -1 and i eps0 V at p = 0, with s the principal root
    of |p| - V^2 (imaginary when broken, zero at exceptional levels), and
    each level's class, an array of `LEVEL_CLASSES` strings: zero_mode at p =
    0, exceptional where the discriminant is exactly zero (snapped), broken
    below zero, unbroken above.  E_p is the complex product (+-eps0 + 0i) s
    written out, so its signed zeros are those of complex arithmetic: the
    real part is -0 on the broken and exceptional levels p <= -1."""
    V, eps0 = params.V, params.eps0
    ps = np.asarray(ps, dtype=int).reshape(-1)
    d = discriminant(np.abs(ps), V)
    root = np.sqrt(np.abs(d))
    broken = d < 0.0
    sign = np.where(ps > 0, eps0, -eps0)
    re, im = np.where(broken, 0.0, root), np.where(broken, root, 0.0)
    energies = np.empty(ps.size, dtype=complex)
    # an eps0 s that overflows is kept, and refused where it is written
    with np.errstate(over="ignore", invalid="ignore"):
        energies.real = sign * re - 0.0 * im
        energies.imag = sign * im + 0.0 * re
    energies[ps == 0] = complex(0.0, eps0 * V)
    code = np.where(ps == 0, 3, np.where(d == 0.0, 2, broken.astype(int)))
    return energies, LEVEL_CLASSES[code]


def alpha_moduli(ps, V: float) -> tuple:
    """(|alpha^+|, |alpha^-|) over levels ps >= 1 as arrays: one `_mixing`
    evaluation.  On broken levels they are (V -+ sqrt(V^2 - p)) / sqrt(p),
    with product 1; elsewhere both are 1."""
    ps = np.asarray(ps, dtype=int).reshape(-1)
    if (ps < 1).any():
        raise ContractError("alpha is defined for p >= 1")
    a_plus, a_minus = _mixing(ps, discriminant(ps, V), V)
    return np.abs(a_plus), np.abs(a_minus)


def alpha(p: int, V: float, branch: str) -> complex:
    """Spinor mixing coefficient of level p >= 1.

    Unimodular for p > V^2; real with |alpha^+||alpha^-| = 1 in the broken
    region; exactly -V/sqrt(p) = -1 at the exceptional point (the
    discriminant is snapped to zero within tolerance).
    """
    if p < 1:
        raise ContractError("alpha is defined for p >= 1")
    pair = _mixing(np.array([p]), discriminant(np.array([p]), V), V)
    return complex(pair[{"plus": 0, "minus": 1}[branch]][0])


def normalization_K(p: int, params: PhysicalParams, branch: str = "plus") -> tuple:
    """(K_phi, K_psi) of level p >= 1 on the branch, with the product
    constraint satisfied against the branch's biorthogonal dual (on broken
    levels, the dual constant of the mirrored level)."""
    if p < 1:
        raise ContractError("normalization_K is defined for p >= 1")
    level = {"plus": p, "minus": -p}[branch]
    k_phi, _, k_psi, _ = level_table([level, -level], params)
    mirrored = discriminant(p, params.V) < 0.0
    return complex(k_phi[0]), complex(k_psi[1] if mirrored else k_psi[0])


def _rows(ps, nmax2: int) -> tuple:
    """Stacked-register rows of e_|p| (upper component) and e_(|p|-1)
    (lower component; none for p = 0) of each level p."""
    q = np.abs(np.asarray(ps, dtype=int)).reshape(-1)
    if q.size and q.max() > nmax2:
        raise CutoffError(f"level |p|={q.max()} exceeds nmax2={nmax2}")
    return q, nmax2 + q


def two_entry_columns(ps, upper, lower, nmax2: int) -> sp.csc_matrix:
    """Sparse columns over the levels ps, upper[k] and lower[k] at the rows
    of level ps[k], for matrix products."""
    up, lo = _rows(ps, nmax2)
    keep = np.stack([np.ones(up.size, dtype=bool), up > 0], axis=1)
    rows = np.stack([up, lo], axis=1)[keep]
    data = np.stack([np.asarray(upper, dtype=complex), np.asarray(lower, dtype=complex)], axis=1)[keep]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csc_matrix((data, rows, indptr), shape=(2 * (nmax2 + 1), up.size))


def level_columns(ps, params: PhysicalParams, nmax2: int) -> tuple:
    """Sparse column matrices (X, Y) of phi_p and of its regime dual over
    the levels ps, two nonzeros per column."""
    xu, xl, yu, yl = level_table(ps, params)
    return two_entry_columns(ps, xu, xl, nmax2), two_entry_columns(ps, yu, yl, nmax2)


def series_stack(ps, upper, lower, weights, nmax2: int) -> np.ndarray:
    """The stacked spinor sum_k weights[k] (upper[k], lower[k]) at the rows
    of level ps[k].  Products are formed weight first and added onto zeros,
    bit-identical to summing the series term by term."""
    up, lo = _rows(ps, nmax2)
    out = np.zeros(2 * (nmax2 + 1), dtype=complex)
    np.add.at(out, up, weights * upper)
    np.add.at(out, lo[up > 0], (weights * lower)[up > 0])
    return out


def column_coefficients(ps, upper, lower, stack, nmax2: int) -> np.ndarray:
    """The adjoint of `series_stack`: <(upper[k], lower[k]), stack> at the
    rows of level ps[k], gathered from the two entries of each level."""
    up, lo = _rows(ps, nmax2)
    # the lower entry of level 0 is zero, so its row index lo = nmax2 adds nothing
    return np.conj(upper) * stack[up] + np.conj(lower) * stack[lo]


def level_spinors(p: int, params: PhysicalParams, nmax2: int) -> tuple:
    """Stacked spinors of phi_p and of its regime dual (one-term series)."""
    xu, xl, yu, yl = level_table([p], params)
    return series_stack([p], xu, xl, np.ones(1), nmax2), series_stack([p], yu, yl, np.ones(1), nmax2)


def window_levels(pmax: int) -> np.ndarray:
    """The level window p = -pmax..pmax."""
    return np.arange(-pmax, pmax + 1)


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
