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
levels as array expressions; the scalars `alpha` and `normalization_K`
are one-level calls of the same code.  States and single-level spinors
are filled from its rows, and a built state keeps the rows it was filled
from (`LevelRows`) for its residuals; sparse columns are built only for
ladder products and projections.  The shifted eigenvalues theta_p = E_p - E_0
(behind the theta family and the c2/d2 ladders) come from `theta_table`.
Both tables equal, bit for bit and with signed zeros, the scalar CPython
complex arithmetic they replaced, so state and density outputs keep
their bytes: complex products and quotients are spelled out on (re, im)
pairs of float arrays in CPython's order (a float operand is (x, +0.0);
a quotient is Smith's method, dividing by the denominator).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, CutoffError, ExceptionalPointError
from .params import EXCEPTIONAL_RTOL, PhysicalParams, level_discriminant, sqrt_discriminant


def _mul(a, b) -> tuple:
    """CPython's complex product on (re, im) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _quot(a, b) -> tuple:
    """CPython's complex quotient on (re, im) pairs (Smith's method)."""
    by_re = np.abs(b[0]) >= np.abs(b[1])
    small, large = np.where(by_re, b[1], b[0]), np.where(by_re, b[0], b[1])
    ratio = small / large
    denom = large + small * ratio
    re = np.where(by_re, a[0], a[1]) + np.where(by_re, a[1], a[0]) * ratio
    im = np.where(by_re, a[1], a[1] * ratio) - np.where(by_re, a[0] * ratio, a[0])
    return re / denom, im / denom


def _alpha(q, s, V: float, sign) -> tuple:
    """(-V + sign i s) / sqrt(q) for level magnitudes q (arrays or floats)
    and s = sqrt(q - V^2) as an (re, im) pair; sign = -1 on the plus
    branch."""
    t = _mul(_mul((sign, 0.0), (0.0, 1.0)), s)
    u, sq = (-V + t[0], 0.0 + t[1]), np.sqrt(q)
    # u / (sq, 0.0): Smith's ratio is 0.0 and the denominator sq
    return (u[0] + u[1] * 0.0) / sq, (u[1] - u[0] * 0.0) / sq


def level_table(ps, params: PhysicalParams) -> np.ndarray:
    """Rows (upper, lower) of phi_p, then (upper, lower) of its regime
    dual, over the levels ps: a complex array of shape (4, len(ps)).

    Only the requested levels are evaluated, so an exceptional level
    raises ExceptionalPointError only when it is requested.  K_psi > 0 and
    K_phi = conj(r) / K_psi for r = conj(K_phi) K_psi = p / (2 (p - V^2 +-
    i V sqrt(p - V^2))) of the dual's other branch (real when broken)."""
    V = params.V
    ps = np.asarray(ps, dtype=int).reshape(-1)
    lv = ps[ps != 0]
    q = np.abs(lv).astype(float)
    d = q - V * V
    d[np.abs(d) < EXCEPTIONAL_RTOL * max(1.0, V * V)] = 0.0
    root = np.sqrt(np.abs(d))
    s = np.where(d < 0.0, 0.0, root), np.where(d < 0.0, root, 0.0)
    if (d == 0.0).any():
        p = int(q[d == 0.0][0])
        raise ExceptionalPointError(f"level p = {p} is exceptional at V = {V}", p=p, V=V)
    plus, broken = lv > 0, d < 0.0
    # alpha signs of phi_p and of its dual's lower entry (the other branch,
    # or the own one on broken levels); r takes the dual's sign
    own = np.where(plus, -1.0, 1.0)
    dual = np.where(broken, own, -own)
    a_re, a_im = _alpha(q, s, V, np.stack([own, dual]))
    m = _mul(_mul(_mul((dual, 0.0), (0.0, 1.0)), (V, 0.0)), s)
    r = _quot((q, 0.0), _mul((2.0, 0.0), (d + m[0], 0.0 + m[1])))
    k_psi = np.sqrt(np.hypot(*r))
    # conj(r) / K_psi as numpy divides by a float: times the reciprocal
    inv = 1.0 / k_psi
    k_phi = (np.where(broken, np.where(plus, k_psi, -k_psi), (r[0] + -r[1] * 0.0) * inv),
             np.where(broken, 0.0, (-r[1] - r[0] * 0.0) * inv))
    x_lo = _mul(k_phi, (a_re[0], a_im[0]))
    y_lo = _mul((-k_psi, -0.0), (a_re[1], a_im[1]))
    # set from parts: re + 1j * im would flip the sign of zero imaginary parts
    vals = np.empty((4, lv.size), dtype=complex)
    vals.real = (k_phi[0], x_lo[0], k_psi, y_lo[0])
    vals.imag = (k_phi[1], x_lo[1], 0.0 * k_psi, y_lo[1])
    table = np.zeros((4, ps.size), dtype=complex)
    table[0::2] = 1.0
    table[:, ps != 0] = vals
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
    the principal root of |p| - V^2 (snapped to zero at exceptional
    levels).  Moduli are eps0 sqrt(|p|) on unbroken levels.

    Equal bit for bit, signed zeros included, to evaluating each level with
    CPython complex scalars: the products are replayed on (re, im) pairs
    with a float operand promoted to (x, +0.0), as in `level_table`.
    """
    V = params.V
    ps = np.asarray(ps, dtype=int).reshape(-1)
    d = np.abs(ps) - V * V
    d[np.abs(d) < EXCEPTIONAL_RTOL * max(1.0, V * V)] = 0.0
    root = np.sqrt(np.abs(d))
    s = np.where(d < 0.0, 0.0, root), np.where(d < 0.0, root, 0.0)
    iv = _mul((0.0, 1.0), (V, 0.0))
    plus = ps > 0
    u = (np.where(plus, s[0] - iv[0], s[0] + iv[0]), np.where(plus, s[1] - iv[1], s[1] + iv[1]))
    eps = np.where(plus, params.eps0, -params.eps0)
    re, im = _mul((eps, 0.0), u)
    out = np.empty(ps.size, dtype=complex)
    out.real = np.where(ps == 0, 0.0, re)
    out.imag = np.where(ps == 0, 0.0, im)
    return out


def alpha(p: int, V: float, branch: str) -> complex:
    """Spinor mixing coefficient of level p >= 1.

    Unimodular for p > V^2; real with |alpha^+||alpha^-| = 1 in the broken
    region; exactly -V/sqrt(p) = -1 at the exceptional point (the
    discriminant is snapped to zero within tolerance).
    """
    if p < 1:
        raise ContractError("alpha is defined for p >= 1")
    s = sqrt_discriminant(p, V)
    return complex(*_alpha(float(p), (s.real, s.imag), V, {"plus": -1.0, "minus": 1.0}[branch]))


def normalization_K(p: int, params: PhysicalParams, branch: str = "plus") -> tuple:
    """(K_phi, K_psi) of level p >= 1 on the branch, with the product
    constraint satisfied against the branch's biorthogonal dual (on broken
    levels, the dual constant of the mirrored level)."""
    if p < 1:
        raise ContractError("normalization_K is defined for p >= 1")
    level = {"plus": p, "minus": -p}[branch]
    k_phi, _, k_psi, _ = level_table([level, -level], params)
    mirrored = level_discriminant(p, params.V) < 0.0
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
