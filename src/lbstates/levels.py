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
levels as plain numpy complex expressions; the one-level evaluations of
the same code that only the checks read are elsewhere: `pt.alpha` and
`pt.level_spinors` (phi_p and its dual, or v_p at V = 0), and
`normalization_K` in the tests.  States are filled from its rows, and a
built state keeps the rows it was filled from (`LevelRows`) for its
residuals.  The shifted eigenvalues theta_p = E_p - E_0 (behind the
theta family and the c2/d2 ladders) come from `theta_table`, and the
eigenvalues E_p with each level's PT class from `spectrum_table`;
`alpha_moduli` gives |alpha+-| over any set of levels.  The tables take
p - V^2 from `params.discriminant`, which is exact next to the exceptional
points, and avoid every cancelling difference, so each entry is within
1e-14 relative of its 50-digit value (`tests/test_levels.py` checks this
with mpmath over whole windows and at V within 1e-4 to 1e-11 of
sqrt(p)).

Each ladder moves level p to p + shift with an amplitude and acts on the
spinor register as X P Y^H over two-entry level spinors.  At V = 0,

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

`LADDERS` names each ladder once.  `PAIRINGS` holds one row per family
and branch: the levels its series is built on and the one ladder with an
eigenvalue equation on it; the specs of both state modules read it
through `BranchSeries`.  `ladder_apply` applies a ladder to a
stacked spinor without a matrix.  Nothing here builds a matrix: the
sparse realizations, which only `check` and the tests use, are in
`ladders`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, CutoffError, ExceptionalPointError, ShapeError
from .fock import FockCutoff
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
    params: what a built state carries and `ladder_apply` reads."""

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


def _rows(ps, nmax2: int) -> tuple:
    """Stacked-register rows of e_|p| (upper component) and e_(|p|-1)
    (lower component; none for p = 0) of each level p."""
    q = np.abs(np.asarray(ps, dtype=int)).reshape(-1)
    if q.size and q.max() > nmax2:
        raise CutoffError(f"level |p|={q.max()} exceeds nmax2={nmax2}")
    return q, nmax2 + q


def two_entry_columns(ps, upper, lower, nmax2: int) -> np.ndarray:
    """Columns over the levels ps, upper[k] and lower[k] at the rows of
    level ps[k], as a dense array of shape (2 (nmax2 + 1), len(ps))."""
    up, lo = _rows(ps, nmax2)
    cols = np.arange(up.size)
    out = np.zeros((2 * (nmax2 + 1), up.size), dtype=complex)
    # added onto zeros, as `series_stack` does, so a -0.0 entry reads +0.0
    out[up, cols] += upper
    # level 0 has no lower entry
    out[lo[up > 0], cols[up > 0]] += np.asarray(lower)[up > 0]
    return out


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


def window_levels(pmax: int) -> np.ndarray:
    """The level window p = -pmax..pmax."""
    return np.arange(-pmax, pmax + 1)


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

class Pairing(NamedTuple):
    """One family and branch: series term n (an int or an integer array) on
    level first + step n, step +1 on plus and -1 on minus, and the ladder
    (or its adjoint) whose eigenvector the state is, reported as `op`."""

    first: int
    step: int
    op: str
    ladder: str
    adjoint: bool

    def sigma(self, n):
        return self.first + self.step * n

    def cap(self, pmax: int) -> int:
        """Largest series index whose level lies inside |p| <= pmax."""
        return pmax - abs(self.first)

    def support(self, ps) -> np.ndarray:
        """Mask of the levels ps that lie on the branch."""
        return self.step * (np.asarray(ps) - self.first) >= 0


# (CLI family, branch) -> its row, the one table of legal operator/state pairings.
# With no ground state to start from, each family builds on one half of a
# split: A and the V != 0 families on p >= 0 / p <= -1, B on p >= 1 / p <= 0.
PAIRINGS = {
    ("A", "plus"): Pairing(0, 1, "A2", "A2", False),
    ("A", "minus"): Pairing(-1, -1, "A2dag", "A2dag", False),
    ("B", "plus"): Pairing(1, 1, "B2dag", "B2dag", False),
    ("B", "minus"): Pairing(0, -1, "B2", "B2", False),
    ("phi", "plus"): Pairing(0, 1, "A_K_V", "A_K_V", False),
    ("phi", "minus"): Pairing(-1, -1, "B_K_V", "B_K_V", False),
    ("psi", "minus"): Pairing(-1, -1, "A_K_V_dag", "A_K_V", True),
    ("psi", "plus"): Pairing(0, 1, "B_K_V_dag", "B_K_V", True),
    ("eta", "plus"): Pairing(0, 1, "C2", "c2", False),
    ("eta", "minus"): Pairing(-1, -1, "D2", "d2", False),
    ("xi", "minus"): Pairing(-1, -1, "C2dag", "c2", True),
    ("xi", "plus"): Pairing(0, 1, "D2dag", "d2", True),
}


class BranchSeries:
    """The series layout of a state spec from its `PAIRINGS` row `key`; a
    spec also provides `cutoff` and `params`."""

    @property
    def level_cap(self) -> int:
        """Largest usable series index, its level inside the p window."""
        return PAIRINGS[self.key].cap(self.cutoff.pmax)

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
        ps = PAIRINGS[self.key].sigma(np.arange(n_terms))
        if self.params.exceptional_level() is None:
            return ps, level_rows(near_levels(np.abs(ps), self.cutoff.pmax), self.params)
        return ps, level_rows(np.sort(ps), self.params)


def _ladder(key: str, params: PhysicalParams) -> tuple:
    """(key, amplitude function, shift) of a ladder, refusing unknown keys
    and, off V = 0, exceptional V."""
    if key not in LADDERS:
        raise ContractError(f"unknown ladder {key!r}")
    if key not in V0_LADDERS:
        params.require_non_exceptional(f"ladder {key}")
    return (key, *LADDERS[key])


def _bases(key: str, table: np.ndarray) -> tuple:
    """Rows (upper, lower) of X and Y in a level table: the V = 0 basis v_p
    twice (a table at V = 0), or phi_p and its regime dual."""
    return table[:2], table[:2] if key in V0_LADDERS else table[2:]


def near_levels(q, pmax: int) -> np.ndarray:
    """The levels of magnitude q or q +- 1 inside |p| <= pmax, in
    increasing order (p and -p share their rows): the levels a ladder
    gathers from or scatters to when the rows of magnitude q carry weight."""
    near = np.unique(np.concatenate([q - 1, q, q + 1]))
    near = near[(near >= 0) & (near <= pmax)]
    return np.concatenate([-near[::-1], near[near > 0]])


def ladder_apply(key: str, rows: LevelRows, stack: np.ndarray, cutoff: FockCutoff,
                 adjoint: bool = False) -> np.ndarray:
    """The ladder X P Y^H (or its adjoint Y P^H X^H; `ladders.ladder_matrix`
    realizes it) applied to a stacked spinor as X(P(Y^H stack)), without
    building a matrix: gather one coefficient per level from its two rows,
    move it one level with its amplitude and scatter it back as
    `series_stack` does.  Only the levels of `rows` are evaluated (a built
    state's carried rows, or for a bare stack those of its weighted rows
    and their `near_levels`);
    they must hold every level whose rows carry weight and its neighbours,
    and the others add exact zeros, so the result does not depend on the
    window.  The rows are at the ladder's parameters; the V = 0 ladders
    need rows at V = 0."""
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
