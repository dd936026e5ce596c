"""Bicoherent families for V != 0.

Two families per branch and side:

  * the standard family (phi/psi over the biorthogonal vectors, with the
    usual Gaussian prefactor and sqrt(n!) denominators), and
  * the theta family (eta/xi), whose denominators are cumulative products
    of principal square roots of the shifted eigenvalues, so that the
    ladders which factorize the shifted Hamiltonian act on them by simple
    eigenvalue equations.

The plus branch runs over levels p = n >= 0, the minus branch over
p = -n-1 (`levels.PAIRINGS`); the minus branch's denominator sequence is
built from the negative-level shifts (their moduli differ from the
positive ones once V > 1, which is why the two branches carry separate
normalizations).

Bi-normalization: with the ladder-determined coefficients, the dual
pairing telescopes to sum |z|^(2n) / conj(Theta_n!) over the *complex*
cumulative products, whose phases do not cancel.  The pairing therefore
fixes only the product of the two normalization constants; we keep the
ket constant real positive and let the bra constant carry the phase, so
<ket, bra> = 1 holds exactly.  The classical real normalization over the
modulus factorials, normalization_N, is recorded apart in the state's
meta; `checks.normalization_N` evaluates it alone, for `check` and the
tests.

The shifted eigenvalues come from `levels.theta_table`.  The theta series
and normalization_N are cumulative products cut by `coherent.series_cut`,
with every later term ratio bounded through the smallest later |theta_k|;
`tail_z2` and the normalization's tail are the bounds at the cuts, and
both come from one evaluation over the levels up to the cuts, not over
the window.  Both sides of a pair sit on the same levels with the same
first register, so one build assembles the state and its dual from one
level table.  The eigen residuals read the ladder paired with each
family, side and branch from the one pairing table `levels.PAIRINGS`
(phi/psi: the standard ket/bra, eta/xi: the theta ket/bra) and apply it
through `levels.ladder_apply` on the level rows the state carries,
without realizing a matrix, as the V = 0 coherent residuals do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, CutoffError
from .fock import FockCutoff
from .levels import PAIRINGS, BranchSeries, theta_table
from .params import PhysicalParams
from .spinor import SpinorState, pairing_residual
from .coherent import (
    DEFAULT_TAIL_TOL,
    first_register_coherent,
    gaussian_series,
    require_finite_label,
    require_gaussian_label,
    series_cut,
    series_state,
)


NORM_TAIL_TOL = 1e-14  # the tail tolerance of every normalization_N series


class NormalizationN(NamedTuple):
    value: float
    tail: float
    n_terms: int


def _branch_thetas(params: PhysicalParams, branch: str, m: int) -> tuple:
    """theta_0 .. theta_m along the branch and lows[n] = min_{k>n} |theta_k|
    for n = 0..m, from one `theta_table` call.  |theta_k| rises with k
    except through the broken levels k <= [V^2] of the minus branch, so
    lows[n] is |theta_(n+1)|, or the smaller of the two levels around V^2
    while n < [V^2] on the minus branch."""
    v2 = math.floor(params.V ** 2)
    step = PAIRINGS[("eta", branch)].step
    seq = theta_table(step * np.concatenate([np.arange(m + 2), [v2, v2 + 1]]), params)
    mods = np.abs(seq)
    lows = mods[1:m + 2].copy()
    if step < 0:
        lows[:v2] = mods[-2:].min()
    return seq[:m + 1], lows


@np.errstate(over="ignore")  # overflowing terms: no cut, as for rho^2 = inf
def _normalization(rho: float, seq: np.ndarray, lows: np.ndarray, pmax: int):
    """normalization_N at |z2| = rho from `_branch_thetas` over levels up to
    K = lows.size - 1 <= pmax: the sum of term_n = rho^(2n) / |theta_n|!
    up to its `series_cut` at NORM_TAIL_TOL, the term ratios being at most
    rho^2 / lows[n].  None when K < pmax and no n <= K is a cut; a
    CutoffError when K = pmax and none is."""
    r2 = float(np.float64(rho) ** 2)  # C pow, as rho ** 2, but inf where that raises
    terms = np.cumprod(np.concatenate([[1.0], r2 / np.abs(seq[1:])]))
    n, tail = series_cut(terms, r2 / lows, NORM_TAIL_TOL)
    if n is not None:
        return NormalizationN(float(np.cumsum(terms[:n + 1])[-1]) ** -0.5, float(tail[n]), n + 1)
    if lows.size <= pmax:
        return None
    raise CutoffError(f"normalization series for |z2|={rho:.3g} does not reach tail"
                      f" {NORM_TAIL_TOL:.1e} within pmax={pmax} (tail estimate {tail[-1]:.3e})",
                      tail_estimate=float(tail[-1]))


# CLI family -> (family, side)
FAMILIES = {"phi": ("standard", "ket"), "psi": ("standard", "bra"),
            "eta": ("theta", "ket"), "xi": ("theta", "bra")}
_LABELS = {pair: label for label, pair in FAMILIES.items()}


@dataclass(frozen=True)
class BicoherentSpec(BranchSeries):
    z1: complex
    z2: complex
    family: str  # "standard" | "theta"
    side: str    # "ket" | "bra"
    branch: str  # "plus" | "minus"
    params: PhysicalParams
    cutoff: FockCutoff
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.key not in PAIRINGS:
            raise ContractError(f"unknown family/side/branch"
                                f" {self.family!r}/{self.side!r}/{self.branch!r}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ContractError(f"tail tolerance must be in (0, 1), got {self.tail_tol!r}")
        require_gaussian_label("z1", self.z1)
        if self.family == "theta":
            self.params.require_non_exceptional("theta-family bicoherent state")
            require_finite_label("z2", self.z2)
        else:
            require_gaussian_label("z2", self.z2)

    @property
    def key(self) -> tuple:
        return (_LABELS.get((self.family, self.side)), self.branch)

    def dual(self) -> "BicoherentSpec":
        other = "bra" if self.side == "ket" else "ket"
        return BicoherentSpec(self.z1, self.z2, self.family, other, self.branch,
                              self.params, self.cutoff, self.tail_tol)


class ThetaSeries(NamedTuple):
    ket: np.ndarray
    bra: np.ndarray
    pairing_sum: complex
    tail: float
    normalization: NormalizationN


@np.errstate(over="ignore", invalid="ignore")  # overflowing terms: still growing
def _theta_series(spec: BicoherentSpec) -> ThetaSeries:
    """Ladder-determined series coefficients z^n / F_n (ket) and
    z^n / conj(F_n) (bra), F_n = sqrt(theta_1) ... sqrt(theta_n), as
    cumulative products cut at their tail bound, with normalization_N from
    the same theta values; raises CutoffError when the window is too small.

    The terms are kept up to their `series_cut` at tail_tol max(1, max |c|),
    with the ratios bounded by |z| / sqrt(min_{k>n} |theta_k|) from
    `_branch_thetas`; a series with no cut inside the window is refused,
    and so is one whose terms overflow (inf, then inf or nan to its end):
    its bound on later ratios stays above 1 up to the overflow.
    One `theta_table` call covers a first guess of levels (the broken ones,
    those up to where |z| / sqrt|theta_k| falls to 1/sqrt(2), and 64 more),
    doubled until both cuts lie inside it.  T comes from the arrays the
    states are built from, so the bi-normalization is exact in floating
    point even when T cancels heavily (broken-region terms rotate by pi/2
    per step).
    """
    cap, pmax = spec.require_levels(), spec.cutoff.pmax
    params, z = spec.params, complex(spec.z2)
    rho = abs(z)
    # the guess in floats (inf once rho^4 overflows), capped before ceil
    spread = rho * rho / params.eps0
    m = min(pmax, math.floor(params.V ** 2) + 64 + math.ceil(min(4.0 * spread * spread, pmax)))
    while True:
        seq, lows = _branch_thetas(params, spec.branch, m)
        steps = np.sqrt(seq[1:min(m, cap) + 1])
        ket = np.cumprod(np.concatenate([[1.0 + 0.0j], z / steps]))
        size = np.abs(ket)
        n, tails = series_cut(size, rho / np.sqrt(lows[:size.size]),
                              spec.tail_tol * np.maximum.accumulate(np.maximum(size, 1.0)))
        overflow = not math.isfinite(size[-1])
        norm = None if n is None or overflow else _normalization(rho, seq, lows, pmax)
        if norm is not None:
            break
        if m == pmax:  # no cut inside the window (the normalization has raised if it had none)
            raise CutoffError(
                f"theta series for |z2|={rho:.3g} is still growing at the window edge pmax={pmax}"
                if overflow or math.isinf(tails[cap]) else
                f"theta series tail {tails[cap]:.3e} above tolerance at pmax={pmax}",
                tail_estimate=float(tails[cap]))
        m = min(pmax, 2 * m)
    ket, tail = ket[:n + 1], float(tails[n])
    bra = np.cumprod(np.concatenate([[1.0 + 0.0j], z / np.conj(steps[:ket.size - 1])]))
    return ThetaSeries(ket, bra, complex(np.conj(np.vdot(ket, bra))), tail, norm)


def _norm_constants(t_complex: complex) -> tuple:
    """Ket and bra normalization constants: |T|^(-1/2) on the ket, the same
    modulus with the phase of T on the bra, so the pairing is exactly 1."""
    mod = abs(t_complex)
    ket = mod ** -0.5
    bra = ket * (t_complex / mod) if mod > 0 else ket
    return ket, bra


def build_bicoherent(spec: BicoherentSpec) -> SpinorState:
    """Assemble the state and, as its `dual`, the state of the other side:
    one first register, one series of weights per side and one level
    table serve both, and the dual equals `build_bicoherent(spec.dual())`.
    meta records tails, the classical normalization value and the
    effective (phase-corrected) constant actually used."""
    spec.require_levels()
    cut = spec.cutoff
    params = spec.params
    fr, tail1 = first_register_coherent(spec.z1, cut.nmax1, spec.tail_tol)
    meta = {
        "kind": "bicoherent",
        "family": spec.family,
        "side": spec.side,
        "branch": spec.branch,
        "z1": spec.z1,
        "z2": spec.z2,
        "V": params.V,
        "tail_z1": tail1,
    }

    if spec.family == "standard":
        ps, rows, weights, tail2 = gaussian_series(spec)
        meta["tail_z2"] = tail2
        sides = {side: (weights, dict(meta, side=side)) for side in ("ket", "bra")}
    else:
        series = _theta_series(spec)
        ps, rows = spec.series_rows(series.ket.size)
        t_complex = series.pairing_sum
        sides = {}
        for side, coefs, const in zip(("ket", "bra"), (series.ket, series.bra),
                                      _norm_constants(t_complex)):
            sides[side] = const * coefs, dict(
                meta, side=side, tail_z2=series.tail, normalization_N=series.normalization.value,
                effective_N=abs(const), normalization_phase=complex(const / abs(const)),
                pairing_sum=t_complex)
    weights, side_meta = sides[spec.side]
    state = series_state(fr, ps, rows, spec.side, weights, cut.nmax2, side_meta)
    other = "bra" if spec.side == "ket" else "ket"
    weights, side_meta = sides[other]
    state.dual = series_state(fr.copy(), ps, rows, other, weights, cut.nmax2, side_meta)
    return state


def bicoherent_eigen_residual(spec: BicoherentSpec, state: SpinorState, operator: str) -> float:
    """|| O state - z state || for the state built from spec; the
    first-register lowering operator pairs with every state at eigenvalue
    z1, the spinor-register ladders only with their own family/side/branch
    (eigenvalue z2; `spinor.pairing_residual`)."""
    return pairing_residual(spec, state, operator)
