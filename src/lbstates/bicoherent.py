"""Bicoherent families for V != 0.

Two families per branch and side:

  * the standard family (phi/psi over the biorthogonal vectors, with the
    usual Gaussian prefactor and sqrt(n!) denominators), and
  * the theta family (eta/xi), whose denominators are cumulative products
    of principal square roots of the shifted eigenvalues, so that the
    ladders which factorize the shifted Hamiltonian act on them by simple
    eigenvalue equations.

The plus branch runs over levels p = n >= 0, the minus branch over
p = -n-1 (`levels.BRANCHES`); the minus branch's denominator sequence is
built from the negative-level shifts (their moduli differ from the
positive ones once V > 1, which is why the two branches carry separate
normalizations).

Bi-normalization: with the ladder-determined coefficients, the dual
pairing telescopes to sum |z|^(2n) / conj(Theta_n!) over the *complex*
cumulative products, whose phases do not cancel.  The pairing therefore
fixes only the product of the two normalization constants; we keep the
ket constant real positive and let the bra constant carry the phase, so
<ket, bra> = 1 holds exactly.  The classical real normalization over the
modulus factorials is exposed separately as normalization_N.

The shifted eigenvalues come from `levels.theta_table`.  The theta series
is a cumulative product that stops at the first term whose geometric tail
bound is below the tolerance, and its `tail_z2` is that bound at the cut;
its terms and normalization_N come from one evaluation over the levels up
to the cut, not over the window.  Both sides of a
pair sit on the same levels with the same first register, so one build
assembles the state and its dual from one level table.  The eigen
residuals read the ladder paired with each family, side and branch from
the one pairing table `levels.PAIRINGS` (phi/psi: the standard ket/bra,
eta/xi: the theta ket/bra) and apply it through `levels.ladder_apply` on
the level rows the state carries, without realizing a matrix, as the
V = 0 coherent residuals do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, CutoffError
from .fock import FockCutoff
from .levels import BRANCHES, BranchSeries, level_table, theta_table
from .params import PhysicalParams
from .spinor import SpinorState, pairing_residual
from .coherent import (
    DEFAULT_TAIL_TOL,
    first_register_coherent,
    gaussian_series,
    resolution_sum,
    series_state,
)


def theta_sequence(count: int, params: PhysicalParams, branch: str = "plus") -> np.ndarray:
    """theta values along the branch: theta_{+k} (plus) or theta_{-k}
    (minus) for k = 0..count."""
    return theta_table(BRANCHES[("eta", branch)].step * np.arange(count + 1), params)


class NormalizationN(NamedTuple):
    value: float
    tail: float
    n_terms: int


def _normalization(rho: float, mods: np.ndarray, pmax: int, tail_tol: float):
    """normalization_N at |z2| = rho from the moduli |theta_0| .. |theta_K|
    along the branch (K <= pmax): the sum of term_n = rho^(2n) / |theta_n|!
    stops at the first n < pmax whose geometric tail term_n q / (1 - q),
    q = rho^2 / |theta_(n+1)| < 1, is below tail_tol.  None when K < pmax
    and the prefix holds no such n."""
    r2 = rho ** 2
    terms = np.cumprod(np.concatenate([[1.0], r2 / mods[1:]]))  # term_n, n = 0..K
    totals = np.cumsum(terms)
    q = r2 / mods[2:]
    tails = np.divide(terms[1:-1] * q, 1.0 - q, out=np.full(q.size, math.inf), where=q < 1.0)
    hit = np.flatnonzero(tails < tail_tol)
    if hit.size:
        n = int(hit[0]) + 1
        return NormalizationN(float(totals[n]) ** -0.5, float(tails[n - 1]), n + 1)
    if mods.size <= pmax:
        return None
    if r2 == 0.0:
        return NormalizationN(1.0, 0.0, 1)
    q = r2 / mods[-1] if mods[-1] > r2 else 1.0
    tail = float(terms[-1] * q / (1.0 - q)) if q < 1.0 else math.inf
    if tail < tail_tol:
        return NormalizationN(float(totals[-1]) ** -0.5, tail, pmax + 1)
    raise CutoffError(
        f"normalization series for |z2|={rho:.3g} does not reach tail {tail_tol:.1e}"
        f" within pmax={pmax} (tail estimate {tail:.3e})",
        tail_estimate=tail,
    )


def normalization_N(z2: complex, params: PhysicalParams, cutoff: FockCutoff,
                    branch: str = "plus", tail_tol: float = 1e-14) -> NormalizationN:
    """(sum_n |z2|^(2n) / |theta_n|!)^(-1/2), in (0, 1], with the computed
    tail estimate.  Depends on z2 only through |z2|."""
    mods = np.abs(theta_sequence(cutoff.pmax, params, branch))
    return _normalization(abs(z2), mods, cutoff.pmax, tail_tol)


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
        if self.family not in ("standard", "theta"):
            raise ContractError(f"unknown family {self.family!r}")
        if self.side not in ("ket", "bra"):
            raise ContractError(f"unknown side {self.side!r}")
        if self.branch not in ("plus", "minus"):
            raise ContractError(f"unknown branch {self.branch!r}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ContractError(f"tail tolerance must be in (0, 1), got {self.tail_tol!r}")
        if self.family == "theta":
            self.params.require_non_exceptional("theta-family bicoherent state")

    @property
    def key(self) -> tuple:
        return (_LABELS[(self.family, self.side)], self.branch)

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


def _theta_series(spec: BicoherentSpec) -> ThetaSeries:
    """Ladder-determined series coefficients z^n / F_n (ket) and
    z^n / conj(F_n) (bra), F_n = sqrt(theta_1) ... sqrt(theta_n), as
    cumulative products cut at their tail bound, with normalization_N from
    the same theta values; raises CutoffError when the window is too small.

    The terms are kept up to the first n with |c_n| r / (1 - r) <=
    tail_tol max(1, max |c|), r = |z| / sqrt(min_{k>n} |theta_k|).  As
    |theta_k| rises with k except through the broken levels k <= [V^2] of
    the minus branch, the minimum is |theta_(n+1)|, or the smaller of the
    two levels around V^2 while n < [V^2] on the minus branch.  A series
    with no cut inside the window is judged at its edge.  One `theta_table`
    call covers a first guess of levels (the broken ones, those up to where
    |z| / sqrt|theta_k| falls to 1/sqrt(2), and 64 more), doubled until
    both cuts lie inside it.  T comes from the arrays the states are built
    from, so the bi-normalization is exact in floating point even when T
    cancels heavily (broken-region terms rotate by pi/2 per step).
    """
    cap, pmax = spec.require_levels(), spec.cutoff.pmax
    params, z = spec.params, complex(spec.z2)
    rho, v2 = abs(z), math.floor(params.V ** 2)
    step = BRANCHES[("eta", spec.branch)].step
    m = min(cap, v2 + 64 + math.ceil(4.0 * (rho * rho / params.eps0) ** 2))
    while True:
        # levels 0..m+1 along the branch, then the two around V^2
        seq = theta_table(step * np.concatenate([np.arange(m + 2), [v2, v2 + 1]]), params)
        mods = np.abs(seq)
        lows = mods[1:m + 2].copy()  # min_{k>n} |theta_k| for n = 0..m
        if step < 0:
            lows[:v2] = mods[-2:].min()
        ratio = rho / np.sqrt(lows)
        bound = np.divide(ratio, 1.0 - ratio, out=np.full(m + 1, math.inf), where=ratio < 1.0)
        steps = np.sqrt(seq[1:m + 1])
        ket = np.cumprod(np.concatenate([[1.0 + 0.0j], z / steps]))
        size = np.abs(ket)
        tails = size * bound
        hit = np.flatnonzero(tails <= spec.tail_tol * np.maximum.accumulate(np.maximum(size, 1.0)))
        norm = _normalization(rho, mods[:min(m + 1, pmax) + 1], pmax, 1e-14) if hit.size else None
        if norm is not None or m == cap:
            break
        m = min(cap, 2 * m)
    if hit.size:
        n = int(hit[0])
        ket, tail = ket[:n + 1], float(tails[n])
    else:
        # no cut inside the window: the whole window is kept, with the
        # geometric bound from the first out-of-window term
        edge = rho / math.sqrt(mods[cap + 1])
        if edge >= 1.0:
            raise CutoffError(
                f"theta series for |z2|={rho:.3g} is still growing at the window edge"
                f" pmax={pmax}",
                tail_estimate=math.inf,
            )
        tail = float(size[cap] * edge / (1.0 - edge))
        if tail > spec.tail_tol * max(1.0, size.max()):
            raise CutoffError(
                f"theta series tail {tail:.3e} above tolerance at pmax={pmax}",
                tail_estimate=tail,
            )
        norm = _normalization(rho, mods[:pmax + 1], pmax, 1e-14)
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


def bi_product(ket_spec: BicoherentSpec, bra_spec: BicoherentSpec | None = None) -> complex:
    """<ket, bra> for the matching dual pair (defaults to the spec's dual,
    built with it)."""
    ket = build_bicoherent(ket_spec)
    return ket.inner(ket.dual if bra_spec is None else build_bicoherent(bra_spec))


def bicoherent_eigen_residual(spec: BicoherentSpec, state: SpinorState, operator: str) -> float:
    """|| O state - z state || for the state built from spec; the
    first-register lowering operator pairs with every state at eigenvalue
    z1, the spinor-register ladders only with their own family/side/branch
    (eigenvalue z2; `spinor.pairing_residual`)."""
    return pairing_residual(spec, state, operator)


def quasi_basis_check(f: SpinorState, g: SpinorState, params: PhysicalParams,
                      cutoff: FockCutoff, branch: str = "plus",
                      order: str = "phi_psi") -> complex:
    """Evaluate the standard-family double integral (Lebesgue measure over
    both z planes) between f and g, with analytic angular reduction and
    Gauss-Laguerre radial integrals.

    order='phi_psi' evaluates int <f, phi><psi, g>; 'psi_phi' swaps the
    roles.  Either reproduces <f, g> on the branch span.
    """
    if order not in ("phi_psi", "psi_phi"):
        raise ContractError(f"unknown order {order!r}: expected 'phi_psi' or 'psi_phi'")
    row = BRANCHES[("phi", branch)]
    ps = row.sigma(np.arange(row.cap(cutoff.pmax) + 1))
    table = level_table(ps, params)
    x, y = table[:2], table[2:]
    terms = [(ps, x, y) if order == "phi_psi" else (ps, y, x)]
    return resolution_sum(f, g, cutoff, terms)
