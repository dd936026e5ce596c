"""Coherent-state families at V=0.

Two families, each with a plus and a minus branch, built on the two
decompositions of the level index:

    family A, plus :  levels p = n2        (lowered by A2)
    family A, minus:  levels p = -n2-1     (lowered by A2^+)
    family B, plus :  levels p = n2+1      (lowered by B2^+)
    family B, minus:  levels p = -n2       (lowered by B2)

with the standard double series over (n1, n2), Gaussian prefactor and
sqrt(n1! n2!) denominators; the levels are read from `levels.PAIRINGS`.
Every series of the package, these and the theta family's, stops where
`series_cut` puts it: at the first term whose geometric bound on all the
later terms meets the limit.  A Gaussian label with |z|^2 above 1416.79
(a subnormal prefactor) is refused.
The resolutions of identity of these families, the quadrature oracle
`checks.resolution_sum`, are evaluated only by `check` and the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, CutoffError
from .fock import FockCutoff
from .levels import PAIRINGS, BranchSeries, series_stack
from .spinor import V0, SpinorState, pairing_residual

DEFAULT_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class CoherentSpec(BranchSeries):
    z1: complex
    z2: complex
    family: str  # "A" | "B"
    branch: str  # "plus" | "minus"
    cutoff: FockCutoff
    tail_tol: float = DEFAULT_TAIL_TOL
    # not fields: the series runs over the V = 0 basis v_p, the level table's ket rows
    params = V0
    side = "ket"

    def __post_init__(self):
        if self.family not in ("A", "B") or self.key not in PAIRINGS:
            raise ContractError(f"unknown family/branch {self.family!r}/{self.branch!r}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ContractError(f"tail tolerance must be in (0, 1), got {self.tail_tol!r}")
        require_gaussian_label("z1", self.z1)
        require_gaussian_label("z2", self.z2)

    @property
    def key(self) -> tuple:
        return (self.family, self.branch)


def series_cut(size, ratio, limit) -> tuple:
    """Where a series stops, for every series the package builds: the
    first n with

        tail[n] = size[n] ratio[n] / (1 - ratio[n]) <= limit[n],

    where size[n] bounds the modulus of term n and ratio[n] bounds every
    later term-to-predecessor ratio size[k+1] / size[k], k >= n, so tail[n]
    bounds the sum of the moduli of all the terms after n.  No cut is
    possible where ratio[n] >= 1 (tail +inf).  Returns (n, tail), with n
    None when no index qualifies.
    """
    ok = ratio < 1.0
    tail = np.where(ok, size * (ratio / np.where(ok, 1.0 - ratio, 1.0)), math.inf)
    hit = tail <= limit
    n = int(hit.argmax())
    return (n if hit[n] else None), tail


def require_finite_label(name: str, z: complex) -> float:
    """|z| by hypot (inf where abs(z) raises OverflowError); ContractError unless finite."""
    modulus = math.hypot(z.real, z.imag)
    if not math.isfinite(modulus):
        raise ContractError(f"label {name}={complex(z)} is refused: its modulus is not finite")
    return modulus


def require_gaussian_label(name: str, z: complex) -> None:
    """Refuse (ContractError) a label whose modulus is not finite or whose
    Gaussian prefactor exp(-|z|^2/2) is below the smallest normal double,
    where the terms lose their digits (all 0 past |z|^2 of about 1490)."""
    modulus = require_finite_label(name, z)
    if math.exp(-0.5 * modulus * modulus) < sys.float_info.min:
        raise ContractError(f"label {name}={complex(z):.6g} is refused: |{name}|^2 above 1416.79"
                            f" (|{name}| above 37.64) makes the series prefactor"
                            f" exp(-|{name}|^2/2) subnormal")


def gaussian_terms(z: complex, cap: int, tol: float) -> tuple:
    """(terms, tail): exp(-|z|^2/2) z^n / sqrt(n!) up to the `series_cut` of
    the tail at tol, at most cap + 1 terms; raises CutoffError (carrying
    the tail at the cap) when the cap is too small.

    The term ratios |z| / sqrt(n + 1) fall with n.  The first omitted term
    is charged to the budget as it is (limit tol - |c_n|) and the geometric
    bound covers those after it, so the tail past n - 1 is |c_n| / (1 -
    |z| / sqrt(n + 1)).  That is below 2^(1-n) from n >= 4e|z|^2 on, so the
    cut comes by max(4e|z|^2, 1 - log2(tol)) terms, and no more are formed.
    """
    reach = max(4.0 * math.e * abs(z) ** 2, 1.0 - math.log2(tol))
    terms = coherent_coefficients(z, min(cap + 2, math.ceil(reach) + 1))
    size = np.abs(terms)
    n, tail = series_cut(size, abs(z) / np.sqrt(np.arange(1, size.size + 1)), tol - size)
    if n is None:
        est = float(size[-1] + tail[-1])
        raise CutoffError(f"series for |z|={abs(z):.3g} does not reach tail {tol:.1e} within"
                          f" {cap + 1} terms (tail estimate {est:.3e})", tail_estimate=est)
    return terms[:n], float(size[n] + tail[n])


def coherent_coefficients(z: complex, n_terms: int) -> np.ndarray:
    """exp(-|z|^2/2) z^n / sqrt(n!) for n = 0..n_terms-1, as the cumulative
    product of the prefactor and the ratios z / sqrt(n)."""
    steps = np.empty(n_terms, dtype=complex)
    steps[0] = math.exp(-0.5 * abs(z) ** 2)
    steps[1:] = z / np.sqrt(np.arange(1, n_terms))
    return np.cumprod(steps)


def first_register_coherent(z1: complex, nmax1: int, tol: float) -> tuple:
    terms, tail = gaussian_terms(z1, nmax1, tol)
    fr = np.zeros(nmax1 + 1, dtype=complex)
    fr[:terms.size] = terms
    return fr, tail


def gaussian_series(spec) -> tuple:
    """(levels, carried rows, weights, tail bound) of the standard series
    sum_n exp(-|z2|^2/2) z2^n / sqrt(n!) over the spec's branch, for the
    V = 0 coherent and the standard bicoherent families (whose two sides
    share the weights)."""
    terms, tail = gaussian_terms(spec.z2, spec.level_cap, spec.tail_tol)
    return (*spec.series_rows(terms.size), terms, tail)


def series_state(fr: np.ndarray, ps, rows, side: str, weights, nmax2: int,
                 meta: dict) -> SpinorState:
    """fr (x) sum_k weights[k] chi_k, with chi_k the spinor of phi_p (side
    'ket') or of its dual ('bra') at level ps[k], read from the carried
    rows, which the state keeps."""
    cols = rows.at(ps)
    stack = series_stack(ps, *(cols[:2] if side == "ket" else cols[2:]), weights, nmax2)
    return SpinorState(fr, stack[:nmax2 + 1], stack[nmax2 + 1:], meta, rows)


def build_coherent(spec: CoherentSpec) -> SpinorState:
    """Assemble the family/branch state; meta records the tail bounds."""
    spec.require_levels()
    cut = spec.cutoff
    fr, tail1 = first_register_coherent(spec.z1, cut.nmax1, spec.tail_tol)
    ps, rows, weights, tail2 = gaussian_series(spec)
    meta = {
        "kind": "coherent",
        "family": spec.family,
        "branch": spec.branch,
        "z1": spec.z1,
        "z2": spec.z2,
        "tail_z1": tail1,
        "tail_z2": tail2,
    }
    return series_state(fr, ps, rows, spec.side, weights, cut.nmax2, meta)


def eigen_residual(spec: CoherentSpec, state: SpinorState, operator) -> float:
    """|| O Phi - z Phi || (`spinor.pairing_residual`) for A1 or the ladder
    paired with the spec's family and branch; ContractError for any other."""
    return pairing_residual(spec, state, operator)
