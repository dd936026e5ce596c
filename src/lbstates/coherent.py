"""Coherent-state families at V=0.

Two families, each with a plus and a minus branch, built on the two
decompositions of the level index:

    family A, plus :  levels p = n2        (lowered by A2)
    family A, minus:  levels p = -n2-1     (lowered by A2^+)
    family B, plus :  levels p = n2+1      (lowered by B2^+)
    family B, minus:  levels p = -n2       (lowered by B2)

with the standard double series over (n1, n2), Gaussian prefactor and
sqrt(n1! n2!) denominators.  Quadrature resolutions of identity are
evaluated with the angular integrals done analytically (they enforce
index matching) and the radial integrals by Gauss-Laguerre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import ContractError, CutoffError
from .fock import FockCutoff
from .ladders import LadderKind, spinor_ladder_matrix
from .levels import level_table, series_stack
from .spinor import (
    V0,
    SpinorState,
    first_register_lowering,
    ladder_residual,
    level_coefficients,
)

DEFAULT_TAIL_TOL = 1e-12

# Level support of each family/branch.
_BRANCH_PRED = {
    ("A", "plus"): lambda p: p >= 0,
    ("A", "minus"): lambda p: p <= -1,
    ("B", "plus"): lambda p: p >= 1,
    ("B", "minus"): lambda p: p <= 0,
}


@dataclass(frozen=True)
class CoherentSpec:
    z1: complex
    z2: complex
    family: str  # "A" | "B"
    branch: str  # "plus" | "minus"
    cutoff: FockCutoff
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ContractError(f"unknown family {self.family!r}")
        if self.branch not in ("plus", "minus"):
            raise ContractError(f"unknown branch {self.branch!r}")

    def sigma(self, n2: int) -> int:
        """Level index carried by the n2-th series term."""
        if self.family == "A":
            return n2 if self.branch == "plus" else -n2 - 1
        return n2 + 1 if self.branch == "plus" else -n2

    @property
    def level_cap(self) -> int:
        """Largest usable series index so sigma stays inside the p window."""
        pm = self.cutoff.pmax
        return pm if (self.family, self.branch) in (("A", "plus"), ("B", "minus")) else pm - 1


def gaussian_series_tail(z: complex, n_terms: int) -> float:
    """Bound on the coefficient tail of exp(-|z|^2/2) sum z^n/sqrt(n!) past
    the first n_terms terms (last kept index N = n_terms - 1):

        exp(-|z|^2/2) |z|^(N+1) / sqrt((N+1)!) * (1 - |z|/sqrt(N+2))^(-1),

    valid once |z| < sqrt(N+2); +inf is returned before that.
    """
    r = abs(z)
    if r == 0.0:
        return 0.0
    big_n = n_terms - 1
    if r >= math.sqrt(big_n + 2):
        return math.inf
    log_head = -0.5 * r * r + (big_n + 1) * math.log(r) - 0.5 * gammaln(big_n + 2)
    return math.exp(log_head) / (1.0 - r / math.sqrt(big_n + 2))


def coherent_series_length(z: complex, cap: int, tol: float) -> tuple:
    """Smallest number of terms whose tail bound is below tol; raises
    CutoffError (carrying the bound at the cap) when the cap is too small."""
    for n_terms in range(1, cap + 2):
        est = gaussian_series_tail(z, n_terms)
        if est < tol:
            return n_terms, est
    est = gaussian_series_tail(z, cap + 1)
    raise CutoffError(
        f"series for |z|={abs(z):.3g} does not reach tail {tol:.1e} within {cap + 1} terms"
        f" (tail estimate {est:.3e})",
        tail_estimate=est,
    )


def coherent_coefficients(z: complex, n_terms: int) -> np.ndarray:
    """exp(-|z|^2/2) z^n / sqrt(n!) for n = 0..n_terms-1, by stable
    cumulative multiplication."""
    out = np.zeros(n_terms, dtype=complex)
    out[0] = math.exp(-0.5 * abs(z) ** 2)
    for n in range(1, n_terms):
        out[n] = out[n - 1] * z / math.sqrt(n)
    return out


def first_register_coherent(z1: complex, nmax1: int, tol: float) -> tuple:
    n_terms, est = coherent_series_length(z1, nmax1, tol)
    fr = np.zeros(nmax1 + 1, dtype=complex)
    fr[:n_terms] = coherent_coefficients(z1, n_terms)
    return fr, est


def build_coherent(spec: CoherentSpec) -> SpinorState:
    """Assemble the family/branch state; meta records the tail bounds."""
    cut = spec.cutoff
    fr, tail1 = first_register_coherent(spec.z1, cut.nmax1, spec.tail_tol)
    n_terms2, tail2 = coherent_series_length(spec.z2, spec.level_cap, spec.tail_tol)
    vm, _ = level_table([spec.sigma(n2) for n2 in range(n_terms2)], V0, cut.nmax2)
    stack = series_stack(vm, coherent_coefficients(spec.z2, n_terms2))
    meta = {
        "kind": "coherent",
        "family": spec.family,
        "branch": spec.branch,
        "z1": spec.z1,
        "z2": spec.z2,
        "tail_z1": tail1,
        "tail_z2": tail2,
    }
    return SpinorState(fr, stack[:cut.nmax2 + 1], stack[cut.nmax2 + 1:], meta)


# Ladder pairings for which the eigenvalue equation holds, per branch.
_LEGAL_OPS = {
    ("A", "plus"): LadderKind.A2,
    ("A", "minus"): LadderKind.A2DAG,
    ("B", "plus"): LadderKind.B2DAG,
    ("B", "minus"): LadderKind.B2,
}


def eigen_residual(spec: CoherentSpec, state: SpinorState, operator, strict: bool = True) -> float:
    """|| O Phi - z Phi || for the state built from spec, with z = z1 for
    A1 and z2 otherwise.

    With strict=True (the contract), an operator/branch pairing without an
    eigenvalue equation raises ContractError; strict=False computes the
    residual anyway, which is how the branch asymmetry is documented.
    """
    operator = LadderKind(operator)
    if operator is LadderKind.A1:
        return ladder_residual(state, first_register_lowering(spec.cutoff.nmax1), spec.z1)
    if strict and _LEGAL_OPS[(spec.family, spec.branch)] is not operator:
        raise ContractError(
            f"{operator.value} has no eigenvalue equation on family {spec.family}/{spec.branch}"
        )
    return ladder_residual(state, spinor_ladder_matrix(operator, spec.cutoff), spec.z2)


@lru_cache(maxsize=16)
def radial_factorial_ratio(nmax: int, order: int = 128) -> np.ndarray:
    """Gauss-Laguerre values of the radial integrals, divided by n!.

    R_n = (2 int_0^inf r^{2n+1} e^{-r^2} dr) / n!  ->  1 exactly; computing
    it by quadrature keeps the resolution-of-identity checks honest.
    Order 128 integrates the monomials exactly up to n = 255.
    """
    order = max(order, (nmax + 2) // 2 + 1)
    nodes, weights = np.polynomial.laguerre.laggauss(order)
    n = np.arange(nmax + 1)
    log_terms = (
        np.log(weights)[None, :]
        + n[:, None] * np.log(nodes)[None, :]
        - gammaln(n + 1)[:, None]
    )
    return np.exp(log_terms).sum(axis=1)


def _fr_pairing(f: SpinorState, g: SpinorState, radial: np.ndarray) -> complex:
    m = min(f.first_register.size, g.first_register.size, radial.size)
    return complex(np.sum(radial[:m] * np.conj(f.first_register[:m]) * g.first_register[:m]))


def _require_support(state: SpinorState, cutoff: FockCutoff, pred, what: str,
                     tol: float = 1e-12) -> None:
    coefs = level_coefficients(state, cutoff)
    ps = np.arange(-cutoff.pmax, cutoff.pmax + 1)
    outside = np.array([not pred(int(p)) for p in ps])
    bad = np.abs(coefs[outside]).max(initial=0.0)
    if bad > tol * max(state.norm(), 1.0):
        raise ContractError(f"state has weight {bad:.3e} outside the {what} subspace")


def resolution_identity_check(branch: str, f: SpinorState, g: SpinorState,
                              cutoff: FockCutoff, family: str = "A",
                              quadrature: int = 128) -> complex:
    """Evaluate the double coherent-state integral against f, g.

    The angular integrals are exact (index Kronecker deltas); the radial
    integrals are 1D Gauss-Laguerre.  The result reproduces <f, g> when
    both states live in the branch subspace (which is checked).
    """
    spec = CoherentSpec(0.0, 0.0, family, branch, cutoff)
    pred = _BRANCH_PRED[(family, branch)]
    _require_support(f, cutoff, pred, f"{family}/{branch}")
    _require_support(g, cutoff, pred, f"{family}/{branch}")

    r1 = radial_factorial_ratio(cutoff.nmax1, quadrature)
    cap2 = spec.level_cap
    r2 = radial_factorial_ratio(cap2, quadrature)
    lf = level_coefficients(f, cutoff)
    lg = level_coefficients(g, cutoff)
    pm = cutoff.pmax
    level = 0.0 + 0.0j
    for n2 in range(cap2 + 1):
        p = spec.sigma(n2)
        level += r2[n2] * np.conj(lf[p + pm]) * lg[p + pm]
    return complex(_fr_pairing(f, g, r1) * level)


def combined_state_defect(f: SpinorState, g: SpinorState, cutoff: FockCutoff,
                          quadrature: int = 128) -> complex:
    """Defect of the resolution of identity for the normalized sum of the
    two A-family branches, (Phi+ + Phi-)/sqrt(2): the double integral minus
    <f, g>.  Nonzero in general: the branch projectors each contribute only
    half of <f, g>, plus two cross terms coupling the halves."""
    r1 = radial_factorial_ratio(cutoff.nmax1, quadrature)
    cap2 = cutoff.pmax - 1
    r2 = radial_factorial_ratio(cap2, quadrature)
    lf = level_coefficients(f, cutoff)
    lg = level_coefficients(g, cutoff)
    pm = cutoff.pmax
    fr = _fr_pairing(f, g, r1)

    def level_sum(sig_left, sig_right) -> complex:
        tot = 0.0 + 0.0j
        for n2 in range(cap2 + 1):
            tot += r2[n2] * np.conj(lf[sig_left(n2) + pm]) * lg[sig_right(n2) + pm]
        return tot

    plus = lambda n2: n2
    minus = lambda n2: -n2 - 1
    integral = 0.5 * fr * (
        level_sum(plus, plus)
        + level_sum(minus, minus)
        + level_sum(plus, minus)
        + level_sum(minus, plus)
    )
    return complex(integral - f.inner(g))
