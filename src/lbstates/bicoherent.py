"""Bicoherent families for V != 0.

Two families per branch and side:

  * the standard family (phi/psi over the biorthogonal vectors, with the
    usual Gaussian prefactor and sqrt(n!) denominators), and
  * the theta family (eta/xi), whose denominators are cumulative products
    of principal square roots of the shifted eigenvalues, so that the
    ladders which factorize the shifted Hamiltonian act on them by simple
    eigenvalue equations.

The plus branch runs over levels p = n >= 0, the minus branch over
p = -n-1; the minus branch's denominator sequence is built from the
negative-level shifts (their moduli differ from the positive ones once
V > 1, which is why the two branches carry separate normalizations).

Bi-normalization: with the ladder-determined coefficients, the dual
pairing telescopes to sum |z|^(2n) / conj(Theta_n!) over the *complex*
cumulative products, whose phases do not cancel.  The pairing therefore
fixes only the product of the two normalization constants; we keep the
ket constant real positive and let the bra constant carry the phase, so
<ket, bra> = 1 holds exactly.  The classical real normalization over the
modulus factorials is exposed separately as normalization_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, CutoffError
from .fock import FockCutoff
from .levels import level_table, series_stack
from .params import PhysicalParams
from .pt import phi_norm_bound, pt_spinor_ladder, theta
from .spinor import SpinorState, first_register_lowering, ladder_residual
from .coherent import (
    DEFAULT_TAIL_TOL,
    _fr_pairing,
    coherent_coefficients,
    coherent_series_length,
    first_register_coherent,
    radial_factorial_ratio,
)


def theta_sequence(count: int, params: PhysicalParams, branch: str = "plus") -> np.ndarray:
    """theta values along the branch: theta_{+k} (plus) or theta_{-k}
    (minus) for k = 0..count."""
    sign = {"plus": +1, "minus": -1}[branch]
    return np.array([theta(sign * k, params) for k in range(count + 1)])


def theta_factorial(n: int, params: PhysicalParams, branch: str = "plus") -> tuple:
    """(cumulative complex product theta_1 ... theta_n, its modulus).

    The empty product is 1.  For V < 1 the modulus is eps0^n sqrt(n!)
    regardless of branch.
    """
    if n < 0:
        raise ContractError("theta factorial needs n >= 0")
    seq = theta_sequence(n, params, branch)
    prod = complex(np.prod(seq[1:])) if n >= 1 else 1.0 + 0.0j
    return prod, abs(prod)


class NormalizationN(NamedTuple):
    value: float
    tail: float
    n_terms: int


def normalization_N(z2: complex, params: PhysicalParams, cutoff: FockCutoff,
                    branch: str = "plus", tail_tol: float = 1e-14) -> NormalizationN:
    """(sum_n |z2|^(2n) / |theta_n|!)^(-1/2), in (0, 1], with the computed
    tail estimate.  Depends on z2 only through |z2|."""
    r2 = abs(z2) ** 2
    mods = np.abs(theta_sequence(cutoff.pmax, params, branch))
    total, term = 1.0, 1.0
    for n in range(1, cutoff.pmax + 1):
        term *= r2 / mods[n]
        total += term
        if n < cutoff.pmax and mods[n + 1] > r2:
            tail = term * (r2 / mods[n + 1]) / (1.0 - r2 / mods[n + 1])
            if tail < tail_tol:
                return NormalizationN(total ** -0.5, tail, n + 1)
    if r2 == 0.0:
        return NormalizationN(1.0, 0.0, 1)
    tail = math.inf if mods[-1] <= r2 else term * (r2 / mods[-1]) / (1.0 - r2 / mods[-1])
    if tail < tail_tol:
        return NormalizationN(total ** -0.5, tail, cutoff.pmax + 1)
    raise CutoffError(
        f"normalization series for |z2|={abs(z2):.3g} does not reach tail {tail_tol:.1e}"
        f" within pmax={cutoff.pmax} (tail estimate {tail:.3e})",
        tail_estimate=tail,
    )


@dataclass(frozen=True)
class BicoherentSpec:
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
        if self.family == "theta":
            self.params.require_non_exceptional("theta-family bicoherent state")

    def sigma(self, n: int) -> int:
        return n if self.branch == "plus" else -n - 1

    @property
    def level_cap(self) -> int:
        """Largest usable series index so sigma stays inside the p window."""
        return self.cutoff.pmax if self.branch == "plus" else self.cutoff.pmax - 1

    def columns(self, n_terms: int):
        """Sparse columns of the side's level spinors for the first n_terms
        series indices: phi on the ket side, the regime dual on the bra."""
        x, y = level_table([self.sigma(n) for n in range(n_terms)], self.params,
                           self.cutoff.nmax2)
        return x if self.side == "ket" else y

    def dual(self) -> "BicoherentSpec":
        other = "bra" if self.side == "ket" else "ket"
        return BicoherentSpec(self.z1, self.z2, self.family, other, self.branch,
                              self.params, self.cutoff, self.tail_tol)


def _theta_series_coefficients(spec: BicoherentSpec) -> tuple:
    """Ladder-determined series coefficients z^n / F_n (ket) and
    z^n / conj(F_n) (bra), cut by the explicit super-factorial tail bound;
    raises CutoffError when the window is too small.

    Returns (ket, bra, pairing sum T, tail estimate).  T is derived from
    the very same cumulative arrays the states are assembled from, so the
    bi-normalization below is exact in floating point even when the
    pairing sum suffers heavy phase cancellation (broken-region shifts are
    purely imaginary, so its terms rotate by pi/2 per step).
    """
    cap = spec.level_cap
    seq = theta_sequence(cap + 1, spec.params, spec.branch)
    z = complex(spec.z2)
    # Cumulative multiplication; the modulus factorial |theta_n|! stays
    # inside the float range for the windows used here (pmax <~ 200).
    ket = np.empty(cap + 1, dtype=complex)
    bra = np.empty(cap + 1, dtype=complex)
    ket[0] = bra[0] = 1.0
    for n in range(1, cap + 1):
        step = np.sqrt(seq[n])
        ket[n] = ket[n - 1] * z / step
        bra[n] = bra[n - 1] * z / np.conj(step)
    mods = np.abs(ket)
    t_complex = complex(np.conj(np.vdot(ket, bra)))
    # geometric tail bound from the first out-of-window term
    if abs(z) == 0.0:
        tail = 0.0
    else:
        ratio = abs(z) / math.sqrt(abs(seq[cap + 1]))
        if ratio >= 1.0:
            raise CutoffError(
                f"theta series for |z2|={abs(z):.3g} is still growing at the window edge"
                f" pmax={spec.cutoff.pmax}",
                tail_estimate=math.inf,
            )
        tail = mods[cap] * ratio / (1.0 - ratio)
        if tail > spec.tail_tol * max(1.0, mods.max()):
            raise CutoffError(
                f"theta series tail {tail:.3e} above tolerance at pmax={spec.cutoff.pmax}",
                tail_estimate=tail,
            )
    return ket, bra, t_complex, tail


def _norm_constants(t_complex: complex) -> tuple:
    """Ket and bra normalization constants: |T|^(-1/2) on the ket, the same
    modulus with the phase of T on the bra, so the pairing is exactly 1."""
    mod = abs(t_complex)
    ket = mod ** -0.5
    bra = ket * (t_complex / mod) if mod > 0 else ket
    return ket, bra


def build_bicoherent(spec: BicoherentSpec) -> SpinorState:
    """Assemble the state; meta records tails, the classical normalization
    value and the effective (phase-corrected) constant actually used."""
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
        n_terms, tail2 = coherent_series_length(spec.z2, spec.level_cap, spec.tail_tol)
        weights = coherent_coefficients(spec.z2, n_terms)
        meta["tail_z2"] = tail2
    else:
        ket, bra, t_complex, tail2 = _theta_series_coefficients(spec)
        coefs = ket if spec.side == "ket" else bra
        ket_const, bra_const = _norm_constants(t_complex)
        const = ket_const if spec.side == "ket" else bra_const
        n_spec = normalization_N(spec.z2, params, cut, spec.branch)
        meta.update(
            tail_z2=tail2,
            normalization_N=n_spec.value,
            effective_N=abs(const),
            normalization_phase=complex(const / abs(const)),
            pairing_sum=t_complex,
        )
        # one scalar product per term: numpy's vectorized complex product
        # can round the last bit differently, which would change the
        # exported bytes of a state
        weights = np.array([const * c for c in coefs])
    stack = series_stack(spec.columns(weights.size), weights)
    return SpinorState(fr, stack[:cut.nmax2 + 1], stack[cut.nmax2 + 1:], meta)


def bi_product(ket_spec: BicoherentSpec, bra_spec: BicoherentSpec | None = None) -> complex:
    """<ket, bra> for the matching dual pair (defaults to the spec's dual)."""
    if bra_spec is None:
        bra_spec = ket_spec.dual()
    return build_bicoherent(ket_spec).inner(build_bicoherent(bra_spec))


# (family, side, branch) -> the ladder with an eigenvalue equation on it
_LEGAL = {
    ("standard", "ket", "plus"): "A_K_V",
    ("standard", "ket", "minus"): "B_K_V",
    ("standard", "bra", "minus"): "A_K_V_dag",
    ("standard", "bra", "plus"): "B_K_V_dag",
    ("theta", "ket", "plus"): "C2",
    ("theta", "ket", "minus"): "D2",
    ("theta", "bra", "minus"): "C2dag",
    ("theta", "bra", "plus"): "D2dag",
}


def bicoherent_eigen_residual(spec: BicoherentSpec, state: SpinorState, operator: str) -> float:
    """|| O state - z state || for the state built from spec; the
    first-register lowering operator pairs with every state at eigenvalue
    z1, the spinor-register ladders only with their own family/side/branch
    (eigenvalue z2)."""
    if operator == "A1":
        return ladder_residual(state, first_register_lowering(spec.cutoff.nmax1), spec.z1)
    if operator not in _LEGAL.values():
        raise ContractError(f"unknown operator {operator!r}")
    if _LEGAL[(spec.family, spec.side, spec.branch)] != operator:
        raise ContractError(
            f"{operator} has no eigenvalue equation on {spec.family}/{spec.side}/{spec.branch}"
        )
    base = operator.removesuffix("dag").rstrip("_")
    if base in ("C2", "D2"):
        base = base.lower()
    op = pt_spinor_ladder(base, spec.params, spec.cutoff)
    if operator.endswith("dag"):
        op = op.dagger()
    return ladder_residual(state, op, spec.z2)


def quasi_basis_check(f: SpinorState, g: SpinorState, params: PhysicalParams,
                      cutoff: FockCutoff, branch: str = "plus",
                      order: str = "phi_psi", quadrature: int = 128) -> complex:
    """Evaluate the standard-family double integral (Lebesgue measure over
    both z planes) between f and g, with analytic angular reduction and
    Gauss-Laguerre radial integrals.

    order='phi_psi' evaluates int <f, phi><psi, g>; 'psi_phi' swaps the
    roles.  Either reproduces <f, g> on the branch span.
    """
    spec = BicoherentSpec(0.0, 0.0, "standard", "ket", branch, params, cutoff)
    cap = spec.level_cap
    r1 = radial_factorial_ratio(cutoff.nmax1, quadrature)
    r2 = radial_factorial_ratio(cap, quadrature)
    x, y = level_table([spec.sigma(n) for n in range(cap + 1)], params, cutoff.nmax2)
    left, right = (x, y) if order == "phi_psi" else (y, x)
    f_left = np.conj(left.conjugate().T @ f.spinor_stack())
    right_g = right.conjugate().T @ g.spinor_stack()
    return complex(_fr_pairing(f, g, r1) * np.sum(r2 * f_left * right_g))


def convergence_certificate(spec: BicoherentSpec) -> dict:
    """The bound chain controlling the series: the uniform norm bound on the
    expansion vectors (exact for V < 1; the tail bound beyond the broken
    region for V > 1, plus the measured maximum inside it), the tail
    estimate at the chosen cutoff, and a pass/fail verdict."""
    params = spec.params
    measured = np.asarray(abs(spec.columns(spec.level_cap + 1)).power(2).sum(axis=0)).ravel()
    bound = phi_norm_bound(params)
    if params.regime() == "small":
        tail_start = 0
    else:
        tail_start = math.floor(params.V ** 2) + 1
    tail_region = measured[tail_start:] if tail_start < measured.size else np.array([])
    bound_holds = bool(tail_region.size == 0 or tail_region.max() <= bound * (1 + 1e-12))
    try:
        if spec.family == "theta":
            _, _, _, tail = _theta_series_coefficients(spec)
        else:
            _, tail = coherent_series_length(spec.z2, spec.level_cap, spec.tail_tol)
        tail_ok = True
    except CutoffError as err:
        tail = err.tail_estimate
        tail_ok = False
    return {
        "family": spec.family,
        "branch": spec.branch,
        "V": params.V,
        "norm_bound": bound,
        "bound_applies_from_level": tail_start,
        "measured_max_norm2": float(measured.max()) if measured.size else 0.0,
        "measured_max_norm2_in_bound_region": float(tail_region.max()) if tail_region.size else 0.0,
        "norm_bound_holds": bound_holds,
        "tail_estimate": tail,
        "tail_tolerance": spec.tail_tol,
        "passes": bool(bound_holds and tail_ok),
    }
