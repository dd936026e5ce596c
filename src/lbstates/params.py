"""Physical parameters and regime classification.

Default units are v_F = xi = 1, so the energy scale eps0 = 2 v_F / xi
equals 2.  All parameters can be overridden.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ExceptionalPointError

# Relative tolerance used to decide that V**2 has hit a positive integer
# (floating-point V cannot hit integers exactly).
EXCEPTIONAL_RTOL = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    """Fermi velocity, magnetic length and chemical-potential strength, at
    the positive-field Dirac point (the only one supported)."""

    vf: float = 1.0
    xi: float = 1.0
    V: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.vf, self.xi, self.V)):
            raise ContractError("vf, xi and V must be finite")
        _square(self.V)  # refuses a V whose square overflows
        if self.vf <= 0 or self.xi <= 0:
            raise ContractError("vf and xi must be positive")
        if not sys.float_info.min <= self.eps0 <= sys.float_info.max:
            raise ContractError(f"eps0 = 2 vf / xi = 2 * {self.vf!r} / {self.xi!r} is"
                                f" {self.eps0!r}, outside the range of normal floats")
        if self.V < 0:
            raise ContractError("V must be nonnegative")

    @property
    def eps0(self) -> float:
        """Energy scale 2 v_F / xi, as 2 vf / xi while 2 vf is finite and as
        2 (vf / xi) past that, where vf / xi cannot be subnormal: the same
        bits wherever the first form is finite."""
        twice = 2.0 * self.vf
        return twice / self.xi if math.isfinite(twice) else 2.0 * (self.vf / self.xi)

    def regime(self) -> str:
        """'small' for V < 1, 'large' for V > 1.  V = 1 is the boundary
        between the two regimes and is rejected."""
        if self.V < 1.0:
            return "small"
        if self.V > 1.0:
            return "large"
        raise ContractError("V = 1 is the regime boundary and is not supported")

    def exceptional_level(self) -> int | None:
        """The level p = V**2 when V**2 is a positive integer within
        tolerance (p is then an exceptional point), else None."""
        p = round(self.V * self.V)
        return p if p >= 1 and discriminant(p, self.V) == 0.0 else None

    def require_non_exceptional(self, what: str) -> None:
        p = self.exceptional_level()
        if p is not None:
            raise ExceptionalPointError(
                f"{what} cannot be constructed at the exceptional point p = V^2 ="
                f" {p if p < 10 ** 6 else format(p, '.3g')}",
                p=p,
                V=self.V,
            )


def _square(V: float) -> tuple:
    """V * V as an exact sum h + l of two floats (Dekker's two-product,
    splitting V into 26-bit halves); refuses a V whose square overflows."""
    h = V * V
    if not math.isfinite(h):
        raise ContractError(f"V = {V!r} is too large: V^2 is not finite")
    c = 134217729.0 * V  # 2^27 + 1
    hi = c - (c - V)
    lo = V - hi
    return h, ((hi * hi - h) + 2.0 * hi * lo) + lo * lo


def discriminant(q, V: float):
    """p - V**2 for level magnitudes q (an integer or an integer array), the
    one place it is computed.  With V * V = h + l exact, q - h is exact
    wherever the two are within a factor 2 of each other (Sterbenz), so the
    result is the exact difference rounded once, even next to an
    exceptional point; elsewhere it is within a few ulps.  Values below
    EXCEPTIONAL_RTOL max(1, V**2) in modulus are snapped to exactly 0."""
    h, l = _square(V)
    d = (q - h) - l
    snap = abs(d) < EXCEPTIONAL_RTOL * max(1.0, h)
    if isinstance(d, np.ndarray):
        return np.where(snap, 0.0, d)
    return 0.0 if snap else float(d)
