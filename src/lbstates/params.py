"""Physical parameters and regime classification.

Default units are v_F = xi = 1, so the energy scale eps0 = 2 v_F / xi
equals 2.  All parameters can be overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError, ExceptionalPointError

# Relative tolerance used to decide that V**2 has hit a positive integer
# (floating-point V cannot hit integers exactly).
EXCEPTIONAL_RTOL = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    """Fermi velocity, magnetic length, chemical-potential strength and
    magnetic-field sign.  Only the positive-field Dirac point is supported."""

    vf: float = 1.0
    xi: float = 1.0
    V: float = 0.0
    bfield_sign: int = 1

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.vf, self.xi, self.V)):
            raise ContractError("vf, xi and V must be finite")
        if self.vf <= 0 or self.xi <= 0:
            raise ContractError("vf and xi must be positive")
        if self.V < 0:
            raise ContractError("V must be nonnegative")
        if self.bfield_sign != 1:
            raise ContractError("only bfield_sign=+1 is supported")

    @property
    def eps0(self) -> float:
        """Energy scale 2 v_F / xi."""
        return 2.0 * self.vf / self.xi

    def regime(self) -> str:
        """'small' for V < 1, 'large' for V > 1.  V = 1 is the boundary
        between the two regimes and is rejected."""
        if self.V < 1.0:
            return "small"
        if self.V > 1.0:
            return "large"
        raise ContractError("V = 1 is the regime boundary and is not supported")

    def is_exceptional_config(self) -> bool:
        """True when V**2 is a positive integer within tolerance, i.e. some
        level p = V**2 is an exceptional point."""
        v2 = self.V * self.V
        if v2 < 0.5:
            return False
        return abs(v2 - round(v2)) < EXCEPTIONAL_RTOL * max(1.0, v2)

    def exceptional_level(self) -> int | None:
        """The integer level p = V**2, when the configuration is exceptional."""
        if self.is_exceptional_config():
            return int(round(self.V * self.V))
        return None

    def require_non_exceptional(self, what: str) -> None:
        p = self.exceptional_level()
        if p is not None:
            raise ExceptionalPointError(
                f"{what} cannot be constructed at the exceptional point p = V^2 = {p}",
                p=p,
                V=self.V,
            )


def level_discriminant(p_abs: int, V: float) -> float:
    """p - V**2 for a level magnitude p >= 1, snapped to exactly 0 when the
    level is exceptional within tolerance."""
    if p_abs < 1:
        raise ContractError("level discriminant is defined for |p| >= 1")
    d = p_abs - V * V
    if abs(d) < EXCEPTIONAL_RTOL * max(1.0, V * V):
        return 0.0
    return d


def sqrt_discriminant(p_abs: int, V: float) -> complex:
    """Principal square root of p - V**2 as a complex number (purely
    imaginary in the broken region)."""
    d = level_discriminant(p_abs, V)
    if d >= 0.0:
        return complex(math.sqrt(d), 0.0)
    return complex(0.0, math.sqrt(-d))
