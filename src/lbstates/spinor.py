"""The V=0 eigenproblem on the spinor Hilbert space.

States are kept in tensor-product form: a coefficient array over the
first (degeneracy) register, tensored with a two-component coefficient
pair (upper, lower) over the second-register Fock basis.  The relabeled
eigenbasis c_{n,p} has

    p = 0   ->  (e_0, 0)
    p >= 1  ->  (e_p, -i e_{p-1}) / sqrt(2)
    p <= -1 ->  (e_{|p|}, +i e_{|p|-1}) / sqrt(2)

on the spinor register, with first-register factor e_n: the level
spinors of `levels` at V = 0, whose energies sign(p) eps0 sqrt(|p|) are
`levels.spectrum_table` at V = 0 (`checks.basis_vector_c` builds c_{n,p}
as a state, for `check` and the tests).  Each register is acted on
alone: A1 lowers n (`lower_first_register`) and the level ladders move p
(`levels.ladder_apply`), which is how `pairing_residual` measures a
state's eigenvalue equation.  This module
builds no matrix; their sparse realizations (the Hamiltonian block among
them) are in `ladders`, which no command but `check` imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .fock import FockCutoff
from .levels import (PAIRINGS, LevelRows, ladder_apply, level_table, two_entry_columns,
                     window_levels)
from .params import PhysicalParams

# The V=0 basis spinors v_p are the level table at V = 0.
V0 = PhysicalParams()


@dataclass
class SpinorState:
    """Separable state: first_register (x) (upper, lower).

    The scalar product is the spinor-register sum tensored with the
    first-register product, ``<f,g> = <fr_f,fr_g> (<u_f,u_g> + <l_f,l_g>)``,
    antilinear in the first argument.

    A built state also carries `rows`, the level rows it was filled from
    (its series levels and their neighbours, `levels.LevelRows`), which its
    residuals read; a bicoherent state carries `dual`, the state of the
    other side built from the same first register, weights and rows.
    """

    first_register: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    meta: dict = field(default_factory=dict)
    rows: LevelRows | None = None
    dual: SpinorState | None = None

    def norm2(self) -> float:
        fr = float(np.vdot(self.first_register, self.first_register).real)
        sp2 = float((np.vdot(self.upper, self.upper) + np.vdot(self.lower, self.lower)).real)
        return fr * sp2

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def inner(self, other: "SpinorState") -> complex:
        fr = _padded_vdot(self.first_register, other.first_register)
        spn = _padded_vdot(self.upper, other.upper) + _padded_vdot(self.lower, other.lower)
        return complex(fr * spn)

    def spinor_stack(self) -> np.ndarray:
        return np.concatenate([self.upper, self.lower])

    def component_masses(self) -> tuple:
        fr = float(np.vdot(self.first_register, self.first_register).real)
        up = fr * float(np.vdot(self.upper, self.upper).real)
        lo = fr * float(np.vdot(self.lower, self.lower).real)
        return up, lo


def _padded_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    m = min(a.size, b.size)
    return complex(np.vdot(a[:m], b[:m]))


def level_matrix(cutoff: FockCutoff) -> np.ndarray:
    """Columns are the stacked spinors v_p for p = -pmax..pmax.

    Shape (2*(nmax2+1), 2*pmax+1); the columns are orthonormal.
    """
    ps = window_levels(cutoff.pmax)
    return two_entry_columns(ps, *level_table(ps, V0)[:2], cutoff.nmax2)


def lower_first_register(fr: np.ndarray) -> np.ndarray:
    """The degeneracy-register lowering operator (`ladders.annihilator`, the
    standard sqrt(n) entries) applied to the first-register coefficients:
    sqrt(n+1) fr[n+1]."""
    out = np.zeros_like(fr)
    out[:-1] = np.sqrt(np.arange(1, fr.size)) * fr[1:]
    return out


def pairing_residual(spec, state, operator: str) -> float:
    """|| O state - z state || for the state built from spec: O = A1 with
    z = z1 on the first register, or `op` of the spec's `PAIRINGS` row with
    z = z2, its ladder applied without a matrix on the level rows the state
    carries; the other register enters through its norm.  Any other O, or
    a state without rows at the spec's parameters, raises ContractError."""
    if operator == "A1":
        own, other, z = state.first_register, state.spinor_stack(), spec.z1
        moved = lower_first_register(own)
    else:
        row = PAIRINGS[spec.key]
        if operator != row.op:
            if all(r.op != operator for r in PAIRINGS.values()):
                raise ContractError(f"unknown operator {operator!r}")
            raise ContractError(f"{operator} has no eigenvalue equation on {'/'.join(spec.key)}")
        if state.rows is None or state.rows.params != spec.params:
            raise ContractError(f"{operator} reads the level rows a state carries; this state"
                                f" carries none built at V = {spec.params.V}")
        own, other, z = state.spinor_stack(), state.first_register, spec.z2
        moved = ladder_apply(row.ladder, state.rows, own, spec.cutoff, row.adjoint)
    return float(np.linalg.norm(moved - z * own)) * float(np.linalg.norm(other))
