"""Position-space probability densities and their export.

A separable state (first register (x) spinor pair) is pushed to the
Cartesian product basis one anti-diagonal at a time, as far as its
weights reach, then evaluated on a rectangular grid as two matrix
products per spinor component.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .errors import ContractError
from .fock import circular_antidiagonals, oscillator_table
from .params import PhysicalParams
from .spinor import SpinorState

DEFAULT_GRID = "-8:8:257,-8:8:257"


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    nx: int
    y_min: float
    y_max: float
    ny: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ContractError("grid bounds must be increasing")
        if self.nx < 2 or self.ny < 2:
            raise ContractError("grid needs at least 2 points per axis")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """Parse 'xmin:xmax:nx,ymin:ymax:ny'."""
        try:
            xpart, ypart = text.split(",")
            x_min, x_max, nx = xpart.split(":")
            y_min, y_max, ny = ypart.split(":")
            return GridSpec(float(x_min), float(x_max), int(nx),
                            float(y_min), float(y_max), int(ny))
        except (ValueError, TypeError) as err:
            raise ContractError(f"bad grid spec {text!r}: {err}") from None


@dataclass
class DensityField:
    """Total and per-component densities on a rectangular grid; total is
    upper + lower pointwise by construction."""

    grid: GridSpec
    total: np.ndarray  # shape (nx, ny)
    upper: np.ndarray
    lower: np.ndarray
    meta: dict = field(default_factory=dict)

    def integral(self) -> float:
        return float(simpson(simpson(self.total, x=self.grid.y, axis=1), x=self.grid.x))


_I_POWERS = np.array([1, 1j, -1, -1j])


def _component_cartesian(blocks, w: np.ndarray, n_top: int) -> np.ndarray:
    """Product-basis coefficients C[c, j, k] (j + k <= n_top) of sum w[n1,
    n2, c] e_{n1,n2} for both spinor components c, one product per block."""
    out = np.zeros((2, n_top + 1, n_top + 1), dtype=complex)
    n1_top, n2_top = w.shape[0] - 1, w.shape[1] - 1
    for big_n, block in blocks:
        n1s = np.arange(max(0, big_n - n2_top), min(big_n, n1_top) + 1)
        j = np.arange(big_n + 1)
        out[:, j, big_n - j] = (_I_POWERS[(big_n - j) % 4, None]
                                * (block[:, n1s] @ w[n1s, big_n - n1s])).T
    return out


def density(state: SpinorState, grid: GridSpec, params: PhysicalParams | None = None,
            extra_meta: dict | None = None) -> DensityField:
    """Evaluate |psi|^2 (total and per component) on the grid.

    Weights below 1e-18 of a component's largest are dropped, and all work
    stops at the last anti-diagonal that keeps one.  The metadata echoes
    the state's construction record, the parameters (eps0 included) and
    the mass captured by the grid; a warning flag is set when the captured
    mass differs from the coefficient-space mass by more than 0.1%.
    Raises ContractError when the basis change does not preserve the
    coefficient-space mass to 1e-8 relative.
    """
    if params is None:
        params = PhysicalParams()
    fr = state.first_register
    nmax1, nmax2 = fr.size - 1, state.upper.size - 1
    comps = np.stack([state.upper, state.lower], axis=-1)
    w = fr[:, None, None] * comps[None]
    scale = np.abs(fr).max() * np.abs(comps).max(axis=0)
    keep = (np.abs(w) >= 1e-18 * scale) & (w != 0)
    n1s, n2s = np.nonzero(keep.any(axis=-1))
    n_top, n1_top = int((n1s + n2s).max(initial=0)), int(n1s.max(initial=0))
    w = np.where(keep, w, 0)[:n1_top + 1]
    px = oscillator_table(n_top, grid.x)
    py = oscillator_table(n_top, grid.y)
    carts = _component_cartesian(circular_antidiagonals(n_top, n1_top), w, n_top)

    norm2 = state.norm2()
    cart_mass = float(np.vdot(carts, carts).real)
    if abs(cart_mass - norm2) > 1e-8 * norm2:
        raise ContractError(
            f"the circular-to-Cartesian basis change is not isometric at this window:"
            f" it maps coefficient mass {norm2:.6g} to {cart_mass:.6g}"
        )
    upper, lower = (np.abs(px.T @ c @ py) ** 2 for c in carts)
    fld = DensityField(grid, upper + lower, upper, lower)
    captured = fld.integral()
    meta = {
        "state": _jsonable(state.meta),
        "params": {"vf": params.vf, "xi": params.xi, "V": params.V, "eps0": params.eps0},
        "cutoff": {"nmax1": nmax1, "nmax2": nmax2},
        "grid": {
            "x_min": grid.x_min, "x_max": grid.x_max, "nx": grid.nx,
            "y_min": grid.y_min, "y_max": grid.y_max, "ny": grid.ny,
        },
        "coefficient_norm2": norm2,
        "captured_mass": captured,
        "mass_warning": bool(abs(captured - norm2) > 1e-3 * norm2),
    }
    if extra_meta:
        meta.update(_jsonable(extra_meta))
    fld.meta = meta
    return fld


@dataclass(frozen=True)
class GainLossReport:
    mass_upper: float
    mass_lower: float
    ratio: float
    per_level_alpha_table: list


def gain_loss(state: SpinorState, params: PhysicalParams | None = None) -> GainLossReport:
    """Component masses from coefficient space (no grid), their ratio, and
    the broken-region |alpha| table for context when V is large."""
    from .pt import gain_loss_asymptotics

    up, lo = state.component_masses()
    table = []
    if params is not None and params.V > 1.0:
        top = min(int(math.ceil(params.V ** 2)) - 1, state.upper.size - 1)
        for p in range(1, top + 1):
            if p < params.V ** 2:
                ap, am = gain_loss_asymptotics(p, params.V)
                table.append({"p": p, "abs_alpha_plus": ap, "abs_alpha_minus": am})
    ratio = up / lo if lo > 0 else math.inf
    return GainLossReport(up, lo, ratio, table)


def _fmt(value: float) -> str:
    return "%.17g" % value


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def export(fld: DensityField, fmt: str, path: str) -> None:
    """Write the field: CSV (header x,y,total,upper,lower, row-major over
    x then y, 17 significant digits, metadata in a .meta.json sidecar) or
    a single JSON document.  Byte-stable for identical inputs."""
    if fmt == "csv":
        lines = ["x,y,total,upper,lower"]
        x, y = fld.grid.x, fld.grid.y
        for i in range(fld.grid.nx):
            for j in range(fld.grid.ny):
                lines.append(",".join([
                    _fmt(x[i]), _fmt(y[j]),
                    _fmt(fld.total[i, j]), _fmt(fld.upper[i, j]), _fmt(fld.lower[i, j]),
                ]))
        _write_text(path, "\n".join(lines) + "\n")
        _write_text(_sidecar_path(path), json.dumps(fld.meta, indent=2, sort_keys=True) + "\n")
    elif fmt == "json":
        doc = {
            "meta": fld.meta,
            "grid": {"x": fld.grid.x.tolist(), "y": fld.grid.y.tolist()},
            "total": fld.total.tolist(),
            "upper": fld.upper.tolist(),
            "lower": fld.lower.tolist(),
        }
        _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        raise ContractError(f"unknown export format {fmt!r}")


def _sidecar_path(path: str) -> str:
    return path + ".meta.json"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
