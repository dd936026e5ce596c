"""Position-space probability densities and their export.

`density` takes built states: first register (x) spinor pair, the first
register being the coherent series of the label z1, which only
translates the density.  So a state's density is its z1 = 0 density on
a shifted grid: the spinor weights of the modes e_{0,N} are pushed to
the Cartesian product basis through the closed binomial table of
`fock.circular_antidiagonals`, as far as the weights reach, then
evaluated on the grid as two matrix products per spinor component.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from . import floattext
from .coherent import coherent_coefficients
from .errors import ContractError
from .fock import circular_antidiagonals, oscillator_table
from .params import PhysicalParams
from .spinor import SpinorState

DEFAULT_GRID = "-8:8:257,-8:8:257"
# density() peaks near 40 bytes a grid point (three float fields and the
# complex grid product), so this bounds a density near 170 MB
MAX_GRID_POINTS = 2049 ** 2
# the largest |bound|: past it the cube of a spacing in scipy's `simpson`
# (even point counts) or x^2 in `oscillator_table` can overflow a double
MAX_GRID_BOUND = 1e102


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    nx: int
    y_min: float
    y_max: float
    ny: int

    def __post_init__(self):
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(abs(v) <= MAX_GRID_BOUND for v in bounds):
            raise ContractError(f"grid bounds must be finite with |bound| <= {MAX_GRID_BOUND:.0e}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ContractError("grid bounds must be increasing")
        if self.nx < 2 or self.ny < 2:
            raise ContractError("grid needs at least 2 points per axis")
        if self.nx * self.ny > MAX_GRID_POINTS:
            raise ContractError(f"grid has {self.nx * self.ny} points; the limit is"
                                f" {MAX_GRID_POINTS} (2049^2)")

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


_NEG_I_POWERS = np.array([1, -1j, -1, 1j])


def _component_cartesian(binomials: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Product-basis coefficients C[c, j, k] = (-i)^k B[j+k, j] w[j+k, c]
    (zero for j + k >= d) of sum_N w[N, c] e_{0,N} for both spinor
    components c, w of shape (d, 2), B = `circular_antidiagonals(d - 1)`,
    in one gather over the pairs j <= N < d."""
    d = w.shape[0]
    big_n, j = np.tril_indices(d)
    out = np.zeros((2, d, d), dtype=complex)
    out[:, j, big_n - j] = w[big_n].T * (_NEG_I_POWERS[(big_n - j) % 4] * binomials[big_n, j])
    return out


def density(state: SpinorState, grid: GridSpec, params: PhysicalParams | None = None) -> DensityField:
    """Evaluate |psi|^2 (total and per component) on the grid.

    Only built states are taken: the first register must be, bit for bit,
    the coherent series of the state's recorded meta["z1"] (of z1 = 0, so
    e_0, when none is recorded) on its nonzero prefix, as every
    `build_coherent`/`build_bicoherent` state's is.  Such a state is
    D1(z1) (e_0 (x) spinor), and D1 translates the plane by (Re z1, -Im z1)
    up to a phase that |psi|^2 drops, so its density is that of the
    spinor's modes e_{0,n2} on the grid moved by (-Re z1, +Im z1).
    Weights below 1e-18 of a component's largest are dropped, and all work
    stops at the last anti-diagonal that keeps one.  The metadata echoes
    the state's construction record, the parameters (eps0 included) and
    the mass captured by the grid; a warning flag is set when the captured
    mass is not finite or differs from the coefficient-space mass by more
    than 0.1%.
    Raises ContractError for any other first register, and when the basis
    change does not preserve the mass of the weights it is given to 1e-8
    relative.
    """
    if params is None:
        params = PhysicalParams()
    z1, fr = state.meta.get("z1", 0.0), state.first_register
    n1 = int(np.flatnonzero(fr).max(initial=-1)) + 1
    if not (n1 and np.array_equal(fr[:n1], coherent_coefficients(z1, n1))):
        raise ContractError(f"density takes built states only: this first register is not the"
                            f" coherent series of z1 = {complex(z1):.6g}")
    comps = np.stack([state.upper, state.lower], axis=-1)
    size = np.abs(comps)
    keep = (size >= 1e-18 * size.max(axis=0)) & (comps != 0)
    n_top = int(np.flatnonzero(keep.any(axis=-1)).max(initial=0))
    w = np.where(keep[:n_top + 1], comps[:n_top + 1], 0)
    px = oscillator_table(n_top, grid.x - z1.real)
    py = oscillator_table(n_top, grid.y + z1.imag)
    carts = _component_cartesian(circular_antidiagonals(n_top), w)
    fed, cart_mass = float(np.vdot(w, w).real), float(np.vdot(carts, carts).real)
    if abs(cart_mass - fed) > 1e-8 * fed:
        raise ContractError(
            f"the circular-to-Cartesian basis change is not isometric at this window:"
            f" it maps coefficient mass {fed:.6g} to {cart_mass:.6g}"
        )
    upper, lower = (np.abs(px.T @ c @ py) ** 2 for c in carts)
    fld = DensityField(grid, upper + lower, upper, lower)
    captured = fld.integral()
    norm2 = state.norm2()
    meta = {
        "state": _jsonable(state.meta),
        "params": {"vf": params.vf, "xi": params.xi, "V": params.V, "eps0": params.eps0},
        "cutoff": {"nmax1": fr.size - 1, "nmax2": state.upper.size - 1},
        "grid": {
            "x_min": grid.x_min, "x_max": grid.x_max, "nx": grid.nx,
            "y_min": grid.y_min, "y_max": grid.y_max, "ny": grid.ny,
        },
        "coefficient_norm2": norm2,
        "captured_mass": captured,
        "mass_warning": bool(not math.isfinite(captured) or abs(captured - norm2) > 1e-3 * norm2),
    }
    fld.meta = meta
    return fld


def gain_loss(state: SpinorState) -> dict:
    """The component masses from coefficient space (no grid) and their
    ratio, None where it is not finite: what `state` reports and the
    `gain_loss` block of a density's metadata."""
    up, lo = state.component_masses()
    ratio = up / lo if lo > 0 else math.inf
    return {"mass_upper": up, "mass_lower": lo, "ratio": ratio if math.isfinite(ratio) else None}


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


# Values printed by one floattext.Texts call: a block's temporaries peak
# near 130 bytes a value, about 1 MB (test_memory_is_bounded_by_a_row).
BLOCK_VALUES = 8192


def _blocks(count: int, per_row: int, render: Callable[[int, int], np.ndarray]):
    """render(start, stop) over rows 0..count-1, about BLOCK_VALUES values
    (at least one row) at a time."""
    step = max(1, BLOCK_VALUES // per_row)
    for start in range(0, count, step):
        yield render(start, min(start + step, count))


def export(fld: DensityField, fmt: str, path: str) -> None:
    """Write the field: CSV (header x,y,total,upper,lower, row-major over
    x then y, ``'%.17g'`` for every value, metadata in a .meta.json
    sidecar) or a single JSON document in the ``json.dumps(doc, indent=2,
    sort_keys=True)`` layout.

    The field values are printed by `floattext.Texts`, which gives Python's
    own ``'%.17g'`` and ``float.__repr__`` bytes: it decides almost every
    value with numpy and hands the few it cannot decide (zeros,
    subnormals, magnitudes outside [1e-290, 1e290), repr of a power of two,
    and roundings within 2^-30 of a tie) and the texts under 8 bytes from
    their first digit to Python.  The grid coordinates are formatted by
    Python once per axis.  Rows are rendered in this process in blocks of
    about BLOCK_VALUES values (at least one row), each straight into a
    buffer of its exact length, laid out from a cumulative sum of the
    lengths of its texts and separators; so memory is bounded by a block,
    about 1 MB, or by one row if longer.  The bytes do not depend on the
    block size and are stable for identical inputs.  Raises ContractError,
    before any file is opened, when the field or its metadata holds a
    non-finite value; raises OSError, after removing what it wrote, when a
    write fails."""
    if fmt not in ("csv", "json"):
        raise ContractError(f"unknown export format {fmt!r}")
    fields = {"total": fld.total, "upper": fld.upper, "lower": fld.lower}
    if not all(np.isfinite(a).all() for a in fields.values()):
        raise ContractError("the density field holds non-finite values; nothing written")
    ny = fld.grid.ny
    if fmt == "csv":
        # a line is "x," and "y," (formatted once per coordinate) and the
        # three values, each followed by a comma or the newline
        xs = _prefixes([b"%.17g," % x for x in fld.grid.x.tolist()])
        ys = _prefixes([b"%.17g," % y for y in fld.grid.y.tolist()])

        def csv_rows(start, stop):
            n = stop - start
            texts = floattext.Texts(np.stack([a[start:stop] for a in fields.values()], -1),
                                    "g17", _CSV_SEPS)
            # each line: its prefix, then each value with its comma or newline
            size = np.empty((n, ny, 4), dtype=np.int64)
            size[..., 0] = xs[0][start:stop, None] + ys[0]
            size[..., 1:] = texts.length.reshape(n, ny, 3)
            end = np.cumsum(size).reshape(n, ny, 4)
            begin = end[..., 0] - size[..., 0]
            del size
            out = np.empty(end[-1, -1, -1], dtype=np.uint8)
            words = floattext.words(out)
            # the prefixes first: a short one's word runs on into what follows
            for k in range(xs[1].shape[1]):
                words[begin + xs[1][start:stop, None, k]] = xs[2][start:stop, None, k]
            begin += xs[0][start:stop, None]
            for k in range(ys[1].shape[1]):
                words[begin + ys[1][:, k]] = ys[2][:, k]
            texts.write(out, end[..., :3].ravel())
            return out

        documents = [(path, ["x,y,total,upper,lower\n", _blocks(fld.grid.nx, 3 * ny, csv_rows)]),
                     (path + ".meta.json", [finite_json(fld.meta, sort_keys=True) + "\n"])]
    else:
        # json.dumps lays out all but the three fields, which stand in as null
        # at the top level (the only keys indented by two) and are rows here
        doc = {"meta": fld.meta, "grid": {"x": fld.grid.x.tolist(), "y": fld.grid.y.tolist()}}
        rest = finite_json({**doc, **dict.fromkeys(fields)}, sort_keys=True) + "\n"
        pieces = []
        for name in sorted(fields):
            head, rest = rest.split(f'\n  "{name}": null', 1)
            pieces += [f'{head}\n  "{name}": [',
                       _blocks(len(fields[name]), ny, functools.partial(_json_rows, fields[name])),
                       "\n  ]"]
        documents = [(path, pieces + [rest])]
    written = []
    try:
        for out, pieces in documents:
            write_document(out, pieces)
            written.append(out)
    except BaseException:
        for out in written:
            os.remove(out)
        raise


def _prefixes(texts: list) -> tuple:
    """(lengths, offsets, words): the 8-byte words that write each bytes
    object of texts (at most 32 bytes) at their offsets in it.  The last
    word of a text of 8 bytes or more ends with it; a shorter text takes
    one word that runs on by up to 6 bytes."""
    size = np.array([len(t) for t in texts])
    offsets = np.minimum(8 * np.arange(-(-size.max() // 8)), np.maximum(size - 8, 0)[:, None])
    table = np.frombuffer(b"".join(t.ljust(32, b"\0") for t in texts), dtype=np.uint8)
    return size, offsets, floattext.words(table)[32 * np.arange(len(texts))[:, None] + offsets]


_CSV_SEPS = np.frombuffer(b",,\n", dtype=np.uint8)
_JSON_HEAD, _JSON_SEP, _JSON_TAIL = b",\n    [\n      ", b",\n      ", b"\n    ]"


def _json_rows(values: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of a field as the inner lists of its json.dumps
    indent=2 layout; the rows after the first open with a comma."""
    n, ny = stop - start, values.shape[1]
    # each value is followed by the first byte of its separator or row tail
    texts = floattext.Texts(values[start:stop], "repr",
                            np.where(np.arange(ny) < ny - 1, _JSON_SEP[0], _JSON_TAIL[0]))
    head = _JSON_HEAD[start == 0:]
    length = texts.length.reshape(n, ny)
    size = length + len(_JSON_SEP) - 1
    size[:, -1] += len(_JSON_TAIL + _JSON_HEAD) - len(_JSON_SEP)
    at = len(head) + np.cumsum(size).reshape(n, ny) - size
    # spaces, then the values and the other bytes of the separators
    out = np.full(at[-1, -1] + length[-1, -1] + len(_JSON_TAIL) - 1, ord(" "), dtype=np.uint8)
    texts.write(out, at.ravel())
    end = at + length
    for where, text in ((0, head), (end[:, :-1], _JSON_SEP[1:]), (end[:, -1], _JSON_TAIL[1:]),
                        (end[:-1, -1] + len(_JSON_TAIL) - 1, _JSON_HEAD)):
        for k, ch in enumerate(text):
            if ch != ord(" "):
                out[where + k] = ch
    return out


def _render(pieces: list, write) -> None:
    """Write the pieces of a document in order: strings, and iterables of
    rendered row blocks."""
    for piece in pieces:
        if isinstance(piece, str):
            write(piece.encode())
        else:
            for block in piece:
                write(block)
                del block  # before the next block is rendered


def write_document(path: str | None, pieces: list) -> None:
    """Write the pieces to path (the only place an output file is opened),
    removing it on any failure; with no path, write them (strings) to stdout."""
    if path is None:
        sys.stdout.write("".join(pieces))
        return
    fh = open(path, "wb")
    try:
        with fh:
            _render(pieces, fh.write)
    except BaseException:
        os.remove(path)
        raise


def finite_json(doc, sort_keys: bool = False) -> str:
    """``json.dumps(doc, indent=2)``, refusing NaN and infinities with
    ContractError instead of writing them."""
    try:
        return json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=False)
    except ValueError as err:
        raise ContractError(f"refusing to write a non-finite value: {err}") from None


def finite_csv(keys: list, rows: list) -> str:
    """CSV lines: the keys, then each row (a dict) at the keys, floats as
    ``'%.17g'``, a missing key as an empty cell and anything else by str;
    refusing NaN and infinities with ContractError, as `finite_json` does."""
    columns = []
    for key in keys:
        values = [row.get(key) for row in rows]
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise ContractError(f"refusing to write a non-finite value in column {key!r}")
        columns.append(["%.17g" % v if isinstance(v, float) else "" if v is None else str(v)
                        for v in values])
    return "".join([",".join(keys) + "\n"] + [",".join(cells) + "\n" for cells in zip(*columns)])

