import math

import numpy as np
import pytest

from lbstates import floattext
from lbstates.checks import texts

STYLES = [("g17", "%.17g".__mod__), ("repr", float.__repr__)]


def _mismatches(values, style, fmt):
    """(value, got, want) for every element whose text is not Python's."""
    out = []
    for start in range(0, values.size, 1 << 16):
        chunk = values[start:start + (1 << 16)]
        for v, got in zip(chunk.tolist(), texts(chunk, style)):
            if got != fmt(v).encode():
                out.append((v, got, fmt(v)))
    return out


def _random_bit_patterns(count, seed):
    """Finite float64 values from uniform random bit patterns: every
    exponent, both signs and subnormals."""
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, count, dtype=np.uint64,
                                                endpoint=False)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def _edges():
    tiny = np.nextafter(0.0, 1.0)
    normal = np.finfo(np.float64).tiny
    top = np.finfo(np.float64).max
    base = [0.0, tiny, 2 * tiny, normal, 9.9999999999999995e-05, 1e-5, 1e-4, 1e16, 1e17,
            1000000000000000.25, top]
    base += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    base += [float(f"1e{k}") for k in range(-323, 309)]
    base = np.array(base)
    values = np.concatenate([base, np.nextafter(base, 0.0),
                             np.nextafter(base[base < top], np.inf)])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("style, fmt", STYLES)
def test_random_bit_patterns(style, fmt):
    values = _random_bit_patterns(1_000_000, 20241019)
    assert values.size > 990_000
    assert (np.abs(values) < np.finfo(np.float64).tiny).any()  # subnormals are drawn
    assert _mismatches(values, style, fmt) == []


@pytest.mark.parametrize("style, fmt", STYLES)
def test_edge_values(style, fmt):
    values = _edges()
    assert values.size > 8000
    assert _mismatches(values, style, fmt) == []


@pytest.mark.parametrize("shortest", [False, True])
def test_fast_path_decides_almost_every_normal_value(shortest):
    values = np.abs(_random_bit_patterns(200_000, 7))
    values = values[(values >= 1e-290) & (values < 1e290)]
    undecided = floattext._decimal(values, shortest)[3]
    assert undecided.mean() < 0.01


def test_block_is_read_in_row_major_order():
    values = np.array([[0.5, -1e-7], [123456.789, 0.0]])
    assert texts(values, "g17") == [b"0.5", b"-9.9999999999999995e-08", b"123456.789", b"0"]
    assert texts(values, "repr") == [b"0.5", b"-1e-07", b"123456.789", b"0.0"]



@pytest.mark.parametrize("name", ["_pow10", "_chunk_text", "_layout"])
def test_cached_tables_are_read_only(name):
    # each table is built once and shared by every call, so a write must fail
    build = getattr(floattext, name)
    tables = [*build("g17"), *build("repr")] if name == "_layout" else [build()]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
