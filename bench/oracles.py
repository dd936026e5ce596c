"""Independent oracles for the benchmark's output checks.

Nothing here imports lbstates.  Each oracle recomputes a quantity the
program reports by another route:

* circular modes e_{n1,n2} from exact integer Kravchuk sums and 1D
  oscillator functions from raw Hermite polynomials in mpmath, evaluated
  at single grid points;
* the spectrum from a dense numpy matrix of the H(V) spinor block;
* exceptional points as sqrt(m) over the integers m in [from^2, to^2];
* coefficient-space masses of every family from the closed-form level
  norms (the series weights are recomputed here, not read back).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------- modes

def oscillator_values(jmax: int, x: float, dps: int = 60) -> np.ndarray:
    """psi_j(x) for j = 0..jmax as H_j(x) exp(-x^2/2) / sqrt(2^j j! sqrt(pi)),
    with the raw Hermite recurrence carried in dps-digit arithmetic."""
    out = np.empty(jmax + 1)
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        gauss = mpmath.exp(-xm * xm / 2) / mpmath.sqrt(mpmath.sqrt(mpmath.pi))
        h_prev, h_cur = mpmath.mpf(0), mpmath.mpf(1)
        scale = mpmath.mpf(1)  # sqrt(2^j j!)
        for j in range(jmax + 1):
            if j > 0:
                h_prev, h_cur = h_cur, 2 * xm * h_cur - 2 * (j - 1) * h_prev
                scale *= mpmath.sqrt(2 * j)
            out[j] = float(h_cur * gauss / scale)
    return out


class ModeTable:
    """Anti-diagonal coefficients of e_{n1,n2} = sum_j c_j |j, N-j>, N = n1+n2.

    c_j = i^(N-j) S_j sqrt(j! (N-j)! / (2^N n1! n2!)), where S_j is the
    integer coefficient of t^j in (1+t)^n1 (t-1)^n2.  The integer
    polynomials are built exactly; only the final scaling is rounded.
    Results are cached per (n1, n2) across calls.
    """

    def __init__(self):
        self._poly = {}  # (n1, n2) -> list of ints
        self._coef = {}

    def _integer_poly(self, n1: int, n2: int) -> list:
        key = (n1, n2)
        if key in self._poly:
            return self._poly[key]
        if n1 == 0:
            poly = [math.comb(n2, l) * (-1) ** (n2 - l) for l in range(n2 + 1)]
        else:
            prev = self._integer_poly(n1 - 1, n2)
            poly = [a + b for a, b in zip(prev + [0], [0] + prev)]
        self._poly[key] = poly
        return poly

    def coefficients(self, n1: int, n2: int) -> np.ndarray:
        key = (n1, n2)
        if key in self._coef:
            return self._coef[key]
        big_n = n1 + n2
        s = np.array([float(v) for v in self._integer_poly(n1, n2)])
        j = np.arange(big_n + 1)
        log_scale = 0.5 * (
            np.array([math.lgamma(k + 1) + math.lgamma(big_n - k + 1) for k in j])
            - big_n * math.log(2.0) - math.lgamma(n1 + 1) - math.lgamma(n2 + 1)
        )
        phase = np.array([1, 1j, -1, -1j])[(big_n - j) % 4]
        coef = phase * s * np.exp(log_scale)
        self._coef[key] = coef
        return coef


def mode_value(table: ModeTable, n1: int, n2: int, px: np.ndarray, py: np.ndarray) -> complex:
    """e_{n1,n2}(x, y) from oscillator values px[j] = psi_j(x), py[k] = psi_k(y)."""
    big_n = n1 + n2
    c = table.coefficients(n1, n2)
    return complex(np.dot(c, px[: big_n + 1] * py[big_n::-1]))


def point_density(table: ModeTable, first: np.ndarray, comps: tuple, x: float, y: float,
                  prune: float = 1e-18) -> tuple:
    """|sum_{n1,n2} first[n1] comp[n2] e_{n1,n2}(x, y)|^2 for each component.

    Mode pairs whose weight is below prune times the largest weight are
    skipped; their total contribution is returned as a bound.
    """
    top = (first.size - 1) + max(c.size for c in comps) - 1
    px = oscillator_values(top, x)
    py = oscillator_values(top, y)
    n1s = np.flatnonzero(first)
    values, skipped = [], 0.0
    for comp in comps:
        n2s = np.flatnonzero(comp)
        wmax = np.abs(first).max() * np.abs(comp).max() if n2s.size else 0.0
        psi = 0.0 + 0.0j
        for n1 in n1s:
            for n2 in n2s:
                w = first[n1] * comp[n2]
                if abs(w) < prune * wmax:
                    skipped += abs(w) * math.sqrt(n1 + n2 + 1)
                    continue
                psi += w * mode_value(table, int(n1), int(n2), px, py)
        values.append(abs(psi) ** 2)
    return tuple(values), skipped


# -------------------------------------------------------------- spectrum

def hv_block(V: float, eps0: float, pmax: int) -> np.ndarray:
    """Dense (2 pmax + 1)-square H(V) = i eps0 [[V, a^+], [-a, -V]] on upper
    modes 0..pmax and lower modes 0..pmax-1 (the largest invariant block)."""
    d = pmax + 1
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)  # a|k> = sqrt(k)|k-1>
    h = np.zeros((2 * d, 2 * d), dtype=complex)
    h[:d, :d] = 1j * eps0 * V * np.eye(d)
    h[:d, d:] = 1j * eps0 * a.T
    h[d:, :d] = -1j * eps0 * a
    h[d:, d:] = -1j * eps0 * V * np.eye(d)
    keep = list(range(d)) + list(range(d, 2 * d - 1))
    return h[np.ix_(keep, keep)]


def dense_spectrum(V: float, eps0: float, pmax: int) -> np.ndarray:
    return np.linalg.eigvals(hv_block(V, eps0, pmax))


def spectrum_tolerance(V: float, eps0: float, pmax: int) -> float:
    """Eigenvalues of a nearly defective 2x2 block move by about
    eps |H| / gap; gap is the distance of V^2 to the nearest level."""
    gaps = [abs(p - V * V) for p in range(1, pmax + 1)]
    gap = min(gaps) if gaps else 1.0
    return 1e3 * EPS * eps0 * math.sqrt(pmax + V * V + 1) * (1.0 + 1.0 / max(gap, 1e-300))


def match_spectrum(energies: list, V: float, eps0: float, pmax: int) -> float:
    """Largest distance between each program energy and a distinct dense
    eigenvalue (greedy nearest matching); inf when counts differ."""
    dense = list(dense_spectrum(V, eps0, pmax))
    if len(dense) != len(energies):
        return math.inf
    worst = 0.0
    for e in sorted(energies, key=lambda z: (z.real, z.imag)):
        k = min(range(len(dense)), key=lambda i: abs(dense[i] - e))
        worst = max(worst, abs(dense.pop(k) - e))
    return worst


def level_label(p: int, V: float) -> str:
    """PT classification from exact rational arithmetic on p against V^2."""
    if p == 0:
        return "zero_mode"
    v2 = Fraction(V) ** 2
    q = abs(p)
    if q == v2:
        return "exceptional"
    return "broken" if q < v2 else "unbroken"


def exceptional_points(v_from: float, v_to: float) -> list:
    """(sqrt(m), m) for every integer m >= 1 with from^2 <= m <= to^2."""
    lo, hi = Fraction(v_from) ** 2, Fraction(v_to) ** 2
    m0 = max(1, math.ceil(lo))
    return [(math.sqrt(m), m) for m in range(m0, math.floor(hi) + 1)]


# ----------------------------------------------------- coefficient masses

def _sqrt_disc(q: int, V: float) -> complex:
    d = q - V * V
    return complex(math.sqrt(d), 0.0) if d >= 0 else complex(0.0, math.sqrt(-d))


def level_masses(p: int, V: float) -> tuple:
    """(upper, lower) squared norms of the expansion spinor at level p, for
    the ket phi_p and (identically) its dual: (1, 0) at p = 0; each
    sqrt(q) / (2 sqrt(q - V^2)) on unbroken levels; on broken levels, with
    t = sqrt(V^2 - q), (q, V -+ t) / (2 t (V -+ t)) scaled as below."""
    if p == 0:
        return 1.0, 0.0
    q = abs(p)
    d = q - V * V
    if d > 0:
        half = math.sqrt(q) / (2.0 * math.sqrt(d))
        return half, half
    t = math.sqrt(-d)
    s = V - t if p > 0 else V + t
    return q / (2.0 * t * s), s / (2.0 * t)


def coherent_weights(z: complex, count: int) -> np.ndarray:
    """|exp(-|z|^2/2) z^n / sqrt(n!)|^2 for n = 0..count-1, from logs."""
    r2 = abs(z) ** 2
    if r2 == 0.0:
        out = np.zeros(count)
        out[0] = 1.0
        return out
    n = np.arange(count)
    return np.exp(-r2 + n * math.log(r2) - np.array([math.lgamma(k + 1) for k in n]))


def theta_value(k: int, V: float, eps0: float, branch: str) -> complex:
    """Shifted eigenvalue theta_{+k} (plus) or theta_{-k} (minus), k >= 1."""
    s = _sqrt_disc(k, V)
    if branch == "plus":
        return eps0 * (s - 1j * V)
    return -eps0 * (s + 1j * V)


def expected_masses(family: str, branch: str, V: float, eps0: float, z1: complex,
                    z2: complex, nmax: int, pmax: int) -> dict:
    """Closed-form coefficient-space masses of the state a `state` or
    `density` job builds, with the conditioning of the computation.

    Returns mass_upper, mass_lower, norm2, cond (the factor by which
    rounding is amplified: the ratio of the largest partial sum to the
    result) and, for the theta family, normalization_N and effective_N.
    """
    pmax = min(pmax, nmax)
    fr2 = float(coherent_weights(z1, nmax + 1).sum())
    if family in ("A", "B"):
        sigma = {("A", "plus"): lambda n: n, ("A", "minus"): lambda n: -n - 1,
                 ("B", "plus"): lambda n: n + 1, ("B", "minus"): lambda n: -n}[(family, branch)]
        cap = pmax if (family, branch) in (("A", "plus"), ("B", "minus")) else pmax - 1
        w = coherent_weights(z2, cap + 1)
        up = sum(w[n] * (1.0 if sigma(n) == 0 else 0.5) for n in range(cap + 1))
        lo = sum(w[n] * (0.0 if sigma(n) == 0 else 0.5) for n in range(cap + 1))
        return {"mass_upper": fr2 * up, "mass_lower": fr2 * lo, "norm2": fr2 * (up + lo),
                "cond": 1.0}
    cap = pmax if branch == "plus" else pmax - 1
    sigma = (lambda n: n) if branch == "plus" else (lambda n: -n - 1)
    out = {}
    if family in ("phi", "psi"):
        w = coherent_weights(z2, cap + 1)
        scale = 1.0
        cond = 1.0
    else:
        # |coef_n|^2 = m_n / |T| with m_n = |z|^(2n) / |Theta_n!| and the
        # complex pairing sum T = sum_n |z|^(2n) / Theta_n!.
        r2 = abs(z2) ** 2
        m = np.empty(cap + 1)
        term = 1.0 + 0.0j
        t_sum = term
        m[0] = 1.0
        for n in range(1, cap + 1):
            term = term * r2 / theta_value(n, V, eps0, branch)
            m[n] = abs(term)
            t_sum += term
        w = m
        scale = 1.0 / abs(t_sum)
        cond = float(m.sum()) / abs(t_sum)
        out["normalization_N"] = float(m.sum()) ** -0.5
        out["effective_N"] = abs(t_sum) ** -0.5
    up = lo = 0.0
    for n in range(cap + 1):
        mu, ml = level_masses(sigma(n), V)
        up += w[n] * mu
        lo += w[n] * ml
    out.update(mass_upper=fr2 * scale * up, mass_lower=fr2 * scale * lo,
               norm2=fr2 * scale * (up + lo), cond=max(1.0, cond))
    return out


def parse_label(text: str) -> complex:
    """The 'a+bi' labels the benchmark itself writes (see jobs.format_label)."""
    return complex(text.replace("i", "j")) if text.endswith("i") else complex(float(text))


def rel_diff(a: float, b: float) -> float:
    den = max(abs(a), abs(b))
    return 0.0 if den == 0.0 else abs(a - b) / den
