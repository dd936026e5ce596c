"""50-digit mpmath references for the level and theta tables and for the
series built from them, evaluated from their definitions one level or one
term at a time.  Float inputs are taken at their exact binary values, so
the references are the true values of the program's inputs.
"""

import numpy as np
from mpmath import mp, mpc, mpf

DPS = 50
EPS = 2.0 ** -53  # unit roundoff of a double


def level_entries(p: int, V: float) -> list:
    """(upper, lower) of phi_p and of its regime dual: K_phi (1, alpha_own)
    and K_psi (1, -alpha_dual), K_psi > 0, with conj(K_phi) K_psi =
    |p| / (2 (d -+ i V s)), d = |p| - V^2, s its principal root and -+ the
    dual's branch (- on plus); the dual takes the other branch, or the own
    one on broken levels."""
    if p == 0:
        return [mpc(1), mpc(0), mpc(1), mpc(0)]
    with mp.workdps(DPS):
        V, q = mpf(V), abs(p)
        d = q - V * V
        s = mp.sqrt(mpc(d))
        own = 1 if p > 0 else -1
        dual = own if d < 0 else -own
        r = q / (2 * (d - dual * 1j * V * s))
        k_psi = mp.sqrt(abs(r))
        k_phi = mp.conj(r) / k_psi
        return [k_phi, k_phi * alpha(q, V, own), k_psi, -k_psi * alpha(q, V, dual)]


def alpha(q: int, V, sign: int):
    """(-V - sign i s) / sqrt(q): sign +1 on the plus branch."""
    with mp.workdps(DPS):
        V = mpf(V)
        return (-V - sign * 1j * mp.sqrt(mpc(q - V * V))) / mp.sqrt(q)


def energy(p: int, V: float, eps0: float):
    """E_p: eps0 s for p >= 1, -eps0 s for p <= -1, i eps0 V at p = 0."""
    with mp.workdps(DPS):
        V, eps0 = mpf(V), mpf(eps0)
        if p == 0:
            return 1j * eps0 * V
        s = mp.sqrt(mpc(abs(p) - V * V))
        return eps0 * s if p > 0 else -eps0 * s


def theta(p: int, V: float, eps0: float):
    """E_p - E_0: eps0 (s - iV) for p >= 1, -eps0 (s + iV) for p <= -1."""
    if p == 0:
        return mpc(0)
    with mp.workdps(DPS):
        V, eps0 = mpf(V), mpf(eps0)
        s = mp.sqrt(mpc(abs(p) - V * V))
        return eps0 * (s - 1j * V) if p > 0 else -eps0 * (s + 1j * V)


def gaussian_series(z: complex, n_terms: int) -> list:
    """exp(-|z|^2/2) z^n / sqrt(n!), n < n_terms, term by term."""
    with mp.workdps(DPS):
        z = mpc(z)
        out = [mp.exp(-abs(z) ** 2 / 2)]
        for n in range(1, n_terms):
            out.append(out[-1] * z / mp.sqrt(n))
        return out


def theta_series(z: complex, V: float, eps0: float, step: int, n_terms: int) -> tuple:
    """Ket terms z^n / (sqrt(theta_1) ... sqrt(theta_n)) and bra terms with
    the conjugate roots, along the branch's levels step * k, term by term."""
    with mp.workdps(DPS):
        z = mpc(z)
        ket, bra = [mpc(1)], [mpc(1)]
        for k in range(1, n_terms):
            root = mp.sqrt(theta(step * k, V, eps0))
            ket.append(ket[-1] * z / root)
            bra.append(bra[-1] * z / mp.conj(root))
        return ket, bra


def normalization(rho: float, V: float, eps0: float, step: int, n_terms: int):
    """(sum_{n < n_terms} rho^(2n) / (|theta_1| ... |theta_n|))^(-1/2)."""
    with mp.workdps(DPS):
        term = total = mpf(1)
        for k in range(1, n_terms):
            term = term * mpf(rho) ** 2 / abs(theta(step * k, V, eps0))
            total += term
        return total ** -0.5


def rel_errors(got, want) -> np.ndarray:
    """|got - want| / |want| entry by entry, with want rounded to doubles
    (that rounding is below 2.3e-16 relative); an exactly zero reference
    must be matched exactly (error 0, else inf)."""
    got = np.asarray(got, dtype=complex)
    want = np.array([complex(w) for w in np.ravel(want)], dtype=complex).reshape(got.shape)
    zero = want == 0
    err = np.abs(got - want) / np.where(zero, 1.0, np.abs(want))
    return np.where(zero, np.where(got == 0, 0.0, np.inf), err)
