"""Checks of every job's output against the oracles.

`check_job` returns a list of problems (empty when the output is right).
Tolerances scale with the conditioning the oracles report: a quantity
computed from sums whose partial sums reach cond times the result is
allowed cond times the rounding of a well-conditioned one.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

import numpy as np

import oracles as orc

EPS = orc.EPS
SERIES_TOL = 1e-12  # the program's default series tail tolerance
INTEGRAL_RTOL = 1e-6
POINT_RTOL = 1e-9
POINTS = 3

LEGAL_OPERATOR = {
    ("A", "plus"): "A2", ("A", "minus"): "A2dag", ("B", "plus"): "B2dag", ("B", "minus"): "B2",
    ("phi", "plus"): "A_K_V", ("phi", "minus"): "B_K_V",
    ("psi", "minus"): "A_K_V_dag", ("psi", "plus"): "B_K_V_dag",
    ("eta", "plus"): "C2", ("eta", "minus"): "D2", ("xi", "minus"): "C2dag", ("xi", "plus"): "D2dag",
}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def rounding_tol(cond: float) -> float:
    return SERIES_TOL + 64 * EPS * cond


class Checker:
    """Holds the caches shared by the checks of one run."""

    def __init__(self, seed: int):
        self.modes = orc.ModeTable()
        self.seed = seed
        self.verified = {}

    # ------------------------------------------------------------ dispatch
    def check_job(self, job: dict, record: dict) -> list:
        """Problems of one job's output.  Byte-identical outputs of the same
        job (the program's exports are byte-stable) are checked once."""
        if record["rc"] != 0:
            return [f"exit code {record['rc']}: {record['stderr'].strip()[-300:]}"]
        key = (json.dumps(job, sort_keys=True), _digest(record))
        if key not in self.verified:
            self.verified[key] = self._check_job(job, record)
        return self.verified[key]

    def _check_job(self, job: dict, record: dict) -> list:
        with open(record["stdout"], encoding="utf-8") as fh:
            stdout = fh.read()
        try:
            return getattr(self, "_" + job["cmd"].replace("-", "_"))(job, record, stdout)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as err:
            return [f"unreadable output: {type(err).__name__}: {err}"]

    # ------------------------------------------------------------ spectrum
    def _spectrum(self, job, record, stdout):
        doc = strict_json(stdout)
        problems = [] if doc["meta"]["V"] == job["V"] else [f"V echo {doc['meta']['V']!r}"]
        return problems + spectrum_problems(doc["levels"], job["V"], job["pmax"],
                                            doc["meta"]["eps0"])

    # --------------------------------------------------------------- state
    def _state(self, job, record, stdout):
        return state_problems(job, strict_json(stdout))

    # ------------------------------------------------------------- density
    def _density(self, job, record, stdout):
        out = record["out"]
        if job["format"] == "csv":
            with open(out, encoding="utf-8") as fh:
                header = fh.readline().strip()
            if header != "x,y,total,upper,lower":
                return [f"bad CSV header {header!r}"]
            data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            with open(out + ".meta.json", encoding="utf-8") as fh:
                meta = strict_json(fh.read())
            grid = meta["grid"]
            nx, ny = grid["nx"], grid["ny"]
            if data.shape != (nx * ny, 5):
                return [f"CSV shape {data.shape} for a {nx}x{ny} grid"]
            cols = [data[:, i].reshape(nx, ny) for i in range(5)]
            xs, ys = cols[0][:, 0], cols[1][0, :]
            if not (np.all(cols[0] == xs[:, None]) and np.all(cols[1] == ys[None, :])):
                return ["CSV rows are not ordered x then y"]
            field = {"total": cols[2], "upper": cols[3], "lower": cols[4]}
        else:
            with open(out, encoding="utf-8") as fh:
                doc = strict_json(fh.read())
            meta = doc["meta"]
            xs, ys = np.array(doc["grid"]["x"]), np.array(doc["grid"]["y"])
            field = {k: np.array(doc[k], dtype=float) for k in ("total", "upper", "lower")}
        return self.density_problems(job, stdout, meta, xs, ys, field, out)

    def density_problems(self, job, stdout, meta, xs, ys, field, out) -> list:
        problems = []
        gx, gy = _grid_axes(job["grid"])
        if not (np.array_equal(xs, gx) and np.array_equal(ys, gy)):
            return ["grid coordinates differ from the requested grid"]
        total, upper, lower = field["total"], field["upper"], field["lower"]
        if total.shape != (gx.size, gy.size):
            return [f"field shape {total.shape}"]
        if not all(np.all(np.isfinite(a)) for a in (total, upper, lower)):
            return ["non-finite density values"]
        if min(upper.min(), lower.min(), total.min()) < 0.0:
            problems.append("negative density values")
        split = np.abs(total - (upper + lower)) > 2 * EPS * total
        if split.any():
            problems.append(f"total != upper + lower at {int(split.sum())} points")

        expected = orc.expected_masses(job["family"], job["branch"], job["V"], 2.0,
                                       orc.parse_label(job["z1"]), orc.parse_label(job["z2"]),
                                       job["nmax"], job["pmax"])
        norm2 = meta["coefficient_norm2"]
        tol = rounding_tol(expected["cond"])
        if orc.rel_diff(norm2, expected["norm2"]) > tol:
            problems.append(f"coefficient_norm2 {norm2!r} vs closed form {expected['norm2']!r}")
        integral = float(np.trapezoid(np.trapezoid(total, gy, axis=1), gx))
        for name, value in (("grid integral", integral), ("captured_mass", meta["captured_mass"])):
            if orc.rel_diff(value, norm2) > INTEGRAL_RTOL:
                problems.append(f"{name} {value!r} vs coefficient_norm2 {norm2!r}")
        if meta["mass_warning"]:
            problems.append("mass warning raised")
        if meta["cutoff"] != {"nmax1": job["nmax"], "nmax2": job["nmax"]}:
            problems.append(f"cutoff echo {meta['cutoff']}")
        if meta["params"]["V"] != job["V"] or meta["params"]["eps0"] != 2.0:
            problems.append(f"params echo {meta['params']}")
        m = re.fullmatch(r"wrote (\S+) \(captured mass (\S+) of (\S+)\)\n", stdout)
        if m is None or m.group(1) != out:
            problems.append(f"unexpected stdout {stdout[:200]!r}")
        elif (orc.rel_diff(float(m.group(2)), meta["captured_mass"]) > 1e-5
              or orc.rel_diff(float(m.group(3)), norm2) > 1e-5):
            problems.append("stdout masses differ from the metadata")
        problems += self.point_problems(job, gx, gy, upper, lower, expected["cond"])
        return problems

    def point_problems(self, job, gx, gy, upper, lower, cond) -> list:
        """Compare |psi|^2 per component at the density peak and at seeded
        grid points carrying at least 1e-3 of the peak with the mode oracle."""
        state = program_state(job)
        total = upper + lower
        peak = float(total.max())
        rng = random.Random(f"{self.seed}:{json.dumps(job, sort_keys=True)}")
        heavy = np.argwhere(total >= 1e-3 * peak)
        points = [tuple(np.unravel_index(int(np.argmax(total)), total.shape))]
        points += [tuple(heavy[rng.randrange(len(heavy))]) for _ in range(POINTS - 1)]
        problems = []
        for i, j in points:
            (u, l), skipped = orc.point_density(self.modes, state.first_register,
                                                (state.upper, state.lower), gx[i], gy[j])
            for name, got, want in (("upper", upper[i, j], u), ("lower", lower[i, j], l)):
                tol = ((POINT_RTOL + 64 * EPS * cond) * want + 1e-12 * peak
                       + 2 * math.sqrt(want) * skipped + skipped ** 2)
                if abs(got - want) > tol:
                    problems.append(f"{name} density at ({gx[i]}, {gy[j]}) is {got!r},"
                                    f" mode oracle {want!r}")
        return problems

    # -------------------------------------------------------------- scan-v
    def _scan_v(self, job, record, stdout):
        with open(record["out"], encoding="utf-8") as fh:
            doc = strict_json(fh.read())
        problems = []
        want = orc.exceptional_points(job["v_from"], job["v_to"])
        got = [(e["V"], e["p"]) for e in doc["exceptional_points"]]
        if [p for _, p in got] != [m for _, m in want] or any(
                orc.rel_diff(a, b) > 4 * EPS for (a, _), (b, _) in zip(got, want)):
            problems.append(f"exceptional points {got} vs {want}")
        vs = np.linspace(job["v_from"], job["v_to"], job["steps"])
        trajectories = doc["trajectories"]
        if [t["V"] for t in trajectories] != vs.tolist():
            return problems + ["trajectory V values differ from the sweep"]
        for tr in trajectories:
            problems += spectrum_problems(tr["levels"], tr["V"], job["pmax"], 2.0)
            for rec in tr["levels"]:
                if rec["class"] != "broken":
                    continue
                q, v = abs(rec["p"]), tr["V"]
                root = math.sqrt(v * v - q)
                want_pm = ((v - root) / math.sqrt(q), (v + root) / math.sqrt(q))
                got_pm = (rec["abs_alpha_plus"], rec["abs_alpha_minus"])
                if any(orc.rel_diff(a, b) > 1e-12 for a, b in zip(got_pm, want_pm)):
                    problems.append(f"|alpha| at V={v}, p={rec['p']}: {got_pm} vs {want_pm}")
        summary = ", ".join(f"V={v:.6g} (p={m})" for v, m in want) or "none in range"
        if stdout != f"exceptional points: {summary}\n":
            problems.append(f"unexpected stdout {stdout[:200]!r}")
        return problems

    # --------------------------------------------------------------- check
    def _check(self, job, record, stdout):
        from lbstates import checks

        lines = stdout.splitlines()
        n = len(checks.ALL_CHECKS)
        passed = [ln for ln in lines[:-1] if ln.startswith("PASS ")]
        problems = []
        if len(lines) != n + 1 or len(passed) != n:
            problems.append(f"{len(passed)} PASS lines of {len(lines) - 1}, expected {n}")
        if lines[-1:] != [f"{n}/{n} checks passed"]:
            problems.append(f"summary {lines[-1:]}")
        return problems


def _digest(record: dict) -> str:
    h = hashlib.sha256()
    paths = [record["stdout"]]
    if record.get("out"):
        paths += [record["out"]] + ([record["out"] + ".meta.json"]
                                    if record["out"].endswith(".csv") else [])
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        if path == record["stdout"] and record.get("out"):
            data = data.replace(record["out"].encode(), b"<out>")
        h.update(data)
        h.update(b"\0")
    return h.hexdigest()


def _grid_axes(spec: str) -> tuple:
    xpart, ypart = spec.split(",")
    axes = []
    for part in (xpart, ypart):
        lo, hi, n = part.split(":")
        axes.append(np.linspace(float(lo), float(hi), int(n)))
    return tuple(axes)


def spectrum_problems(levels: list, V: float, pmax: int, eps0: float) -> list:
    problems = []
    if eps0 != 2.0:
        problems.append(f"eps0 {eps0!r}")
    if [r["p"] for r in levels] != list(range(-pmax, pmax + 1)):
        return problems + ["level window differs from -pmax..pmax"]
    energies = [complex(r["re"], r["im"]) for r in levels]
    for r, e in zip(levels, energies):
        if orc.parse_label(r["energy"]) != e:
            problems.append(f"energy string {r['energy']} differs from re/im at p={r['p']}")
        if r["class"] != orc.level_label(r["p"], V):
            problems.append(f"class {r['class']} at p={r['p']}, V={V}")
    worst = orc.match_spectrum(energies, V, eps0, pmax)
    tol = orc.spectrum_tolerance(V, eps0, pmax)
    if not worst <= tol:
        problems.append(f"energies differ from the dense H(V) eigenvalues by {worst:.3e}"
                        f" (tolerance {tol:.1e}) at V={V}")
    return problems


def state_problems(job: dict, doc: dict) -> list:
    problems = []
    z1, z2 = orc.parse_label(job["z1"]), orc.parse_label(job["z2"])
    if (doc["family"], doc["branch"]) != (job["family"], job["branch"]):
        problems.append("family/branch echo")
    if orc.parse_label(doc["z1"]) != z1 or orc.parse_label(doc["z2"]) != z2:
        problems.append("label echo")
    if doc["params"]["V"] != job["V"] or doc["params"]["eps0"] != 2.0:
        problems.append(f"params echo {doc['params']}")
    up, lo, norm2 = doc["mass_upper"], doc["mass_lower"], doc["norm2"]
    if not all(math.isfinite(v) and v >= 0 for v in (up, lo, norm2)):
        return problems + ["masses not finite and non-negative"]
    if orc.rel_diff(norm2, up + lo) > 4 * EPS:
        problems.append("norm2 != mass_upper + mass_lower")
    ratio = doc["mass_ratio"]
    if (ratio is None) != (lo == 0) or (ratio is not None and orc.rel_diff(ratio, up / lo) > 4 * EPS):
        problems.append("mass_ratio != mass_upper / mass_lower")
    expected = orc.expected_masses(job["family"], job["branch"], job["V"], 2.0, z1, z2,
                                   job["nmax"], job["pmax"])
    tol = rounding_tol(expected["cond"])
    for key in ("mass_upper", "mass_lower"):
        if orc.rel_diff(doc[key], expected[key]) > tol:
            problems.append(f"{key} {doc[key]!r} vs closed form {expected[key]!r}")
    for key in ("normalization_N", "effective_N"):
        if key in expected and orc.rel_diff(doc.get(key, math.nan), expected[key]) > tol:
            problems.append(f"{key} {doc.get(key)!r} vs closed form {expected[key]!r}")
    tails = doc["tails"]
    if not all(math.isfinite(t) and t >= 0 for t in tails.values()):
        problems.append("tail estimates not finite and non-negative")
    gaussian_tails = ("tail_z1",) if job["family"] in ("eta", "xi") else ("tail_z1", "tail_z2")
    for key in gaussian_tails:
        if tails.get(key, math.inf) > SERIES_TOL:
            problems.append(f"{key} {tails.get(key)} above the series tolerance")
    op = LEGAL_OPERATOR[(job["family"], job["branch"])]
    residuals = doc["eigen_residuals"]
    if set(residuals) != {"A1", op}:
        problems.append(f"residuals reported for {sorted(residuals)}, expected A1 and {op}")
    res_tol = 1e-9 * max(1.0, math.sqrt(norm2)) * max(1.0, abs(z1), abs(z2))
    for name, value in residuals.items():
        if not (math.isfinite(value) and 0 <= value <= res_tol):
            problems.append(f"eigen residual {name} = {value!r} above {res_tol:.1e}")
    if job["family"] in ("A", "B"):
        if "bi_product" in doc:
            problems.append("bi_product reported for a V = 0 coherent state")
        return problems
    bi = complex(doc["bi_product"]["re"], doc["bi_product"]["im"])
    bi_tol = SERIES_TOL + 64 * EPS * max(expected["cond"], norm2)
    if abs(bi - 1.0) > bi_tol:
        problems.append(f"bi-product {bi!r} differs from 1 by more than {bi_tol:.1e}")
    return problems


def program_state(job: dict):
    """The coefficient-space state of a density job, built through the
    package's public constructors (its masses are checked against the
    closed forms above; the mode oracle checks the map to position space)."""
    from lbstates import (BicoherentSpec, CoherentSpec, FockCutoff, PhysicalParams,
                          build_bicoherent, build_coherent)

    cut = FockCutoff(job["nmax"], job["nmax"], min(job["pmax"], job["nmax"]))
    z1, z2 = orc.parse_label(job["z1"]), orc.parse_label(job["z2"])
    if job["family"] in ("A", "B"):
        return build_coherent(CoherentSpec(z1, z2, job["family"], job["branch"], cut))
    fam, side = {"phi": ("standard", "ket"), "psi": ("standard", "bra"),
                 "eta": ("theta", "ket"), "xi": ("theta", "bra")}[job["family"]]
    params = PhysicalParams(V=job["V"])
    return build_bicoherent(BicoherentSpec(z1, z2, fam, side, job["branch"], params, cut))
