"""Seeded job lists of the four workloads.

A job is one README-style `lbstates` command, kept as a dict of its
inputs so the checker can rebuild what it should have produced.  Each
workload is a fixed round of slots.  A slot fixes what sets the cost of a
job: the family pair, V, the window, the grid, the format and the moduli
|z1|, |z2| of the labels (the series lengths depend on the moduli only).
The seed draws the rest: which member of the pair (ket or bra, A or B),
the branch, and the phases of the labels, as points of the 0.25 lattice
with |Re|, |Im| <= 1.5 on the circle of the slot's modulus.  So every seed
gives other inputs but the same work per round.

V avoids integer V^2, the theta family at V > 1 only appears with windows
of at least V^2 + 60, and each slot's moduli keep its series inside the
tail bound of its window (bench/selftest.py builds every choice).
"""

from __future__ import annotations

import random

WORKLOADS = ("density-window", "density-grid", "states", "cli")
LATTICE = [k * 0.25 for k in range(-6, 7)]
PAIRS = {"A": ("A", "B"), "B": ("A", "B"), "phi": ("phi", "psi"), "psi": ("phi", "psi"),
         "eta": ("eta", "xi"), "xi": ("eta", "xi")}


def format_label(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}i"


def circle(r2: float) -> list:
    """Lattice labels with |z|^2 = r2 (exact: the lattice is dyadic)."""
    return [complex(a, b) for a in LATTICE for b in LATTICE if a * a + b * b == r2]


def _state_job(rng, cmd, family, V, window, r1, r2, **extra) -> dict:
    """A state or density job; r1 and r2 are |z1|^2 and |z2|^2."""
    job = {
        "cmd": cmd, "family": family, "branch": rng.choice(("plus", "minus")), "V": V,
        "z1": format_label(rng.choice(circle(r1))), "z2": format_label(rng.choice(circle(r2))),
        "nmax": window, "pmax": window,
    }
    job.update(extra)
    return job


# The README's V = 9.5 eta command, on a coarse grid.
README_DENSITY = {"cmd": "density", "family": "eta", "branch": "plus", "V": 9.5, "z1": "0",
                  "z2": "1-1i", "nmax": 150, "pmax": 150, "format": "csv",
                  "grid": "-8:8:129,-8:8:129"}
# (family pair, V, window, |z1|^2, |z2|^2, grid points per axis, format,
# branch or None to draw it).  The theta slot fixes its branch: at V > 1
# the branch sets how far the series weights reach, and so the number of
# modes the basis change visits.
WINDOW_SLOTS = (("eta", 9.5, 200, 1.25, 1.25, 97, "json", "plus"),
                ("phi", 0.8, 250, 2.5, 2.5, 129, "csv", None))


def _density_slots(rng, slots) -> list:
    jobs = []
    for fam, V, window, r1, r2, n, fmt, branch in slots:
        job = _state_job(rng, "density", rng.choice(PAIRS[fam]), V, window, r1, r2,
                         format=fmt, grid=f"-8:8:{n},-8:8:{n}")
        if branch is not None:
            job["branch"] = branch
        jobs.append(job)
    return jobs


def _density_window(rng) -> list:
    return [README_DENSITY] + _density_slots(rng, WINDOW_SLOTS)


# Same layout as WINDOW_SLOTS.
GRID_SLOTS = (("A", 0.0, 24, 0.125, 0.3125, 385, "csv", None),
              ("phi", 1.7, 40, 0.625, 1.25, 513, "json", None),
              ("phi", 0.5, 48, 1.25, 2.125, 449, "csv", None))


def _density_grid(rng) -> list:
    return _density_slots(rng, GRID_SLOTS)


# (family, V, window, |z1|^2, |z2|^2): all six families, every V of the
# workload, and three slots drawing from a pair.  An odd number of slots
# keeps the median job inside one slot's cluster of times.
STATE_SLOTS = (("A", 0.0, 500, 2.5, 2.5), ("B", 0.0, 300, 1.25, 3.25),
               ("phi", 0.5, 400, 2.5, 1.25), ("psi", 0.8, 200, 1.25, 2.5),
               ("eta", 1.7, 250, 2.5, 2.5), ("xi", 2.5, 350, 1.25, 3.25),
               (PAIRS["eta"], 9.5, 450, 2.5, 2.5), (PAIRS["phi"], 9.5, 220, 3.25, 1.25),
               (PAIRS["phi"], 1.7, 280, 2.5, 2.5))


def _states(rng) -> list:
    return [_state_job(rng, "state", fam if isinstance(fam, str) else rng.choice(fam),
                       V, window, r1, r2)
            for fam, V, window, r1, r2 in STATE_SLOTS]


CLI_STATE = (("A", 0.0), ("B", 0.0), ("phi", 0.8), ("psi", 1.7), ("eta", 0.5), ("xi", 2.5))
CLI_DENSITY = (("A", 0.0), ("B", 0.0), ("phi", 0.5), ("psi", 2.5))


def _cli(rng) -> list:
    state = _state_job(rng, "state", *rng.choice(CLI_STATE), 64, 1.25, 2.5)
    dens = _state_job(rng, "density", *rng.choice(CLI_DENSITY), 32, 0.625, 1.25,
                      format="csv", grid="-6:6:65,-6:6:65")
    return [
        {"cmd": "spectrum", "V": rng.choice((0.0, 0.5, 0.8, 1.7, 2.5, 3.3)), "pmax": 10,
         "format": "json"},
        state,
        dens,
        {"cmd": "scan-v", "v_from": 0.5, "v_to": 3.5, "steps": 100, "pmax": 8, "format": "json",
         "out": True},
        {"cmd": "check"},
    ]


def round_jobs(workload: str, seed: int) -> list:
    """The slots of one round; every round of a run repeats them."""
    rng = random.Random(f"{workload}:{seed}")
    return {"density-window": _density_window, "density-grid": _density_grid,
            "states": _states, "cli": _cli}[workload](rng)


def probe_jobs(seed: int) -> list:
    """Jobs run in-process after a traced loop, so that every layer is
    timed on every workload: the cli round, its density job exported in
    the other format, and one coherent and one bicoherent state."""
    rnd = round_jobs("cli", seed)
    dens = next(job for job in rnd if job["cmd"] == "density")
    state = {"cmd": "state", "branch": "plus", "z1": "1+1i", "z2": "1-1i", "nmax": 64, "pmax": 64}
    return rnd + [dict(dens, format="json" if dens["format"] == "csv" else "csv"),
                  dict(state, family="A", V=0.0), dict(state, family="eta", V=0.5)]


def warmup_job(workload: str) -> dict:
    """A small job of the workload's kind, run once while setting up."""
    if workload == "states":
        return {"cmd": "state", "family": "phi", "branch": "plus", "V": 0.5, "z1": "1+1i",
                "z2": "1-1i", "nmax": 48, "pmax": 48}
    return {"cmd": "density", "family": "phi", "branch": "plus", "V": 0.5, "z1": "1+1i",
            "z2": "1-1i", "nmax": 48, "pmax": 48, "format": "csv", "grid": "-6:6:33,-6:6:33"}


def argv(job: dict, out_path: str | None) -> list:
    """Command-line arguments of the job (without the program name)."""
    cmd = job["cmd"]
    if cmd == "check":
        return ["check"]
    args = [cmd]
    if cmd == "scan-v":
        args += [f"--from={job['v_from']}", f"--to={job['v_to']}", "--steps", str(job["steps"]),
                 "--pmax", str(job["pmax"])]
    else:
        args += ["--V", repr(float(job["V"])), "--pmax", str(job["pmax"])]
    if cmd in ("state", "density"):
        args += ["--family", job["family"], "--branch", job["branch"], f"--z1={job['z1']}",
                 f"--z2={job['z2']}", "--nmax", str(job["nmax"])]
    if cmd == "density":
        args += [f"--grid={job['grid']}"]
    if "format" in job:
        args += ["--format", job["format"]]
    if out_path is not None:
        args += ["--out", out_path]
    return args


def writes_file(job: dict) -> bool:
    return job["cmd"] == "density" or bool(job.get("out"))
