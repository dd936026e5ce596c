"""Command-line surface: spectrum, state, density, check, scan-v.

Complex literals use the locale-free "a+bi" form ("1-1i", "2i", "-3",
"1+i"); grids are "xmin:xmax:nx,ymin:ymax:ny".  A report is rendered
whole by `finite_json` or `finite_csv`, which refuse NaN and infinities,
then `write_document` writes it to --out (removed if the write fails)
or stdout.  Exit codes: 0 success, 1 numerical contract or I/O failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from .bicoherent import FAMILIES, BicoherentSpec, bicoherent_eigen_residual, build_bicoherent
from .coherent import CoherentSpec, build_coherent, eigen_residual
from .densities import (DEFAULT_GRID, GridSpec, density, export, finite_csv, finite_json,
                        gain_loss, write_document)
from .errors import ContractError, LbError
from .fock import FockCutoff
from .levels import PAIRINGS, alpha_moduli, spectrum_table, window_levels
from .params import PhysicalParams


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' with optional parts: '2', '-1.5', '1-1i', 'i', '-2i'.
    Both parts and the modulus must be finite."""
    s = text.strip().replace(" ", "")
    body = s[:-1]
    m = re.match(
        r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
        r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?|)$",
        body,
    )
    try:
        if not s.endswith("i"):
            z = complex(float(s), 0.0)
        elif body in ("", "+", "-"):
            z = complex(0.0, -1.0 if body == "-" else 1.0)
        elif m and m.group("im"):
            im = m.group("im")
            z = complex(float(m.group("re") or 0.0), float(im + "1" if im in "+-" else im))
        else:  # purely imaginary with explicit magnitude, e.g. '2i' or '1.5e-3i'
            z = complex(0.0, float(body))
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise ValueError(f"complex literal {text!r} or its modulus is not finite")
    return z


def format_complex(z: complex) -> str:
    re_s = "%.17g" % z.real
    im_s = "%.17g" % abs(z.imag)
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_s}{sign}{im_s}i"


# Every flag of the CLI.  Each subparser adds only the flags its command
# reads (`build_parser`), so a flag the command would ignore is a usage error.
_FLAGS = {
    "--vf": dict(type=float, default=1.0, help="Fermi velocity (default 1)"),
    "--xi": dict(type=float, default=1.0, help="magnetic length (default 1)"),
    "--V": dict(type=float, default=0.0, help="chemical-potential strength"),
    "--nmax": dict(type=int, default=64, help="Fock cutoff for both registers"),
    "--pmax": dict(type=int, default=32, help="level window |p| <= pmax"),
    "--tol": dict(type=float, default=1e-12, help="series tail tolerance"),
    "--z1": dict(type=parse_complex, default="0", help="first-register label, 'a+bi'"),
    "--z2": dict(type=parse_complex, default="0", help="level-register label, 'a+bi'"),
    "--family": dict(required=True, choices=tuple(dict.fromkeys(fam for fam, _ in PAIRINGS)),
                     help="A/B: V=0 coherent; phi/psi: standard bicoherent ket/bra;"
                          " eta/xi: theta-family ket/bra"),
    "--branch": dict(choices=("plus", "minus"), default="plus"),
    "--grid": dict(default=DEFAULT_GRID, help="xmin:xmax:nx,ymin:ymax:ny"),
    "--from": dict(dest="v_from", type=float, required=True),
    "--to": dict(dest="v_to", type=float, required=True),
    "--steps": dict(type=int, default=50),
    "--suite": dict(action="append", default=None,
                    help="only run checks whose name contains this substring"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None, help="output path (default stdout)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbstates",
        description="Coherent and bicoherent states of a graphene layer in a magnetic field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    state = ("--vf", "--xi", "--V", "--nmax", "--pmax", "--tol", "--z1", "--z2", "--family",
             "--branch")
    commands = {
        "spectrum": (cmd_spectrum, "eigenvalues and level classification",
                     ("--vf", "--xi", "--V", "--pmax", "--format", "--out")),
        "state": (cmd_state, "build a state and report its diagnostics (JSON)",
                  state + ("--out",)),
        "density": (cmd_density, "position-space density grid export",
                    state + ("--grid", "--format", "--out")),
        "check": (cmd_check, "run the invariant suites (CI entry point)", ("--suite",)),
        "scan-v": (cmd_scan, "sweep V: eigenvalue trajectories and exceptional points",
                   ("--vf", "--xi", "--pmax", "--from", "--to", "--steps", "--format", "--out")),
    }
    for name, (func, text, flags) in commands.items():
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _params(args) -> PhysicalParams:
    return PhysicalParams(vf=args.vf, xi=args.xi, V=args.V)


def _cutoff(args) -> FockCutoff:
    return FockCutoff(args.nmax, args.nmax, min(args.pmax, args.nmax))


# The largest --nmax/--pmax.  States and their registers are arrays as
# long as the window (16 MB per complex array at the limit), so this bounds
# the memory of any command; the README, the tests and the benchmark use
# windows of at most 10^5.
MAX_WINDOW = 10 ** 6


# Rows one `spectrum` or `scan-v` call may write: 2 pmax + 1 levels per V
# step plus the exceptional points m in [from^2, to^2].  A JSON row takes
# 60-150 bytes, so this bounds the output near 150 MB.
MAX_ROWS = 10 ** 6


def _require_rows(pmax: int, steps: int = 1, v_from: float = 0.0, v_to: float = 0.0) -> None:
    """Refuse (ContractError) an output of more than MAX_ROWS rows."""
    top = v_to * v_to
    points = (math.floor(top) - max(1, math.ceil(v_from * v_from)) + 1
              if math.isfinite(top) else math.inf)
    rows = (2 * pmax + 1) * steps + max(points, 0)
    if rows > MAX_ROWS:
        # three digits of the count: it can be an integer of thousands of
        # digits, or inf once to^2 overflows
        count = (f"about {rows:.3g}" if rows <= sys.float_info.max
                 else f"more than {sys.float_info.max:.3g}")
        raise ContractError(f"the output would hold {count} rows; the limit is"
                            f" MAX_ROWS = {MAX_ROWS}")


def _level_records(params: PhysicalParams, pmax: int) -> list:
    """One record per level of the window, from one `spectrum_table` call.
    E_p (one part of it zero) is 0 at exceptional levels and at p = V = 0
    only; one that underflows has lost digits and is refused."""
    ps = window_levels(pmax)
    energies, labels = spectrum_table(ps, params)
    size = np.maximum(np.abs(energies.real), np.abs(energies.imag))
    lost = (size < sys.float_info.min) & (labels != "exceptional") & ((ps != 0) | (params.V != 0.0))
    if lost.any():
        raise ContractError(f"energy E_{ps[lost][0]} = {format_complex(energies[lost][0])}"
                            f" underflows and loses digits; eps0 = {params.eps0!r}")
    return [{"p": p, "energy": format_complex(e), "re": e.real, "im": e.imag, "class": label}
            for p, e, label in zip(ps.tolist(), energies.tolist(), labels.tolist())]


def _report(args, doc: dict, keys: list, rows) -> None:
    """Write doc as JSON, or the rows (dicts) at the keys as CSV."""
    text = finite_csv(keys, rows) if args.format == "csv" else finite_json(doc) + "\n"
    write_document(args.out, [text])


def cmd_spectrum(args, parser) -> int:
    params = _params(args)
    _require_rows(args.pmax)
    records = _level_records(params, args.pmax)
    meta = {"vf": params.vf, "xi": params.xi, "V": params.V, "eps0": params.eps0,
            "pmax": args.pmax}
    _report(args, {"meta": meta, "levels": records}, ["p", "re", "im", "class", "energy"],
            records)
    return 0


def _build_state(args, parser) -> tuple:
    params = _params(args)
    cutoff = _cutoff(args)
    family = args.family
    if family in ("A", "B"):
        if params.V != 0.0:
            parser.error(f"family {family} is the V=0 construction; got --V {params.V}")
        spec = CoherentSpec(args.z1, args.z2, family, args.branch, cutoff, args.tol)
        return build_coherent(spec), spec, params
    fam, side = FAMILIES[family]
    if params.V == 0.0 and fam == "standard":
        parser.error("families phi/psi/eta/xi describe the V != 0 system; use --V")
    spec = BicoherentSpec(args.z1, args.z2, fam, side, args.branch, params, cutoff, args.tol)
    return build_bicoherent(spec), spec, params


def cmd_state(args, parser) -> int:
    state, spec, params = _build_state(args, parser)
    masses = gain_loss(state)
    report = {
        "family": args.family,
        "branch": args.branch,
        "z1": format_complex(args.z1),
        "z2": format_complex(args.z2),
        "params": {"vf": params.vf, "xi": params.xi, "V": params.V, "eps0": params.eps0},
        "norm2": state.norm2(),
        "mass_upper": masses["mass_upper"],
        "mass_lower": masses["mass_lower"],
        "mass_ratio": masses["ratio"],
        "tails": {k: v for k, v in state.meta.items() if k.startswith("tail")},
    }
    op = PAIRINGS[(args.family, args.branch)].op
    residual = eigen_residual if isinstance(spec, CoherentSpec) else bicoherent_eigen_residual
    report["eigen_residuals"] = {"A1": residual(spec, state, "A1"), op: residual(spec, state, op)}
    if isinstance(spec, BicoherentSpec):
        dual = state.dual
        bi = state.inner(dual) if spec.side == "ket" else dual.inner(state)
        report["bi_product"] = {"re": bi.real, "im": bi.imag}
        if "normalization_N" in state.meta:
            report["normalization_N"] = state.meta["normalization_N"]
            report["effective_N"] = state.meta["effective_N"]
    write_document(args.out, [finite_json(report) + "\n"])
    return 0


def cmd_density(args, parser) -> int:
    grid = GridSpec.parse(args.grid)
    state, spec, params = _build_state(args, parser)
    fld = density(state, grid, params)
    fld.meta["gain_loss"] = gain_loss(state)
    out = args.out or f"density.{args.format}"
    export(fld, args.format, out)
    sys.stdout.write(
        f"wrote {out} (captured mass {fld.meta['captured_mass']:.6g}"
        f" of {fld.meta['coefficient_norm2']:.6g})\n"
    )
    if fld.meta["mass_warning"]:
        sys.stdout.write("warning: grid-captured mass differs from the state's mass by more than 0.1%\n")
    return 0


def cmd_check(args, parser) -> int:
    from .checks import run_checks  # only this command uses the checks

    results = run_checks(args.suite)
    if not results:
        sys.stderr.write(f"error: no check name contains any of {args.suite}\n")
        return 1
    failed = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        sys.stdout.write(f"{status} {res.name}: value={res.value:.3e} tol={res.tol:.1e}{detail}\n")
        failed += 0 if res.ok else 1
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def cmd_scan(args, parser) -> int:
    if args.steps < 2 or not (0 <= args.v_from < args.v_to):
        parser.error("need 0 <= --from < --to and --steps >= 2")
    _require_rows(args.pmax, args.steps, args.v_from, args.v_to)
    vs = np.linspace(args.v_from, args.v_to, args.steps)
    exceptional = []
    for m in range(max(1, math.ceil(args.v_from ** 2)), math.floor(args.v_to ** 2) + 1):
        exceptional.append({"V": math.sqrt(m), "p": m})
    trajectories = []
    for v in vs:
        params = PhysicalParams(vf=args.vf, xi=args.xi, V=float(v))
        levels = _level_records(params, args.pmax)
        broken = [rec for rec in levels if rec["class"] == "broken"]
        moduli = alpha_moduli([abs(rec["p"]) for rec in broken], params.V)
        for rec, ap, am in zip(broken, *(m.tolist() for m in moduli)):
            rec["abs_alpha_plus"], rec["abs_alpha_minus"] = ap, am
        trajectories.append({"V": float(v), "levels": levels})
    meta = {"vf": args.vf, "xi": args.xi, "from": args.v_from, "to": args.v_to,
            "steps": args.steps, "pmax": args.pmax}
    _report(args, {"meta": meta, "exceptional_points": exceptional, "trajectories": trajectories},
            ["V", "p", "re", "im", "class", "abs_alpha_plus", "abs_alpha_minus"],
            [dict(rec, V=tr["V"]) for tr in trajectories for rec in tr["levels"]])
    if args.out is not None:
        summary = ", ".join(f"V={e['V']:.6g} (p={e['p']})" for e in exceptional) or "none in range"
        sys.stdout.write(f"exceptional points: {summary}\n")
    return 0


# built on the first call and reused: each parse starts from a fresh namespace
_shared_parser = functools.cache(build_parser)


def cli_main(argv) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        # the window flags this command takes
        window = {f"--{k}": getattr(args, k) for k in ("nmax", "pmax") if hasattr(args, k)}
        if min(window.values(), default=0) < 0:
            parser.error(f"{' and '.join(window)} must be >= 0,"
                         f" got {' and '.join(map(str, window.values()))}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if max(window.values(), default=0) > MAX_WINDOW:
            raise ContractError(f"{' and '.join(f'{k} {v}' for k, v in window.items())}: a window"
                                f" above the limit MAX_WINDOW = {MAX_WINDOW} is refused")
        return args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except LbError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except OSError as err:
        sys.stderr.write(f"io error: {err}\n")
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
