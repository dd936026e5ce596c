"""Command-line surface: spectrum, state, density, check, scan-v.

Complex literals use the locale-free "a+bi" form ("1-1i", "2i", "-3",
"1+i"); grids are "xmin:xmax:nx,ymin:ymax:ny".  Exit codes: 0 success,
1 numerical contract or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .bicoherent import _LEGAL, BicoherentSpec, bicoherent_eigen_residual, build_bicoherent
from .checks import run_checks
from .coherent import _LEGAL_OPS, CoherentSpec, build_coherent, eigen_residual
from .densities import DEFAULT_GRID, GridSpec, density, export, gain_loss
from .errors import LbError
from .fock import FockCutoff
from .params import PhysicalParams
from .pt import classify_levels, eigenvalue_E, gain_loss_asymptotics


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' with optional parts: '2', '-1.5', '1-1i', 'i', '-2i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith("i"):
        return complex(float(s), 0.0)
    body = s[:-1]
    if body in ("", "+"):
        return complex(0.0, 1.0)
    if body == "-":
        return complex(0.0, -1.0)
    m = re.match(
        r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
        r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?|)$",
        body,
    )
    if m and m.group("im") not in (None, ""):
        re_part = float(m.group("re")) if m.group("re") else 0.0
        im_raw = m.group("im")
        im_part = {"+": 1.0, "-": -1.0}.get(im_raw, None)
        if im_part is None:
            im_part = float(im_raw)
        return complex(re_part, im_part)
    # purely imaginary with explicit magnitude, e.g. '2i' or '1.5e-3i'
    try:
        return complex(0.0, float(body))
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None


def format_complex(z: complex) -> str:
    re_s = "%.17g" % z.real
    im_s = "%.17g" % abs(z.imag)
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_s}{sign}{im_s}i"


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vf", type=float, default=1.0, help="Fermi velocity (default 1)")
    p.add_argument("--xi", type=float, default=1.0, help="magnetic length (default 1)")
    p.add_argument("--V", type=float, default=0.0, help="chemical-potential strength")
    p.add_argument("--nmax", type=int, default=64, help="Fock cutoff for both registers")
    p.add_argument("--pmax", type=int, default=32, help="level window |p| <= pmax")
    p.add_argument("--tol", type=float, default=1e-12, help="series tail tolerance")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _z_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--z1", default="0", help="first-register label, 'a+bi'")
    p.add_argument("--z2", default="0", help="level-register label, 'a+bi'")


def _family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   choices=("A", "B", "phi", "psi", "eta", "xi"),
                   help="A/B: V=0 coherent; phi/psi: standard bicoherent ket/bra;"
                        " eta/xi: theta-family ket/bra")
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbstates",
        description="Coherent and bicoherent states of a graphene layer in a magnetic field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalues and level classification")
    _common_flags(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_state = sub.add_parser("state", help="build a state and report its diagnostics")
    _common_flags(p_state)
    _z_flags(p_state)
    _family_flags(p_state)
    p_state.set_defaults(func=cmd_state)

    p_dens = sub.add_parser("density", help="position-space density grid export")
    _common_flags(p_dens)
    _z_flags(p_dens)
    _family_flags(p_dens)
    p_dens.add_argument("--grid", default=DEFAULT_GRID, help="xmin:xmax:nx,ymin:ymax:ny")
    p_dens.set_defaults(func=cmd_density)

    p_check = sub.add_parser("check", help="run the invariant suites (CI entry point)")
    _common_flags(p_check)
    p_check.add_argument("--suite", action="append", default=None,
                         help="only run checks whose name contains this substring")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan-v", help="sweep V: eigenvalue trajectories and exceptional points")
    _common_flags(p_scan)
    p_scan.add_argument("--from", dest="v_from", type=float, required=True)
    p_scan.add_argument("--to", dest="v_to", type=float, required=True)
    p_scan.add_argument("--steps", type=int, default=50)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def _params(args) -> PhysicalParams:
    return PhysicalParams(vf=args.vf, xi=args.xi, V=args.V)


def _cutoff(args) -> FockCutoff:
    return FockCutoff(args.nmax, args.nmax, min(args.pmax, args.nmax))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _level_records(params: PhysicalParams, pmax: int) -> list:
    records = []
    for cls in classify_levels(params, range(-pmax, pmax + 1)):
        e = eigenvalue_E(cls.p, params)
        records.append({
            "p": cls.p,
            "energy": format_complex(e),
            "re": e.real,
            "im": e.imag,
            "class": cls.label,
        })
    return records


def cmd_spectrum(args, parser) -> int:
    params = _params(args)
    records = _level_records(params, args.pmax)
    if args.format == "csv":
        lines = ["p,re,im,class,energy"]
        lines += [f"{r['p']},{'%.17g' % r['re']},{'%.17g' % r['im']},{r['class']},{r['energy']}"
                  for r in records]
        _emit("\n".join(lines), args.out)
    else:
        doc = {
            "meta": {"vf": params.vf, "xi": params.xi, "V": params.V, "eps0": params.eps0,
                     "pmax": args.pmax},
            "levels": records,
        }
        _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _build_state(args, parser) -> tuple:
    params = _params(args)
    cutoff = _cutoff(args)
    z1, z2 = parse_complex(args.z1), parse_complex(args.z2)
    family = args.family
    if family in ("A", "B"):
        if params.V != 0.0:
            parser.error(f"family {family} is the V=0 construction; got --V {params.V}")
        spec = CoherentSpec(z1, z2, family, args.branch, cutoff, args.tol)
        return build_coherent(spec), spec, params
    mapping = {
        "phi": ("standard", "ket"),
        "psi": ("standard", "bra"),
        "eta": ("theta", "ket"),
        "xi": ("theta", "bra"),
    }
    fam, side = mapping[family]
    if params.V == 0.0 and fam == "standard":
        parser.error("families phi/psi/eta/xi describe the V != 0 system; use --V")
    spec = BicoherentSpec(z1, z2, fam, side, args.branch, params, cutoff, args.tol)
    return build_bicoherent(spec), spec, params


def cmd_state(args, parser) -> int:
    state, spec, params = _build_state(args, parser)
    up, lo = state.component_masses()
    report = {
        "family": args.family,
        "branch": args.branch,
        "z1": format_complex(parse_complex(args.z1)),
        "z2": format_complex(parse_complex(args.z2)),
        "params": {"vf": params.vf, "xi": params.xi, "V": params.V, "eps0": params.eps0},
        "norm2": state.norm2(),
        "mass_upper": up,
        "mass_lower": lo,
        "mass_ratio": up / lo if lo > 0 else None,
        "tails": {k: v for k, v in state.meta.items() if k.startswith("tail")},
    }
    if isinstance(spec, CoherentSpec):
        op = _LEGAL_OPS[(spec.family, spec.branch)].value
        report["eigen_residuals"] = {
            "A1": eigen_residual(spec, state, "A1"),
            op: eigen_residual(spec, state, op),
        }
    else:
        op = _LEGAL[(spec.family, spec.side, spec.branch)]
        report["eigen_residuals"] = {
            "A1": bicoherent_eigen_residual(spec, state, "A1"),
            op: bicoherent_eigen_residual(spec, state, op),
        }
        dual = build_bicoherent(spec.dual())
        bi = state.inner(dual) if spec.side == "ket" else dual.inner(state)
        report["bi_product"] = {"re": bi.real, "im": bi.imag}
        if "normalization_N" in state.meta:
            report["normalization_N"] = state.meta["normalization_N"]
            report["effective_N"] = state.meta["effective_N"]
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def cmd_density(args, parser) -> int:
    state, spec, params = _build_state(args, parser)
    grid = GridSpec.parse(args.grid)
    fld = density(state, grid, params)
    gl = gain_loss(state, params)
    fld.meta["gain_loss"] = {
        "mass_upper": gl.mass_upper,
        "mass_lower": gl.mass_lower,
        "ratio": gl.ratio if math.isfinite(gl.ratio) else None,
    }
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
    vs = np.linspace(args.v_from, args.v_to, args.steps)
    exceptional = []
    for m in range(max(1, math.ceil(args.v_from ** 2)), math.floor(args.v_to ** 2) + 1):
        exceptional.append({"V": math.sqrt(m), "p": m})
    trajectories = []
    for v in vs:
        params = PhysicalParams(vf=args.vf, xi=args.xi, V=float(v))
        levels = _level_records(params, args.pmax)
        for rec in levels:
            if rec["class"] == "broken":
                ap, am = gain_loss_asymptotics(abs(rec["p"]), float(v))
                rec["abs_alpha_plus"], rec["abs_alpha_minus"] = ap, am
        trajectories.append({"V": float(v), "levels": levels})
    if args.format == "csv":
        lines = ["V,p,re,im,class,abs_alpha_plus,abs_alpha_minus"]
        for tr in trajectories:
            for rec in tr["levels"]:
                ap = rec.get("abs_alpha_plus")
                am = rec.get("abs_alpha_minus")
                lines.append(",".join([
                    "%.17g" % tr["V"], str(rec["p"]), "%.17g" % rec["re"], "%.17g" % rec["im"],
                    rec["class"],
                    "" if ap is None else "%.17g" % ap,
                    "" if am is None else "%.17g" % am,
                ]))
        _emit("\n".join(lines), args.out)
    else:
        doc = {
            "meta": {"vf": args.vf, "xi": args.xi, "from": args.v_from, "to": args.v_to,
                     "steps": args.steps, "pmax": args.pmax},
            "exceptional_points": exceptional,
            "trajectories": trajectories,
        }
        _emit(json.dumps(doc, indent=2), args.out)
    if args.out is not None:
        summary = ", ".join(f"V={e['V']:.6g} (p={e['p']})" for e in exceptional) or "none in range"
        sys.stdout.write(f"exceptional points: {summary}\n")
    return 0


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if min(args.nmax, args.pmax) < 0:
            parser.error(f"--nmax and --pmax must be >= 0, got {args.nmax} and {args.pmax}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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
