import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

import lbstates
import mp_reference
from lbstates.cli import MAX_ROWS, MAX_WINDOW, _require_rows, cli_main, format_complex, parse_complex
from lbstates.errors import ContractError, ExceptionalPointError
from lbstates.params import PhysicalParams, discriminant
from lbstates.levels import PAIRINGS


class TestComplexParsing:
    @pytest.mark.parametrize("text,value", [
        ("0", 0j),
        ("1", 1 + 0j),
        ("-3.5", -3.5 + 0j),
        ("1-1i", 1 - 1j),
        ("1+i", 1 + 1j),
        ("i", 1j),
        ("-i", -1j),
        ("2i", 2j),
        ("-2.5i", -2.5j),
        ("1.5e-3+2e2i", 1.5e-3 + 2e2j),
        ("2+2i", 2 + 2j),
    ])
    def test_literals(self, text, value):
        assert parse_complex(text) == value

    def test_bad_literals(self):
        for bad in ("", "abc", "1+2", "i2", "1+", "nan", "inf", "-inf", "1+nani", "infi", "1e999",
                    "1.7e308+1.7e308i", "-1.7e308-1.7e308i"):
            with pytest.raises(ValueError):
                parse_complex(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.complex_numbers(min_magnitude=0, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False))
    def test_round_trip(self, z):
        assert parse_complex(format_complex(z)) == z


class TestSpectrumCommand:
    def test_small_v_classification(self, capsys):
        assert cli_main(["spectrum", "--V", "0.5", "--pmax", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        levels = doc["levels"]
        assert len(levels) == 21
        by_p = {rec["p"]: rec for rec in levels}
        assert by_p[0]["class"] == "zero_mode"
        assert by_p[0]["energy"] == "0+1i"
        for p, rec in by_p.items():
            if p != 0:
                assert rec["class"] == "unbroken"
                assert rec["im"] == 0.0
        assert by_p[1]["re"] == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_csv_format(self, capsys):
        assert cli_main(["spectrum", "--V", "0.5", "--pmax", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,re,im,class,energy"
        assert len(lines) == 6


class TestStateCommand:
    def test_coherent_state_report(self, capsys):
        code = cli_main(["state", "--family", "A", "--branch", "plus",
                         "--z1", "0", "--z2", "1-1i", "--nmax", "48", "--pmax", "48"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["norm2"] == pytest.approx(1.0, abs=1e-8)
        assert doc["eigen_residuals"]["A2"] < 1e-8

    def test_family_a_requires_v0(self, capsys):
        assert cli_main(["state", "--family", "A", "--V", "0.5"]) == 2

    def test_bicoherent_state_report(self, capsys):
        code = cli_main(["state", "--family", "eta", "--branch", "plus", "--V", "0.5",
                         "--z1", "0", "--z2", "1-1i", "--nmax", "64", "--pmax", "64"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bi_product"]["re"] == pytest.approx(1.0, abs=1e-8)
        assert abs(doc["bi_product"]["im"]) < 1e-8
        assert doc["eigen_residuals"]["C2"] < 1e-8
        assert doc["normalization_N"] > 0

    def test_cutoff_failure_exits_one(self, capsys):
        code = cli_main(["state", "--family", "A", "--z2", "4+4i",
                         "--nmax", "8", "--pmax", "8"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestStateBuilds:
    @pytest.mark.parametrize("flags,builds", [
        (["--family", "A"], 1),
        (["--family", "eta", "--V", "0.5"], 1),
    ])
    def test_state_and_dual_built_once(self, monkeypatch, capsys, flags, builds):
        from lbstates import bicoherent, cli, coherent

        calls = []

        def counted(fn):
            def wrapper(spec):
                calls.append(spec)
                return fn(spec)
            return wrapper

        for mod, name, fn in ((cli, "build_coherent", coherent.build_coherent),
                              (coherent, "build_coherent", coherent.build_coherent),
                              (cli, "build_bicoherent", bicoherent.build_bicoherent),
                              (bicoherent, "build_bicoherent", bicoherent.build_bicoherent)):
            monkeypatch.setattr(mod, name, counted(fn))
        assert cli_main(["state", "--z2", "1-1i", "--nmax", "64", "--pmax", "64"] + flags) == 0
        capsys.readouterr()
        assert len(calls) == builds


class TestOneLevelTablePerJob:
    """A state job evaluates the level table once: the build reads both
    sides from it, and the residuals read the rows the state carries."""

    @pytest.mark.parametrize("key", list(PAIRINGS))
    def test_level_table_runs_once(self, key, monkeypatch, capsys):
        from lbstates import levels

        original, calls = levels.level_table, []

        def counted(ps, params):
            calls.append(len(ps))
            return original(ps, params)

        for name, mod in list(sys.modules.items()):
            if name.startswith("lbstates") and getattr(mod, "level_table", None) is original:
                monkeypatch.setattr(mod, "level_table", counted)
        family, branch = key
        v = "0" if family in ("A", "B") else "2.5"
        assert cli_main(["state", "--family", family, "--branch", branch, "--V", v,
                         "--z1=1+1i", "--z2=1-1i", "--nmax", "96", "--pmax", "96"]) == 0
        assert json.loads(capsys.readouterr().out)["eigen_residuals"]
        assert len(calls) == 1


class TestOneThetaTablePerJob:
    """An eta/xi state job evaluates theta_table once for its build (the
    series cut and normalization_N), and once more for the c2/d2 residual
    on the carried levels; neither call spans the window."""

    @pytest.mark.parametrize("family", ["eta", "xi"])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("V", ["0.5", "9.5"])
    def test_theta_table_runs_twice(self, family, branch, V, monkeypatch, capsys):
        from lbstates import levels

        original, calls = levels.theta_table, []

        def counted(ps, params):
            calls.append(len(ps))
            return original(ps, params)

        for name, mod in list(sys.modules.items()):
            if name.startswith("lbstates") and getattr(mod, "theta_table", None) is original:
                monkeypatch.setattr(mod, "theta_table", counted)
        assert cli_main(["state", "--family", family, "--branch", branch, "--V", V,
                         "--z1=0.1", "--z2=0.1", "--nmax", "200000", "--pmax", "200000"]) == 0
        assert json.loads(capsys.readouterr().out)["eigen_residuals"]
        assert len(calls) == 2 and max(calls) < 1000, calls


class TestWindowBound:
    """A window above MAX_WINDOW is refused with exit 1 before any array is
    allocated."""

    @pytest.mark.parametrize("argv", [
        ["state", "--family", "A", "--nmax", str(10 ** 9)],
        ["state", "--family", "eta", "--V", "0.5", "--pmax", str(10 ** 9)],
        ["density", "--family", "phi", "--V", "0.5", "--nmax", str(10 ** 9), "--pmax", "8"],
        ["spectrum", "--pmax", str(MAX_WINDOW + 1)],
        ["scan-v", "--from=0.5", "--to=1", "--pmax", str(10 ** 9)],
    ])
    def test_over_the_bound_exits_one(self, argv):
        tracemalloc.start()
        try:
            code, out, err = _run_in_process(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == "", (code, out)
        assert f"limit MAX_WINDOW = {MAX_WINDOW}" in err and "Traceback" not in err
        assert peak < 2 ** 20

    def test_a_window_at_the_bound_passes_it(self):
        # and then meets the row bound, which refuses it before any work
        code, out, err = _run_in_process(["spectrum", "--pmax", str(MAX_WINDOW)])
        assert code == 1 and out == ""
        assert "MAX_WINDOW" not in err and "rows; the limit is" in err


class TestOverflowingV:
    """A V whose square overflows is refused at the boundary (exit 1 and a
    reason), not carried into the discriminant."""

    @pytest.mark.parametrize("family", ["phi", "eta", "xi"])
    @pytest.mark.parametrize("V", ["1e300", "1.4e154"])
    def test_state_exits_one(self, family, V):
        code, out, err = _run_in_process(["state", "--family", family, "--V", V, "--z2", "1-1i",
                                          "--nmax", "64", "--pmax", "64"])
        assert code == 1 and out == "", (code, out)
        assert "V^2 is not finite" in err and "Traceback" not in err

    def test_largest_finite_square_is_accepted(self):
        PhysicalParams(V=1.3e154)
        with pytest.raises(ContractError, match=r"V\^2 is not finite"):
            PhysicalParams(V=1.4e154)


class TestOverflowingEnergyScale:
    """vf and xi whose energy scale eps0 = 2 vf / xi overflows, or
    underflows to 0 or to a subnormal (a zero eps0 divided the theta
    series, a subnormal one lost digits), are refused where the parameters
    are made: before any work, warning or output."""

    @pytest.mark.parametrize("vf,xi", [(1e308, 1.0), (1e300, 1e-10), (2.0, 1e-308),
                                       (1e-300, 1e300), (1e-320, 1.0), (1e-310, 1.0)])
    def test_params_are_refused(self, vf, xi):
        with pytest.raises(ContractError, match="eps0 = 2 vf / xi"):
            PhysicalParams(vf=vf, xi=xi)

    def test_largest_finite_scale_is_accepted(self):
        assert PhysicalParams(vf=8.98e307).eps0 == 1.796e308

    def test_smallest_normal_scale_is_accepted(self):
        tiny = sys.float_info.min
        assert PhysicalParams(vf=tiny / 2).eps0 == tiny

    def test_scale_is_accepted_where_twice_vf_overflows(self, tmp_path):
        # 2 vf = 2e308 overflows, eps0 = 2e298 does not
        out = tmp_path / "spectrum.json"
        code, stdout, err = _run_in_process(["spectrum", "--vf", "1e308", "--xi", "1e10",
                                             "--pmax", "1", "--out", os.fspath(out)])
        assert (code, stdout, err) == (0, "", "")
        assert json.loads(out.read_text())["meta"]["eps0"] == 2e298

    def test_scale_keeps_its_bits_where_twice_vf_is_finite(self):
        # vf and xi across the normal range, with their neighbours: eps0 is
        # 2 vf / xi, bit for bit, wherever that is a normal double
        decades = [10.0 ** k for k in range(-307, 309, 7)] + [0.3, 1.0, 7.5, 8.98e307]
        grid = sorted({x for d in decades for x in (d, math.nextafter(d, 0.0),
                                                    math.nextafter(d, math.inf))})
        checked = 0
        for vf in grid:
            for xi in grid:
                want = 2.0 * vf / xi
                if sys.float_info.min <= want <= sys.float_info.max:
                    assert PhysicalParams(vf=vf, xi=xi).eps0.hex() == want.hex(), (vf, xi)
                    checked += 1
        assert checked > 10_000

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--vf", "1e308", "--pmax", "1", "--format", "csv"],
        ["state", "--vf", "1e308", "--family", "eta", "--V", "0.5", "--z2=1"],
        ["density", "--vf", "1e308", "--family", "A", "--grid=-1:1:5,-1:1:5"],
        ["scan-v", "--vf", "2", "--xi", "1e-308", "--from=0.5", "--to=1.5", "--steps", "2"],
        ["state", "--family", "eta", "--vf", "1e-300", "--xi", "1e300", "--V", "0.5",
         "--z1", "0.1", "--z2", "0.1", "--nmax", "12", "--pmax", "12"],
        ["spectrum", "--vf", "1e-300", "--xi", "1e300"],
        ["spectrum", "--vf", "1e-320", "--pmax", "2"],
    ], ids=["spectrum", "state", "density", "scan-v", "state-eps0-zero", "spectrum-eps0-zero",
            "spectrum-eps0-subnormal"])
    def test_cli_exits_one_and_writes_nothing(self, argv, tmp_path):
        out = tmp_path / "report.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = _run_in_process(argv + ["--out", os.fspath(out)])
        assert code == 1 and stdout == "", (code, stdout)
        assert err.startswith("error: eps0 = 2 vf / xi") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []


class TestGaussianLabelRange:
    """A label summed as a Gaussian series whose prefactor exp(-|z|^2/2) is
    below the smallest normal double (|z|^2 above 1416.79) is refused before
    any work or file: its terms have lost digits (|z1| = 38.5 would give
    norm2 1.035) or are all 0 (|z1| = 40).  |z1| = 37 is answered."""

    FLAGS = ["--family", "A", "--z2", "0.1", "--nmax", "20000", "--pmax", "20"]
    GRID = ["--grid=30:50:65,-10:10:65"]

    @pytest.mark.parametrize("label", ["--z1=38.5", "--z1=40", "--z1=-30+30i", "--z2=40"])
    @pytest.mark.parametrize("cmd", ["state", "density"])
    def test_far_label_exits_one_and_writes_nothing(self, cmd, label, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [cmd] + self.FLAGS + [label] + (self.GRID if cmd == "density" else [])
        code, stdout, err = _run_in_process(argv)
        name = label[2:4]
        assert code == 1 and stdout == "", (code, stdout)
        assert err.count("\n") == 1 and err.startswith(f"error: label {name}=")
        assert f"|{name}|^2 above 1416.79" in err
        assert list(tmp_path.iterdir()) == []

    def test_z2_of_the_theta_family_is_not_a_gaussian_label(self):
        code, _, err = _run_in_process(["state", "--family", "eta", "--V", "0.5", "--z2", "40",
                                        "--nmax", "64", "--pmax", "64"])
        assert code == 1 and "still growing" in err

    def test_label_inside_the_range_is_answered(self, tmp_path):
        code, stdout, _ = _run_in_process(["state", "--z1", "37"] + self.FLAGS)
        doc = json.loads(stdout)
        assert code == 0 and abs(doc["norm2"] - 1.0) < 1e-13
        assert doc["tails"]["tail_z1"] < 1e-12
        out = os.fspath(tmp_path / "near.json")
        code, stdout, _ = _run_in_process(["density", "--z1", "37"] + self.FLAGS + self.GRID
                                          + ["--out", out])
        assert code == 0 and stdout == f"wrote {out} (captured mass 1 of 1)\n"


class TestThetaLabelOverflow:
    """A theta-family z2 whose series overflows a double is refused as
    still growing at the window edge, with one error: line, no file and no
    numpy warning (each would be an error here), from the first level
    guess on: rho^4 / eps0^2 past the float range is capped at pmax before
    math.ceil."""

    FLAGS = ["--V", "0.5", "--nmax", "64", "--pmax", "64"]

    @staticmethod
    def _refusal(argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "density":
            argv = argv + ["--grid=-2:2:5,-2:2:5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = _run_in_process(argv)
        assert code == 1 and stdout == "", (code, stdout)
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert list(tmp_path.iterdir()) == []
        return err

    @pytest.mark.parametrize("z2", ["1e6", "1e60", "1e150", "1e200", "1e300"])
    @pytest.mark.parametrize("family", ["eta", "xi"])
    @pytest.mark.parametrize("cmd", ["state", "density"])
    def test_overflowing_series_exits_one_and_writes_nothing(self, cmd, family, z2, tmp_path,
                                                              monkeypatch):
        err = self._refusal([cmd, "--family", family, "--z2", z2] + self.FLAGS, tmp_path,
                            monkeypatch)
        assert err == (f"error: theta series for |z2|={float(z2):.3g} is still growing at the"
                       f" window edge pmax=64\n")

    @pytest.mark.parametrize("cmd", ["state", "density"])
    def test_growing_series_keeps_its_message(self, cmd, tmp_path, monkeypatch):
        err = self._refusal([cmd, "--family", "eta", "--z2", "1e5"] + self.FLAGS, tmp_path,
                            monkeypatch)
        assert err == ("error: theta series for |z2|=1e+05 is still growing at the window edge"
                       " pmax=64\n")
        err = self._refusal([cmd, "--family", "eta", "--V", "0.5", "--z2", "1e200", "--nmax", "8",
                             "--pmax", "8"], tmp_path, monkeypatch)
        assert err == ("error: theta series for |z2|=1e+200 is still growing at the window edge"
                       " pmax=8\n")


class TestExceptionalPointMessage:
    def test_refusal_prints_a_short_level(self):
        # V^2 = 1e300 is a 301-digit integer level
        code, stdout, err = _run_in_process(["state", "--family", "phi", "--V", "1e150",
                                             "--z1", "0.1", "--z2", "0.1", "--nmax", "12",
                                             "--pmax", "12"])
        lines = err.splitlines()
        assert code == 1 and stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error:") and len(lines[0]) < 120, err
        assert lines[0].endswith("p = V^2 = 1e+300")

    def test_a_small_level_is_printed_whole(self):
        with pytest.raises(ExceptionalPointError, match=r"p = V\^2 = 999999$"):
            PhysicalParams(V=math.sqrt(999999)).require_non_exceptional("x")


class TestDensityCommand:
    @pytest.mark.parametrize("z1, grid, fine", [
        ("18", "-40:40:65,-40:40:65", False),
        ("-18+5i", "-40:40:321,-40:40:321", True),
    ])
    def test_far_label_is_answered(self, z1, grid, fine, tmp_path):
        # its modes reach index 537 (z1 = 18) if the first register is
        # not moved into the grid; the coarse grid may miss mass
        out = os.fspath(tmp_path / "far.csv")
        code, stdout, err = _run_in_process([
            "density", "--family", "A", "--z1=" + z1, "--z2", "0.5", "--nmax", "800",
            "--pmax", "20", "--grid=" + grid, "--format", "csv", "--out", out])
        assert code == 0, err
        assert _DENSITY_WROTE.fullmatch(stdout.splitlines()[0])
        if fine:
            assert stdout.splitlines()[1:] == []
            with open(out + ".meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            assert meta["captured_mass"] == pytest.approx(meta["coefficient_norm2"], rel=1e-6)

    def test_csv_with_sidecar(self, tmp_path, capsys):
        out = os.fspath(tmp_path / "eta.csv")
        code = cli_main([
            "density", "--V", "9.5", "--z1", "0", "--z2", "1-1i",
            "--family", "eta", "--branch", "plus", "--format", "csv",
            "--nmax", "150", "--pmax", "150",
            "--grid=-6:6:33,-6:6:33", "--out", out,
        ])
        assert code == 0
        assert os.path.exists(out) and os.path.exists(out + ".meta.json")
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert set(data.dtype.names) == {"x", "y", "total", "upper", "lower"}
        with open(out + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["params"]["V"] == 9.5
        assert meta["gain_loss"]["ratio"] > 10

    def test_json_output(self, tmp_path):
        out = os.fspath(tmp_path / "phi.json")
        code = cli_main([
            "density", "--V", "0.5", "--z2", "1-1i", "--family", "phi",
            "--nmax", "48", "--pmax", "48", "--grid=-6:6:33,-6:6:33",
            "--format", "json", "--out", out,
        ])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["meta"]["params"]["eps0"] == 2.0


class TestScanCommand:
    def test_exceptional_points_reported(self, tmp_path, capsys):
        out = os.fspath(tmp_path / "scan.json")
        code = cli_main(["scan-v", "--from", "0.5", "--to", "3.5", "--steps", "13",
                         "--pmax", "4", "--out", out])
        assert code == 0
        assert "exceptional points" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        vs = [e["V"] for e in doc["exceptional_points"]]
        for expect in (1.0, math.sqrt(2), math.sqrt(3), 2.0, math.sqrt(5)):
            assert any(abs(v - expect) < 1e-12 for v in vs)
        assert len(doc["trajectories"]) == 13
        broken = [rec for tr in doc["trajectories"] for rec in tr["levels"]
                  if rec["class"] == "broken"]
        assert broken and all("abs_alpha_plus" in rec for rec in broken)

    def test_csv_trajectories(self, capsys):
        code = cli_main(["scan-v", "--from", "0.2", "--to", "0.8", "--steps", "3",
                         "--pmax", "2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "V,p,re,im,class,abs_alpha_plus,abs_alpha_minus"
        assert len(lines) == 1 + 3 * 5

    def test_bad_range_is_usage_error(self):
        assert cli_main(["scan-v", "--from", "2.0", "--to", "1.0"]) == 2


def _reference_level(p: int, params: PhysicalParams) -> tuple:
    """(E_p, class) of one level from the scalar formula: math.sqrt of the
    discriminant and Python complex arithmetic.  The product is taken
    complex by complex, whose signed zeros no Python version changes."""
    if p == 0:
        return complex(0.0, params.eps0 * params.V), "zero_mode"
    d = discriminant(abs(p), params.V)
    root = complex(math.sqrt(d), 0.0) if d >= 0.0 else complex(0.0, math.sqrt(-d))
    e = complex(params.eps0 if p >= 1 else -params.eps0, 0.0) * root
    return e, "exceptional" if d == 0.0 else "broken" if d < 0.0 else "unbroken"


def _reference_records(params: PhysicalParams, pmax: int, moduli: bool = False) -> list:
    """The level records of `spectrum` (and, with moduli, of a `scan-v`
    step), one level at a time."""
    records = []
    for p in range(-pmax, pmax + 1):
        e, label = _reference_level(p, params)
        text = "%.17g%s%.17gi" % (e.real, "+" if e.imag >= 0 else "-", abs(e.imag))
        rec = {"p": p, "energy": text, "re": e.real, "im": e.imag, "class": label}
        if moduli and label == "broken":
            sq = math.sqrt(abs(p))
            w = params.V + math.sqrt(-discriminant(abs(p), params.V))
            rec["abs_alpha_plus"], rec["abs_alpha_minus"] = sq / w, w / sq
        records.append(rec)
    return records


def _reference_spectrum(V: float, pmax: int, fmt: str) -> str:
    params = PhysicalParams(V=V)
    records = _reference_records(params, pmax)
    if fmt == "csv":
        return "".join(["p,re,im,class,energy\n"] + [
            "%d,%.17g,%.17g,%s,%s\n" % (r["p"], r["re"], r["im"], r["class"], r["energy"])
            for r in records])
    meta = {"vf": 1.0, "xi": 1.0, "V": V, "eps0": 2.0, "pmax": pmax}
    return json.dumps({"meta": meta, "levels": records}, indent=2) + "\n"


def _reference_scan(v_from: float, v_to: float, steps: int, pmax: int, fmt: str) -> str:
    trajectories = [{"V": v, "levels": _reference_records(PhysicalParams(V=v), pmax, True)}
                    for v in np.linspace(v_from, v_to, steps).tolist()]
    if fmt == "csv":
        lines = ["V,p,re,im,class,abs_alpha_plus,abs_alpha_minus\n"]
        for tr in trajectories:
            for r in tr["levels"]:
                moduli = ["%.17g" % r[k] if k in r else "" for k in ("abs_alpha_plus",
                                                                      "abs_alpha_minus")]
                lines.append("%.17g,%d,%.17g,%.17g,%s,%s,%s\n" % (
                    tr["V"], r["p"], r["re"], r["im"], r["class"], *moduli))
        return "".join(lines)
    points = [{"V": math.sqrt(m), "p": m}
              for m in range(max(1, math.ceil(v_from ** 2)), math.floor(v_to ** 2) + 1)]
    meta = {"vf": 1.0, "xi": 1.0, "from": v_from, "to": v_to, "steps": steps, "pmax": pmax}
    doc = {"meta": meta, "exceptional_points": points, "trajectories": trajectories}
    return json.dumps(doc, indent=2) + "\n"


class TestSpectrumBytes:
    """`spectrum` and `scan-v` print, byte for byte, what the scalar
    formula gives level by level: the signed zeros of the broken levels p
    < 0 ("-0-1.88...i"), V snapped to exceptional, and the |alpha+-| of
    the broken levels."""

    @pytest.mark.parametrize("V", [0.0, 0.5, 1.7, 9.5, 3.0000000000008])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_spectrum(self, V, fmt, capsys):
        assert cli_main(["spectrum", f"--V={V!r}", "--pmax", "40", "--format", fmt]) == 0
        assert capsys.readouterr().out == _reference_spectrum(V, 40, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_readme_scan(self, fmt, tmp_path, capsys):
        out = os.fspath(tmp_path / f"scan.{fmt}")
        assert cli_main(["scan-v", "--from", "0.5", "--to", "3.5", "--steps", "100",
                         "--pmax", "8", "--format", fmt, "--out", out]) == 0
        assert capsys.readouterr().out.startswith("exceptional points: V=1 (p=1), ")
        with open(out, encoding="utf-8", newline="") as fh:
            assert fh.read() == _reference_scan(0.5, 3.5, 100, 8, fmt)


class TestOneSpectrumTablePerStep:
    """`spectrum` makes one `spectrum_table` call; a `scan-v` of S steps
    makes S, and at most S `_mixing` calls for the |alpha+-| of the
    broken levels."""

    @pytest.mark.parametrize("argv,tables", [
        (["spectrum", "--V", "9.5", "--pmax", "40"], 1),
        (["scan-v", "--from=0.5", "--to=3.5", "--steps", "13", "--pmax", "8"], 13),
        (["scan-v", "--from=0", "--to=12", "--steps", "31", "--pmax", "150",
          "--format", "csv"], 31),
    ], ids=["spectrum", "scan-v", "scan-v-csv"])
    def test_table_calls(self, argv, tables, monkeypatch, capsys):
        from lbstates import levels

        calls = {"spectrum_table": 0, "_mixing": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            original = getattr(levels, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("lbstates") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted(name, original))
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert calls["spectrum_table"] == tables
        assert calls["_mixing"] <= (tables if argv[0] == "scan-v" else 0)


class TestRowBound:
    """spectrum and scan-v refuse, before any work, an output of more than
    MAX_ROWS rows: 2 pmax + 1 levels per V step plus the exceptional
    points m in [from^2, to^2]."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--pmax", "100000000"],
        ["scan-v", "--from=0.5", "--to=1000", "--steps", "3", "--pmax", "8"],
        ["scan-v", "--from=0.5", "--to=1e4", "--steps", "3", "--pmax", "8"],
        ["scan-v", "--from=0.5", "--to=1e200", "--steps", "3", "--pmax", "8"],
        ["scan-v", "--from=0.5", "--to=inf", "--steps", "3", "--pmax", "8"],
        ["scan-v", "--from=0", "--to=1", "--steps", "1000000000", "--pmax", "0"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_over_the_bound_exits_one_and_writes_nothing(self, argv, fmt, tmp_path):
        out = tmp_path / "rows.out"
        for extra in ([], ["--out", os.fspath(out)]):
            code, stdout, err = _run_in_process(argv + ["--format", fmt] + extra)
            assert code == 1 and stdout == "", (code, stdout)
            assert "limit" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["scan-v", "--from", "0", "--to", "1e100", "--steps", "2", "--pmax", "1"],
        ["scan-v", "--from", "0", "--to", "1e200", "--steps", "2", "--pmax", "1"],
        ["scan-v", "--from", "0", "--to", "1", "--steps", "1" + "0" * 400, "--pmax", "1"],
    ])
    def test_refusal_prints_a_short_row_count(self, argv):
        # counts of about 1e200 rows, one past the float range (to^2 = inf)
        # and an integer too large for a float
        code, stdout, err = _run_in_process(argv)
        lines = err.splitlines()
        assert code == 1 and stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error:") and len(lines[0]) < 120, err
        assert f"MAX_ROWS = {MAX_ROWS}" in lines[0]

    def test_bound_counts_levels_steps_and_exceptional_points(self):
        _require_rows((MAX_ROWS - 1) // 2)
        with pytest.raises(ContractError):
            _require_rows((MAX_ROWS - 1) // 2 + 1)
        # 17 levels at 3 steps plus m = 1..999,940 (999.97^2 = 999,940.0009)
        _require_rows(8, 3, 0.5, 999.97)
        with pytest.raises(ContractError):
            _require_rows(8, 3, 0.5, 999.98)
        # the README scan: 17 levels at 100 steps plus m = 1..12
        _require_rows(8, 100, 0.5, 3.5)


class TestReportedOperators:
    """`state` reports A1 and the one ladder paired with its family and
    branch, under these twelve names."""

    NAMES = {
        ("A", "plus"): "A2", ("A", "minus"): "A2dag", ("B", "plus"): "B2dag", ("B", "minus"): "B2",
        ("phi", "plus"): "A_K_V", ("phi", "minus"): "B_K_V",
        ("psi", "minus"): "A_K_V_dag", ("psi", "plus"): "B_K_V_dag",
        ("eta", "plus"): "C2", ("eta", "minus"): "D2",
        ("xi", "minus"): "C2dag", ("xi", "plus"): "D2dag",
    }

    @pytest.mark.parametrize("family,branch", list(NAMES))
    def test_names_and_residuals(self, family, branch, capsys):
        V = "0" if family in ("A", "B") else "0.5"
        code = cli_main(["state", "--family", family, "--branch", branch, "--V", V,
                         "--z1=0.5-0.25i", "--z2=1-1i", "--nmax", "48", "--pmax", "48"])
        assert code == 0
        residuals = json.loads(capsys.readouterr().out)["eigen_residuals"]
        assert set(residuals) == {"A1", self.NAMES[(family, branch)]}
        assert max(residuals.values()) < 1e-8


class TestCheckCommand:
    def test_single_suite_passes(self, capsys):
        code = cli_main(["check", "--suite", "fock."])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS fock.psi_recurrence_vs_polynomial" in out


class TestInputBoundary:
    def test_non_finite_v_exits_one(self, capsys):
        assert cli_main(["spectrum", "--V", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    # the last label has finite parts and a modulus that overflows a double
    @pytest.mark.parametrize("label", ["abc", "1+", "nan", "inf", "1+nani", "1.7e308+1.7e308i"])
    @pytest.mark.parametrize("cmd,flag", [("state", "--z1"), ("state", "--z2"), ("density", "--z1"),
                                          ("density", "--z2")])
    def test_bad_label_is_usage_error(self, cmd, flag, label, tmp_path, capsys):
        argv = [cmd, "--family", "A", f"{flag}={label}", "--nmax", "8", "--pmax", "8"]
        if cmd == "density":
            argv += ["--out", os.fspath(tmp_path / "d.csv")]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: invalid" in errors[0], captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["2", "1", "0", "-1e-12", "nan", "inf"])
    @pytest.mark.parametrize("family", [["--family", "A"], ["--family", "phi", "--V", "0.5"]])
    def test_tolerance_outside_unit_interval_exits_one(self, tol, family, capsys):
        argv = ["state", "--z1", "0.1", "--z2", "0.1", f"--tol={tol}",
                "--nmax", "8", "--pmax", "8"] + family
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tail tolerance must be in (0, 1)" in captured.err

    def test_empty_check_selection_exits_one(self, capsys):
        assert cli_main(["check", "--suite", "nomatch"]) == 1
        captured = capsys.readouterr()
        assert "0/0" not in captured.out
        assert "error" in captured.err

    # bounds past MAX_GRID_BOUND = 1e102 are refused before the warnings
    # (errors here) of simpson's cubed spacing, from 1e103, and of x^2 in
    # oscillator_table, from about 1.34e154
    @pytest.mark.parametrize("grid", ["-inf:inf:5,-1:1:5", "0:1:5,0:1e400:5",
                                      "0:1:40000,0:1:40000", "-1e103:1e103:4,-1:1:3",
                                      "-1:1:3,-1e103:1e103:4", "-1.34e154:1.34e154:4,-1:1:3",
                                      "-1e170:1e170:5,-1:1:3", "-1e200:1e200:4,-1:1:3"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unbounded_grid_exits_one_and_writes_nothing(self, grid, fmt, tmp_path, capsys):
        out = os.fspath(tmp_path / f"d.{fmt}")
        code = cli_main(["density", "--V", "0.5", "--family", "phi", "--z1=0.1", "--z2=0.1",
                         "--nmax", "20", "--pmax", "20", f"--grid={grid}",
                         "--format", fmt, "--out", out])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid", ["-1e102:1e102:4,-1:1:3", "-1:1:3,-1e102:1e102:4"])
    def test_grid_at_the_bound_runs_clean(self, grid, tmp_path):
        out = os.fspath(tmp_path / "d.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = _run_in_process(["density", "--family", "A", "--z2", "1",
                                                 "--nmax", "40", "--pmax", "40",
                                                 f"--grid={grid}", "--out", out])
        assert code == 0 and err == "", err
        assert stdout.startswith(f"wrote {out} (captured mass ")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--pmax", "1"],
        ["scan-v", "--from=0.5", "--to=1.5", "--steps", "3", "--pmax", "1"],
    ], ids=["spectrum", "scan-v"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_report_is_refused(self, argv, fmt, monkeypatch, tmp_path):
        from lbstates import cli, levels

        def nan_table(ps, params):
            energies, labels = levels.spectrum_table(ps, params)
            return np.full_like(energies, complex(math.nan, 0.0)), labels

        monkeypatch.setattr(cli, "spectrum_table", nan_table)
        out = tmp_path / "report.out"
        for extra in ([], ["--out", os.fspath(out)]):
            code, stdout, err = _run_in_process(argv + ["--format", fmt] + extra)
            assert code == 1 and stdout == "", (code, stdout)
            assert err.startswith("error: refusing to write a non-finite value")
            assert err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_energies_are_refused(self, fmt, tmp_path):
        # eps0 = 2e300 is finite, E_p = eps0 sqrt(p - V^2) is not
        out = tmp_path / "spectrum.out"
        argv = ["spectrum", "--vf", "1e300", "--V", "1e100", "--pmax", "2", "--format", fmt]
        for extra in ([], ["--out", os.fspath(out)]):
            code, stdout, err = _run_in_process(argv + extra)
            assert code == 1 and stdout == "", (code, stdout)
            assert err.startswith("error: refusing to write a non-finite value")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--pmax", "-3"],
        ["spectrum", "--pmax=-1"],
        ["state", "--family", "A", "--nmax=-2"],
    ])
    def test_negative_window_is_usage_error(self, argv, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 0" in captured.err


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["lbstates.cli", "lbstates"])
    def test_runs_as_module_without_warnings(self, module):
        src = os.path.dirname(os.path.dirname(lbstates.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", module, "spectrum", "--pmax", "1"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(json.loads(proc.stdout)["levels"]) == 3

    def test_package_exposes_cli_main(self):
        assert lbstates.cli_main is cli_main
        assert "cli_main" in lbstates.__all__


class TestUsageErrors:
    def test_unknown_command(self):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert cli_main(["state"]) == 2


# The flags each command takes (its `--help` lists these and no other)
# and a cheap base call of each that exits 0.
_STATE_TAKES = ["--vf", "--xi", "--V", "--nmax", "--pmax", "--tol", "--z1", "--z2", "--family",
                "--branch", "--out"]
_TAKES = {
    "spectrum": ["--vf", "--xi", "--V", "--pmax", "--format", "--out"],
    "state": _STATE_TAKES,
    "density": _STATE_TAKES + ["--format", "--grid"],
    "scan-v": ["--vf", "--xi", "--pmax", "--from", "--to", "--steps", "--format", "--out"],
    "check": ["--suite"],
}
_BASE = {
    "spectrum": ["spectrum", "--pmax", "2"],
    "state": ["state", "--family", "phi", "--V", "0.5", "--z2=0.5", "--nmax", "24",
              "--pmax", "24"],
    "density": ["density", "--family", "phi", "--V", "0.5", "--z2=0.5", "--nmax", "24",
                "--pmax", "24", "--grid=-2:2:5,-2:2:5"],
    "scan-v": ["scan-v", "--from=0.5", "--to=1.5", "--steps", "3", "--pmax", "1"],
    "check": ["check", "--suite", "pt.alpha"],
}
# a value of each flag other than the one its base call uses or defaults to
_CHANGED = {"--vf": "2", "--xi": "2", "--V": "0.9", "--nmax": "12", "--pmax": "12",
            "--tol": "1e-3", "--z1": "0.25", "--z2": "0.25", "--family": "psi",
            "--branch": "minus", "--grid": "-2:2:3,-2:2:3", "--from": "0.25", "--to": "1.25",
            "--steps": "4", "--suite": "fock.", "--format": "csv", "--out": "changed.out"}
_KEPT = [(cmd, flag) for cmd, flags in _TAKES.items() for flag in flags]
# the (command, flag) pairs of the common flags a command does not read
_DROPPED = [("spectrum", "--nmax"), ("spectrum", "--tol"), ("state", "--format"),
            ("scan-v", "--V"), ("scan-v", "--nmax"), ("scan-v", "--tol")] + [
            ("check", flag) for flag in ("--vf", "--xi", "--V", "--nmax", "--pmax", "--tol",
                                         "--format", "--out")]


def _snapshot(argv, cwd) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) of one call run in
    cwd; the files it wrote are removed."""
    code, out, err = _run_in_process(argv)
    files = {path.name: path.read_bytes() for path in cwd.iterdir()}
    for path in cwd.iterdir():
        path.unlink()
    return code, out, err, files


class TestDeclaredFlags:
    """Each command takes exactly the flags it reads: 39 (command, flag)
    pairs.  A common flag that a command would ignore is a usage error
    that writes nothing, and changing any flag a command takes changes
    what it writes or its exit code."""

    @pytest.mark.parametrize("cmd", list(_TAKES))
    def test_help_lists_the_flags_taken(self, cmd):
        code, out, _ = _run_in_process([cmd, "--help"])
        assert code == 0
        assert set(re.findall(r"--[a-z][\w-]*", out, re.I)) == set(_TAKES[cmd]) | {"--help"}

    def test_pair_counts(self):
        assert len(_KEPT) == 39 and len(_DROPPED) == 14
        assert not any(flag in _TAKES[cmd] for cmd, flag in _DROPPED)

    @pytest.mark.parametrize("cmd,flag", _DROPPED, ids=[" ".join(pair) for pair in _DROPPED])
    def test_dropped_flag_is_a_usage_error(self, cmd, flag, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        extra = ["--out", "report.out"] if "--out" in _TAKES[cmd] else []
        dropped = f"{flag}={_CHANGED[flag]}"
        code, out, err = _run_in_process(_BASE[cmd] + extra + [dropped])
        assert code == 2 and out == "", (code, out)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"lbstates: error: unrecognized arguments: {dropped}"], err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd,flag", _KEPT, ids=[" ".join(pair) for pair in _KEPT])
    def test_every_flag_taken_is_read(self, cmd, flag, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = _snapshot(_BASE[cmd], tmp_path)
        assert base[0] == 0, base
        assert _snapshot(_BASE[cmd] + [f"{flag}={_CHANGED[flag]}"], tmp_path) != base


class TestFailureExitCodes:
    def test_io_failure_exits_one(self, tmp_path, capsys):
        out = os.fspath(tmp_path / "no" / "such" / "dir" / "x.json")
        code = cli_main(["spectrum", "--V", "0.5", "--pmax", "2", "--out", out])
        assert code == 1
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--V", "0.5", "--pmax", "2", "--format", "csv"],
        ["scan-v", "--from=0.5", "--to=1.5", "--steps", "3", "--pmax", "2"],
        ["state", "--family", "A", "--z2=0.1", "--nmax", "16", "--pmax", "16"],
    ], ids=["spectrum", "scan-v", "state"])
    def test_failed_write_removes_the_file(self, argv, monkeypatch, tmp_path):
        # every --out goes through the writer that density exports use
        from lbstates import densities
        from test_density import _failing_render

        monkeypatch.setattr(densities, "_render", _failing_render(0))
        code, stdout, err = _run_in_process(argv + ["--out", os.fspath(tmp_path / "report.out")])
        assert code == 1 and stdout == "", (code, stdout)
        assert err.startswith("io error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", ["eta", "xi", "A", "B", "phi", "psi"])
    def test_minus_branch_without_levels_exits_one(self, family, capsys):
        # pmax = 0 leaves B's plus branch (levels p >= 1) and every other
        # minus branch (levels p <= -1) empty; the refusal says so
        branch = "plus" if family == "B" else "minus"
        v = "0" if family in ("A", "B") else "0.5"
        for z2 in ("1", "0"):
            code = cli_main(["state", "--family", family, "--branch", branch, "--V", v,
                             f"--z2={z2}", "--nmax", "4", "--pmax", "0"])
            assert code == 1
            err = capsys.readouterr().err
            assert f"the {branch} branch of {family} has no level inside pmax=0" in err
            assert "series" not in err

    def test_window_too_small_exits_one(self, capsys):
        # the theta series at large V only decays beyond the broken region;
        # the default window must refuse with the tail estimate
        code = cli_main(["density", "--V", "9.5", "--z2", "1-1i",
                         "--family", "eta", "--branch", "plus",
                         "--grid=-4:4:17,-4:4:17"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err and "pmax" in err


def _run_in_process(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process cli_main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


_LABELS = ["0", "1", "-1", "1-1i", "0.5i", "-0.25+0.75i", "2+2i", "abc"]
# check selections that run at most a few of the fastest checks, and text
# of characters that no check name holds (a leading "-" is a usage error)
_SUITES = ["pt.theta", "pt.alpha", "theta_mod", "normalization_mono", "pt.v0", "nomatch"]
_CHECK_REPORT = re.compile(r"(PASS|FAIL) \S+: value=.* tol=.*|\d+/\d+ checks passed")


@st.composite
def _small_argv(draw):
    """spectrum/state/scan-v/check argument lists over small windows and
    cheap selections, legal or not, plus scan-v ranges over the row bound.
    Each command draws only the flags it takes."""
    cmd = draw(st.sampled_from(["spectrum", "state", "scan-v", "check"]))
    argv = [cmd]
    if cmd == "check":
        suite = draw(st.one_of(st.sampled_from(_SUITES),
                               st.text(alphabet="-#!%1QW", min_size=1, max_size=4)))
        return argv + ["--suite", suite]
    if cmd == "scan-v":
        argv.append("--from=" + draw(st.sampled_from(["0", "0.5", "1.5", "-1", "nan"])))
        argv.append("--to=" + draw(st.sampled_from(["0.8", "2.5", "3.5", "2000", "1e200", "inf",
                                                    "nan"])))
        if draw(st.booleans()):
            argv.append("--steps=" + draw(st.sampled_from(["1", "2", "3", "7", "1000000000"])))
    elif draw(st.booleans()):
        argv.append("--V=" + draw(st.sampled_from(["0.5", "0", "0.9", "1.7", "2", "2.5", "9.5",
                                                   "-1", "nan"])))
    windows = [0, 1, 2, 3, 5, 8, 12, -1]
    for flag in ("--pmax", "--nmax") if cmd == "state" else ("--pmax",):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(windows))}")
    if cmd == "state":
        if draw(st.booleans()):
            argv.append("--tol=" + draw(st.sampled_from(["1e-12", "1e-6", "0.5", "0", "1"])))
        argv.append("--family=" + draw(st.sampled_from(["eta", "xi", "phi", "psi", "A", "B"])))
        argv.append("--branch=" + draw(st.sampled_from(["plus", "minus"])))
        for flag in ("--z1", "--z2"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(st.sampled_from(_LABELS))}")
    return argv


def _refuse_constant(name):
    raise ValueError(f"{name} is not a finite JSON number")


class TestSharedParser:
    """cli_main builds its parser once per process; no call may see what
    an earlier one parsed."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_small_argv(), min_size=1, max_size=4))
    def test_calls_are_independent(self, argvs):
        for argv in argvs:
            code, out, err = _run_in_process(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            if out and argv[0] == "check":
                assert all(_CHECK_REPORT.fullmatch(line) for line in out.splitlines()), argv
            elif out:
                json.loads(out, parse_constant=_refuse_constant)
            if code == 0:
                # the same call answers the same, whatever ran before it
                assert _run_in_process(argv) == (code, out, err)

    def test_suite_selection_does_not_stick(self):
        code, out, _ = _run_in_process(["check", "--suite", "fock."])
        assert code == 0 and out.splitlines()[-1].endswith("/4 checks passed")
        code, out, _ = _run_in_process(["check"])
        assert code == 0
        assert out.splitlines()[-1] == "35/35 checks passed"

    def test_out_and_tol_defaults_come_back(self, tmp_path):
        out_path = os.fspath(tmp_path / "spectrum.json")
        assert _run_in_process(["spectrum", "--pmax", "1", "--out", out_path])[:2] == (0, "")
        code, out, _ = _run_in_process(["spectrum", "--pmax", "1"])
        assert code == 0 and json.loads(out)["levels"]
        with open(out_path, encoding="utf-8") as fh:
            assert out == fh.read()

        argv = ["state", "--family", "A", "--z2=2.5", "--nmax", "24", "--pmax", "24"]
        assert _run_in_process(argv + ["--tol=1e-3"])[0] == 0
        # the default tolerance 1e-12 is out of reach for |z2| = 2.5 at this window
        code, out, err = _run_in_process(argv)
        assert code == 1 and out == "" and "does not reach tail 1.0e-12" in err


_GRIDS = ["-2:2:5,-2:2:5", "-3:3:9,-1:1:3", "-1:1:2,-1:1:2", "-6:6:17,-6:6:17",
          # refused: too few points, decreasing or empty ranges, non-finite
          # bounds, too many points, malformed text
          "-1:1:1,-1:1:5", "1:-1:5,-1:1:5", "0:0:5,-1:1:5", "-inf:1:5,-1:1:5",
          "nan:1:5,-1:1:5", "0:1:40000,0:1:40000", "-1:1:5", "abc", "-1:1:5.5,-1:1:5"]
_DENSITY_WROTE = re.compile(r"wrote (?P<out>\S+) \(captured mass \S+ of \S+\)")
_MASS_WARNING = "warning: grid-captured mass differs from the state's mass by more than 0.1%"


@st.composite
def _density_argv(draw):
    """density argument lists over small windows, legal and refused grids
    and both formats (the output path is added by the test)."""
    argv = ["density", "--family=" + draw(st.sampled_from(["A", "B", "phi", "psi", "eta", "xi"])),
            "--branch=" + draw(st.sampled_from(["plus", "minus"])),
            "--grid=" + draw(st.sampled_from(_GRIDS)),
            "--format=" + draw(st.sampled_from(["csv", "json"]))]
    if draw(st.booleans()):
        argv.append("--V=" + draw(st.sampled_from(["0", "0.5", "1.7", "2", "9.5", "nan"])))
    for flag in ("--pmax", "--nmax"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from([0, 1, 2, 3, 5, 8, 12, -1]))}")
    for flag in ("--z1", "--z2"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(_LABELS))}")
    if draw(st.booleans()):
        argv.append("--tol=" + draw(st.sampled_from(["1e-12", "1e-6", "0", "1"])))
    return argv


class TestDensityProperty:
    @settings(max_examples=150, deadline=None)
    @given(argv=_density_argv())
    def test_exit_codes_output_and_files(self, argv, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("density")
        fmt = next(arg.split("=")[1] for arg in argv if arg.startswith("--format="))
        out_path = os.fspath(out_dir / f"d.{fmt}")
        code, out, err = _run_in_process(argv + ["--out", out_path])
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        written = sorted(os.listdir(out_dir))
        if code != 0:
            assert out == "" and written == [], argv
            return
        lines = out.splitlines()
        match = _DENSITY_WROTE.fullmatch(lines[0])
        assert match and match["out"] == out_path, argv
        assert lines[1:] in ([], [_MASS_WARNING]), argv
        assert written == (["d.csv", "d.csv.meta.json"] if fmt == "csv" else ["d.json"]), argv


@st.composite
def _extreme_spectrum_argv(draw):
    """spectrum argument lists with extreme finite values: V next to sqrt(m)
    (a few ulps or a relative 1e-15..1e-8 off, m up to 2^53) or anywhere
    from 1e-300 to 1e300; vf and xi with eps0 = 2 vf / xi near 1, near
    overflow or near and below the smallest normal double; windows 0-50."""
    kind = draw(st.sampled_from(["root", "wide", "zero"]))
    if kind == "root":
        V = math.sqrt(draw(st.one_of(st.integers(1, 60), st.integers(1, 2 ** 53))))
        for _ in range(draw(st.integers(0, 3))):
            V = math.nextafter(V, draw(st.sampled_from([0.0, math.inf])))
        V *= 1.0 + draw(st.sampled_from([0.0, 1e-15, -1e-14, 1e-13, -1e-12, 1e-11, -1e-8]))
    else:
        V = 10.0 ** draw(st.floats(-300, 300)) if kind == "wide" else 0.0
    # eps0 about 2 * 10^u; vf = 10^a and xi = 10^(a - u) stay finite
    u = draw(st.sampled_from([(-3.0, 3.0), (305.5, 308.6), (-309.0, -305.0), (-325.0, -309.0)]))
    u = draw(st.floats(*u))
    a = draw(st.floats(max(-307.0, u - 307.0), min(307.0, u + 307.0)))
    vf, xi = 10.0 ** a, 10.0 ** (a - u)
    return ["spectrum", f"--vf={vf!r}", f"--xi={xi!r}", f"--V={V!r}",
            f"--pmax={draw(st.integers(0, 50))}"]


class TestSpectrumProperty:
    """`spectrum` over extreme finite inputs answers right or refuses: exit
    0 with energies within 1e-14 relative of their 50-digit values, or exit
    1 or 2 with one error line, and never a traceback."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=_extreme_spectrum_argv())
    def test_energies_or_one_error_line(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run_in_process(argv)
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
        if code != 0:
            assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
            return
        doc = json.loads(out, parse_constant=_refuse_constant)
        V, eps0 = doc["meta"]["V"], doc["meta"]["eps0"]
        assert eps0 == 2.0 * doc["meta"]["vf"] / doc["meta"]["xi"]
        with mp.workdps(mp_reference.DPS):
            for rec in doc["levels"]:
                got = mpc(rec["re"], rec["im"])
                if rec["class"] == "exceptional":
                    # snapped: |p| - V^2 is within EXCEPTIONAL_RTOL of zero
                    assert got == 0, (argv, rec)
                    gap = abs(abs(rec["p"]) - mpf(V) ** 2)
                    assert gap <= mpf(1e-12) * (1 + 1e-9) * max(1, mpf(V) ** 2), (argv, rec)
                    continue
                want = mp_reference.energy(rec["p"], V, eps0)
                assert abs(got - want) <= 1e-14 * abs(want), (argv, rec, want)


class TestTracedRunHooks:
    """The traced benchmark run wraps the state builders, residuals, level
    matrices, ladders, density layers and checks that `cli` calls through
    module namespaces.  One run of the jobs `layer_metrics` reads (`state`
    of each family kind, `check`, a CSV and a JSON `density`, `spectrum`
    and `scan-v`) must reach every span it reads, so a renamed wrapper
    fails here before it can crash a traced run."""

    SCRIPT = """
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from lbstates.cli import cli_main
labels = ["--z1=1+1i", "--z2=1-1i", "--nmax", "64", "--pmax", "64"]
dens = ["--family", "phi", "--V", "0.5", "--z1=0.1", "--z2=0.1", "--nmax", "20", "--pmax", "20",
        "--grid=-4:4:33,-4:4:33"]
codes = []
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    jobs = [("state", ["--family", "A"] + labels),
            ("state", ["--family", "eta", "--V", "0.5"] + labels),
            ("check", []),
            ("density", dens + ["--format", "csv", "--out", os.path.join(tmp, "d.csv")]),
            ("density", dens + ["--format", "json", "--out", os.path.join(tmp, "d.json")]),
            ("spectrum", ["--V", "0.5", "--pmax", "10"]),
            ("scan-v", ["--from=0.5", "--to=3.5", "--steps", "5", "--pmax", "8"])]
    for k, (cmd, argv) in enumerate(jobs):
        codes.append(tracer.run_job(k, cmd, False, lambda: cli_main([cmd] + argv)))
try:
    metrics = sorted(tracing.layer_metrics(tracer))
except Exception as err:
    metrics = repr(err)
print(json.dumps({"codes": codes, "spans": sorted({s[0] for s in tracer.spans}),
                  "metrics": metrics}))
"""

    # every span name `tracing.layer_metrics` reads
    LAYER_SPANS = {"job", "checks", "coherent.build", "bicoherent.build",
                   "coherent.eigen_residual", "bicoherent.eigen_residual", "spinor.inner",
                   "spinor.level_matrix", "pt.biorth_level_matrices", "pt.pt_spinor_ladder",
                   "ladders.spinor_ladder_matrix", "fock.oscillator_table", "densities.density",
                   "fock.circular_antidiagonals", "densities.component_cartesian",
                   "densities.export"}

    @pytest.fixture(scope="class")
    def traced(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(lbstates.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, os.path.join(root, "bench")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert doc["codes"] == [0] * 7
        return doc

    def test_state_jobs_reach_the_traced_layers(self, traced):
        assert {"coherent.build", "bicoherent.build", "coherent.eigen_residual",
                "bicoherent.eigen_residual"} <= set(traced["spans"])

    def test_every_layer_span_is_reached(self, traced):
        assert self.LAYER_SPANS <= set(traced["spans"]), self.LAYER_SPANS - set(traced["spans"])
        assert "checks.pt.alpha_identities_s" in traced["metrics"]
        assert "densities.export_mb_per_s" in traced["metrics"]


class TestImportProbe:
    """`bench/run.py` `import_layers` times `import lbstates` and the scipy
    modules it loads, from `-X importtime`; a module the import stops
    loading leaves its list of samples empty, and every traced benchmark
    run then fails.  So each of the probe's modules must still report a
    finite, positive time here."""

    SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import run
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(run.import_layers(sys.argv[2], tmp)))
"""

    def test_every_probed_module_is_timed(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(lbstates.__file__))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, os.path.join(root, "bench"), src],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        times = json.loads(proc.stdout.splitlines()[-1])
        assert set(times) == {"import.lbstates_s", "import.scipy_sparse_s",
                              "import.scipy_integrate_s"}
        assert all(math.isfinite(t) and t > 0 for t in times.values()), times
