import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lbstates
from lbstates.cli import cli_main, format_complex, parse_complex


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
        for bad in ("", "abc", "1+2", "i2"):
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
        (["--family", "eta", "--V", "0.5"], 2),
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


class TestDensityCommand:
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

    def test_empty_check_selection_exits_one(self, capsys):
        assert cli_main(["check", "--suite", "nomatch"]) == 1
        captured = capsys.readouterr()
        assert "0/0" not in captured.out
        assert "error" in captured.err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--pmax", "-3"],
        ["spectrum", "--nmax=-1"],
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


class TestFailureExitCodes:
    def test_io_failure_exits_one(self, tmp_path, capsys):
        out = os.fspath(tmp_path / "no" / "such" / "dir" / "x.json")
        code = cli_main(["spectrum", "--V", "0.5", "--pmax", "2", "--out", out])
        assert code == 1
        assert "io error" in capsys.readouterr().err

    def test_window_too_small_exits_one(self, capsys):
        # the theta series at large V only decays beyond the broken region;
        # the default window must refuse with the tail estimate
        code = cli_main(["density", "--V", "9.5", "--z2", "1-1i",
                         "--family", "eta", "--branch", "plus",
                         "--grid=-4:4:17,-4:4:17"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err and "pmax" in err
