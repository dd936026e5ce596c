import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lbstates import ContractError, FockCutoff, PhysicalParams, densities, floattext
from lbstates.bicoherent import BicoherentSpec, build_bicoherent
from lbstates.checks import basis_vector_c, first_register_basis
from lbstates.coherent import CoherentSpec, build_coherent
from lbstates.densities import (MAX_GRID_BOUND, MAX_GRID_POINTS, DensityField, GridSpec, density, export,
                                gain_loss)
from lbstates.levels import alpha_moduli
from lbstates.params import discriminant
from lbstates.spinor import SpinorState

CUT = FockCutoff(32, 32, 32)
GRID = GridSpec(-8, 8, 161, -8, 8, 161)


@pytest.fixture(scope="module")
def coherent_field():
    st = build_coherent(CoherentSpec(0.0, 1 - 1j, "A", "plus", CUT))
    return st, density(st, GRID)


class TestGridSpec:
    def test_parse(self):
        g = GridSpec.parse("-8:8:257,-6:6:65")
        assert (g.x_min, g.x_max, g.nx) == (-8.0, 8.0, 257)
        assert (g.y_min, g.y_max, g.ny) == (-6.0, 6.0, 65)

    def test_bad_specs_rejected(self):
        for bad in ("1:2", "2:1:10,0:1:10", "a:b:c,d:e:f", "0:1:1,0:1:5"):
            with pytest.raises(ContractError):
                GridSpec.parse(bad)

    @pytest.mark.parametrize("bad", ["-inf:inf:5,-1:1:5", "0:1:5,0:1e400:5", "nan:1:5,0:1:5",
                                     "-1e308:1e308:5,0:1:5"])
    def test_non_finite_bounds_rejected(self, bad):
        with pytest.raises(ContractError, match="finite"):
            GridSpec.parse(bad)

    def test_bounds_beyond_the_limit_are_refused(self):
        beyond = math.nextafter(MAX_GRID_BOUND, math.inf)
        for i in range(4):
            bounds = [-1.0, 1.0, -1.0, 1.0]
            bounds[i] = beyond if i % 2 else -beyond
            with pytest.raises(ContractError, match=r"\|bound\| <= 1e\+102"):
                GridSpec(bounds[0], bounds[1], 4, bounds[2], bounds[3], 4)

    def test_point_count_is_bounded_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match=str(MAX_GRID_POINTS)):
                GridSpec.parse("0:1:40000,0:1:40000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        g = GridSpec.parse("0:1:2049,0:1:2049")
        assert g.nx * g.ny == MAX_GRID_POINTS


class TestDensityField:
    def test_total_is_componentwise_sum(self, coherent_field):
        _, fld = coherent_field
        assert np.abs(fld.total - fld.upper - fld.lower).max() < 1e-12
        assert fld.total.min() >= 0.0

    def test_integral_matches_norm(self, coherent_field):
        st, fld = coherent_field
        assert fld.integral() == pytest.approx(st.norm2(), abs=1e-3)
        assert not fld.meta["mass_warning"]

    def test_vacuum_peak_value(self):
        st = basis_vector_c((0, 0), FockCutoff(2, 6, 4))
        fld = density(st, GridSpec(-6, 6, 121, -6, 6, 121))
        # |e_00|^2 peaks at 1/pi at the origin
        assert fld.total.max() == pytest.approx(1 / math.pi, abs=1e-6)
        mid = fld.total[60, 60]
        assert mid == pytest.approx(1 / math.pi, abs=1e-12)

    def test_warning_on_small_grid(self):
        st = build_coherent(CoherentSpec(0.0, 2 + 2j, "A", "plus", FockCutoff(64, 64, 64)))
        fld = density(st, GridSpec(-1, 1, 21, -1, 1, 21))
        assert fld.meta["mass_warning"]

    def test_metadata_echo(self, coherent_field):
        st, fld = coherent_field
        assert fld.meta["params"]["eps0"] == 2.0
        assert fld.meta["cutoff"] == {"nmax1": 32, "nmax2": 32}
        assert fld.meta["state"]["family"] == "A"

    def test_warning_on_overshooting_grid(self):
        # Simpson's rule on three points per axis overestimates the vacuum
        # Gaussian's integral (2.3 instead of 1)
        st = basis_vector_c((0, 0), FockCutoff(2, 6, 4))
        fld = density(st, GridSpec(-2, 2, 3, -2, 2, 3))
        assert fld.meta["captured_mass"] > 2.0
        assert fld.meta["mass_warning"]

    def test_large_label_window_is_answered_right(self):
        # z1 = 7, z2 = 6 at window 150 reaches anti-diagonal 300, where
        # raising single modes gave a captured mass of 26.4 of 1.00
        params = PhysicalParams(V=0.5)
        st = build_bicoherent(BicoherentSpec(7.0, 6.0, "standard", "ket", "plus", params,
                                             FockCutoff(150, 150, 150)))
        fld = density(st, GridSpec(-20, 20, 257, -20, 20, 257), params)
        assert fld.meta["captured_mass"] == pytest.approx(fld.meta["coefficient_norm2"], rel=1e-3)
        assert not fld.meta["mass_warning"]

    def test_non_finite_captured_mass_warns(self, monkeypatch):
        monkeypatch.setattr(DensityField, "integral", lambda self: math.nan)
        st = basis_vector_c((0, 0), FockCutoff(2, 6, 4))
        assert density(st, GridSpec(-6, 6, 33, -6, 6, 33)).meta["mass_warning"] is True

    def test_non_isometric_basis_change_is_refused(self, monkeypatch):
        from lbstates import fock

        monkeypatch.setattr(densities, "circular_antidiagonals",
                            lambda n_top: 2.0 * fock.circular_antidiagonals(n_top))
        st, params = _built("eta", 1.5 + 0.75j)
        with pytest.raises(ContractError, match="not isometric"):
            density(st, GRID, params)


class TestGainLoss:
    def test_v0_reference_is_balanced(self, coherent_field):
        st, _ = coherent_field
        rep = gain_loss(st)
        # coefficient-space oracle: (1 + e^{-|z|^2}) / (1 - e^{-|z|^2})
        expect = (1 + math.exp(-2.0)) / (1 - math.exp(-2.0))
        assert rep["ratio"] == pytest.approx(expect, rel=1e-10)
        assert rep["ratio"] == pytest.approx(1.3130352854993312, rel=1e-12)
        assert 0.4 < rep["ratio"] < 2.5
        assert (rep["mass_upper"], rep["mass_lower"]) == st.component_masses()

    def test_eta_plus_upper_dominated_at_large_v(self):
        params = PhysicalParams(V=9.5)
        cut = FockCutoff(4, 150, 150)
        st = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "theta", "ket", "plus", params, cut))
        assert gain_loss(st)["ratio"] > 10
        ps = np.arange(1, cut.pmax + 1)
        broken = ps[discriminant(ps, params.V) < 0.0]
        assert broken.size == 90
        assert alpha_moduli(broken, params.V)[0][0] < 0.06

    def test_xi_minus_lower_dominated_at_large_v(self):
        params = PhysicalParams(V=9.5)
        cut = FockCutoff(4, 150, 150)
        st = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "theta", "bra", "minus", params, cut))
        rep = gain_loss(st)
        assert rep["mass_lower"] / rep["mass_upper"] > 10

    @pytest.mark.parametrize("V", [1.7, 2.5, 9.5, 30.3])
    def test_alpha_table_equals_scalar_asymptotics(self, V):
        # |alpha+-| over the broken levels of a window in one evaluation,
        # against one-level calls
        ps = np.arange(1, 1001)
        broken = ps[discriminant(ps, V) < 0.0]
        assert broken.tolist() == [p for p in range(1, 1001) if p < V ** 2]
        aps, ams = alpha_moduli(broken, V)
        for p, ap, am in zip(broken.tolist(), aps.tolist(), ams.tolist()):
            one = alpha_moduli([p], V)
            assert (ap, am) == (float(one[0][0]), float(one[1][0]))

    def test_level_snapped_to_exceptional_is_left_out(self, tmp_path, capsys):
        # V^2 = 9 + 4.8e-12: p = 9 lies below V^2 but its discriminant is
        # snapped to 0, so it is no broken level and the density is written
        from lbstates.cli import cli_main

        out = os.fspath(tmp_path / "d.csv")
        code = cli_main(["density", "--family", "phi", "--V", "3.0000000000008", "--z1", "0",
                         "--z2", "0.01", "--nmax", "20", "--pmax", "20",
                         "--grid=-2:2:5,-2:2:5", "--out", out])
        assert code == 0, capsys.readouterr().err
        assert os.path.getsize(out) > 0
        ps = np.arange(1, 21)
        assert ps[discriminant(ps, 3.0000000000008) < 0.0].tolist() == list(range(1, 9))

    def test_standard_ket_ratio_grows_with_v(self):
        ratios = []
        for v in (0.5, 9.5):
            params = PhysicalParams(V=v)
            st = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "standard", "ket", "plus",
                                                 params, FockCutoff(4, 48, 48)))
            ratios.append(gain_loss(st)["ratio"])
        assert ratios[1] > ratios[0]

    def test_state_and_density_report_the_same_masses(self, tmp_path, capsys):
        from lbstates.cli import cli_main

        argv = ["--family", "xi", "--branch", "minus", "--V", "9.5", "--z2=1-1i",
                "--nmax", "150", "--pmax", "150"]
        assert cli_main(["state"] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        out = os.fspath(tmp_path / "d.csv")
        assert cli_main(["density"] + argv + ["--grid=-2:2:5,-2:2:5", "--format", "csv",
                                              "--out", out]) == 0
        with open(out + ".meta.json", encoding="utf-8") as fh:
            block = json.load(fh)["gain_loss"]
        assert block == {"mass_upper": report["mass_upper"], "mass_lower": report["mass_lower"],
                         "ratio": report["mass_ratio"]}


class TestExport:
    def test_csv_round_trip_and_sidecar(self, coherent_field, tmp_path):
        _, fld = coherent_field
        path = os.fspath(tmp_path / "field.csv")
        export(fld, "csv", path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_array_equal(data["total"].reshape(fld.grid.nx, fld.grid.ny), fld.total)
        np.testing.assert_array_equal(data["upper"].reshape(fld.grid.nx, fld.grid.ny), fld.upper)
        with open(path + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["grid"]["nx"] == fld.grid.nx

    def test_json_schema(self, coherent_field, tmp_path):
        _, fld = coherent_field
        path = os.fspath(tmp_path / "field.json")
        export(fld, "json", path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert set(doc) == {"meta", "grid", "total", "upper", "lower"}
        assert doc["grid"]["x"][0] == -8.0
        assert len(doc["total"]) == fld.grid.nx
        np.testing.assert_array_equal(np.array(doc["total"]), fld.total)

    def test_identical_bytes_across_runs(self, coherent_field, tmp_path):
        _, fld = coherent_field
        p1, p2 = os.fspath(tmp_path / "a.csv"), os.fspath(tmp_path / "b.csv")
        export(fld, "csv", p1)
        export(fld, "csv", p2)
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p2, "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    def test_unknown_format_rejected(self, coherent_field, tmp_path):
        _, fld = coherent_field
        with pytest.raises(ContractError):
            export(fld, "parquet", os.fspath(tmp_path / "x"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_is_refused_before_writing(self, fmt, bad, tmp_path):
        grid = GridSpec(0, 1, 3, 0, 1, 2)
        upper = np.ones(6)
        upper[4] = bad
        fld = _synthetic_field(grid, (upper, upper, np.zeros(6)))
        path = tmp_path / f"f.{fmt}"
        with pytest.raises(ContractError, match="non-finite"):
            export(fld, fmt, os.fspath(path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_metadata_is_refused_before_writing(self, fmt, tmp_path):
        grid = GridSpec(0, 1, 3, 0, 1, 2)
        fld = _synthetic_field(grid, np.ones((3, 6)), dict(_META, captured_mass=math.inf))
        with pytest.raises(ContractError, match="non-finite"):
            export(fld, fmt, os.fspath(tmp_path / f"f.{fmt}"))
        assert list(tmp_path.iterdir()) == []


def _reference_export(fld, fmt, path):
    """The whole-document writer export replaced, kept as its byte oracle:
    one "%.17g" call per CSV value, and json.dumps of the whole document."""
    if fmt == "csv":
        x, y = fld.grid.x, fld.grid.y
        lines = ["x,y,total,upper,lower"]
        lines += [",".join("%.17g" % v for v in (x[i], y[j], fld.total[i, j], fld.upper[i, j],
                                                 fld.lower[i, j]))
                  for i in range(fld.grid.nx) for j in range(fld.grid.ny)]
        texts = {path: "\n".join(lines) + "\n",
                 path + ".meta.json": json.dumps(fld.meta, indent=2, sort_keys=True) + "\n"}
    else:
        doc = {"meta": fld.meta, "grid": {"x": fld.grid.x.tolist(), "y": fld.grid.y.tolist()},
               "total": fld.total.tolist(), "upper": fld.upper.tolist(),
               "lower": fld.lower.tolist()}
        texts = {path: json.dumps(doc, indent=2, sort_keys=True) + "\n"}
    return {p: t.encode("utf-8") for p, t in texts.items()}


def _exported_bytes(fld, fmt, path):
    export(fld, fmt, path)
    out = {}
    for p in (path, path + ".meta.json") if fmt == "csv" else (path,):
        with open(p, "rb") as fh:
            out[p] = fh.read()
    return out


# nested keys that share the names of the streamed fields, and a string
# that spells the layout json.dumps gives them, must not confuse the writer
_META = {"state": {"total": 1.5, "lower": [1, 2.25], "note": '\n  "lower": null'},
         "captured_mass": 0.999, "mass_warning": False, "upper": None}


def _synthetic_field(grid, values, meta=_META):
    total, upper, lower = (np.asarray(v, dtype=float).reshape(grid.nx, grid.ny)
                           for v in values)
    return DensityField(grid, total, upper, lower, dict(meta))


class TestStreamedExportBytes:
    @pytest.mark.parametrize("grid", [
        GridSpec(-3.5, -1.25, 2, -7, 11, 5),
        GridSpec(-1, 1, 7, -2e-3, 5e-3, 3),
        GridSpec(0.1, 0.7, 4, 0, 1, 2),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matches_reference_writer(self, grid, fmt, tmp_path):
        rng = np.random.default_rng(grid.nx * 10 + grid.ny)
        n = grid.nx * grid.ny
        upper = rng.random(n) * 10.0 ** rng.integers(-300, 3, n)
        lower = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
        upper[:2] = (0.0, 1e-300)
        lower[-1] = 2.5e-310
        fld = _synthetic_field(grid, (upper + lower, upper, lower))
        path = os.fspath(tmp_path / f"f.{fmt}")
        assert _exported_bytes(fld, fmt, path) == _reference_export(fld, fmt, path)

    def test_density_field_matches_reference_writer(self, coherent_field, tmp_path):
        _, fld = coherent_field
        for fmt in ("csv", "json"):
            path = os.fspath(tmp_path / f"f.{fmt}")
            assert _exported_bytes(fld, fmt, path) == _reference_export(fld, fmt, path)

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(2, 5), ny=st.integers(2, 5),
           x_min=st.floats(-1e3, 1e3), y_min=st.floats(-1e3, 1e3),
           span=st.floats(1e-6, 1e3), data=st.data())
    def test_random_finite_fields_match_reference(self, nx, ny, x_min, y_min, span, data):
        grid = GridSpec(x_min, x_min + span, nx, y_min, y_min + 2 * span, ny)
        values = [data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=nx * ny, max_size=nx * ny))
                  for _ in range(3)]
        fld = _synthetic_field(grid, values)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "json"):
                path = os.path.join(tmp, f"f.{fmt}")
                assert _exported_bytes(fld, fmt, path) == _reference_export(fld, fmt, path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("low,high", [(0.0, 2.0), (10.0, 1010.0)])
    def test_memory_is_bounded_by_a_row(self, fmt, low, high, tmp_path):
        # every value in [low, high): from 10 up, fixed notation puts the
        # point after the second digit or later
        grid = GridSpec(-8, 8, 257, -8, 8, 257)
        rng = np.random.default_rng(257)
        fld = _synthetic_field(grid, low + (high - low) * rng.random((3, 257 * 257)))
        path = os.fspath(tmp_path / f"f.{fmt}")
        tracemalloc.start()
        try:
            export(fld, fmt, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) / 4


def _failing_render(documents_before):
    """_render that renders `documents_before` documents whole, then writes
    the first piece of the next one and fails."""
    render, done = densities._render, []

    def failing(pieces, write):
        if len(done) == documents_before:
            write(pieces[0].encode())
            raise OSError("simulated write failure")
        done.append(render(pieces, write))

    return failing


def _exported_in_blocks(fld, fmt, path, rows_per_block):
    """_exported_bytes with BLOCK_VALUES set so that each block of the
    export holds rows_per_block rows of the field."""
    per_row = fld.grid.ny * (3 if fmt == "csv" else 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(densities, "BLOCK_VALUES", rows_per_block * per_row)
        return _exported_bytes(fld, fmt, path)


class TestBlockedExport:
    """Rows rendered a few at a time, so that a field spans several blocks:
    the bytes do not depend on where the blocks are cut."""

    GRIDS = [GridSpec(-3.5, -1.25, 2, -7, 11, 5), GridSpec(-1, 1, 7, -2e-3, 5e-3, 3),
             GridSpec(0.1, 0.7, 4, 0, 1, 2)]

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matches_reference_writer(self, grid, fmt, rows_per_block, tmp_path):
        rng = np.random.default_rng(grid.nx * 10 + grid.ny)
        n = grid.nx * grid.ny
        upper = rng.random(n) * 10.0 ** rng.integers(-300, 3, n)
        lower = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
        fld = _synthetic_field(grid, (upper + lower, upper, lower))
        path = os.fspath(tmp_path / f"f.{fmt}")
        assert (_exported_in_blocks(fld, fmt, path, rows_per_block)
                == _reference_export(fld, fmt, path))

    @pytest.mark.parametrize("rows_per_block", [1, 5])
    def test_density_field_matches_reference_writer(self, coherent_field, rows_per_block,
                                                     tmp_path):
        _, fld = coherent_field
        for fmt in ("csv", "json"):
            path = os.fspath(tmp_path / f"f.{fmt}")
            assert (_exported_in_blocks(fld, fmt, path, rows_per_block)
                    == _reference_export(fld, fmt, path))

    @settings(max_examples=20, deadline=None)
    @given(nx=st.integers(2, 5), ny=st.integers(2, 5),
           x_min=st.floats(-1e3, 1e3), y_min=st.floats(-1e3, 1e3),
           span=st.floats(1e-6, 1e3), data=st.data())
    def test_random_finite_fields_match_reference(self, nx, ny, x_min, y_min, span, data):
        grid = GridSpec(x_min, x_min + span, nx, y_min, y_min + 2 * span, ny)
        values = [data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=nx * ny, max_size=nx * ny))
                  for _ in range(3)]
        fld = _synthetic_field(grid, values)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "json"):
                path = os.path.join(tmp, f"f.{fmt}")
                want = _reference_export(fld, fmt, path)
                for rows_per_block in (1, 2):
                    assert _exported_in_blocks(fld, fmt, path, rows_per_block) == want


class TestOneProcessExport:
    """The export runs in this process: a write that fails mid-export
    leaves no file, and a grid that the forked share writer used to split
    is written without forking."""

    @pytest.mark.parametrize("fmt, documents_before", [("csv", 0), ("csv", 1), ("json", 0)])
    def test_failure_raises_and_leaves_nothing(self, fmt, documents_before, monkeypatch,
                                               tmp_path):
        monkeypatch.setattr(densities, "_render", _failing_render(documents_before))
        grid = GridSpec(0, 1, 6, 0, 1, 4)
        fld = _synthetic_field(grid, np.ones((3, 24)))
        with pytest.raises(OSError):
            export(fld, fmt, os.fspath(tmp_path / f"f.{fmt}"))
        assert list(tmp_path.iterdir()) == []

    def test_cli_density_exits_1_on_a_failed_write(self, monkeypatch, tmp_path, capsys):
        from lbstates.cli import cli_main

        monkeypatch.setattr(densities, "_render", _failing_render(0))
        out = os.fspath(tmp_path / "d.csv")
        code = cli_main(["density", "--family", "A", "--z1", "0.1", "--z2", "0.1",
                         "--nmax", "16", "--pmax", "16", "--format", "csv",
                         "--grid=-1:1:5,-1:1:5", "--out", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("io error: ")
        assert list(tmp_path.iterdir()) == []

    def test_large_grid_does_not_fork(self, monkeypatch, tmp_path):
        def no_fork():
            raise AssertionError("the export forked")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        grid = GridSpec(-8, 8, 257, -8, 8, 257)
        rng = np.random.default_rng(257)
        upper = rng.random(257 * 257) * 10.0 ** rng.integers(-40, 2, 257 * 257)
        lower = rng.random(257 * 257)
        fld = _synthetic_field(grid, (upper + lower, upper, lower))
        for fmt in ("csv", "json"):
            path = os.fspath(tmp_path / f"f.{fmt}")
            assert _exported_bytes(fld, fmt, path) == _reference_export(fld, fmt, path)


class TestTextsInPlace:
    """floattext.Texts writes each text and its byte after exactly at its
    offset and touches no other byte."""

    def test_texts_fill_only_their_bytes(self):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([values[np.isfinite(values)],
                                 [0.0, -0.0, 0.5, -12.5, 1e16, 1e-5, -1.5e-300, 123456.789]])
        after = rng.integers(33, 127, values.size).astype(np.uint8)
        for style, fmt in (("g17", "%.17g".__mod__), ("repr", float.__repr__)):
            texts = floattext.Texts(values, style, after)
            at = np.cumsum(texts.length + 3) - texts.length  # 3 free bytes before each
            out = np.full(at[-1] + texts.length[-1] + 3, 255, dtype=np.uint8)
            texts.write(out, at)
            free = np.ones(out.size, dtype=bool)
            for k, v in enumerate(values.tolist()):
                assert out[at[k]:at[k] + texts.length[k]].tobytes() == fmt(v).encode() + bytes(
                    [after[k]])
                free[at[k]:at[k] + texts.length[k]] = False
            assert (out[free] == 255).all()


def _direct(state, points):
    """(upper, lower) |psi|^2 at each point, summed mode by mode: the
    Cartesian coefficients sum fr[n1] c[n2] e_{n1,n2} of each component c,
    every mode raised from the vacuum with the sparse ladder matrices,
    evaluated by `eval_mode`.  No translation and no binomial table; the
    window n1 + n2 <= nmax1 + nmax2 loses no raised term."""
    from helpers import eval_mode
    from lbstates.ladders import CartesianModeVector, ladder_matrices

    fr = state.first_register
    window = fr.size + state.upper.size - 2
    ops = ladder_matrices(FockCutoff(0, window))
    a1dag, a2dag = (ops[name].matrix.conjugate().T.tocsr() for name in ("A1", "A2"))
    modes = []
    for c in (state.upper, state.lower):
        spinor = np.zeros((window + 1) ** 2, dtype=complex)
        raised = np.zeros_like(spinor)
        raised[0] = 1.0
        for n2, weight in enumerate(c):
            spinor += weight * raised
            raised = a2dag @ raised / math.sqrt(n2 + 1.0)
        total, raised = np.zeros_like(spinor), spinor
        for n1, weight in enumerate(fr):
            total += weight * raised
            raised = a1dag @ raised / math.sqrt(n1 + 1.0)
        modes.append(CartesianModeVector(total.reshape(window + 1, window + 1)))
    return [tuple(abs(eval_mode(m, x, y)) ** 2 for m in modes) for x, y in points]


class TestDirectEvaluationOracle:
    def test_fast_path_matches_pointwise_mode_summation(self):
        cut = FockCutoff(32, 32, 32)
        st = build_coherent(CoherentSpec(0.5 - 0.2j, 1 - 1j, "A", "plus", cut))
        grid = GridSpec(-3, 3, 7, -3, 3, 7)
        fld = density(st, grid)
        probes = ((0, 1), (3, 3), (5, 6))
        for (i, j), (up, lo) in zip(probes, _direct(st, [(grid.x[i], grid.y[j])
                                                         for i, j in probes])):
            assert fld.total[i, j] == pytest.approx(up + lo, abs=1e-14)


class TestSupportBoundedWork:
    """density() forms its weights over the state's support, not over the
    window, so a huge window with a small state stays small."""

    def test_huge_window_small_state(self, tmp_path, capsys):
        from lbstates.cli import cli_main

        out = os.fspath(tmp_path / "d.csv")
        tracemalloc.start()
        try:
            code = cli_main(["density", "--family", "A", "--z1", "0.1", "--z2", "0.1",
                             "--nmax", "100000", "--pmax", "100000",
                             "--grid=-1:1:5,-1:1:5", "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 100e6
        assert os.path.getsize(out) > 0

    @pytest.mark.parametrize("V", [0.0, 0.5])
    def test_field_bytes_do_not_depend_on_the_window(self, V):
        # series cut by their tail bound give the same state, zero-padded,
        # at a wider window; its field keeps its bytes
        grid = GridSpec(-5, 5, 41, -5, 5, 41)
        fields = []
        for window in (40, 300):
            cut = FockCutoff(window, window, window)
            if V == 0.0:
                st = build_coherent(CoherentSpec(0.5 - 0.5j, 1 + 0.5j, "A", "plus", cut))
            else:
                st = build_bicoherent(BicoherentSpec(0.5 - 0.5j, 1 + 0.5j, "standard", "ket",
                                                     "minus", PhysicalParams(V=V), cut))
            fields.append(density(st, grid, PhysicalParams(V=V)))
        for name in ("total", "upper", "lower"):
            assert getattr(fields[0], name).tobytes() == getattr(fields[1], name).tobytes()


def _built(family, z1, cut=FockCutoff(64, 48, 48)):
    """A built state of the family at label z1 (z2 fixed) and its params."""
    if family == "A":
        return build_coherent(CoherentSpec(z1, 1 - 0.5j, "A", "plus", cut)), PhysicalParams()
    params = PhysicalParams(V=0.5)
    kind = "standard" if family == "phi" else "theta"
    return build_bicoherent(BicoherentSpec(z1, 1 - 0.5j, kind, "ket", "minus", params,
                                           cut)), params


def _without_z1(state):
    """The same registers with no z1 on record, which density reads as z1 = 0."""
    meta = {k: v for k, v in state.meta.items() if k != "z1"}
    return SpinorState(state.first_register, state.upper, state.lower, meta)


def _closed_form(state, z1, x, y):
    """|sum_n c_n w^n / sqrt(pi n!)|^2 e^{-|w|^2}, w = x - iy - z1, summed
    over each spinor component c: the density of a coherent first register
    of label z1 times the component series."""
    w = x - 1j * y - z1
    terms = np.array([w ** n / math.sqrt(math.pi * math.factorial(n))
                      for n in range(state.upper.size)])
    return sum(abs(np.dot(c, terms)) ** 2 for c in (state.upper, state.lower)) * math.exp(
        -abs(w) ** 2)


class TestTranslatedDensity:
    """density takes built states only and reads each as its z1 = 0
    density on a shifted grid: the spinor weights of the modes e_{0,N}
    through the closed binomial table, on the grid moved by (-Re z1,
    +Im z1).  Its oracles: the closed form `_closed_form` and the mode sum
    `_direct`, which raises every mode e_{n1,n2} of the state."""

    @pytest.mark.parametrize("family", ["A", "phi", "eta"])
    @pytest.mark.parametrize("z1", [0, 1.5 + 0.75j, -1 - 2j])
    def test_equals_the_general_path(self, family, z1):
        st, params = _built(family, z1)
        grid = GridSpec(-9, 9, 73, -9, 9, 65)
        fld = density(st, grid, params)
        peak = fld.total.max()
        probes = [(i, j) for i in range(2, 73, 7) for j in range(1, 65, 9)]
        raised = _direct(st, [(grid.x[i], grid.y[j]) for i, j in probes])
        for (i, j), (up, lo) in zip(probes, raised):
            assert abs(fld.upper[i, j] - up) <= 1e-13 * peak
            assert abs(fld.lower[i, j] - lo) <= 1e-13 * peak
            closed = _closed_form(st, z1, grid.x[i], grid.y[j])
            assert abs(fld.total[i, j] - closed) <= 1e-13 * peak
        assert fld.meta["captured_mass"] == pytest.approx(st.norm2(), rel=1e-12)

    def test_a_first_register_that_is_not_the_series_is_refused(self):
        st, params = _built("A", 0.5 + 0.5j)
        nudged = st.first_register.copy()
        nudged[3] = np.nextafter(nudged[3].real, 1.0) + 1j * nudged[3].imag
        others = [SpinorState(first_register_basis(1, 64), st.upper, st.lower, dict(st.meta)),
                  SpinorState(nudged, st.upper, st.lower, dict(st.meta)),
                  SpinorState(0 * nudged, st.upper, st.lower, dict(st.meta)),
                  SpinorState(st.first_register, st.upper, st.lower, dict(st.meta, z1=0.5)),
                  _without_z1(st)]
        for other in others:
            with pytest.raises(ContractError, match="built states only"):
                density(other, GRID, params)

    def test_closed_form_matches_the_general_path(self):
        # checks the oracle of the next test on a path that uses no translation
        z1 = 0.5 - 0.25j
        st, _ = _built("A", z1)
        grid = GridSpec(-4, 4, 9, -4, 4, 9)
        probes = ((1, 2), (4, 4), (5, 3), (7, 8))
        raised = _direct(st, [(grid.x[i], grid.y[j]) for i, j in probes])
        peak = max(up + lo for up, lo in raised)
        for (i, j), (up, lo) in zip(probes, raised):
            assert abs(up + lo - _closed_form(st, z1, grid.x[i], grid.y[j])) <= 1e-12 * peak

    def test_far_label_matches_the_closed_form(self):
        # its modes e_{n1,n2} would reach index 537, past the oscillator
        # tables' limit; translated, they reach 17
        z1 = -18 + 5j
        st = build_coherent(CoherentSpec(z1, 0.5, "A", "plus", FockCutoff(800, 20, 20)))
        grid = GridSpec(-24, -12, 13, -11, 1, 13)
        fld = density(st, grid)
        peak = fld.total.max()
        for i, j in ((6, 6), (3, 8), (9, 2), (0, 12), (7, 5)):
            assert abs(fld.total[i, j] - _closed_form(st, z1, grid.x[i], grid.y[j])) <= (
                1e-12 * peak)
