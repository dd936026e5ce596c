import json
import math
import os

import numpy as np
import pytest

from lbstates import ContractError, FockCutoff, PhysicalParams
from lbstates.bicoherent import BicoherentSpec, build_bicoherent
from lbstates.coherent import CoherentSpec, build_coherent
from lbstates.densities import GridSpec, density, export, gain_loss
from lbstates.spinor import ModeIndex, basis_vector_c

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
        st = basis_vector_c(ModeIndex(0, 0), FockCutoff(2, 6, 4))
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
        st = basis_vector_c(ModeIndex(0, 0), FockCutoff(2, 6, 4))
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

    def test_non_isometric_basis_change_is_refused(self, monkeypatch):
        from lbstates import densities, fock

        def doubled(n_top, n1_top):
            for big_n, block in fock.circular_antidiagonals(n_top, n1_top):
                yield big_n, 2.0 * block

        monkeypatch.setattr(densities, "circular_antidiagonals", doubled)
        st = basis_vector_c(ModeIndex(1, 3), FockCutoff(2, 6, 4))
        with pytest.raises(ContractError, match="not isometric"):
            density(st, GRID)


class TestGainLoss:
    def test_v0_reference_is_balanced(self, coherent_field):
        st, _ = coherent_field
        rep = gain_loss(st)
        # coefficient-space oracle: (1 + e^{-|z|^2}) / (1 - e^{-|z|^2})
        expect = (1 + math.exp(-2.0)) / (1 - math.exp(-2.0))
        assert rep.ratio == pytest.approx(expect, rel=1e-10)
        assert rep.ratio == pytest.approx(1.3130352854993312, rel=1e-12)
        assert 0.4 < rep.ratio < 2.5
        assert rep.per_level_alpha_table == []

    def test_eta_plus_upper_dominated_at_large_v(self):
        params = PhysicalParams(V=9.5)
        cut = FockCutoff(4, 150, 150)
        st = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "theta", "ket", "plus", params, cut))
        rep = gain_loss(st, params)
        assert rep.ratio > 10
        assert len(rep.per_level_alpha_table) == 90
        assert rep.per_level_alpha_table[0]["abs_alpha_plus"] < 0.06

    def test_xi_minus_lower_dominated_at_large_v(self):
        params = PhysicalParams(V=9.5)
        cut = FockCutoff(4, 150, 150)
        st = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "theta", "bra", "minus", params, cut))
        rep = gain_loss(st, params)
        assert rep.mass_lower / rep.mass_upper > 10

    def test_standard_ket_ratio_grows_with_v(self):
        ratios = []
        for v in (0.5, 9.5):
            params = PhysicalParams(V=v)
            st = build_bicoherent(BicoherentSpec(0.0, 1 - 1j, "standard", "ket", "plus",
                                                 params, FockCutoff(4, 48, 48)))
            ratios.append(gain_loss(st, params).ratio)
        assert ratios[1] > ratios[0]


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


class TestDirectEvaluationOracle:
    def test_fast_path_matches_pointwise_mode_summation(self):
        # independent route: sum the state's circular modes one by one with
        # eval_mode at each probe point
        from lbstates import circular_mode, eval_mode

        cut = FockCutoff(32, 32, 32)
        st = build_coherent(CoherentSpec(0.5 - 0.2j, 1 - 1j, "A", "plus", cut))
        grid = GridSpec(-3, 3, 7, -3, 3, 7)
        fld = density(st, grid)
        bigcut = FockCutoff(0, 64)
        cache = {}

        def direct(x, y):
            up = 0j
            lo = 0j
            for n1, w1 in enumerate(st.first_register):
                if abs(w1) < 1e-16:
                    continue
                for k, wu in enumerate(st.upper):
                    if abs(wu) > 1e-16:
                        m = cache.setdefault((n1, k), circular_mode(n1, k, bigcut))
                        up += w1 * wu * eval_mode(m, x, y)
                for k, wl in enumerate(st.lower):
                    if abs(wl) > 1e-16:
                        m = cache.setdefault((n1, k), circular_mode(n1, k, bigcut))
                        lo += w1 * wl * eval_mode(m, x, y)
            return abs(up) ** 2 + abs(lo) ** 2

        for i, j in ((0, 1), (3, 3), (5, 6)):
            assert fld.total[i, j] == pytest.approx(direct(grid.x[i], grid.y[j]), abs=1e-14)
