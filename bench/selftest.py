"""Self-tests of the benchmark's oracles and output checks.

    python3 bench/selftest.py        (from the root of a checkout)

Each oracle is matched against a closed form worked out by hand, each
output check accepts a real output of the program and rejects perturbed
copies of it, and every choice the job generator can make is shown to
build without a cutoff error.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import jobs as joblib  # noqa: E402
import oracles as orc  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402


def gaussian(x, y):
    return math.exp(-(x * x + y * y) / 2) / math.sqrt(math.pi)


class OracleClosedForms(unittest.TestCase):
    def test_oscillator_functions(self):
        for x in (-3.1, -0.4, 0.0, 1.7, 5.0):
            psi = orc.oscillator_values(2, x)
            psi0 = math.pi ** -0.25 * math.exp(-x * x / 2)
            for got, want in zip(psi, (psi0, math.sqrt(2) * x * psi0,
                                       (2 * x * x - 1) / math.sqrt(2) * psi0)):
                self.assertAlmostEqual(got, want, delta=1e-15 * max(1.0, abs(want)))

    def test_low_modes(self):
        table = orc.ModeTable()
        closed = {
            (0, 0): lambda x, y: gaussian(x, y),
            (1, 0): lambda x, y: complex(x, y) * gaussian(x, y),
            (0, 1): lambda x, y: complex(x, -y) * gaussian(x, y),
            (1, 1): lambda x, y: (x * x + y * y - 1) * gaussian(x, y),
        }
        for x, y in ((0.3, -1.2), (-2.0, 0.5), (1.1, 1.9)):
            px, py = orc.oscillator_values(2, x), orc.oscillator_values(2, y)
            for (n1, n2), fn in closed.items():
                got = orc.mode_value(table, n1, n2, px, py)
                self.assertLess(abs(got - fn(x, y)), 1e-15)

    def test_mode_coefficients_are_unit_vectors(self):
        # exact rational check of sum_j S_j^2 j! (N-j)! / (2^N n1! n2!) = 1
        table = orc.ModeTable()
        for n1, n2 in ((0, 7), (5, 3), (40, 60), (150, 150)):
            big_n = n1 + n2
            poly = table._integer_poly(n1, n2)
            total = sum(Fraction(s * s * math.factorial(j) * math.factorial(big_n - j),
                                 2 ** big_n * math.factorial(n1) * math.factorial(n2))
                        for j, s in enumerate(poly))
            self.assertEqual(total, 1)
            self.assertAlmostEqual(float(np.linalg.norm(table.coefficients(n1, n2))), 1.0,
                                   delta=1e-12)

    def test_dense_spectrum(self):
        eps0 = 2.0
        for V, pmax in ((0.5, 4), (1.7, 5)):
            want = [1j * eps0 * V]
            for p in range(1, pmax + 1):
                root = eps0 * complex(p - V * V) ** 0.5
                want += [root, -root]
            self.assertLess(orc.match_spectrum(want, V, eps0, pmax),
                            orc.spectrum_tolerance(V, eps0, pmax))

    def test_labels_and_exceptional_points(self):
        self.assertEqual([orc.level_label(p, 1.7) for p in (-3, -2, 0, 2, 3)],
                         ["unbroken", "broken", "zero_mode", "broken", "unbroken"])
        self.assertEqual([m for _, m in orc.exceptional_points(0.5, 3.5)], list(range(1, 13)))
        self.assertEqual([m for _, m in orc.exceptional_points(1.0, 2.0)], [1, 2, 3, 4])
        self.assertEqual(orc.exceptional_points(0.25, 0.75), [])

    def test_level_masses(self):
        for p, V in ((3, 0.5), (-7, 0.8), (50, 2.5)):
            up, lo = orc.level_masses(p, V)
            self.assertAlmostEqual(up + lo, math.sqrt(abs(p) / (abs(p) - V * V)), delta=1e-14)
        for p, V in ((2, 1.7), (-40, 9.5), (90, 9.5)):
            up, lo = orc.level_masses(p, V)
            self.assertAlmostEqual(up + lo, V / math.sqrt(V * V - abs(p)), delta=1e-12)

    def test_coherent_state_is_normalized(self):
        m = orc.expected_masses("A", "plus", 0.0, 2.0, 1 + 1j, 1.5 - 0.5j, 64, 64)
        self.assertAlmostEqual(m["norm2"], 1.0, delta=1e-14)


class OutputChecks(unittest.TestCase):
    """Real outputs pass; perturbed copies fail."""

    @classmethod
    def setUpClass(cls):
        from lbstates.cli import cli_main

        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_out"))
        cls.checker = verify.Checker(0)
        cls.outputs = {}
        cases = {
            "density_csv": dict(joblib.warmup_job("density-window"), z1="0.5-0.25i"),
            "density_json": dict(joblib.warmup_job("density-window"), format="json",
                                 family="eta", branch="minus"),
            "state": joblib.warmup_job("states"),
            "spectrum": {"cmd": "spectrum", "V": 1.7, "pmax": 6, "format": "json"},
            "scan": {"cmd": "scan-v", "v_from": 0.5, "v_to": 2.25, "steps": 12, "pmax": 5,
                     "format": "json", "out": True},
        }
        for k, (name, job) in enumerate(cases.items()):
            out, stdout_path = worker._job_paths(cls.tmp, k, job)
            rc, text, err, _ = worker.run_in_process(cli_main, job, out)
            with open(stdout_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            cls.outputs[name] = (job, {"rc": rc, "stderr": err, "out": out,
                                       "stdout": stdout_path}, text)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def check(self, name):
        job, rec, _ = self.outputs[name]
        return self.checker.check_job(job, rec)

    def test_real_outputs_pass(self):
        for name in self.outputs:
            self.assertEqual(self.check(name), [], name)

    def _density_parts(self, name):
        job, rec, stdout = self.outputs[name]
        with open(rec["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        field = {k: np.array(doc[k], dtype=float) for k in ("total", "upper", "lower")}
        return (job, stdout, doc["meta"], np.array(doc["grid"]["x"]), np.array(doc["grid"]["y"]),
                field, rec["out"])

    def test_density_perturbations_rejected(self):
        job, stdout, meta, xs, ys, field, out = self._density_parts("density_json")
        self.assertEqual(self.checker.density_problems(job, stdout, meta, xs, ys, field, out), [])
        scaled = {k: v * (1 + 1e-3) for k, v in field.items()}
        self.assertTrue(self.checker.density_problems(job, stdout, meta, xs, ys, scaled, out))
        swapped = dict(field, upper=field["lower"], lower=field["upper"])
        self.assertTrue(self.checker.density_problems(job, stdout, meta, xs, ys, swapped, out))
        negative = copy.deepcopy(field)
        negative["lower"][0, 0] = -1e-300
        self.assertTrue(self.checker.density_problems(job, stdout, meta, xs, ys, negative, out))
        split = copy.deepcopy(field)
        split["total"][3, 3] *= 1 + 1e-9
        self.assertTrue(self.checker.density_problems(job, stdout, meta, xs, ys, split, out))

    def test_csv_perturbation_rejected(self):
        job, rec, _ = self.outputs["density_csv"]
        data = np.loadtxt(rec["out"], delimiter=",", skiprows=1)
        data[:, 3], data[:, 4] = data[:, 4].copy(), data[:, 3].copy()
        bad = rec["out"] + ".swapped.csv"
        np.savetxt(bad, data, fmt="%.17g", delimiter=",", header="x,y,total,upper,lower",
                   comments="")
        shutil.copy(rec["out"] + ".meta.json", bad + ".meta.json")
        self.assertTrue(self.checker.check_job(job, dict(rec, out=bad)))

    def test_state_perturbations_rejected(self):
        job, rec, stdout = self.outputs["state"]
        doc = json.loads(stdout)
        self.assertAlmostEqual(doc["norm2"], 1.0, delta=0.2)  # a unit-scale state
        self.assertEqual(verify.state_problems(job, doc), [])
        for path, delta in ((("bi_product", "re"), 1e-6), (("bi_product", "im"), 1e-6),
                            (("mass_upper",), 1e-6), (("eigen_residuals", "A1"), 1e-6)):
            bad = copy.deepcopy(doc)
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += delta
            self.assertTrue(verify.state_problems(job, bad), path)

    def test_spectrum_perturbations_rejected(self):
        job, rec, stdout = self.outputs["spectrum"]
        doc = json.loads(stdout)
        bad = copy.deepcopy(doc)
        level = bad["levels"][2]
        level["re"] += 1e-6
        level["energy"] = f"{level['re']!r}{'+' if level['im'] >= 0 else '-'}{abs(level['im'])!r}i"
        self.assertEqual(orc.parse_label(level["energy"]), complex(level["re"], level["im"]))
        self.assertTrue(verify.spectrum_problems(bad["levels"], job["V"], job["pmax"], 2.0))
        relabel = copy.deepcopy(doc)
        relabel["levels"][0]["class"] = "broken"
        self.assertTrue(verify.spectrum_problems(relabel["levels"], job["V"], job["pmax"], 2.0))
        with self.assertRaises(ValueError):
            verify.strict_json(stdout.replace(repr(doc["levels"][0]["re"]), "NaN", 1))

    def test_scan_perturbation_rejected(self):
        job, rec, _ = self.outputs["scan"]
        with open(rec["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["exceptional_points"].pop()
        bad = rec["out"] + ".bad.json"
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.assertTrue(self.checker.check_job(job, dict(rec, out=bad)))


class JobGenerator(unittest.TestCase):
    def test_every_choice_builds(self):
        """Every family, branch and label modulus a slot can draw builds
        without a cutoff error (the series lengths depend on |z| only)."""
        slots = [(joblib.PAIRS[f], V, w, r1, r2)
                 for f, V, w, r1, r2, _, _, _ in joblib.WINDOW_SLOTS + joblib.GRID_SLOTS]
        slots += [((f,) if isinstance(f, str) else f, V, w, r1, r2)
                  for f, V, w, r1, r2 in joblib.STATE_SLOTS]
        slots += [((f,), V, 64, 1.25, 2.5) for f, V in joblib.CLI_STATE]
        slots += [((f,), V, 32, 0.625, 1.25) for f, V in joblib.CLI_DENSITY]
        for families, V, window, r1, r2 in slots:
            for fam in families:
                for branch in ("plus", "minus"):
                    job = {"family": fam, "branch": branch, "V": V, "nmax": window,
                           "pmax": window, "z1": joblib.format_label(joblib.circle(r1)[0]),
                           "z2": joblib.format_label(joblib.circle(r2)[0])}
                    verify.program_state(job)

    def test_seeded_and_repeatable(self):
        for workload in joblib.WORKLOADS:
            self.assertEqual(joblib.round_jobs(workload, 7), joblib.round_jobs(workload, 7))


if __name__ == "__main__":
    unittest.main()
