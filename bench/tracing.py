"""Timing wrappers for the traced run, installed from outside the package.

`install` replaces the public functions that one lbstates module imports
from another with wrappers that record a span (name, start, end, parent,
job id, attributes).  Spans and counts stay in memory; `layer_metrics`
turns them into the per-layer metrics and `dump` writes them out once the
run ends.  The untimed end-to-end runs never import this module.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

CHECK_PREFIX = "checks."


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, job, attrs, excluded]
        self.stack = []
        self.job = None
        self.muted = False
        self.jobs = {}  # job id -> {"cmd", "probe", "span"}

    def wrap(self, name, fn, post=None):
        """Wrapper recording a span around fn; post(args, kwargs, result)
        returns the span's attributes and runs outside the timed interval."""

        def wrapper(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.job, None, 0.0]
            idx = len(self.spans)
            self.spans.append(rec)
            self.stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if post is not None:
                t0 = time.perf_counter()
                rec[5] = post(args, kwargs, result)
                self.exclude(time.perf_counter() - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def exclude(self, seconds: float) -> None:
        """Take time spent on tracing work out of every open span."""
        for idx in self.stack:
            self.spans[idx][6] += seconds

    def muted_call(self, fn, *args):
        """Call fn untraced and return (result, seconds)."""
        self.muted = True
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - t0
        finally:
            self.muted = False

    def run_job(self, job_id: int, cmd: str, probe: bool, fn):
        self.job = job_id
        self.jobs[job_id] = {"cmd": cmd, "probe": probe, "span": len(self.spans)}
        try:
            return self.wrap("job", fn)()
        finally:
            self.job = None

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "job", "attrs", "excluded")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"jobs": self.jobs, "spans": [dict(zip(keys, s)) for s in self.spans]},
                      fh, default=float)


def _patch(modules, attr, wrapper):
    for mod in modules:
        setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    from lbstates import bicoherent, checks, cli, coherent, densities, ladders, pt, spinor

    def coherent_post(args, kwargs, st):
        spec = args[0]
        return {"ratio": np.count_nonzero(st.upper) / (spec.level_cap + 1)}

    def bicoherent_post(args, kwargs, st):
        spec = args[0]
        cap = spec.cutoff.pmax if spec.branch == "plus" else spec.cutoff.pmax - 1
        return {"ratio": np.count_nonzero(st.upper) / (cap + 1), "side": spec.side}

    def ladder_post(args, kwargs, op):
        rows, cols = op.matrix.shape
        return {"nnz": int(op.matrix.nnz), "dim2": rows * cols}

    orig_density = densities.density

    def density_post(args, kwargs, fld):
        state, grid = args[0], args[1]
        params = args[2] if len(args) > 2 else None
        small = densities.GridSpec(grid.x_min, grid.x_max, 2, grid.y_min, grid.y_max, 2)
        _, basis_s = tracer.muted_call(orig_density, state, small, params)
        nfirst = np.count_nonzero(state.first_register)
        nspin = np.count_nonzero((state.upper != 0) | (state.lower != 0))
        nmax1, nmax2 = state.first_register.size - 1, state.upper.size - 1
        j = nmax1 + nmax2 + 1
        # two spinor components, each px^T C (nx, J, J) then (.) py (nx, J, ny),
        # complex multiply-adds at 8 flops each
        flops = 2 * 8 * (grid.nx * j * j + grid.nx * j * grid.ny)
        return {"basis_s": basis_s, "modes_ratio": nfirst * nspin / ((nmax1 + 1) * (nmax2 + 1)),
                "gflop": flops / 1e9}

    def export_post(args, kwargs, _):
        fmt, path = args[1], args[2]
        size = os.path.getsize(path)
        if fmt == "csv":
            size += os.path.getsize(path + ".meta.json")
        return {"format": fmt, "bytes": size}

    def check_wrapper(fn):
        return tracer.wrap("checks", fn, post=lambda a, k, res: {"check": res.name})

    w = tracer.wrap
    build_c = w("coherent.build", coherent.build_coherent, coherent_post)
    _patch((cli, coherent), "build_coherent", build_c)
    build_b = w("bicoherent.build", bicoherent.build_bicoherent, bicoherent_post)
    _patch((cli, bicoherent), "build_bicoherent", build_b)
    _patch((cli, coherent), "eigen_residual",
           w("coherent.eigen_residual", coherent.eigen_residual))
    _patch((cli, bicoherent), "bicoherent_eigen_residual",
           w("bicoherent.eigen_residual", bicoherent.bicoherent_eigen_residual))
    spinor.SpinorState.inner = w("spinor.inner", spinor.SpinorState.inner)
    _patch((spinor, ladders), "level_matrix", w("spinor.level_matrix", spinor.level_matrix))
    pt.biorth_level_matrices = w("pt.biorth_level_matrices", pt.biorth_level_matrices)
    _patch((pt, bicoherent), "pt_spinor_ladder",
           w("pt.pt_spinor_ladder", pt.pt_spinor_ladder, ladder_post))
    _patch((ladders, coherent), "spinor_ladder_matrix",
           w("ladders.spinor_ladder_matrix", ladders.spinor_ladder_matrix, ladder_post))
    cli.density = w("densities.density", orig_density, density_post)
    densities.oscillator_table = w("fock.oscillator_table", densities.oscillator_table)
    # the two steps of the basis change inside density(), for grid_eval_s
    densities.circular_antidiagonals = w("fock.circular_antidiagonals",
                                         densities.circular_antidiagonals)
    densities._component_cartesian = w("densities.component_cartesian",
                                       densities._component_cartesian)
    cli.export = w("densities.export", densities.export, export_post)
    checks.ALL_CHECKS[:] = [check_wrapper(fn) for fn in checks.ALL_CHECKS]


# ------------------------------------------------------------------ metrics

def _duration(s) -> float:
    return s[2] - s[1] - s[6]


def _mean(values) -> float:
    return float(sum(values) / len(values))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans.  Each is taken over the workload's
    own jobs that reach the layer; a layer none of them reaches is taken
    from the probe jobs (the cli round run in-process after the loop)."""
    by_job = {}
    for s in tracer.spans:
        if s[4] is not None and s[0] != "job":
            by_job.setdefault(s[4], []).append(s)
    job_span = {jid: tracer.spans[info["span"]] for jid, info in tracer.jobs.items()}

    def pick(select):
        """Job ids selected by `select`, own jobs first, else probe jobs."""
        for probe in (False, True):
            ids = [jid for jid, info in tracer.jobs.items()
                   if info["probe"] == probe and select(jid, info)]
            if ids:
                return ids
        raise RuntimeError("no job reaches a traced layer")

    def spans_of(jid, name):
        return [s for s in by_job.get(jid, []) if s[0] == name]

    def per_job_seconds(name):
        ids = pick(lambda jid, info: spans_of(jid, name))
        return _mean([sum(_duration(s) for s in spans_of(jid, name)) for jid in ids])

    out = {}
    for cmd in ("spectrum", "state", "density", "scan-v", "check"):
        ids = pick(lambda jid, info: info["cmd"] == cmd)
        out[f"cli.{cmd.replace('-', '_')}_s"] = statistics.median(
            _duration(job_span[jid]) for jid in ids)

    check_times = {}
    for jid in pick(lambda jid, info: info["cmd"] == "check"):
        for s in spans_of(jid, "checks"):
            check_times.setdefault(s[5]["check"], []).append(_duration(s))
    for name, values in check_times.items():
        out[f"{CHECK_PREFIX}{name}_s"] = _mean(values)

    for name in ("coherent.build", "bicoherent.build", "coherent.eigen_residual",
                 "bicoherent.eigen_residual", "spinor.level_matrix", "pt.biorth_level_matrices",
                 "pt.pt_spinor_ladder", "ladders.spinor_ladder_matrix", "fock.oscillator_table"):
        out[name + "_s"] = per_job_seconds(name)

    # bi-product: the dual build and the pairing made by `state` itself
    def bi_spans(jid):
        top = tracer.jobs[jid]["span"]
        return [s for s in by_job.get(jid, [])
                if (s[0] == "spinor.inner" and tracer.spans[s[3]][0] == "job")
                or (s[0] == "bicoherent.build" and tracer.spans[s[3]][0] == "job"
                    and s[5]["side"] != _first_side(by_job[jid], top))]
    ids = pick(lambda jid, info: info["cmd"] == "state" and bi_spans(jid))
    out["bicoherent.bi_product_s"] = _mean([sum(_duration(s) for s in bi_spans(j)) for j in ids])

    ids = pick(lambda jid, info: info["cmd"] == "state")
    out["cli.state_builds_per_job"] = _mean([
        len(spans_of(j, "coherent.build")) + len(spans_of(j, "bicoherent.build")) for j in ids])
    for fam in ("coherent", "bicoherent"):
        ids = pick(lambda jid, info: spans_of(jid, f"{fam}.build"))
        out[f"{fam}.series_terms_ratio"] = _mean(
            [s[5]["ratio"] for j in ids for s in spans_of(j, f"{fam}.build")])
    ids = pick(lambda jid, info: spans_of(jid, "pt.pt_spinor_ladder")
               or spans_of(jid, "ladders.spinor_ladder_matrix"))
    lad = [s for j in ids for s in spans_of(j, "pt.pt_spinor_ladder")
           + spans_of(j, "ladders.spinor_ladder_matrix")]
    out["pt.ladder_fill_ratio"] = sum(s[5]["nnz"] for s in lad) / sum(s[5]["dim2"] for s in lad)

    ids = pick(lambda jid, info: spans_of(jid, "densities.density"))
    dens = [s for j in ids for s in spans_of(j, "densities.density")]
    out["densities.basis_change_s"] = _mean([s[5]["basis_s"] for s in dens])
    # density() minus the basis change made inside the same call: the
    # separate 2x2 call differs from it by more than the grid work when
    # the window is large
    basis = {"fock.circular_antidiagonals", "densities.component_cartesian"}
    out["densities.grid_eval_s"] = _mean([
        _duration(d) - sum(_duration(s) for s in tracer.spans if s[0] in basis
                           and tracer.spans[s[3]] is d) for d in dens])
    out["densities.modes_used_ratio"] = _mean([s[5]["modes_ratio"] for s in dens])
    out["densities.grid_gemm_gflop"] = _mean([s[5]["gflop"] for s in dens])
    total_bytes = total_s = 0.0
    for fmt in ("csv", "json"):
        ids = pick(lambda jid, info: any(s[5]["format"] == fmt
                                         for s in spans_of(jid, "densities.export")))
        ex = [s for j in ids for s in spans_of(j, "densities.export") if s[5]["format"] == fmt]
        out[f"densities.export_{fmt}_s"] = _mean([_duration(s) for s in ex])
        total_bytes += sum(s[5]["bytes"] for s in ex)
        total_s += sum(_duration(s) for s in ex)
    out["densities.export_mb_per_s"] = total_bytes / 1e6 / total_s
    return out


def _first_side(spans, job_span_idx):
    """Side of the state the job itself builds: its first top-level build."""
    for s in spans:
        if s[0] == "bicoherent.build" and s[3] == job_span_idx:
            return s[5]["side"]
    return None
