"""Layer boundaries the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<callable>``, with the layers named after the
package's modules.  Each wrapper is installed where the caller looks the
callable up: ``run_experiment`` finds ``fit``, ``quad_var`` and friends as
globals of ``hfsem.harness``; the fine-grid workload calls ``qlik.quad_var``
and ``qmle.fit`` through their modules; methods are wrapped on their class.
"""

from __future__ import annotations

import statistics

import numpy as np

from hfsem import diffsim, harness, matkit, qlik, qmle
from hfsem.qlik import LikelihoodSurface
from hfsem.semspec import SemSpec

from spans import Tracer

OUT_OF_REGION = ("NotPositiveDefiniteError", "SingularStructureError")
FIT_SPANS = ("qmle.fit", "qmle.fit_multistart")


def _fit_info(args, kwargs, report):
    return (report.iterations, report.boundary_hit)


def _bytes_read(args, kwargs, qv):
    return np.asarray(args[0]).nbytes


def _values_simulated(args, kwargs, bundle):
    return kwargs["n"] * bundle.x_obs.shape[1]


def targets() -> list:
    """``(owner, attribute, span name, info)`` for every wrapped callable."""
    return [
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "load_specs", "harness.load_specs", None),
        (harness, "limit_optimum", "qmle.limit_optimum", None),
        (harness, "fit", "qmle.fit", _fit_info),
        (harness, "fit_multistart", "qmle.fit_multistart", _fit_info),
        (qmle, "fit", "qmle.fit", _fit_info),
        (harness, "quad_var", "qlik.quad_var", _bytes_read),
        (qlik, "quad_var", "qlik.quad_var", _bytes_read),
        (harness, "criteria_row", "infocrit.criteria_row", None),
        (harness, "select", "infocrit.select", None),
        (diffsim, "simulate_custom", "diffsim.simulate_custom", _values_simulated),
        (LikelihoodSurface, "value_and_grad", "qlik.value_and_grad", None),
        (LikelihoodSurface, "hessian", "qlik.hessian", None),
        (SemSpec, "sigma", "semspec.sigma", None),
        (SemSpec, "jacobian", "semspec.jacobian", None),
        (SemSpec, "from_dict", "semspec.from_dict", None),
        (matkit, "chol_logdet", "matkit.chol_logdet", None),
        (matkit, "check_symmetric", "matkit.check_symmetric", None),
    ]


# Per-layer metrics in report order: name -> unit.
UNITS = {
    "diffsim.simulate_s": "s",
    "diffsim.values_per_s": "1/s",
    "qlik.quad_var_s": "s",
    "qlik.quad_var_gbps": "GB/s-computed",
    "qlik.vg_calls": "count",
    "qlik.vg_self_us": "us",
    "qlik.oor_share": "share",
    "qlik.hessian_ms": "ms",
    "qlik.hessian_share": "share",
    "semspec.sigma_us": "us",
    "semspec.jacobian_us": "us",
    "semspec.calls_per_vg": "calls/vg",
    "matkit.chol_logdet_us": "us",
    "matkit.check_symmetric_per_vg": "calls/vg",
    "qmle.fit_ms_p50": "ms",
    "qmle.fit_ms_p90": "ms",
    "qmle.evals_per_fit": "evals/fit",
    "qmle.iters_per_fit": "iters/fit",
    "qmle.boundary_share": "share",
    "qmle.limit_optimum_s": "s",
    "qmle.limit_optimum_evals": "count",
    "infocrit.criteria_us": "us",
    "harness.load_specs_s": "s",
    "harness.self_s": "s",
    "harness.spec_parses_per_fit": "parses/fit",
    "setup.import_s": "s",
    "trace.overhead": "share",
    "trace.covered_share": "share",
}

# Counts that two traced runs of the same code must reproduce exactly.
REPEATED = ("qlik.vg_calls", "qmle.evals_per_fit", "qmle.iters_per_fit")

_VG, _FIT, _HESS, _LIMIT = 1, 2, 4, 8
_FLAG = {"qlik.value_and_grad": _VG, "qmle.fit": _FIT,
         "qmle.fit_multistart": _FIT, "qlik.hessian": _HESS,
         "qmle.limit_optimum": _LIMIT}


class PassStats:
    """Samples and counts of one traced pass."""

    def __init__(self, tracer: Tracer, wall_s: float):
        spans = tracer.spans
        self_t = tracer.self_times()
        # inside[i]: flags of the spans enclosing span i (not span i itself).
        inside = [0] * len(spans)
        by_name: dict[str, list[int]] = {}
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            if parent >= 0:
                inside[i] = inside[parent] | _FLAG.get(spans[parent][0], 0)
            by_name.setdefault(name, []).append(i)

        def dur(name):
            return [spans[i][2] - spans[i][1] for i in by_name.get(name, [])]

        def selfs(name):
            return [self_t[i] for i in by_name.get(name, [])]

        def infos(name):
            return [spans[i][4] for i in by_name.get(name, [])]

        vg = by_name.get("qlik.value_and_grad", [])
        fits = [i for name in FIT_SPANS for i in by_name.get(name, [])
                if not inside[i] & _FIT]
        self.calls = {name: len(ix) for name, ix in by_name.items()}
        self.reps = len(by_name.get("diffsim.simulate_custom", []))
        self.vg_calls = len(vg)
        self.fits = len(fits)
        self.durations = {name: dur(name) for name in by_name}
        self.sim_self = selfs("diffsim.simulate_custom")
        self.sim_values = infos("diffsim.simulate_custom")
        self.qv_self = selfs("qlik.quad_var")
        self.qv_bytes = infos("qlik.quad_var")
        self.vg_self = [self_t[i] for i in vg]
        self.vg_oor = sum(spans[i][5] in OUT_OF_REGION for i in vg)
        self.fit_wall = [spans[i][2] - spans[i][1] for i in fits]
        self.fit_info = [spans[i][4] for i in fits if spans[i][4] is not None]
        self.fit_evals = sum(1 for i in vg
                             if inside[i] & _FIT and not inside[i] & _HESS)
        self.limit_evals = sum(1 for i in vg if inside[i] & _LIMIT)
        self.nested_in_vg = {
            name: sum(1 for i in by_name.get(name, []) if inside[i] & _VG)
            for name in ("semspec.sigma", "semspec.jacobian",
                         "matkit.check_symmetric")}
        self.harness_self = sum(selfs("harness.run_experiment"))
        self.covered = sum(self_t)
        self.wall_s = wall_s

    def counts(self) -> dict:
        m = {}
        m["qlik.vg_calls"] = self.vg_calls
        m["qmle.evals_per_fit"] = _ratio(self.fit_evals, self.fits)
        m["qmle.iters_per_fit"] = _ratio(sum(i for i, _ in self.fit_info),
                                         len(self.fit_info))
        return m


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(passes: list, import_s: float, overhead: float) -> dict:
    """Per-layer metrics over the traced passes.

    Counts are taken from the first pass (the repeat check compares the
    others against it); times pool the samples of every pass.  A metric of
    a layer the workload never enters reads 0.
    """
    first = passes[0]
    reps = sum(p.reps for p in passes)

    def pool(attr):
        return [v for p in passes for v in getattr(p, attr)]

    def pooled_dur(name):
        return [v for p in passes for v in p.durations.get(name, [])]

    def total(name):
        return sum(pooled_dur(name))

    fit_info = pool("fit_info")
    m = first.counts()
    m["diffsim.simulate_s"] = _ratio(sum(pool("sim_self")), reps)
    m["diffsim.values_per_s"] = _ratio(sum(pool("sim_values")),
                                       sum(pool("sim_self")))
    m["qlik.quad_var_s"] = _ratio(sum(pool("qv_self")), reps)
    m["qlik.quad_var_gbps"] = _ratio(sum(pool("qv_bytes")),
                                     sum(pool("qv_self"))) / 1e9
    m["qlik.vg_self_us"] = _median(pool("vg_self")) * 1e6
    m["qlik.oor_share"] = _ratio(first.vg_oor, first.vg_calls)
    m["qlik.hessian_ms"] = _median(pooled_dur("qlik.hessian")) * 1e3
    m["qlik.hessian_share"] = _ratio(total("qlik.hessian"), sum(pool("fit_wall")))
    m["semspec.sigma_us"] = _median(pooled_dur("semspec.sigma")) * 1e6
    m["semspec.jacobian_us"] = _median(pooled_dur("semspec.jacobian")) * 1e6
    m["semspec.calls_per_vg"] = _ratio(
        first.nested_in_vg["semspec.sigma"]
        + first.nested_in_vg["semspec.jacobian"], first.vg_calls)
    m["matkit.chol_logdet_us"] = _median(pooled_dur("matkit.chol_logdet")) * 1e6
    m["matkit.check_symmetric_per_vg"] = _ratio(
        first.nested_in_vg["matkit.check_symmetric"], first.vg_calls)
    fit_wall = pool("fit_wall")
    m["qmle.fit_ms_p50"] = _median(fit_wall) * 1e3
    m["qmle.fit_ms_p90"] = (float(np.percentile(fit_wall, 90)) * 1e3
                            if fit_wall else 0.0)
    m["qmle.boundary_share"] = _ratio(sum(b for _, b in fit_info), len(fit_info))
    m["qmle.limit_optimum_s"] = _ratio(total("qmle.limit_optimum"), len(passes))
    m["qmle.limit_optimum_evals"] = first.limit_evals
    m["infocrit.criteria_us"] = _median(pooled_dur("infocrit.criteria_row")) * 1e6
    m["harness.load_specs_s"] = _median(pooled_dur("harness.load_specs"))
    m["harness.self_s"] = _ratio(sum(p.harness_self for p in passes), reps)
    m["harness.spec_parses_per_fit"] = _ratio(
        first.calls.get("semspec.from_dict", 0), first.fits)
    m["setup.import_s"] = import_s
    m["trace.overhead"] = overhead
    m["trace.covered_share"] = _ratio(sum(p.covered for p in passes),
                                      sum(p.wall_s for p in passes))
    return {name: m[name] for name in UNITS}
