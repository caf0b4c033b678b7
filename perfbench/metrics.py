"""The benchmark's metrics: names, units, and what each is predicted to move.

``END_TO_END`` is measured with tracing off (README.md gives their
meaning); ``PER_LAYER`` comes from the traced run.  Every per-layer entry
names the end-to-end metric (as ``<workload>.<metric>``) it should move
when its layer gets faster or slower; on every other workload the
prediction is no change.  For call
counts, ``uses`` lists the workloads whose campaigns call the function at
all; the count is zero on every other workload (checked by
``selftest.py``).  ``BENCHMARK.json`` lists the same metrics.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

WORKLOADS = ("corner", "transport", "analytic")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    uses: tuple[str, ...] = ()


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("campaign_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("checks_passed_frac", "ratio", "higher"),
)

C = "corner.campaign_s"
R = "corner.peak_rss_mb"
T = "transport.campaign_s"
A = "analytic.campaign_s"
ALL = "campaign_s on every workload, small share"
DIAG = "diagnostic, predicts nothing"


def _m(name, unit, moves, uses=(), better="lower"):
    return Metric(name, unit, better, moves, uses)


PER_LAYER = (
    # corner: the dense superoperator pipeline
    _m("opbasis.self_s", "s", C),
    _m("opbasis.cpu_s", "s", C),
    *(m for fn in ("weight_superop", "apply_truncation", "boundary_rep",
                   "choi_min_eig")
      for m in (_m("opbasis.%s.calls" % fn, "count", C, ("corner",)),
                _m("opbasis.%s.self_s" % fn, "s", C))),
    _m("opbasis.xi_eta.self_s", "s", C),
    _m("opbasis.lambda_superop.calls", "count", C, ("corner",)),
    _m("opbasis.choi_min_eig.choi_dim_max", "count", C),
    _m("opbasis.errors", "count", C),
    _m("cornercheck.self_s", "s", C),
    _m("cornercheck.hypermax_witness.self_s", "s", C),
    _m("cornercheck.subordination_check.self_s", "s", C),
    _m("cornercheck.derivation_residual.self_s", "s", C),
    _m("cornercheck.errors", "count", C),
    _m("opbasis.lambda_superop.out_bytes", "B", R),
    _m("opbasis.weight_superop.out_bytes", "B", R),
    # transport: grid stepping and the grid damped-translation average
    _m("semigroups.self_s", "s", T),
    _m("semigroups.evolve.calls", "count", T, ("transport",)),
    _m("semigroups.evolve.self_s", "s", T),
    _m("semigroups.flow_inner.calls", "count", T, ("transport",)),
    _m("semigroups.flow_inner.self_s", "s", T),
    _m("semigroups.evolve.steps", "count", T),
    _m("semigroups.errors", "count", T),
    _m("halfline.gamma_grid.calls", "count", T, ("transport",)),
    _m("halfline.gamma_grid.self_s", "s", T),
    _m("halfline.gamma_grid.cells", "count", T),
    # analytic: closed-form kernels on tiny inputs, gauge group algebra
    _m("halfline.self_s", "s", A),
    # the matrix model builds its span basis with a few inner products
    _m("halfline.inner_product.calls", "count", A, ("corner", "analytic")),
    _m("halfline.inner_product.self_s", "s", A),
    _m("halfline.errors", "count", A),
    _m("tensorspace.self_s", "s", A),
    _m("tensorspace.pairing.calls", "count", A, ("analytic",)),
    _m("tensorspace.pairing.self_s", "s", A),
    _m("tensorspace.errors", "count", A),
    _m("weights.self_s", "s", A),
    _m("weights.omega1.self_s", "s", A),
    _m("weights.omega_full.self_s", "s", A),
    _m("weights.omega1.calls", "count", A, ("analytic",)),
    _m("weights.series_terms", "count", A),
    _m("weights.Functional.shifted.calls", "count", A, ("analytic",)),
    _m("weights.errors", "count", A),
    _m("gauge.self_s", "s", A),
    *(m for fn in ("random_param", "r_term", "compose", "act")
      for m in (_m("gauge.%s.calls" % fn, "count", A, ("analytic",)),
                _m("gauge.%s.self_s" % fn, "s", A))),
    _m("gauge.errors", "count", A),
    # every workload
    _m("cli.self_s", "s", ALL),
    _m("cli.Reporter.write.self_s", "s", ALL),
    _m("cli.records", "count", ALL, better="higher"),
    # diagnostics
    _m("trace.overhead_s", "s", DIAG),
    _m("process.cpu_s", "s", DIAG),
    _m("cold_extra_s", "s", DIAG),
)

DIAGNOSTICS = ("trace.overhead_s", "process.cpu_s", "cold_extra_s")

# metric function names that differ from the traced qualified name
_QUALIFIED = {
    "opbasis.weight_superop": "opbasis.MatrixModel.weight_superop",
    "opbasis.apply_truncation": "opbasis.MatrixModel.apply_truncation",
    "opbasis.boundary_rep": "opbasis.MatrixModel.boundary_rep",
    "opbasis.lambda_superop": "opbasis.MatrixModel.lambda_superop",
    "opbasis.xi_eta": "opbasis.MatrixModel.xi_eta",
}

# per-call facts: metric suffix -> (fact recorded on the span, reduction)
_FACTS = {
    "steps": ("steps", sum),
    "cells": ("cells", sum),
    "out_bytes": ("out_bytes", max),
    "choi_dim_max": ("choi_dim", max),
}


def layer_values(summary: dict, records: int) -> dict:
    """Per-layer metric values of one traced campaign (no diagnostics)."""
    out = {}
    for metric in PER_LAYER:
        if metric.name in DIAGNOSTICS:
            continue
        parts = metric.name.split(".")
        head, last = ".".join(parts[:-1]), parts[-1]
        if metric.name == "cli.records":
            value = records
        elif metric.name == "weights.series_terms":
            facts = summary["facts"]
            value = sum(sum(facts[fn]["series_terms"])
                        for fn in ("weights.omega1", "weights.omega_z"))
        elif len(parts) == 2 and last == "self_s":
            value = summary["layer_self_s"].get(head, 0.0)
        elif len(parts) == 2 and last == "cpu_s":
            value = summary["layer_cpu_s"].get(head, 0.0)
        elif len(parts) == 2 and last == "errors":
            value = summary["errors"].get(head, 0)
        else:
            fn = _QUALIFIED.get(head, head)
            if last == "calls":
                value = summary["calls"].get(fn, 0)
            elif last == "self_s":
                value = summary["self_s"].get(fn, 0.0)
            else:
                fact, reduce = _FACTS[last]
                values = summary["facts"][fn][fact]
                value = reduce(values) if values else 0
        out[metric.name] = value
    return out


def median_values(per_campaign: list[dict]) -> dict:
    """Median of each metric over campaigns; counts stay whole numbers."""
    out = {}
    for name in per_campaign[0]:
        values = [row[name] for row in per_campaign]
        if all(isinstance(v, int) for v in values):
            out[name] = statistics.median_low(values)
        else:
            out[name] = statistics.median(values)
    return out
