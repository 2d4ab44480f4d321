"""Per-layer metrics of the traced run, computed from span summaries.

Counts come from the first traced pass, whose inputs depend on the seed
alone, so they repeat exactly between runs with the same seed.  Times are
medians over the traced passes of the run (inflated by the tracing overhead,
which ``trace.overhead_ratio`` reports).  Route times, route errors and
reference times come from the untraced pass of each pair.  A metric of a
route or reference the workload does not run reads 0.
"""

from __future__ import annotations

import statistics

ROUTES = ("exp_semisimple", "exp_general", "integrate", "connection", "two_step", "vertical")

CHART = "liegroup.GraphChart.from_coords"
ORACLE = "liegroup.matrix_exp_oracle"
NODE = "hjsolver.CompleteSolutionChart._node"
INVERT = "hjsolver.CompleteSolutionChart.invert"
QUAD = "hjsolver.CompleteSolutionChart._segment_quad"
GN = "hjsolver.CompleteSolutionChart._gauss_newton"
FLOW = "hjsolver.CompleteSolutionChart.linear_flow"
CHART_INIT = "hjsolver.CompleteSolutionChart.__init__"
INTEGRATE = "hjsolver.integrate_by_quadratures"
FACTOR = "reconstruct.HorizontalSubmersion.__call__"
CONNECTION = "reconstruct.ThetaConnection.matrix"

# (metric, unit, kind, span names).  Kinds: "per_sample" counts calls per
# emitted sample, "self_ms" is self time per sample, "total_ms" inclusive
# time per sample, "fail_ratio" failed over attempted calls, "count" calls
# per pass, "info:<key>" the per-pass sum of a value a post hook recorded.
LAYER_METRICS = (
    ("liegroup.chart_inversions_per_sample", "count/sample", "per_sample", (CHART,)),
    ("liegroup.chart_inversion_self_ms_per_sample", "ms/sample", "self_ms", (CHART,)),
    ("liegroup.chart_inversion_fail_ratio", "ratio", "fail_ratio", (CHART,)),
    ("liegroup.oracle_calls_per_sample", "count/sample", "per_sample", (ORACLE,)),
    ("hjsolver.node_solves_per_sample", "count/sample", "per_sample", (NODE,)),
    ("hjsolver.node_solve_self_ms_per_sample", "ms/sample", "self_ms", (NODE, INVERT)),
    ("hjsolver.invert_fail_ratio", "ratio", "fail_ratio", (INVERT,)),
    ("hjsolver.quadratures_per_sample", "count/sample", "per_sample", (QUAD,)),
    ("hjsolver.quadrature_self_ms_per_sample", "ms/sample", "self_ms", (QUAD,)),
    ("hjsolver.gauss_newton_per_sample", "count/sample", "per_sample", (GN,)),
    ("hjsolver.gauss_newton_fail_ratio", "ratio", "fail_ratio", (GN,)),
    ("hjsolver.linear_flow_self_ms_per_sample", "ms/sample", "self_ms", (FLOW, GN, CHART_INIT, INTEGRATE)),
    ("hjsolver.charts_built", "count", "count", (CHART_INIT,)),
    ("expquad.doublings", "count", "info:doublings", ("expquad.exp_by_quadratures",)),
    ("expquad.search_candidates", "count", "info:candidates", ("expquad._annihilator_search",)),
    ("liealg.isotropy_calls_per_sample", "count/sample", "per_sample", ("liealg.LieAlgebra.isotropy_dimension",)),
    ("cotangent.field_evals_per_sample", "count/sample", "per_sample", ("cotangent.InvariantField.__call__",)),
    ("reconstruct.factor_solves_per_sample", "count/sample", "per_sample", (FACTOR,)),
    ("reconstruct.factor_solve_self_ms_per_sample", "ms/sample", "self_ms", (FACTOR,)),
    ("reconstruct.connection_matrices_per_sample", "count/sample", "per_sample", (CONNECTION,)),
    ("reconstruct.connection_self_ms_per_sample", "ms/sample", "self_ms", (CONNECTION,)),
    ("reconstruct.quotient_rhs_evals_per_sample", "count/sample", "per_sample", ("reconstruct.quotient_rhs",)),
    ("reconstruct.gate_ms_per_sample", "ms/sample", "total_ms", ("reconstruct.flow_residual_rows",)),
)

REF_KINDS = ("expm", "ivp")


def layer_value(kind, names, summary, samples):
    rows = [summary[n] for n in names if n in summary]
    calls = sum(r["calls"] for r in rows)
    per = max(1, samples)
    if kind == "per_sample":
        return calls / per
    if kind == "self_ms":
        return 1e3 * sum(r["self_s"] for r in rows) / per
    if kind == "total_ms":
        return 1e3 * sum(r["total_s"] for r in rows) / per
    if kind == "fail_ratio":
        return sum(r["failed"] for r in rows) / calls if calls else 0.0
    if kind == "count":
        return float(calls)
    if kind.startswith("info:"):
        key = kind.split(":", 1)[1]
        return float(sum(r["info"].get(key, 0) for r in rows))
    raise ValueError(f"unknown metric kind {kind!r}")


def _samples(records):
    return sum(r["samples"] for r in records)


def ms_per_sample(records, key="seconds"):
    """Milliseconds per emitted sample over call records ("wall_s": unscaled)."""
    return 1e3 * sum(r[key] for r in records) / max(1, _samples(records))


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(pairs):
    """Per-layer metrics from [(untraced records, traced records, span summary)]."""
    out = {}
    for name, unit, kind, names in LAYER_METRICS:
        if kind.endswith("_ms"):
            value = statistics.median(
                layer_value(kind, names, summary, _samples(traced)) for _, traced, summary in pairs)
        else:
            _, traced, summary = pairs[0]
            value = layer_value(kind, names, summary, _samples(traced))
        out[name] = metric(value, unit)
    for route in ROUTES:
        per_pass = [[r for r in plain if r["route"] == route] for plain, _, _ in pairs]
        per_pass = [recs for recs in per_pass if recs]
        out[f"route.{route}.ms_per_sample"] = metric(
            _median_or_zero(ms_per_sample(recs) for recs in per_pass), "ms")
        errs = [max(r["sup_err"] for r in recs) for recs in per_pass
                if all(r["sup_err"] is not None for r in recs)]
        out[f"route.{route}.sup_err"] = metric(_median_or_zero(errs), "norm")
    for kind in REF_KINDS:
        per_pass = [[r for r in plain if r["ref_kind"] == kind] for plain, _, _ in pairs]
        per_pass = [recs for recs in per_pass if recs]
        value = _median_or_zero(
            1e3 * sum(r["ref_s"] for r in recs) / max(1, _samples(recs)) for recs in per_pass)
        out[f"ref.{kind}_ms_per_sample"] = metric(value, "ms")
    traced_ms = statistics.median(ms_per_sample(traced) for _, traced, _ in pairs)
    plain_ms = statistics.median(ms_per_sample(plain) for plain, _, _ in pairs)
    out["trace.overhead_ratio"] = metric(traced_ms / plain_ms, "ratio")
    return out
