"""Arithmetic of the benchmark: span self times, per-layer figures, checks.

Everything here is pure Python on plain data (span lists, numbers, parsed
result.json payloads), so it is unit-tested without running the solver.

A span is ``[name, start, end, parent, attrs]``: ``name`` is
``"<layer>.<what>"``, ``start``/``end`` are ``time.perf_counter`` readings,
``parent`` is the index of the enclosing span (-1 for a root) and ``attrs``
is a dict of counts recorded at the call (or None).
"""
from __future__ import annotations

import math
import statistics

# b* is pulled up by discrete monitoring of the running minimum by about
# BETA * sigma * sqrt(dt), BETA = -zeta(1/2) / sqrt(2 pi) (Broadie, Glasserman
# & Kou, "A continuity correction for discrete barrier options", 1997).
BGK_BETA = 0.5826

LAYERS = (
    "path_engine",
    "cost_model",
    "levy_model",
    "barrier_solver",
    "estimators",
    "verification",
    "cli",
)

CI_TARGET = 0.01  # time_to_ci_s projects the run to a +/-0.01 CI on b*
REFERENCE_FLOOR = 1e-2  # b* reference checks never ask for more than this


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [max(0.0, s[2] - s[1] - c) for s, c in zip(spans, covered)]


def layer_self_times(spans, selfs=None) -> dict[str, float]:
    """Self time summed per layer, the first part of each span name."""
    selfs = self_times(spans) if selfs is None else selfs
    out = {layer: 0.0 for layer in LAYERS}
    for span, s in zip(spans, selfs):
        layer = span[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + s
    return out


def pilot_path_steps(spans) -> int:
    """Path-steps of passes a solve ran on fewer paths than it was asked for."""
    total = 0
    for name, _, _, parent, attrs in spans:
        if name != "path_engine.map_reduce_paths" or parent < 0:
            continue
        p_name, p_attrs = spans[parent][0], spans[parent][4]
        if p_name == "barrier_solver.solve_barrier" and attrs["n_paths"] < p_attrs["n_paths"]:
            total += attrs["n_paths"] * attrs["n_steps"]
    return total


def resim_factor(path_steps: int, n_paths: int, n_steps: int) -> float:
    """Simulated path-steps over one pass of the requested paths."""
    return path_steps / (n_paths * n_steps)


def per_layer(spans, untraced_wall_s: float, traced_wall_s: float, requested_paths: int,
              ns_per_step: float, pool_speedup: float) -> dict[str, float]:
    """Every per-layer figure of one traced run, keyed by metric name."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    for span, s in zip(spans, selfs):
        agg = by_name.setdefault(span[0], {"calls": 0, "self": 0.0, "incl": 0.0, "spans": []})
        agg["calls"] += 1
        agg["self"] += s
        agg["incl"] += span[2] - span[1]
        agg["spans"].append(span)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return by_name.get(name, {}).get("self", 0.0)

    def attr_sum(name, key):
        return sum((sp[4] or {}).get(key, 0) for sp in by_name.get(name, {}).get("spans", []))

    passes = by_name.get("path_engine.map_reduce_paths", {}).get("spans", [])
    path_steps = sum(sp[4]["n_paths"] * sp[4]["n_steps"] for sp in passes)
    n_steps = passes[0][4]["n_steps"] if passes else 1
    reflect_elems = attr_sum("path_engine.reflect_arrays", "elems")
    sup = by_name.get("path_engine.sample_sup_at_exp_time", {}).get("spans", [])
    layers = layer_self_times(spans, selfs)
    layer_sum = sum(layers.values())
    return {
        "path_engine.passes": len(passes),
        "path_engine.path_steps": path_steps,
        "path_engine.resim_factor": resim_factor(path_steps, requested_paths, n_steps),
        "path_engine.map_reduce.self_s": self_s("path_engine.map_reduce_paths"),
        "path_engine.simulate.ns_per_step": ns_per_step,
        "path_engine.reflect.calls": calls("path_engine.reflect_arrays"),
        "path_engine.reflect.s": self_s("path_engine.reflect_arrays"),
        "path_engine.reflect.ns_per_elem": (
            1e9 * self_s("path_engine.reflect_arrays") / reflect_elems if reflect_elems else 0.0
        ),
        "path_engine.sup_sampler.samples": attr_sum("path_engine.sample_sup_at_exp_time", "samples"),
        "path_engine.sup_sampler.s": by_name.get("path_engine.sample_sup_at_exp_time", {}).get("incl", 0.0),
        "path_engine.sup_sampler.rejection_rate": (
            statistics.fmean(sp[4]["rejection_rate"] for sp in sup) if sup else 0.0
        ),
        "path_engine.pool.speedup": pool_speedup,
        "path_engine.self_s": layers["path_engine"],
        "cost_model.f.evals": attr_sum("cost_model.f", "evals"),
        "cost_model.f.s": self_s("cost_model.f"),
        "cost_model.fprime.evals": attr_sum("cost_model.fprime", "evals"),
        "cost_model.fprime.s": self_s("cost_model.fprime"),
        "cost_model.self_s": layers["cost_model"],
        "levy_model.jump_sample.calls": calls("levy_model.jump_sample"),
        "levy_model.jump_sample.s": self_s("levy_model.jump_sample"),
        "levy_model.self_s": layers["levy_model"],
        "barrier_solver.solve.calls": calls("barrier_solver.solve_barrier"),
        "barrier_solver.self_s": layers["barrier_solver"],
        "barrier_solver.pilot_path_steps": pilot_path_steps(spans),
        "barrier_solver.bisect_iterations": attr_sum("barrier_solver.solve_barrier", "iterations"),
        "estimators.self_s": layers["estimators"],
        "verification.barrier_derivative.s": by_name.get(
            "verification.check_barrier_derivative", {}).get("incl", 0.0),
        "verification.slope_identity.s": by_name.get(
            "verification.check_slope_identity", {}).get("incl", 0.0),
        "verification.convexity.s": by_name.get("verification.check_convexity", {}).get("incl", 0.0),
        "verification.self_s": layers["verification"],
        "cli.self_s": layers["cli"],
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.coverage": layer_sum / untraced_wall_s,
    }


# ---------------------------------------------------------------------------
# end-to-end arithmetic and output checks
# ---------------------------------------------------------------------------


def time_to_ci_s(wall_s: float, halfwidth: float) -> float:
    """Projected wall time to a +/-CI_TARGET interval: wall * (halfwidth / target)^2."""
    return wall_s * (halfwidth / CI_TARGET) ** 2


def failed_ops(outcomes) -> tuple[int, int, float]:
    """(attempted, failed, failed / attempted) over a list of pass/fail booleans."""
    attempted = len(outcomes)
    failed = sum(1 for ok in outcomes if not ok)
    return attempted, failed, (failed / attempted if attempted else 0.0)


def within_reference(b_star: float, ci: float, reference: float) -> bool:
    return abs(b_star - reference) <= max(REFERENCE_FLOOR, 3.0 * ci)


def oracle_allowance(sigma: float, dt: float, ci: float, bisect_tol: float) -> float:
    """Known discrete-monitoring bias plus 3 CI half-widths plus the bisection width."""
    return BGK_BETA * sigma * math.sqrt(dt) + 3.0 * ci + bisect_tol


def nondecreasing_finite(values) -> bool:
    vals = list(values)
    return all(math.isfinite(v) for v in vals) and all(b >= a for a, b in zip(vals, vals[1:]))


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ns_per_step"):
        return "ns/step"
    if name.endswith("ns_per_elem"):
        return "ns/elem"
    if name.endswith(("calls", "passes", "samples", "evals", "iterations", "path_steps")):
        return "count"
    return "1"
