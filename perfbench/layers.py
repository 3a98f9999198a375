"""Per-layer metrics of csext, derived from the spans of one traced run.

Observers record counters at the layer boundary (matrix shapes, builds
versus cache hits, scope refusals); `layer_metrics` turns spans and
counters into the metric names listed under per_layer in BENCHMARK.json.
Times are inclusive (`.s`) or self (`.self_s`) seconds of the traced run.
"""

from __future__ import annotations

from csext.errors import ScopeError
from csext.harness import SKIPPED

from .trace import LAYERS, SpanRecorder, Tracer, by_name

ORACLE_GATES = ("ext1_gl", "ext1_sym", "rad_weyl_prediction", "rad_specht_prediction")


def _observe_rref(tracer: Tracer, sid, args, kwargs, result, exc) -> None:
    if exc is not None:
        return
    r, pivots = result
    rows, cols = r.shape
    rank = len(pivots)
    tracer.count("rref.rows", rows)
    tracer.count("rref.rank", rank)
    tracer.count("rref.elim_cells", rank * rows * cols)
    tracer.maximum("rref.max_rows", rows)
    tracer.maximum("rref.max_cols", cols)


def _observe_hom_space(tracer: Tracer, sid, args, kwargs, result, exc) -> None:
    v = args[0] if len(args) > 0 else kwargs["v"]
    w = args[1] if len(args) > 1 else kwargs["w"]
    n = v.dim * w.dim
    if n and v.degree > 1:
        tracer.maximum("hom.max_system_mb", (v.degree - 1) * n * n * 8 / 1e6)


def _observe_sweep(tracer: Tracer, sid, args, kwargs, result, exc) -> None:
    if exc is not None:
        return
    tracer.count("harness.rows", len(result.rows))
    tracer.count("harness.skipped", sum(1 for r in result.rows if r.status == SKIPPED))


def _observe_gate(tracer: Tracer, sid, args, kwargs, result, exc) -> None:
    tracer.count("oracle.gate_calls")
    if isinstance(exc, ScopeError):
        tracer.count("oracle.scope_refusals")


OBSERVERS = {
    "ffla.rref": _observe_rref,
    "specht.hom_space": _observe_hom_space,
    "harness.sweep_sym": _observe_sweep,
    "harness.sweep_comb": _observe_sweep,
    **{f"oracle.{g}": _observe_gate for g in ORACLE_GATES},
}


def make_tracer(run_id: str) -> Tracer:
    built: set = set()

    def observe_specht_data(tracer: Tracer, sid, args, kwargs, result, exc) -> None:
        # The first call for a (shape, p) in a process builds; later calls hit.
        if exc is not None:
            return
        key = (result.shape, result.p)
        if key in built:
            tracer.count("specht.hits")
        else:
            built.add(key)
            tracer.recorder.rename(sid, "specht.build")

    return Tracer(SpanRecorder(run_id), {**OBSERVERS, "specht.specht_data": observe_specht_data})


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when there is nothing to divide (the layer was idle)."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric except trace_overhead, which needs the untraced
    runs and is added by run.py."""
    rec = tracer.recorder
    stats = by_name(rec.names, *rec.arrays())
    c = tracer.counters

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (n, _, s) in stats.items():
        layer = name.split(".", 1)[0]
        layer_calls[layer] += n
        layer_self[layer] += s

    builds = calls("specht.build")
    out = {
        "ffla.rref.calls": calls("ffla.rref"),
        "ffla.rref.s": total("ffla.rref"),
        "ffla.rref.share": _ratio(total("ffla.rref"), wall_s),
        "ffla.rref.max_rows": c.get("rref.max_rows", 0),
        "ffla.rref.max_cols": c.get("rref.max_cols", 0),
        "ffla.rref.rank_ratio": _ratio(c.get("rref.rank", 0), c.get("rref.rows", 0)),
        "ffla.rref.elim_cells": c.get("rref.elim_cells", 0),
        "ffla.nullspace.calls": calls("ffla.nullspace"),
        "ffla.nullspace.s": total("ffla.nullspace"),
        "ffla.rank.calls": calls("ffla.rank"),
        "ffla.rank.s": total("ffla.rank"),
        "ffla.solve_in_span.calls": calls("ffla.solve_in_span"),
        "ffla.solve_in_span.s": total("ffla.solve_in_span"),
        "ffla.self_s": layer_self["ffla"],
        "specht.build.calls": builds,
        "specht.build.s": total("specht.build"),
        "specht.build.self_s": own("specht.build"),
        "specht.build.hit_ratio": _ratio(c.get("specht.hits", 0), builds + c.get("specht.hits", 0)),
        "specht.build.share": _ratio(total("specht.build"), wall_s),
        "specht.radical.s": total("specht.rad_dim") + total("specht.rad_subrep"),
        "specht.head.s": total("specht.simple_head"),
        "specht.hom.calls": calls("specht.hom_space"),
        "specht.hom.s": total("specht.hom_space"),
        "specht.hom.self_s": own("specht.hom_space"),
        "specht.hom.max_system_mb": c.get("hom.max_system_mb", 0.0),
        "specht.image.calls": calls("specht.image_equals_rad"),
        "specht.image.s": total("specht.image_equals_rad"),
        "specht.self_s": layer_self["specht"],
        "harness.sweep.s": total("harness.sweep_sym") + total("harness.sweep_comb"),
        "harness.self_s": layer_self["harness"],
        "harness.rows": c.get("harness.rows", 0),
        "harness.skipped_ratio": _ratio(c.get("harness.skipped", 0), c.get("harness.rows", 0)),
        "oracle.calls": layer_calls["oracle"],
        "oracle.s": sum(total(f"oracle.{g}") for g in ORACLE_GATES),
        "oracle.self_s": layer_self["oracle"],
        "oracle.scope_ratio": _ratio(c.get("oracle.scope_refusals", 0), c.get("oracle.gate_calls", 0)),
        "combinatorics.calls": layer_calls["combinatorics"],
        "combinatorics.self_s": layer_self["combinatorics"],
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": layer_self["cli"],
        "trace.spans": len(rec),
    }
    return out
