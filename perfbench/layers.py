"""Which public functions of which layer the traced run wraps.

Every entry names a module-level function (wrapped on its module and on
every ``repro`` module that imported it by name) or a method (wrapped
on the class that defines it).  :func:`install` must run after the
program is imported, so consumer bindings already exist.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict

from tracer import Tracer, interval_union

__all__ = ["install", "install_service", "layer_metrics", "unit_of"]


def _dense_pairs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    covers = result[0]
    return {"kernel.dense.pairs": float(covers.size)}


def _sparse_pairs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"kernel.sparse.pairs": float(result.sensors.size)}


def _displacement_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    # The array the call returns, sized from its shape: float64 entries.
    return {"torus.displacements.bytes": float(result.size * 8)}


def _query_pairs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    indices = result[1] if isinstance(result, tuple) else result
    return {"spatial.candidate_pairs": float(len(indices))}


def _trials(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"engine.trials": float(len(result))}


_FUNCTIONS = [
    ("repro.core.batch", "covering_and_directions", "kernel.dense", {"measure": _dense_pairs}),
    ("repro.core.batch", "sparse_covering_pairs", "kernel.sparse", {"measure": _sparse_pairs}),
    # The gap reduction behind max_gaps, full_view_mask and
    # condition_mask; the public max_gaps alone is not called by the suite.
    ("repro.core.batch", "_max_gap_rows", "batch.max_gaps", {}),
    ("repro.core.full_view", "is_full_view_covered", "full_view.scalar", {}),
    ("repro.analysis.connectivity", "communication_graph", "analysis.connectivity", {}),
    ("repro.analysis.connectivity", "is_connected", "analysis.connectivity", {}),
    ("repro.analysis.connectivity", "largest_component_fraction", "analysis.connectivity", {}),
    ("repro.analysis.connectivity", "critical_communication_radius", "analysis.connectivity", {}),
    ("repro.analysis.connectivity", "connectivity_scaling_constant", "analysis.connectivity", {}),
    ("repro.barrier.grid_barrier", "compute_coverage_grid", "barrier.grid_barrier", {}),
    ("repro.barrier.grid_barrier", "find_breach_path", "barrier.grid_barrier", {}),
    ("repro.barrier.grid_barrier", "find_covered_band", "barrier.grid_barrier", {}),
    ("repro.barrier.grid_barrier", "barrier_exists", "barrier.grid_barrier", {}),
    ("repro.resilience.lifetime", "simulate_lifetime", "resilience.lifetime", {}),
    ("repro.resilience.lifetime", "lifetime_distribution", "resilience.lifetime", {}),
    ("repro.planning.orientation_opt", "optimize_orientations", "planning.orientation_opt", {}),
    ("repro.planning.orientation_opt", "covered_target_count", "planning.orientation_opt", {}),
    ("repro.simulation.montecarlo", "estimate_point_probability", "estimator", {}),
    ("repro.simulation.montecarlo", "estimate_grid_failure_probability", "estimator", {}),
    ("repro.simulation.montecarlo", "estimate_area_fraction", "estimator", {}),
    ("repro.simulation.montecarlo", "estimate_condition_chain", "estimator", {}),
    ("repro.simulation.engine", "execute_trials", "engine.sweep", {"measure": _trials, "keep_spans": True}),
    ("repro.simulation.engine", "run_trial", "engine.trial", {"keep_spans": True}),
]

_METHODS = [
    ("repro.deployment.base", "DeploymentScheme", "deploy", "deploy", {}),
    ("repro.geometry.spatial", "ToroidalCellIndex", "__init__", "spatial.index", {}),
    ("repro.geometry.spatial", "ToroidalCellIndex", "query_radius_batch", "spatial.query", {"measure": _query_pairs}),
    ("repro.geometry.spatial", "ToroidalCellIndex", "query", "spatial.query", {"measure": _query_pairs}),
    ("repro.geometry.spatial", "ToroidalCellIndex", "candidates_within", "spatial.query", {"measure": _query_pairs}),
    ("repro.geometry.torus", "Region", "pairwise_displacements", "torus.displacements", {"measure": _displacement_bytes}),
    ("repro.geometry.torus", "Region", "elementwise_displacements", "torus.displacements", {"measure": _displacement_bytes}),
    ("repro.geometry.torus", "Region", "displacements", "torus.displacements", {"measure": _displacement_bytes}),
    ("repro.simulation.engine", "SerialExecutor", "run", "engine.serial", {"keep_spans": True}),
    ("repro.simulation.engine", "ThreadExecutor", "run", "engine.thread", {"keep_spans": True}),
    ("repro.simulation.engine", "ParallelExecutor", "run", "engine.process", {"keep_spans": True}),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import importlib

    for module, attr, name, options in _FUNCTIONS:
        importlib.import_module(module)
        tracer.install_function(module, attr, name, **options)
    for module, cls, attr, name, options in _METHODS:
        importlib.import_module(module)
        tracer.install_method(module, cls, attr, name, **options)


def _engine_overhead(tracer: Tracer) -> float:
    """Sweep wall not covered by in-process trial calls.

    Counted over serial and thread sweeps only: a process sweep runs
    its trials in pool workers this process cannot see, so its whole
    wall is reported as ``engine.process.s`` instead.
    """
    sweeps = [(s, e) for name, s, e, _, _ in tracer.spans if name == "engine.sweep"]
    trials = sorted((s, e) for name, s, e, _, _ in tracer.spans if name == "engine.trial")
    pooled = [(s, e) for name, s, e, _, _ in tracer.spans if name == "engine.process"]
    starts = [s for s, _ in trials]
    overhead = 0.0
    for start, end in sweeps:
        if any(start <= s and e <= end for s, e in pooled):
            continue
        inside = trials[bisect.bisect_left(starts, start):bisect.bisect_right(starts, end)]
        overhead += (end - start) - interval_union(inside, start, end)
    return overhead


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in, from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("bytes", "bytes_shipped")):
        return "bytes"
    return "count"


def layer_metrics(tracer: Tracer, counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metric values from a finished traced pass.

    ``counters`` is the program's own metrics snapshot (``kernel_*``,
    ``payload_bytes_shipped``), read through its public registry.
    ``torus.displacements.bytes`` is computed from the shapes of the
    returned arrays, not measured.
    """
    calls, secs, counts = tracer.calls, tracer.seconds, tracer.counts
    out = {
        "deploy.calls": calls.get("deploy", 0),
        "deploy.s": secs.get("deploy", 0.0),
        "spatial.index_s": secs.get("spatial.index", 0.0),
        "spatial.query_s": secs.get("spatial.query", 0.0),
        "spatial.candidate_pairs": counts.get("spatial.candidate_pairs", 0.0),
        "torus.displacements.calls": calls.get("torus.displacements", 0),
        "torus.displacements.s": secs.get("torus.displacements", 0.0),
        "torus.displacements.bytes": counts.get("torus.displacements.bytes", 0.0),
        "batch.max_gaps.s": secs.get("batch.max_gaps", 0.0),
        "full_view.scalar.calls": calls.get("full_view.scalar", 0),
        "full_view.scalar.s": secs.get("full_view.scalar", 0.0),
        "analysis.connectivity.s": secs.get("analysis.connectivity", 0.0),
        "barrier.grid_barrier.s": secs.get("barrier.grid_barrier", 0.0),
        "resilience.lifetime.s": secs.get("resilience.lifetime", 0.0),
        "planning.orientation_opt.s": secs.get("planning.orientation_opt", 0.0),
        "engine.trials": counts.get("engine.trials", 0.0),
        "engine.serial.s": secs.get("engine.serial", 0.0),
        "engine.thread.s": secs.get("engine.thread", 0.0),
        "engine.process.s": secs.get("engine.process", 0.0),
        "engine.overhead_s": _engine_overhead(tracer),
        "payload.bytes_shipped": counters.get("payload_bytes_shipped", 0),
        "estimator.calls": calls.get("estimator", 0),
        "estimator.s": secs.get("estimator", 0.0),
    }
    for kind in ("dense", "sparse"):
        out[f"kernel.{kind}.calls"] = calls.get(f"kernel.{kind}", 0)
        out[f"kernel.{kind}.s"] = secs.get(f"kernel.{kind}", 0.0)
        out[f"kernel.{kind}.pairs"] = counts.get(f"kernel.{kind}.pairs", 0.0)
        out[f"kernel.{kind}.dispatched"] = counters.get(f"kernel_{kind}", 0)
    return out


def _source(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    status, payload = result
    source = payload.get("source") if isinstance(payload, dict) else None
    return {"status": status, "source": source}


def install_service(tracer: Tracer) -> None:
    """Wrap the service's request path."""
    import importlib

    importlib.import_module("repro.service.server")
    tracer.install_function("repro.service.server", "parse_request", "service.parse")
    tracer.install_function("repro.service.server", "cache_key", "service.cache_key")
    tracer.install_function("repro.service.server", "run_request", "service.compute")
    tracer.install_method("repro.service.cache", "ResultCache", "get", "service.cache_get")
    tracer.install_method(
        "repro.service.server", "CoverageService", "_handle_compute", "service.handler",
        span_attrs=_source,
    )
