"""Per-layer instrumentation: which abnkit functions are wrapped, and the
per-layer metrics computed from the spans of one traced operation.

Layers are the abnkit modules.  Each wrapped attribute is the one its caller
looks up at call time, e.g. ``abnkit.cache.fit_node`` for the fits of a cache
build and ``abnkit.glm.fit_node`` for the fits inside ``fit_dag``.
"""

from __future__ import annotations

import statistics

import numpy as np

import abnkit.bootstrap
import abnkit.cache
import abnkit.cli
import abnkit.glm

from spans import Tracer, self_times

FAMILIES = ("binomial", "gaussian", "poisson")
METHODS = ("bayes", "mle")
LAYERS = ("cli", "data", "cache", "glm", "exact", "heuristic", "simulate",
          "bootstrap", "strength")


def _fit_fields(args, kwargs, fit):
    design = args[0] if args else kwargs["design"]
    return {
        "family": kwargs.get("family") or design.family,
        "method": kwargs.get("method", "bayes"),
        "firth": bool(fit.used_firth),
        "pruned": bool(fit.dropped_predictors),
        "converged": bool(fit.converged),
    }


def _cache_fields(args, kwargs, cache):
    return {
        "entries": cache.n_entries,
        "neg_inf": int(sum(np.count_nonzero(~np.isfinite(block)) for block in cache.scores)),
    }


def _table_fields(args, kwargs, table):
    n = table.n_nodes
    return {"table_bytes": n * (1 << n) * 16}


def _search_fields(args, kwargs, trace):
    return {
        "restarts": len(trace.restarts),
        "steps": sum(len(r.best_scores) - 1 for r in trace.restarts),
    }


def _replicate_fields(args, kwargs, result):
    return {"failed": result[3] is not None}


def install(tracer: Tracer) -> None:
    """Wrap every instrumented abnkit attribute."""
    cli, boot = abnkit.cli, abnkit.bootstrap
    tracer.wrap(abnkit.cache, "fit_node", "glm.fit_node", _fit_fields)
    tracer.wrap(abnkit.glm, "fit_node", "glm.fit_node", _fit_fields)
    tracer.wrap(cli, "fit_dag", "glm.fit_dag")
    for module in (cli, boot):
        tracer.wrap(module, "build_cache", "cache.build", _cache_fields)
        tracer.wrap(module, "best_parents_table", "exact.table", _table_fields)
        tracer.wrap(module, "most_probable_dag", "exact.sink")
    tracer.wrap(cli, "cache_from_text", "cache.io")
    tracer.wrap(cli, "load_dataset", "data.load")
    tracer.wrap(cli, "standardize", "data.standardize")
    tracer.wrap(cli, "heuristic_search", "heuristic.search", _search_fields)
    tracer.wrap(cli, "majority_consensus", "heuristic.consensus")
    tracer.wrap(cli, "repair_to_dag", "heuristic.consensus")
    tracer.wrap(cli, "run_bootstrap", "bootstrap.run")
    tracer.wrap(boot, "model_grid_posteriors", "bootstrap.grid")
    # the task function the bootstrap pool pickles by name; functools.wraps
    # keeps the wrapper importable under that name
    tracer.wrap(boot, "_one_replicate", "bootstrap.replicate", _replicate_fields)
    tracer.wrap(boot, "simulate_data", "simulate.data")
    tracer.wrap(cli, "discretize", "strength.discretize")
    tracer.wrap(cli, "pls_matrix", "strength.pls")


def _metric_specs() -> list[tuple[str, str, str]]:
    specs = []
    for fam in FAMILIES:
        for method in METHODS:
            specs.append((f"glm.{fam}.{method}.fits", "count", "lower"))
            specs.append((f"glm.{fam}.{method}.ms_per_fit", "ms", "lower"))
    specs += [
        ("glm.firth", "count", "lower"),
        ("glm.pruned", "count", "lower"),
        ("glm.unconverged", "count", "lower"),
        ("glm.failed", "count", "lower"),
        ("glm.clean_ratio", "ratio", "higher"),
        ("glm.fit_dag_s", "s", "lower"),
        ("cache.build_s", "s", "lower"),
        ("cache.entries", "count", "lower"),
        ("cache.fits_per_s", "1/s", "higher"),
        ("cache.self_s", "s", "lower"),
        ("cache.neg_inf_entries", "count", "lower"),
        ("cache.io_s", "s", "lower"),
        ("data.load_s", "s", "lower"),
        ("exact.table_s", "s", "lower"),
        ("exact.sink_s", "s", "lower"),
        ("exact.table_bytes", "bytes_computed", "lower"),
        ("heuristic.search_s", "s", "lower"),
        ("heuristic.restarts", "count", "lower"),
        ("heuristic.steps", "count", "lower"),
        ("heuristic.ms_per_step", "ms", "lower"),
        ("heuristic.consensus_s", "s", "lower"),
        ("simulate.calls", "count", "lower"),
        ("simulate.data_s", "s", "lower"),
        ("bootstrap.grid_s", "s", "lower"),
        ("bootstrap.replicates", "count", "lower"),
        ("bootstrap.replicate_s.p50", "s", "lower"),
        ("bootstrap.replicate_s.tail", "s", "lower"),
        ("bootstrap.replicate_s.tail_pct", "%", "higher"),
        ("bootstrap.replicate_s.samples", "count", "higher"),
        ("bootstrap.failed", "count", "lower"),
        ("pool.jobs", "count", "higher"),
        ("pool.cpu_s", "s", "lower"),
        ("pool.utilization", "ratio", "higher"),
        ("strength.discretize_s", "s", "lower"),
        ("strength.pls_s", "s", "lower"),
    ]
    specs += [(f"share.{layer}", "ratio", "lower") for layer in LAYERS]
    specs += [
        ("trace.ops", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return specs


PER_LAYER = _metric_specs()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def op_metrics(spans: list[dict], children_cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Times of spans that ran in pool workers add up across workers, so they
    measure busy time, not elapsed time.  ``children_cpu_s`` is the CPU time
    of the workers reaped during the operation.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    fits = by_name.get("glm.fit_node", [])
    for fam in FAMILIES:
        for method in METHODS:
            mine = [s for s in fits if s.get("family") == fam and s.get("method") == method]
            m[f"glm.{fam}.{method}.fits"] = len(mine)
            m[f"glm.{fam}.{method}.ms_per_fit"] = (
                1000 * sum(_dur(s) for s in mine) / len(mine) if mine else 0.0)
    failed = sum(1 for s in fits if "error" in s)
    m["glm.firth"] = sum(1 for s in fits if s.get("firth"))
    m["glm.pruned"] = sum(1 for s in fits if s.get("pruned"))
    m["glm.unconverged"] = sum(1 for s in fits if s.get("converged") is False)
    m["glm.failed"] = failed
    clean = sum(1 for s in fits if "error" not in s and s["converged"]
                and not s["firth"] and not s["pruned"])
    m["glm.clean_ratio"] = clean / len(fits) if fits else 0.0
    m["glm.fit_dag_s"] = total("glm.fit_dag")

    own = self_times(spans)
    builds = by_name.get("cache.build", [])
    build_ids = {s["id"] for s in builds}
    m["cache.build_s"] = total("cache.build")
    m["cache.entries"] = sum(s.get("entries", 0) for s in builds)
    build_fits = sum(1 for s in fits if s["parent"] in build_ids)
    m["cache.fits_per_s"] = build_fits / m["cache.build_s"] if m["cache.build_s"] else 0.0
    m["cache.self_s"] = sum(own[s["id"]] for s in builds)
    m["cache.neg_inf_entries"] = sum(s.get("neg_inf", 0) for s in builds)
    m["cache.io_s"] = total("cache.io")
    m["data.load_s"] = total("data.load") + total("data.standardize")

    tables = by_name.get("exact.table", [])
    m["exact.table_s"] = total("exact.table")
    m["exact.sink_s"] = total("exact.sink")
    m["exact.table_bytes"] = max((s.get("table_bytes", 0) for s in tables), default=0)

    searches = by_name.get("heuristic.search", [])
    m["heuristic.search_s"] = total("heuristic.search")
    m["heuristic.restarts"] = sum(s.get("restarts", 0) for s in searches)
    m["heuristic.steps"] = sum(s.get("steps", 0) for s in searches)
    m["heuristic.ms_per_step"] = (1000 * m["heuristic.search_s"] / m["heuristic.steps"]
                                  if m["heuristic.steps"] else 0.0)
    m["heuristic.consensus_s"] = total("heuristic.consensus")

    m["simulate.calls"] = len(by_name.get("simulate.data", []))
    m["simulate.data_s"] = total("simulate.data")

    replicates = by_name.get("bootstrap.replicate", [])
    m["bootstrap.grid_s"] = total("bootstrap.grid")
    m["bootstrap.replicates"] = len(replicates)
    m["bootstrap.failed"] = sum(1 for s in replicates if s.get("failed") or "error" in s)

    main_pid = next(s["pid"] for s in spans if s["name"] == "op")
    worker_pids = {s["pid"] for s in spans if s["pid"] != main_pid}
    pool_wall = total("bootstrap.run") - m["bootstrap.grid_s"]
    m["pool.jobs"] = len(worker_pids)
    m["pool.cpu_s"] = children_cpu_s if worker_pids else 0.0
    m["pool.utilization"] = (m["pool.cpu_s"] / (len(worker_pids) * pool_wall)
                             if worker_pids and pool_wall > 0 else 0.0)

    m["strength.discretize_s"] = total("strength.discretize")
    m["strength.pls_s"] = total("strength.pls")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = "cli" if s["name"] == "op" else s["name"].split(".")[0]
        layer_self[layer] += own[s["id"]]
    busy = sum(layer_self.values())
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / busy if busy > 0 else 0.0
    m["trace.spans"] = len(spans)
    return m


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples above
    it, as (percentile, value); (50, median) when there are too few."""
    ordered = sorted(samples)
    best = (50.0, statistics.median(ordered))
    for pct in (75, 90, 95, 99):
        if len(ordered) * (1 - pct / 100) >= 10:
            rank = min(len(ordered) - 1, int(np.ceil(pct / 100 * len(ordered))) - 1)
            best = (float(pct), ordered[rank])
    return best


def run_metrics(per_op: list[dict[str, float]], replicate_s: list[float],
                traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Medians over the traced operations of one run, plus the trace overhead
    as the median traced minus the median untraced operation time."""
    out = {}
    for name, _, _ in PER_LAYER:
        values = [m[name] for m in per_op if name in m]
        out[name] = float(statistics.median(values)) if values else 0.0
    if replicate_s:
        pct, tail = tail_percentile(replicate_s)
        out["bootstrap.replicate_s.p50"] = float(statistics.median(replicate_s))
        out["bootstrap.replicate_s.tail"] = tail
        out["bootstrap.replicate_s.tail_pct"] = pct
        out["bootstrap.replicate_s.samples"] = len(replicate_s)
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    out["trace.ops"] = len(traced_walls)
    out["trace.wall_s"] = traced
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    return out
