"""Parametric-bootstrap control of structure over-fitting.

Given a fitted model, each replicate draws every parameter from its grid
marginal density (:func:`abnkit.glm.marginal_densities` of the node's fit),
forward-simulates a dataset of the original size, re-learns the
optimal structure with the same constraints, and records the selected DAG.
Aggregated arc support then prunes the original DAG: arcs recovered in fewer
than the threshold fraction of replicates are treated as over-fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cache import FIT_ERRORS, build_cache, parallel_map
from .dag import ConstraintSet, Dag
from .data import Dataset, standardize
from .errors import AbnError, ConfigError, NodeSetMismatch
from .exact import StructuralPrior, best_parents_table, most_probable_dag
from .glm import FitResult, ParamDensity, marginal_densities
from .heuristic import arc_frequency_matrix, check_threshold
from .simulate import SimSpec, simulate_data

MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True)
class BootstrapReport:
    replicates: tuple[tuple[int, Dag, float], ...]  # (index, dag, score) of each success
    support: np.ndarray = field(repr=False)
    pruned: Dag
    failures: tuple[tuple[int, str], ...] = ()  # (index, message) of each failure


def check_replicates(n_replicates: int) -> None:
    """Raise ConfigError unless ``n_replicates`` is at least one."""
    if n_replicates < 1:
        raise ConfigError(f"need at least one bootstrap replicate, got {n_replicates}")


def check_support_mode(mode: str) -> None:
    """Raise ConfigError unless ``mode`` is ``directed`` or ``undirected``."""
    if mode not in ("directed", "undirected"):
        raise ConfigError(f"unknown support mode {mode!r}")


def model_grid_posteriors(
    dag: Dag, fits: dict[str, FitResult], n_grid: int = 1000
) -> dict[str, list[ParamDensity]]:
    """Grid marginal densities for every parameter of every node."""
    return {node: marginal_densities(fits[node], n_grid=n_grid) for node in dag.nodes}


def _draw_simspec(
    dag: Dag,
    families_map: dict[str, str],
    grids: dict[str, list[ParamDensity]],
    n_obs: int,
    rng: np.random.Generator,
) -> SimSpec:
    """One categorical draw per parameter from its grid, in grid order."""
    coefficients: dict[str, dict[str, float]] = {}
    sd: dict[str, float] = {}
    for node in dag.nodes:
        draw = {d.label: float(rng.choice(d.grid, p=d.probabilities))
                for d in grids[node]}
        lam = draw.pop("log_precision", None)
        coefficients[node] = draw
        if families_map[node] == "gaussian":
            sd[node] = 1.0 / math.sqrt(math.exp(lam))
    return SimSpec(
        dag=dag,
        families=families_map,
        coefficients=coefficients,
        sd=sd,
        n_obs=n_obs,
        seed=int(rng.integers(2**63)),
    )


def _one_replicate(dag, families_map, grids, n_obs, seed, constraints, prior,
                   standardized, k):
    """Simulate, score and search replicate ``k``; its gaussian columns are
    standardised when the original dataset's were."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
    try:
        spec = _draw_simspec(dag, families_map, grids, n_obs, rng)
        replicate = simulate_data(spec)
        if standardized:
            replicate = standardize(replicate)
        cache = build_cache(replicate, constraints, method="bayes")
        for i in range(cache.n_nodes):
            if not np.any(np.isfinite(cache.scores[i])):
                raise AbnError(
                    f"node {cache.nodes[i]!r} has -inf scores for every parent set"
                )
        table = best_parents_table(cache, prior)
        selected, _ = most_probable_dag(table)
        score = cache.dag_score(selected)
        return k, selected.adjacency, score, None
    except (*FIT_ERRORS, FloatingPointError, OverflowError) as exc:
        return k, None, None, f"{type(exc).__name__}: {exc}"


def run_bootstrap(
    fits: dict[str, FitResult],
    dag: Dag,
    ds: Dataset,
    constraints: ConstraintSet | None = None,
    n_replicates: int = 200,
    seed: int = 0,
    structural_prior: str = "koivisto",
    threshold: float = 0.5,
    mode: str = "directed",
    n_grid: int = 1000,
    jobs: int = 1,
) -> BootstrapReport:
    """Full bootstrap pipeline for a fitted model.

    Replicate datasets match the original's size and standardisation;
    replicate searches reuse the original constraints and structural prior.
    Individual replicate failures are logged and excluded, but more than 5%
    of them abort the run.  The whole pipeline is a pure function of ``seed``.
    """
    if dag.nodes != ds.names:
        raise NodeSetMismatch("DAG node set differs from dataset columns")
    check_replicates(n_replicates)
    check_threshold(threshold)
    check_support_mode(mode)
    prior = StructuralPrior(structural_prior)
    if constraints is None:
        constraints = ConstraintSet(ds.names)
    grids = model_grid_posteriors(dag, fits, n_grid=n_grid)
    shared = (dag, ds.dist_map(), grids, ds.n_obs, seed, constraints, prior, ds.standardized)
    results = parallel_map(_one_replicate, shared, [(k,) for k in range(n_replicates)], jobs)

    replicates = tuple((k, Dag(ds.names, adjacency), score)
                       for k, adjacency, score, err in results if err is None)
    failures = tuple((k, err) for k, _, _, err in results if err is not None)
    if len(failures) > MAX_FAILURE_FRACTION * n_replicates:
        raise AbnError(
            f"{len(failures)}/{n_replicates} bootstrap replicates failed; "
            f"first: {failures[0][1]}"
        )
    support = arc_frequency_matrix([d for _, d, _ in replicates])
    pruned = prune_by_support(dag, support, threshold=threshold, mode=mode)
    return BootstrapReport(replicates=replicates, support=support, pruned=pruned,
                           failures=failures)


def prune_by_support(
    original: Dag,
    support: np.ndarray,
    threshold: float = 0.5,
    mode: str = "directed",
) -> Dag:
    """Keep only original arcs whose bootstrap support meets the threshold.

    Directed mode uses each arc's own frequency; undirected mode credits an
    arc with the support of both directions.  The result is a subgraph of
    the original, hence automatically acyclic.
    """
    check_threshold(threshold)
    check_support_mode(mode)
    if mode == "undirected":
        support = support + support.T
    keep = original.adjacency.astype(bool) & (support >= threshold)
    return Dag(original.nodes, keep.astype(np.int8))
