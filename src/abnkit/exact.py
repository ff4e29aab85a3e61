"""Exact optimal-DAG search by dynamic programming over node subsets.

Two passes: per node, a subset sweep turns the enumerated parent-set scores
into ``bs(i, S) = best score of node i when its parents must lie inside S``;
a sink sweep then assembles the best node ordering, ``F(S) = max_j F(S \\ j)
+ bs(j, S \\ j)``, and backtracking recovers the maximum-a-posteriori DAG.

The subset sweep is a running minimum over int32 ranks of the cached sets,
so tables hold each winner's exact float64 score and int32 bitmask, and
optimality checks against brute-force enumeration hold with exact float
equality; the memory budget caps n well below the method's own practical
ceiling (~25 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .cache import ScoreCache
from .dag import Dag, dag_from_masks
from .errors import AbnError, MemoryLimit

DEFAULT_MEMORY_BUDGET = 4 << 30  # bytes across all per-node tables


@dataclass(frozen=True)
class StructuralPrior:
    """Log-prior over parent sets added to each cached score.

    ``koivisto`` makes every parent-set cardinality equally likely a priori
    (penalty -log C(n-1, |P|)); ``uninformative`` treats every enumerated
    set as equally likely (no penalty).
    """

    kind: str = "koivisto"

    def __post_init__(self):
        if self.kind not in ("koivisto", "uninformative"):
            raise AbnError(f"unknown structural prior {self.kind!r}")

    def log_prior(self, n_nodes: int, cardinality: int) -> float:
        if self.kind == "uninformative":
            return 0.0
        m = n_nodes - 1
        return -float(
            gammaln(m + 1) - gammaln(cardinality + 1) - gammaln(m - cardinality + 1)
        )


def _check_budget(n: int, cell_bytes: int, budget: int) -> None:
    need = n * (1 << n) * cell_bytes
    if n > 31 or need > budget:  # int32 parent-set masks hold at most 31 nodes
        raise MemoryLimit(
            f"{n} nodes need {need / 2**30:.1f} GiB of DP tables, "
            f"budget is {budget / 2**30:.1f} GiB"
        )


def _node_entries(cache: ScoreCache, prior: StructuralPrior, score_type: str):
    """Per node: its cached parent-set masks and their score plus log-prior."""
    n = cache.n_nodes
    log_prior = np.array([prior.log_prior(n, k) for k in range(n)])
    for i in range(n):
        masks = cache.masks[i]
        yield masks, cache.score_vector(i, score_type) + log_prior[np.bitwise_count(masks)]


def _subset_sweep(table: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Fold ``ufunc`` over all subsets of every cell, in place.

    One pass per bit j: viewed as ``(-1, 2, 2^j)``, the cells with bit j set
    absorb their partners without it, with no index arrays or temporaries.
    """
    for j in range(table.size.bit_length() - 1):
        r = table.reshape(-1, 2, 1 << j)
        ufunc(r[:, 1, :], r[:, 0, :], out=r[:, 1, :])
    return table


def _sink_layers(n: int):
    """Steps of the sink recursion in dependency order: per subset size and
    node j, the subsets of that size holding j, and the same subsets without j."""
    pc = np.bitwise_count(np.arange(1 << n))
    order_masks = np.argsort(pc, kind="stable")
    boundaries = np.searchsorted(pc[order_masks], np.arange(n + 2))
    for k in range(1, n + 1):
        layer = order_masks[boundaries[k]:boundaries[k + 1]]
        for j in range(n):
            with_j = layer[(layer & (1 << j)) != 0]
            yield j, with_j, with_j ^ (1 << j)


@dataclass(frozen=True)
class BestParentTable:
    """Per node: best achievable score and arg parent set for every subset."""

    nodes: tuple[str, ...]
    score_type: str
    prior: StructuralPrior
    best: tuple[np.ndarray, ...] = field(repr=False)
    arg: tuple[np.ndarray, ...] = field(repr=False)
    cache: ScoreCache = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def best_parents_table(
    cache: ScoreCache,
    prior: StructuralPrior = StructuralPrior(),
    score_type: str | None = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> BestParentTable:
    """Best parent set per (node, permitted-parent subset) by subset sweep.

    Per node, the cached sets plus a virtual ``(-inf, empty set)`` entry for
    subsets with nothing cached are ranked once: higher score first, ties
    toward smaller cardinality, then smaller bitmask, so repeated runs agree
    bit for bit.  An int32 running minimum of ranks over subsets picks each
    cell's winner, whose score (float64) and mask (int32) fill ``best`` and
    ``arg``: 12 bytes per node and subset.
    """
    n = cache.n_nodes
    _check_budget(n, 8 + 4, memory_budget)
    score_type = score_type or cache.default_score_type()
    best_all = []
    arg_all = []
    for masks, values in _node_entries(cache, prior, score_type):
        masks = np.concatenate(([0], masks)).astype(np.int32)
        values = np.concatenate(([-np.inf], values))
        order = np.lexsort((masks, np.bitwise_count(masks), -values))
        position = np.empty(len(order), dtype=np.int32)
        position[order] = np.arange(len(order), dtype=np.int32)
        rank = np.full(1 << n, position[0], dtype=np.int32)
        rank[masks[1:]] = position[1:]
        _subset_sweep(rank, np.minimum)
        best_all.append(values[order][rank])
        arg_all.append(masks[order][rank])
    return BestParentTable(
        nodes=cache.nodes,
        score_type=score_type,
        prior=prior,
        best=tuple(best_all),
        arg=tuple(arg_all),
        cache=cache,
    )


def most_probable_dag(table: BestParentTable) -> tuple[Dag, float]:
    """MAP DAG by the sink recursion, plus its total objective.

    The total is recomputed from the cache entries of the selected parent
    sets (score plus structural log-prior, summed in node index order) so it
    satisfies the decomposability identity exactly.
    """
    n = table.n_nodes
    size = 1 << n
    F = np.full(size, -np.inf)
    F[0] = 0.0
    choice = np.full(size, -1, dtype=np.int8)
    for j, with_j, sub in _sink_layers(n):
        cand = F[sub] + table.best[j][sub]
        upd = cand > F[with_j]
        F[with_j[upd]] = cand[upd]
        choice[with_j[upd]] = j
    full = size - 1
    if not np.isfinite(F[full]):
        raise AbnError("no constraint-satisfying DAG exists for this cache")
    masks = [0] * n
    S = full
    while S:
        j = int(choice[S])
        S ^= 1 << j
        masks[j] = int(table.arg[j][S])
    dag = dag_from_masks(table.nodes, masks)
    return dag, dag_objective(table.cache, dag, table.prior, table.score_type)


def dag_objective(
    cache: ScoreCache,
    dag: Dag,
    prior: StructuralPrior = StructuralPrior(),
    score_type: str | None = None,
) -> float:
    """Canonical search objective of a DAG: per node, one fused
    ``score + log-prior`` term, accumulated in node index order."""
    n = cache.n_nodes
    total = 0.0
    for i, mask in enumerate(dag.parent_masks()):
        total += cache.score(i, mask, score_type) + prior.log_prior(
            n, bin(mask).count("1")
        )
    return total


def total_order_evidence(
    cache: ScoreCache,
    prior: StructuralPrior = StructuralPrior(),
    score_type: str | None = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> float:
    """Log-sum variant of the sink recursion (diagnostic only).

    Replaces both maxima of the MAP search with log-sum-exp, yielding the
    order-weighted total evidence of the whole model space; useful to judge
    how dominant the selected DAG is.
    """
    n = cache.n_nodes
    _check_budget(n, 8, memory_budget)
    score_type = score_type or cache.default_score_type()
    tables = []
    for masks, values in _node_entries(cache, prior, score_type):
        zs = np.full(1 << n, -np.inf)
        zs[masks] = values
        tables.append(_subset_sweep(zs, np.logaddexp))  # log-space zeta transform
    F = np.full(1 << n, -np.inf)
    F[0] = 0.0
    for j, with_j, sub in _sink_layers(n):
        F[with_j] = np.logaddexp(F[with_j], F[sub] + tables[j][sub])
    return float(F[-1])
