"""Exact optimal-DAG search by dynamic programming over node subsets.

Two passes, after Silander & Myllymaki (UAI 2006): per node, a subset sweep
turns the enumerated parent-set scores into ``bs(i, S) = best score of node i
when its parents must lie inside S``, for every subset S of the *other* n-1
nodes; a sink sweep then assembles the best node ordering, ``F(S) = max_j
F(S \\ j) + bs(j, S \\ j)``, and backtracking recovers the
maximum-a-posteriori DAG.

The subset sweep is a running minimum over ranks of the cached sets, and a
table keeps only that rank, 2^(n-1) cells per node in the narrowest unsigned
integer type that holds the node's largest rank (one byte up to 255 cached
sets, two up to 65 535), plus the short rank-ordered score and mask arrays it
indexes; every cell still yields its winner's exact float64 score and int32
bitmask, so optimality checks against brute-force enumeration hold with exact
float equality.  The sweep's five lowest bits run on a transposed copy of the
table, so that every pass works on long contiguous rows.  The sink sweep
keeps F alone: backtracking finds each subset's sink again as the first node,
in index order, whose candidate equals F(S), so no per-subset choice is
stored.  Everything the search allocates counts against the memory budget,
which reaches past the method's practical ceiling (~25 nodes): a 24-node
search with at most two parents per node (two-byte ranks) needs 0.61 GiB of
the default 4 GiB; with every parent set cached, ranks take four bytes, the
ranked scores and masks take 2.25 GiB, and the need is 3.75 GiB.

The Koivisto structure prior's ``log C(n-1, k)`` is
:func:`abnkit.families.log_choose`, read from a memoised ``log k!`` table
whose bits are ``scipy.special.gammaln``'s, without importing SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .cache import ScoreCache, ordered_sum
from .dag import Dag, dag_from_masks
from .errors import AbnError, CacheMismatch, MemoryLimit
from .families import log_choose

DEFAULT_MEMORY_BUDGET = 4 << 30  # bytes across everything the exact search allocates


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
        return -log_choose(n_nodes - 1, cardinality)


def _search_bytes(entries: list[int]) -> int:
    """Peak bytes of an exact search over nodes with ``entries[i]`` cached
    sets, each phase's arrays summed:

    - the rank tables over the 2^(n-1) cells, each node's in the narrowest
      type of its ranks 0..entries[i] (the virtual entry is rank 0 or more),
      and the subset sweep's transposed copy of one table;
    - per ranked entry (the cached sets and the virtual one), its float64
      value and int32 mask, plus at most eight 8-byte arrays over the largest
      node's entries while that node is ranked;
    - F (float64) over all 2^n subsets, the uint8 popcounts of the cells and
      one layer's comparison mask, and at most eight 8-byte arrays (cells,
      subsets, candidates, temporaries) over the largest sink layer.
    """
    n = len(entries)
    others = max(n - 1, 0)
    cells = 1 << others
    widths = [np.min_scalar_type(e).itemsize for e in entries]
    ranked = [e + 1 for e in entries]
    return (
        (sum(widths) + max(widths, default=0)) * cells
        + 12 * sum(ranked) + 64 * max(ranked, default=0)
        + 8 * (1 << n) + 2 * cells + 64 * comb(others, others // 2)
    )


def _check_budget(entries: list[int], budget: int) -> None:
    n = len(entries)
    if n > 31:
        raise MemoryLimit(f"{n} nodes: int32 parent-set masks hold at most 31")
    need = _search_bytes(entries)
    if need > budget:
        raise MemoryLimit(
            f"{n} nodes need {need} bytes ({need / 2**30:.2f} GiB) for the exact "
            f"search, budget is {budget} bytes"
        )


def _node_entries(cache: ScoreCache, prior: StructuralPrior, score_type: str | None):
    """Per node: its cached parent-set masks and their score plus log-prior."""
    n = cache.n_nodes
    log_prior = np.array([prior.log_prior(n, k) for k in range(n)])
    for i in range(n):
        masks = cache.masks[i]
        yield masks, cache.score_vector(i, score_type) + log_prior[np.bitwise_count(masks)]


def _squeeze(subsets, j: int):
    """Table cell of each subset of the nodes other than j: bit j squeezed out."""
    return (subsets & ((1 << j) - 1)) | ((subsets >> (j + 1)) << j)


def _subset_sweep(rank: np.ndarray) -> np.ndarray:
    """Running minimum over all subsets of every cell, in place.

    One pass per bit j: viewed as ``(-1, 2, 2^j)``, the cells with bit j set
    absorb their partners without it.  A low bit's partners lie 1-16 cells
    apart, which would make every pass a loop over runs that short, so the
    low five bits are swept on a transposed copy, ``(32, size / 32)``, whose
    rows hold each low-bit pattern contiguously; the high bits are swept in
    place.  A minimum does not depend on the order of the passes.
    """
    bits = rank.size.bit_length() - 1
    low = min(5, bits)
    blocks = rank.reshape(-1, 1 << low)
    t = np.ascontiguousarray(blocks.T)
    for j in range(low):
        r = t.reshape(-1, 2, 1 << j, t.shape[1])
        np.minimum(r[:, 1], r[:, 0], out=r[:, 1])
    blocks[...] = t.T
    for j in range(low, bits):
        r = rank.reshape(-1, 2, 1 << j)
        np.minimum(r[:, 1, :], r[:, 0, :], out=r[:, 1, :])
    return rank


@dataclass(frozen=True)
class BestParentTable:
    """Per node i: for every subset S of the other nodes, the rank of the
    best parent set inside S, stored at cell ``_squeeze(S, i)`` in the
    narrowest unsigned type that holds the node's ranks (uint8 up to 255
    cached sets), and the rank-ordered scores (plus log-prior) and masks that
    the rank indexes."""

    nodes: tuple[str, ...]
    rank: tuple[np.ndarray, ...] = field(repr=False)
    values: tuple[np.ndarray, ...] = field(repr=False)
    masks: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def cell(self, i: int, S: int) -> tuple[float, int]:
        """Best (score plus log-prior, parent mask) of node i with its parents
        inside S, a bitmask over the other nodes."""
        if S >> i & 1:
            raise AbnError(f"subset {S:#b} holds node {i} itself")
        r = self.rank[i][_squeeze(S, i)]
        return float(self.values[i][r]), int(self.masks[i][r])


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
    bit for bit.  A running minimum of ranks over the subsets of the other
    nodes picks each cell's winner; ranks take the narrowest integer type
    that holds them, so a cell is one byte for a node with at most 255 cached
    sets and two bytes up to 65 535.
    """
    n = cache.n_nodes
    _check_budget([len(masks) for masks in cache.masks], memory_budget)
    rank_all, values_all, masks_all = [], [], []
    for i, (masks, values) in enumerate(_node_entries(cache, prior, score_type)):
        masks = np.concatenate(([0], masks)).astype(np.int32)
        values = np.concatenate(([-np.inf], values))
        order = np.lexsort((masks, np.bitwise_count(masks), -values))
        dtype = np.min_scalar_type(len(order) - 1)
        position = np.empty(len(order), dtype=dtype)
        position[order] = np.arange(len(order), dtype=dtype)
        rank = np.full(1 << (n - 1), position[0], dtype=dtype)
        rank[_squeeze(masks[1:], i)] = position[1:]
        rank_all.append(_subset_sweep(rank))
        values_all.append(values[order])
        masks_all.append(masks[order])
    return BestParentTable(nodes=cache.nodes, rank=tuple(rank_all), values=tuple(values_all),
                           masks=tuple(masks_all))


def most_probable_dag(table: BestParentTable) -> tuple[Dag, float]:
    """MAP DAG by the sink recursion, plus its total objective.

    Layer k holds every subset of k nodes: for each sink j in index order, its
    cells of popcount k - 1 give the subsets without j, and ``F`` of each
    subset with j keeps the larger of itself and the candidate.  No sink
    choice is stored: backtracking takes, at each subset S, the first j in
    index order whose candidate ``F(S \\ j) + bs(j, S \\ j)`` equals ``F(S)``,
    the same float64 addition on the same operands, so it is the sink that a
    strictly-better update in sink order would have kept.  The total sums
    the selected cells' score plus log-prior in node index order, the terms
    and the order of :func:`dag_objective`, so the two agree bit for bit.
    """
    n = table.n_nodes
    F = np.full(1 << n, -np.inf)
    F[0] = 0.0
    pc = np.bitwise_count(np.arange(1 << (n - 1), dtype=np.int32))  # uint8
    for k in range(n):
        cells = np.flatnonzero(pc == k)
        for j in range(n):
            sub = cells + (cells & -(1 << j))  # bit j inserted: the high bits move up one
            with_j = sub + (1 << j)
            cand = F.take(sub)
            cand += table.values[j].take(table.rank[j].take(cells))
            F[with_j] = np.fmax(F.take(with_j), cand)  # a NaN candidate never wins
    S = (1 << n) - 1
    if not np.isfinite(F[S]):
        raise AbnError("no constraint-satisfying DAG exists for this cache")
    terms, masks = [0.0] * n, [0] * n
    while S:
        j = next(j for j in range(n) if S >> j & 1
                 and F[S ^ 1 << j] + table.cell(j, S ^ 1 << j)[0] == F[S])
        S ^= 1 << j
        terms[j], masks[j] = table.cell(j, S)
    return dag_from_masks(table.nodes, masks), ordered_sum(terms)


def dag_objective(
    cache: ScoreCache,
    dag: Dag,
    prior: StructuralPrior = StructuralPrior(),
    score_type: str | None = None,
) -> float:
    """Canonical search objective of a DAG: per node, one fused
    ``score + log-prior`` term, accumulated in node index order."""
    if dag.nodes != cache.nodes:
        raise CacheMismatch("DAG node set differs from cache")
    n = cache.n_nodes
    return ordered_sum(cache.score(i, mask, score_type) + prior.log_prior(n, mask.bit_count())
                       for i, mask in enumerate(dag.parent_masks()))
