"""Heuristic structure search over a score cache, plus consensus utilities.

All three algorithms walk the space of cache-backed DAGs with single-arc
moves (add, delete, reverse).  A candidate move is admissible only when the
resulting parent sets exist in the cache -- which is exactly how ban/retain
and cardinality constraints propagate -- and the graph stays acyclic.

One step loop serves all three: list the admissible moves, choose one,
apply it, extend the trail of best scores.  Only the choice differs:
hill-climbing takes the first best improving move, tabu search the first
best move that is not tabu or beats the best score, and simulated annealing
a uniform draw that passes the Metropolis test.

Acyclicity is checked against descendant bitsets (:func:`.dag.descendants`),
recomputed once per step rather than searched once per candidate: adding
``parent -> child`` is admissible iff ``parent`` does not descend from
``child``, and reversing it iff no other parent of ``child`` descends from
``parent``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cache import ScoreCache, ordered_sum, parallel_map
from .dag import Dag, dag_from_masks, descendants, find_cycle, row_masks
from .errors import ConfigError, EmptyCache, NodeSetMismatch
from .exact import StructuralPrior, _node_entries

Move = tuple[str, int, int]  # kind, child, parent
INIT_DENSITY = 0.1  # chance that each admissible arc enters a random start


@dataclass(frozen=True)
class HeuristicConfig:
    algorithm: str = "hill_climb"
    restarts: int = 1
    max_steps: int = 500
    tabu_length: int = 10
    initial_temperature: float = 1.0
    cooling_factor: float = 0.995
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("hill_climb", "tabu", "simulated_annealing"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.restarts < 1 or self.max_steps < 1 or self.tabu_length < 1:
            raise ConfigError("restarts, max_steps, tabu_length must be positive")
        if not 0 < self.cooling_factor < 1:
            raise ConfigError("cooling_factor must lie in (0, 1)")
        if not 0 < self.initial_temperature < math.inf:
            raise ConfigError("initial_temperature must be positive and finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")


@dataclass(frozen=True)
class RestartTrace:
    dag: Dag
    best_scores: tuple[float, ...]  # best objective at the start and after each step

    @property
    def score(self) -> float:
        """The objective of ``dag``, the last of the best scores."""
        return self.best_scores[-1]


@dataclass(frozen=True)
class SearchTrace:
    restarts: tuple[RestartTrace, ...]

    def best(self) -> RestartTrace:
        """Highest-scoring restart; earliest index wins exact ties."""
        _, best = max(enumerate(self.restarts), key=lambda kr: (kr[1].score, -kr[0]))
        return best


def objective_tables(
    cache: ScoreCache, prior: StructuralPrior, score_type: str | None
) -> list[dict[int, float]]:
    """Per node, ``{parent mask: score + log-prior}`` over the cached sets: the
    exact DP's objective as lookup tables."""
    return [dict(zip(masks.tolist(), values.tolist()))
            for masks, values in _node_entries(cache, prior, score_type)]


class _State:
    """Mutable search state: parent masks and per-node objective terms."""

    def __init__(self, tables: list[dict[int, float]], masks: list[int]):
        self.tables = tables
        self.n = len(tables)
        self.masks = list(masks)
        self.node_scores = [tables[i][m] for i, m in enumerate(self.masks)]

    def total(self) -> float:
        return ordered_sum(self.node_scores)

    def valid_moves(self) -> list[tuple[Move, float]]:
        """All admissible single-arc moves with their score deltas, in the
        canonical order add < delete < reverse, then (child, parent)."""
        desc = descendants(self.masks)
        adds, deletes, reverses = [], [], []
        for child in range(self.n):
            cur, table, here = self.masks[child], self.tables[child], self.node_scores[child]
            for parent in range(self.n):
                bit = 1 << parent
                if not cur & bit:
                    new = cur | bit
                    # parent -> child closes a cycle iff parent descends from
                    # child (a node is its own descendant: no self-loops)
                    if new in table and not desc[child] & bit:
                        adds.append((("add", child, parent), table[new] - here))
                    continue
                new = cur & ~bit
                if new not in table:
                    continue  # retained arcs have no cached subset
                deletes.append((("delete", child, parent), table[new] - here))
                parent_new = self.masks[parent] | (1 << child)
                # child -> parent closes a cycle iff another parent of child
                # descends from parent: a path parent -> ... -> child that
                # cannot pass through child, so not through the dropped arc
                if parent_new in self.tables[parent] and not new & desc[parent]:
                    delta = (table[new] - here
                             + self.tables[parent][parent_new] - self.node_scores[parent])
                    reverses.append((("reverse", child, parent), delta))
        return adds + deletes + reverses

    def apply(self, move: Move) -> None:
        kind, child, parent = move
        self.masks[child] ^= 1 << parent  # add sets the bit; delete and reverse clear it
        self.node_scores[child] = self.tables[child][self.masks[child]]
        if kind == "reverse":
            self.masks[parent] |= 1 << child
            self.node_scores[parent] = self.tables[parent][self.masks[parent]]


def _inverse(move: Move) -> Move:
    kind, child, parent = move
    if kind == "add":
        return ("delete", child, parent)
    if kind == "delete":
        return ("add", child, parent)
    return ("reverse", parent, child)


def _randomize_start(state: _State, rng: np.random.Generator) -> None:
    pairs = [(i, j) for i in range(state.n) for j in range(state.n) if i != j]
    order = rng.permutation(len(pairs))
    desc = descendants(state.masks)
    for k in order:
        child, parent = pairs[k]
        if rng.random() >= INIT_DENSITY or state.masks[child] >> parent & 1:
            continue
        new = state.masks[child] | (1 << parent)
        if new in state.tables[child] and not desc[child] >> parent & 1:
            state.apply(("add", child, parent))
            desc = descendants(state.masks)


def _run_restart(
    nodes: tuple[str, ...],
    retained: list[int],
    tables: list[dict[int, float]],
    config: HeuristicConfig,
    restart_index: int,
) -> RestartTrace:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(restart_index,))
    )
    state = _State(tables, retained)
    _randomize_start(state, rng)

    best_score, best_masks = state.total(), list(state.masks)
    trail = [best_score]
    tabu: deque[Move] = deque(maxlen=config.tabu_length)
    temperature = config.initial_temperature
    for _ in range(config.max_steps):
        moves = state.valid_moves()
        accept = True
        if config.algorithm == "simulated_annealing":
            if not moves:
                break
            move, delta = moves[rng.integers(len(moves))]
            # a NaN delta (between two -inf entries) draws and is rejected
            accept = delta >= 0 or rng.random() < math.exp(delta / temperature)
            temperature *= config.cooling_factor
        else:
            # the first best move that improves (hill-climbing), or that is
            # not tabu or beats the best score (tabu)
            move, floor = None, 0.0 if config.algorithm == "hill_climb" else -math.inf
            for candidate, d in moves:
                if d > floor and (candidate not in tabu or state.total() + d > best_score):
                    move, floor = candidate, d
            if move is None:
                break
            if config.algorithm == "tabu":
                tabu.append(_inverse(move))
        if accept:
            state.apply(move)
            total = state.total()
            # hill-climbing's best is its current total, which rounding may lower
            if config.algorithm == "hill_climb" or total > best_score:
                best_score, best_masks = total, list(state.masks)
        trail.append(best_score)

    return RestartTrace(dag=dag_from_masks(nodes, best_masks), best_scores=tuple(trail))


def heuristic_search(
    cache: ScoreCache,
    config: HeuristicConfig = HeuristicConfig(),
    prior: StructuralPrior = StructuralPrior(),
    score_type: str | None = None,
    jobs: int = 1,
) -> SearchTrace:
    """Run the configured stochastic search, one trace per restart.

    Constraints are the cache's own: parent sets outside it are never
    reachable (narrow a cache with :meth:`ScoreCache.restrict`).  Each
    restart draws from a generator derived from (seed, restart index), so a
    fixed seed reproduces the trace bit for bit, restarts may run in
    parallel, and traces merge deterministically by index.
    """
    if cache.n_entries == 0:
        raise EmptyCache("score cache has no entries")
    shared = (cache.nodes, row_masks(cache.constraints.retained),
              objective_tables(cache, prior, score_type), config)
    tasks = [(k,) for k in range(config.restarts)]
    return SearchTrace(restarts=tuple(parallel_map(_run_restart, shared, tasks, jobs)))


# --------------------------------------------------------------------------
# consensus and cycle repair
# --------------------------------------------------------------------------


def arc_frequency_matrix(dags: list[Dag]) -> np.ndarray:
    """Fraction of ``dags`` that contain each arc (directed)."""
    if not dags:
        raise NodeSetMismatch("need at least one DAG")
    nodes = dags[0].nodes
    for d in dags:
        if d.nodes != nodes:
            raise NodeSetMismatch("all DAGs must share one node set")
    freq = np.zeros((len(nodes), len(nodes)))
    for d in dags:
        freq += d.adjacency
    return freq / len(dags)


def check_threshold(threshold: float) -> None:
    """Raise ConfigError unless the support threshold lies in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")


def majority_consensus(
    dags: list[Dag], threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Arc-frequency consensus over candidate structures.

    Returns ``(kept, frequency)`` where ``kept`` holds the arcs whose
    frequency meets the threshold.  Each direction counts separately, so the
    result may be cyclic (see :func:`repair_to_dag`).
    """
    check_threshold(threshold)
    freq = arc_frequency_matrix(dags)
    kept = (freq >= threshold) & ~np.eye(len(freq), dtype=bool)
    return kept.astype(np.int8), freq


def repair_to_dag(matrix, frequencies, nodes) -> Dag:
    """Break every cycle of a consensus matrix, guided by arc frequencies.

    While a cycle exists, the lowest-frequency arc on it is reversed; when
    the reversed arc would immediately close another cycle the arc is
    deleted instead.  The result is acyclic and every surviving arc is an
    input arc or the reversal of one.
    """
    m = np.array(matrix, dtype=np.int8)
    freq = np.asarray(frequencies, dtype=float)
    # each pass deletes an arc of a cycle and adds at most its reversal, which
    # closes no cycle: fewer arcs lie on cycles after every pass, so the
    # passes are at most the input arcs
    while (cycle := find_cycle(m)) is not None:
        # path of child->parent hops; arcs point parent -> child
        arcs = [(child, cycle[(k + 1) % len(cycle)]) for k, child in enumerate(cycle)]
        child, parent = min(arcs, key=lambda a: (freq[a[0], a[1]], a[0], a[1]))
        m[child, parent] = 0
        if m[parent, child]:
            continue  # two-cycle: the higher-frequency direction survives
        # the reversal child -> parent closes a cycle iff parent still reaches child
        if not descendants(row_masks(m))[parent] >> child & 1:
            m[parent, child] = 1
    return Dag(nodes, m)
