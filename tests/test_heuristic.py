import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnkit.cache import build_cache
from abnkit.dag import ConstraintSet, Dag, dag_from_masks, descendants, find_cycle, row_masks
from abnkit.data import standardize
from abnkit.errors import ConfigError, NodeSetMismatch
from abnkit.exact import StructuralPrior, best_parents_table, dag_objective, most_probable_dag
from abnkit.heuristic import (
    HeuristicConfig,
    RestartTrace,
    SearchTrace,
    _inverse,
    _randomize_start,
    _run_restart,
    _State,
    arc_frequency_matrix,
    heuristic_search,
    majority_consensus,
    objective_tables,
    repair_to_dag,
)

from conftest import dag_from_arcs, gaussian_chain_dataset, random_cache, random_dag

UNIF = StructuralPrior("uninformative")


@pytest.fixture(scope="module")
def chain_cache():
    ds = standardize(gaussian_chain_dataset(200, 1))
    return build_cache(ds, ConstraintSet(ds.names, max_parents=2))


class TestSearch:
    def test_best_restart_earliest_wins_ties(self):
        a = dag_from_arcs(("x", "y"), (("x", "y"),))
        b = dag_from_arcs(("x", "y"), (("y", "x"),))
        trace = SearchTrace(restarts=(
            RestartTrace(Dag(("x", "y")), (-3.0,)),
            RestartTrace(a, (-2.0, -1.0)),
            RestartTrace(b, (-1.5, -1.0)),
        ))
        assert trace.best() is trace.restarts[1]

    def test_default_prior_is_the_exact_default(self, chain_cache):
        # a one-parent set is where koivisto and uninformative priors differ
        trace = heuristic_search(chain_cache)
        best = trace.best()
        assert 1 in [bin(m).count("1") for m in best.dag.parent_masks()]
        assert best.score == dag_objective(chain_cache, best.dag)

    @pytest.mark.parametrize("algorithm", ["hill_climb", "tabu", "simulated_annealing"])
    def test_two_node_single_optimum(self, algorithm):
        rng = np.random.default_rng(0)
        cache = random_cache(2, rng)
        exact, exact_total = most_probable_dag(best_parents_table(cache, UNIF))
        config = HeuristicConfig(algorithm=algorithm, restarts=3, max_steps=50, seed=1)
        trace = heuristic_search(cache, config=config, prior=UNIF)
        assert trace.best().score == pytest.approx(exact_total, abs=1e-12)

    def test_hill_climb_monotone_and_local_optimum(self, chain_cache):
        config = HeuristicConfig(algorithm="hill_climb", restarts=5, seed=3)
        trace = heuristic_search(chain_cache, config=config, prior=UNIF)
        for restart in trace.restarts:
            seq = restart.best_scores
            assert all(b >= a for a, b in zip(seq, seq[1:]))
        # terminal state: no admissible single-arc move improves
        best = trace.best()
        state = _State(objective_tables(chain_cache, UNIF, "mlik"), best.dag.parent_masks())
        assert all(delta <= 1e-9 for _, delta in state.valid_moves())

    def test_total_adds_left_to_right(self):
        # a compensated sum (sum() from Python 3.12) gives 1.0
        assert _State([{0: 1e16}, {0: 1.0}, {0: -1e16}], [0, 0, 0]).total() == 0.0

    def test_fixed_seed_reproducible(self, chain_cache):
        config = HeuristicConfig(algorithm="simulated_annealing", restarts=4,
                                 max_steps=120, seed=11)
        a = heuristic_search(chain_cache, config=config, prior=UNIF)
        b = heuristic_search(chain_cache, config=config, prior=UNIF)
        assert a.best().score == b.best().score
        for ra, rb in zip(a.restarts, b.restarts):
            assert ra.best_scores == rb.best_scores
            assert ra.dag == rb.dag

    def test_visited_dags_satisfy_constraints(self):
        rng = np.random.default_rng(5)
        cache = random_cache(5, rng, max_parents=2)
        config = HeuristicConfig(algorithm="tabu", restarts=4, max_steps=60, seed=9)
        trace = heuristic_search(cache, config=config, prior=UNIF)
        for restart in trace.restarts:
            assert find_cycle(restart.dag.adjacency) is None
            assert cache.constraints.allows(restart.dag)

    def test_two_hundred_restarts_find_exact_optimum_three_nodes(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            cache = random_cache(3, rng)
            _, exact_total = most_probable_dag(best_parents_table(cache, UNIF))
            config = HeuristicConfig(algorithm="hill_climb", restarts=200,
                                     max_steps=60, seed=trial)
            trace = heuristic_search(cache, config=config, prior=UNIF)
            assert trace.best().score == pytest.approx(exact_total, abs=1e-12)

    def test_retained_arcs_never_deleted(self):
        from abnkit.formula import parse_formula
        ds = standardize(gaussian_chain_dataset(150, 2))
        retained = parse_formula("~b|a", ds.names)
        cons = ConstraintSet(ds.names, retained=retained, max_parents=2)
        cache = build_cache(ds, cons)
        config = HeuristicConfig(algorithm="simulated_annealing", restarts=3,
                                 max_steps=100, seed=2)
        trace = heuristic_search(cache, config=config, prior=UNIF)
        for restart in trace.restarts:
            assert ("a", "b") in restart.dag.arcs()

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_temperature_must_be_positive_and_finite(self, temperature):
        # a NaN temperature would reject every downhill move, an infinite one accept all
        with pytest.raises(ConfigError, match="must be positive and finite"):
            HeuristicConfig(algorithm="simulated_annealing", initial_temperature=temperature)


def dfs_path(masks, start, goal) -> bool:
    """Directed path start -> ... -> goal by depth-first search; ``masks[i]``
    is node i's parent bitmask."""
    stack, seen = [start], {start}
    while stack:
        cur = stack.pop()
        if cur == goal:
            return True
        for child, mask in enumerate(masks):
            if mask >> cur & 1 and child not in seen:
                seen.add(child)
                stack.append(child)
    return False


def oracle_moves(state):
    """``_State.valid_moves`` written out plainly: one DFS per add and per
    reverse candidate, the same order and the same delta arithmetic."""
    adds, deletes, reverses = [], [], []
    for child in range(state.n):
        cur, table, here = state.masks[child], state.tables[child], state.node_scores[child]
        for parent in range(state.n):
            bit = 1 << parent
            if not cur & bit:
                new = cur | bit
                if parent != child and new in table and not dfs_path(state.masks, child, parent):
                    adds.append((("add", child, parent), table[new] - here))
                continue
            new = cur & ~bit
            if new not in table:
                continue
            deletes.append((("delete", child, parent), table[new] - here))
            parent_new = state.masks[parent] | (1 << child)
            if parent_new not in state.tables[parent]:
                continue
            masks = list(state.masks)
            masks[child] = new
            if not dfs_path(masks, parent, child):
                delta = (table[new] - here
                         + state.tables[parent][parent_new] - state.node_scores[parent])
                reverses.append((("reverse", child, parent), delta))
    return adds + deletes + reverses


def bits(moves):
    return [(move, delta.hex()) for move, delta in moves]


@st.composite
def admissible_states(draw):
    """A random cache (cardinality limit, retained arcs) and a random DAG whose
    parent sets it holds: arcs only run forward in a random node order."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    max_parents = draw(st.none() | st.integers(0, n - 1))
    limit = n if max_parents is None else max_parents
    retained = np.zeros((n, n), dtype=np.int8)
    masks = [0] * n
    for later in range(n):
        child = order[later]
        for parent in order[:later]:
            if bin(masks[child]).count("1") == limit:
                break
            kind = draw(st.sampled_from(("none", "arc", "retained")))
            if kind != "none":
                masks[child] |= 1 << parent
                retained[child, parent] = kind == "retained"
    seed = draw(st.integers(0, 2**32 - 1))
    cache = random_cache(n, np.random.default_rng(seed), max_parents=max_parents,
                         retained=retained)
    return _State(objective_tables(cache, UNIF, "mlik"), masks)


class TestMovesMatchDfsOracle:
    def test_descendants_equal_dfs_reachability(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            m = (rng.random((n, n)) < rng.uniform(0.1, 0.5)).astype(np.int8)
            np.fill_diagonal(m, 0)  # cycles stay: repair_to_dag reads cyclic graphs
            masks = row_masks(m)
            desc = descendants(masks)
            assert [[bool(d >> j & 1) for j in range(n)] for d in desc] == \
                [[dfs_path(masks, i, j) for j in range(n)] for i in range(n)]

    @settings(max_examples=300, deadline=None)
    @given(state=admissible_states())
    def test_valid_moves_equal_oracle(self, state):
        assert bits(state.valid_moves()) == bits(oracle_moves(state))

    @pytest.mark.parametrize("algorithm", ["hill_climb", "tabu", "simulated_annealing"])
    def test_search_traces_equal_oracle_runs(self, algorithm, monkeypatch):
        cache = random_cache(12, np.random.default_rng(12), max_parents=3)
        config = HeuristicConfig(algorithm=algorithm, restarts=3, max_steps=80, seed=4)
        fast = heuristic_search(cache, config=config)
        monkeypatch.setattr(_State, "valid_moves", oracle_moves)
        slow = heuristic_search(cache, config=config)
        assert fast == slow
        assert [r.best_scores for r in fast.restarts] == [r.best_scores for r in slow.restarts]
        assert len(fast.restarts[0].best_scores) > 5


def oracle_restart(cache, tables, config, restart_index) -> RestartTrace:
    """``_run_restart`` as one step loop per algorithm: the same start, the
    same move choices and the same best-score updates, written out apart."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(restart_index,))
    )
    state = _State(tables, row_masks(cache.constraints.retained))
    _randomize_start(state, rng)
    best_score = state.total()
    best_masks = list(state.masks)
    trail = [best_score]
    if config.algorithm == "hill_climb":
        for _ in range(config.max_steps):
            chosen, delta = None, 0.0
            for move, d in state.valid_moves():
                if d > delta:
                    chosen, delta = move, d
            if chosen is None:
                break
            state.apply(chosen)
            best_score = state.total()  # follows the current total, even down
            best_masks = list(state.masks)
            trail.append(best_score)
    elif config.algorithm == "tabu":
        tabu = deque(maxlen=config.tabu_length)
        for _ in range(config.max_steps):
            moves = state.valid_moves()
            current = state.total()
            chosen, chosen_delta = None, -math.inf
            for move, d in moves:
                admissible = move not in tabu or current + d > best_score
                if admissible and d > chosen_delta:
                    chosen, chosen_delta = move, d
            if chosen is None:
                break
            tabu.append(_inverse(chosen))
            state.apply(chosen)
            if state.total() > best_score:
                best_score = state.total()
                best_masks = list(state.masks)
            trail.append(best_score)
    else:
        temperature = config.initial_temperature
        for _ in range(config.max_steps):
            moves = state.valid_moves()
            if not moves:
                break
            move, delta = moves[rng.integers(len(moves))]
            if delta >= 0 or rng.random() < math.exp(delta / temperature):
                state.apply(move)
                if state.total() > best_score:
                    best_score = state.total()
                    best_masks = list(state.masks)
            temperature *= config.cooling_factor
            trail.append(best_score)
    return RestartTrace(dag=dag_from_masks(cache.nodes, best_masks), best_scores=tuple(trail))


def holed_cache(n: int, rng: np.random.Generator):
    """A random cache with about half of its non-empty parent sets at -inf,
    so that a move between two of them has a NaN delta."""
    cache = random_cache(n, rng, max_parents=int(rng.integers(1, n)))
    scores = []
    for masks, block in zip(cache.masks, cache.scores):
        block = block.copy()
        block[(masks > 0) & (rng.random(len(masks)) < 0.5)] = -np.inf
        scores.append(block)
    return replace(cache, scores=tuple(scores))


class TestStepLoopMatchesOracle:
    @pytest.mark.parametrize("algorithm", ["hill_climb", "tabu", "simulated_annealing"])
    def test_restarts_equal_oracle_restarts(self, algorithm, monkeypatch):
        valid_moves, n_nan = _State.valid_moves, []

        def counted(state):
            moves = valid_moves(state)
            n_nan.append(sum(math.isnan(d) for _, d in moves))
            return moves

        monkeypatch.setattr(_State, "valid_moves", counted)
        rng = np.random.default_rng(20)
        for _ in range(30):
            cache = holed_cache(int(rng.integers(2, 7)), rng)
            tables = objective_tables(cache, UNIF, "mlik")
            config = HeuristicConfig(algorithm=algorithm, max_steps=60, tabu_length=3,
                                     seed=int(rng.integers(2**31)))
            for k in range(2):
                got = _run_restart(cache.nodes, row_masks(cache.constraints.retained),
                                   tables, config, k)
                want = oracle_restart(cache, tables, config, k)
                assert got.dag == want.dag
                assert got.score.hex() == want.score.hex()
                assert [s.hex() for s in got.best_scores] == \
                    [s.hex() for s in want.best_scores]
        assert sum(n_nan) > 100  # moves between two failed entries were offered


class TestConsensus:
    def test_identical_inputs_any_threshold(self, asia_dag):
        kept, freq = majority_consensus([asia_dag] * 5, threshold=1.0)
        assert np.array_equal(kept, asia_dag.adjacency)
        assert np.array_equal(freq, asia_dag.adjacency.astype(float))

    def test_opposite_arcs_give_cyclic_consensus(self):
        a = dag_from_arcs(("x", "y"), (("x", "y"),))
        b = dag_from_arcs(("x", "y"), (("y", "x"),))
        kept, freq = majority_consensus([a, b], threshold=0.5)
        assert find_cycle(kept) is not None  # both directions kept: repair_to_dag exists for this
        assert freq[0, 1] == freq[1, 0] == 0.5

    def test_threshold_extremes(self):
        rng = np.random.default_rng(23)
        dags = [random_dag(5, rng) for _ in range(6)]
        union, freq = majority_consensus(dags, threshold=1e-9)
        inter, _ = majority_consensus(dags, threshold=1.0)
        assert np.all(freq >= 0) and np.all(freq <= 1)
        assert np.all(inter <= union)
        assert np.array_equal(union != 0, freq >= 1e-9)

    def test_node_set_mismatch(self, asia_dag):
        with pytest.raises(NodeSetMismatch):
            arc_frequency_matrix([asia_dag, Dag(("a", "b"))])

    @pytest.mark.parametrize("threshold", [1.7, -3.0, 1.0 + 1e-9, math.nan])
    def test_threshold_outside_unit_interval(self, asia_dag, threshold):
        with pytest.raises(ConfigError, match=r"^threshold must lie in \[0, 1\], got "):
            majority_consensus([asia_dag], threshold=threshold)


class TestRepair:
    def test_acyclic_input_unchanged(self, asia_dag):
        freq = asia_dag.adjacency.astype(float)
        out = repair_to_dag(asia_dag.adjacency, freq, asia_dag.nodes)
        assert out == asia_dag

    def test_two_cycle_keeps_stronger_direction(self):
        m = np.array([[0, 1], [1, 0]])
        freq = np.array([[0.0, 0.6], [0.9, 0.0]])
        out = repair_to_dag(m, freq, ("x", "y"))
        # arc with frequency 0.9 is y <- x (row y, column x)
        assert out.adjacency[1, 0] == 1 and out.adjacency[0, 1] == 0

    @staticmethod
    def repair(arcs, n):
        """Repair a matrix given as (parent, child, frequency) arcs; returns
        the sorted (parent, child) arcs of the result."""
        m, freq = np.zeros((n, n), dtype=np.int8), np.zeros((n, n))
        for parent, child, f in arcs:
            m[child, parent], freq[child, parent] = 1, f
        return sorted(repair_to_dag(m, freq, tuple(f"x{i}" for i in range(n))).arcs())

    def test_weakest_arc_of_a_cycle_reversed(self):
        # x0 -> x1 -> x2 -> x0: x1 -> x0 closes no cycle once x0 -> x1 is gone
        arcs = ((0, 1, 0.1), (1, 2, 0.9), (2, 0, 0.9))
        assert self.repair(arcs, 3) == [("x1", "x0"), ("x1", "x2"), ("x2", "x0")]

    def test_reversal_closing_a_longer_cycle_deletes_the_arc(self):
        # x0 -> x1 -> x2 -> x0 plus the detour x0 -> x3 -> x1: reversing the
        # weakest arc x0 -> x1 would close x1 -> x0 -> x3 -> x1, so it is
        # deleted; the detour's weakest arc x0 -> x3 then reverses freely
        arcs = ((0, 1, 0.1), (1, 2, 0.9), (2, 0, 0.9), (0, 3, 0.7), (3, 1, 0.8))
        assert self.repair(arcs, 4) == [("x1", "x2"), ("x2", "x0"), ("x3", "x0"), ("x3", "x1")]

    def test_random_cyclic_matrices_repaired(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            m = (rng.random((n, n)) < 0.45).astype(np.int8)
            np.fill_diagonal(m, 0)
            freq = rng.random((n, n)) * m
            out = repair_to_dag(m, freq, tuple(f"v{i}" for i in range(n)))
            assert find_cycle(out.adjacency) is None
            for parent, child in out.arcs():
                i, j = out.index(child), out.index(parent)
                assert m[i, j] or m[j, i]  # subgraph-or-reversal of the input
