import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnkit.cache import ScoreCache, cache_from_text, cache_to_text, enumerate_parent_sets
from abnkit.dag import (
    ConstraintSet,
    Dag,
    check_node_names,
    compare_dags,
    dag_from_masks,
    dag_from_text,
    dag_to_dot,
    dag_to_text,
    find_cycle,
    info_metrics,
    markov_blanket,
    parse_adjacency,
    topological_order,
)
from abnkit.errors import (
    ConstraintError,
    CyclicInput,
    NodeSetMismatch,
    RetainedExceedsLimit,
    UnknownName,
)

from conftest import dag_from_arcs, random_dag


def smallest_key_order(adjacency, keys) -> list[int] | None:
    """Brute-force topological order: repeatedly place the unplaced node with
    the smallest key among those whose parents are all placed (None when a
    cycle stops it)."""
    n = len(keys)
    order: list[int] = []
    while len(order) < n:
        ready = [i for i in range(n) if i not in order
                 and all(int(j) in order for j in np.flatnonzero(adjacency[i]))]
        if not ready:
            return None
        order.append(min(ready, key=lambda i: keys[i]))
    return order


def kahn_leftover_cycle(adjacency) -> list[int] | None:
    """Brute-force cycle search: a self-loop if there is one; else peel every
    node without an unpeeled parent and walk from the smallest leftover node
    to its smallest leftover parent until a node repeats (None when nothing
    is left)."""
    n = len(adjacency)
    loops = [i for i in range(n) if adjacency[i][i]]
    if loops:
        return loops[:1]
    left = set(range(n))
    while ready := [i for i in left if not any(adjacency[i][j] for j in left)]:
        left.difference_update(ready)
    if not left:
        return None
    path = [min(left)]
    while (node := min(j for j in left if adjacency[path[-1]][j])) not in path:
        path.append(node)
    return path[path.index(node):]


class TestValidateAcyclic:
    def test_empty_matrix_ok(self):
        assert find_cycle(np.zeros((3, 3))) is None
        assert topological_order(Dag(("a", "b", "c"))) == ["a", "b", "c"]

    def test_two_cycle(self):
        m = np.array([[0, 1], [1, 0]])
        assert sorted(find_cycle(m)) == [0, 1]

    def test_asia_structure_ok(self, asia_dag):
        assert find_cycle(asia_dag.adjacency) is None

    def test_longer_cycle_reported(self):
        m = np.zeros((4, 4), dtype=int)
        # 0 -> 1 -> 2 -> 0 (row=child)
        m[1, 0] = m[2, 1] = m[0, 2] = 1
        assert set(find_cycle(m)) == {0, 1, 2}

    def test_dag_constructor_rejects_cycle(self):
        with pytest.raises(CyclicInput):
            Dag(("a", "b"), np.array([[0, 1], [1, 0]]))

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicInput) as exc:
            Dag(("a", "b"), np.array([[1, 0], [0, 0]]))
        assert exc.value.cycle == ["a"]

    def test_certificate_and_names_break_ties_by_smallest_key(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            shape = random_dag(n, rng, p=float(rng.uniform(0.0, 0.6)))
            names = tuple(f"v{k}" for k in rng.permutation(n))
            dag = Dag(names, shape.adjacency)
            expected = smallest_key_order(dag.adjacency, names)
            assert topological_order(dag) == [names[i] for i in expected]
            by_index = Dag([f"v{i}" for i in range(n)], shape.adjacency)
            expected = smallest_key_order(shape.adjacency, range(n))
            assert topological_order(by_index) == [f"v{i}" for i in expected]

    def test_find_cycle_returns_a_directed_cycle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = (rng.random((n, n)) < rng.uniform(0.05, 0.4)).astype(np.int8)
            cycle = find_cycle(m)
            if smallest_key_order(m, range(n)) is not None:
                assert cycle is None
                continue
            assert cycle and len(set(cycle)) == len(cycle)
            for k, child in enumerate(cycle):  # each node's successor is a parent
                assert m[child, cycle[(k + 1) % len(cycle)]] == 1

    def test_find_cycle_equals_kahn_leftover_walk(self):
        # repair_to_dag breaks the weakest arc of this very cycle, so the
        # cycle itself, not just its existence, is part of the contract
        rng = np.random.default_rng(13)
        n_walked = 0
        for trial in range(2500):
            n = int(rng.integers(1, 12))
            m = (rng.random((n, n)) < rng.uniform(0.02, 0.4)).astype(np.int8)
            if trial % 2:
                np.fill_diagonal(m, 0)
            expected = kahn_leftover_cycle(m.tolist())
            assert find_cycle(m) == expected
            n_walked += expected is not None and len(expected) > 1
        assert n_walked > 500  # walks, not just self-loops and acyclic graphs


class TestTopologicalOrder:
    def test_chain(self):
        dag = dag_from_arcs(("a", "b", "c"), (("a", "b"), ("b", "c")))
        assert topological_order(dag) == ["a", "b", "c"]

    def test_empty_graph_name_tiebreak(self):
        dag = Dag(("b", "a"))
        assert topological_order(dag) == ["a", "b"]

    def test_case_study_parent_precedes(self, case_study_dag):
        order = topological_order(case_study_dag)
        assert order.index("age") < order.index("adg")
        assert order.index("eggs") < order.index("wormCount")
        for parent, child in case_study_dag.arcs():
            assert order.index(parent) < order.index(child)


class TestMarkovBlanket:
    def test_dyspnea(self, asia_dag):
        assert markov_blanket(asia_dag, "Dyspnea") == {"Bronchitis", "Either"}

    def test_either(self, asia_dag):
        assert markov_blanket(asia_dag, "Either") == {
            "XRay", "Dyspnea", "Tuberculosis", "LungCancer", "Bronchitis",
        }

    def test_isolated_node(self):
        dag = Dag(("a", "b", "c"))
        assert markov_blanket(dag, "a") == set()

    def test_unknown_node(self, asia_dag):
        with pytest.raises(UnknownName):
            markov_blanket(asia_dag, "nope")

    def test_symmetry_on_random_dags(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dag = random_dag(6, rng, p=0.4)
            for x in dag.nodes:
                for y in markov_blanket(dag, x):
                    assert x in markov_blanket(dag, y)


class TestInfoMetrics:
    def test_case_study_counts(self, case_study_dag):
        m = info_metrics(case_study_dag)
        assert m.n_nodes == 8
        assert m.n_arcs == 10
        assert m.avg_parents == pytest.approx(1.25)
        assert m.avg_children == pytest.approx(1.25)
        assert m.avg_neighborhood == pytest.approx(2.5)

    def test_empty_dag(self):
        m = info_metrics(Dag(tuple("abcdefgh")))
        assert m.n_arcs == 0
        assert m.avg_markov_blanket == 0
        assert m.avg_parents == 0

    def test_full_lower_triangular_four_nodes(self):
        adjacency = np.tril(np.ones((4, 4), dtype=int), k=-1)
        m = info_metrics(Dag(("a", "b", "c", "d"), adjacency))
        assert m.n_arcs == 6
        assert m.avg_parents == pytest.approx(1.5)

    def test_identity_avg_parents_times_n(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dag = random_dag(7, rng, p=0.35)
            m = info_metrics(dag)
            assert m.avg_parents * m.n_nodes == m.n_arcs


class TestCompareDags:
    def test_identical(self, asia_dag):
        c = compare_dags(asia_dag, asia_dag)
        assert c.tpr == 1.0 and c.fpr == 0.0 and c.hamming == 0 and c.accuracy == 1.0

    def test_single_arc_missed(self):
        ref = dag_from_arcs(("a", "b"), (("a", "b"),))
        cand = Dag(("a", "b"))
        c = compare_dags(ref, cand)
        assert c.tpr == 0.0 and c.hamming == 1

    def test_hand_counted_confusion(self):
        nodes = ("a", "b", "c", "d")
        ref = dag_from_arcs(nodes, (("a", "b"), ("b", "c"), ("c", "d")))
        cand = dag_from_arcs(nodes, (("a", "b"), ("b", "c"), ("a", "d")))
        c = compare_dags(ref, cand)
        assert (c.tp, c.fn, c.fp) == (2, 1, 1)
        assert c.f1 == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))

    def test_self_comparison_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dag = random_dag(6, rng)
            c = compare_dags(dag, dag)
            assert c.hamming == 0 and c.accuracy == 1.0 and c.f1 == 1.0

    def test_node_set_mismatch(self, asia_dag):
        with pytest.raises(NodeSetMismatch):
            compare_dags(asia_dag, Dag(("a", "b")))


class TestConstraintSet:
    def test_ban_and_retain_conflict(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1
        with pytest.raises(ConstraintError):
            ConstraintSet(("a", "b"), banned=m, retained=m)

    def test_retained_cycle_rejected(self):
        retained = np.array([[0, 1], [1, 0]])
        with pytest.raises(ConstraintError):
            ConstraintSet(("a", "b"), retained=retained)

    def test_retained_over_limit(self):
        retained = np.zeros((3, 3))
        retained[0, 1] = retained[0, 2] = 1
        with pytest.raises(RetainedExceedsLimit):
            ConstraintSet(("a", "b", "c"), retained=retained, max_parents=1)

    def test_allows(self, asia_dag):
        cons = ConstraintSet(asia_dag.nodes, max_parents=2)
        assert cons.allows(asia_dag)
        assert not ConstraintSet(asia_dag.nodes, max_parents=1).allows(asia_dag)

    def test_reserved_symbols_in_names(self):
        with pytest.raises(UnknownName):
            Dag(("a|b", "c"))
        with pytest.raises(UnknownName):
            Dag(("a", "a"))


class TestTextFormats:
    def test_adjacency_round_trip(self, case_study_dag):
        text = dag_to_text(case_study_dag)
        back = dag_from_text(text)
        assert back == case_study_dag

    def test_parse_rejects_ragged(self):
        with pytest.raises(ConstraintError):
            parse_adjacency("node a b\na 0\nb 0 0\n")

    @pytest.mark.parametrize("text, message", [
        (" \n\n", "empty adjacency text"),
        ("node a b\na 0 0\n", "expected 2 rows, found 1"),
        ("node a b\na 0 0\nb 0 0\nc 0 0\n", "expected 2 rows, found 3"),
        ("node a b\na 0 0\nc 1 0\n", "row 1 named 'c', expected 'b'"),
    ], ids=["empty", "too-few-rows", "too-many-rows", "wrong-row-name"])
    def test_parse_errors(self, text, message):
        with pytest.raises(ConstraintError, match=f"^{message}$"):
            parse_adjacency(text)

    @pytest.mark.parametrize("entry", ["2", "-1", "0.5"])
    def test_dag_entries_must_be_binary(self, entry):
        with pytest.raises(ConstraintError, match="^adjacency entries must be 0/1$"):
            dag_from_text(f"node a b\na 0 0\nb {entry} 0\n")

    def test_dot_contains_shapes_and_arcs(self, case_study_dag):
        dists = {
            "AR": "binomial", "pneumS": "binomial", "female": "binomial",
            "livdam": "binomial", "eggs": "binomial", "wormCount": "poisson",
            "age": "gaussian", "adg": "gaussian",
        }
        dot = dag_to_dot(case_study_dag, dists)
        assert '"wormCount" [shape=diamond];' in dot
        assert '"AR" [shape=box];' in dot
        assert '"age" [shape=ellipse];' in dot
        assert '"eggs" -> "wormCount";' in dot

    def test_dot_penwidth_scaling(self, case_study_dag):
        weights = np.zeros((8, 8))
        weights[case_study_dag.adjacency != 0] = 0.5
        dot = dag_to_dot(case_study_dag, edge_weights=weights)
        assert "penwidth" in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        dot = dag_to_dot(Dag(('a"b', "c\\d"), [[0, 0], [1, 0]])).splitlines()
        assert dot[1] == '  "a\\"b" [shape=ellipse];'
        assert dot[2] == '  "c\\\\d" [shape=ellipse];'
        assert dot[3] == '  "a\\"b" -> "c\\\\d";'

    def test_dag_from_masks_inverts_parent_masks(self):
        rng = np.random.default_rng(12)
        for n in range(1, 8):
            dag = random_dag(n, rng)
            assert dag_from_masks(dag.nodes, dag.parent_masks()) == dag


def accepted(name: str) -> bool:
    try:
        check_node_names([name])
    except UnknownName:
        return False
    return True


valid_name = st.text(min_size=1, max_size=6).filter(accepted)


class TestNodeNames:
    @pytest.mark.parametrize("name", ["c,d", "a b", "a\xa0b", "a\x0cb", "a\rb", "a\u2028b",
                                      "x#1", "a=b"])
    def test_separators_and_whitespace_rejected(self, name):
        with pytest.raises(UnknownName):
            check_node_names([name])

    @pytest.mark.parametrize("name", ["(Intercept)", "log_precision"])
    def test_parameter_labels_rejected(self, name):
        with pytest.raises(UnknownName, match="reserved"):
            Dag(("x", name), [[0, 1], [0, 0]])

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(valid_name, min_size=1, max_size=4, unique=True))
    def test_accepted_names_survive_text_formats(self, names):
        n = len(names)
        chain = np.eye(n, k=-1, dtype=np.int8)  # node i <- node i-1
        dag = Dag(names, chain)
        assert dag_from_text(dag_to_text(dag)) == dag

        constraints = ConstraintSet(names, banned=chain.T, max_parents=1)
        masks = [np.array(enumerate_parent_sets(i, constraints), dtype=np.int64)
                 for i in range(n)]
        cache = ScoreCache(
            nodes=tuple(names), distributions=("gaussian",) * n, method="bayes",
            fingerprint="test", n_obs=100, constraints=constraints,
            masks=tuple(masks),
            scores=tuple(-np.arange(1.0, len(m) + 1) for m in masks),
        )
        back = cache_from_text(cache_to_text(cache))
        assert back.nodes == cache.nodes and back.constraints == constraints
        for i in range(n):
            assert np.array_equal(back.masks[i], cache.masks[i])
            assert np.array_equal(back.scores[i], cache.scores[i])
