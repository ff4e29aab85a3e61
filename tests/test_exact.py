import tracemalloc

import numpy as np
import pytest

from abnkit.cache import ScoreCache, build_cache
from abnkit.dag import ConstraintSet, Dag, dag_from_masks, find_cycle
from abnkit.data import standardize
from abnkit.errors import AbnError, CacheMismatch, MemoryLimit
from abnkit.exact import (
    DEFAULT_MEMORY_BUDGET,
    StructuralPrior,
    _check_budget,
    _search_bytes,
    _subset_sweep,
    best_parents_table,
    dag_objective,
    most_probable_dag,
)

from conftest import all_dag_parent_masks, random_cache, sample_asia_like


def oracle_best(cache, prior, dag_masks):
    """Max objective over every DAG, summed the canonical way."""
    n = cache.n_nodes
    best = -np.inf
    for row in dag_masks:
        total = 0.0
        for i in range(n):
            mask = int(row[i])
            total += cache.score(i, mask) + prior.log_prior(n, bin(mask).count("1"))
        if total > best:
            best = total
    return best


def oracle_table_cell(cache, prior, i, S):
    """Brute-force best (value, mask) of node i with parents inside S: highest
    score plus log-prior, then fewest parents, then smallest mask, over the
    cached sets and a virtual (-inf, empty set) entry for "nothing cached"."""
    n = cache.n_nodes
    items = [(-np.inf, 0)] + [
        (cache.score(i, m) + prior.log_prior(n, bin(m).count("1")), m)
        for m in map(int, cache.masks[i])
        if m & ~S == 0
    ]
    return max(items, key=lambda item: (item[0], -bin(item[1]).count("1"), -item[1]))


def oracle_most_probable_dag(table, cache, prior):
    """The sink recursion with a choice array: per (layer, sink) a candidate
    replaces ``F`` only when strictly better, and backtracking follows the
    stored sinks; the total is the DAG's ``dag_objective`` under ``prior``."""
    n = table.n_nodes
    size = 1 << n
    F = np.full(size, -np.inf)
    F[0] = 0.0
    choice = np.full(size, -1, dtype=np.int8)
    pc = np.bitwise_count(np.arange(1 << (n - 1), dtype=np.int32))
    for k in range(n):
        cells = np.flatnonzero(pc == k)
        for j in range(n):
            sub = cells + (cells & -(1 << j))
            with_j = sub + (1 << j)
            cand = F[sub] + table.values[j][table.rank[j][cells]]
            upd = cand > F[with_j]
            won = with_j[upd]
            F[won] = cand[upd]
            choice[won] = j
    full = size - 1
    if not np.isfinite(F[full]):
        raise AbnError("no constraint-satisfying DAG exists for this cache")
    masks = [0] * n
    S = full
    while S:
        j = int(choice[S])
        S ^= 1 << j
        masks[j] = table.cell(j, S)[1]
    dag = dag_from_masks(table.nodes, masks)
    return dag, dag_objective(cache, dag, prior)


def other_subsets(n, i):
    """Every subset of the nodes other than i, as a bitmask."""
    return [S for S in range(1 << n) if not S >> i & 1]


class TestBestParentsTable:
    def test_empty_subset_is_minimal_set(self):
        rng = np.random.default_rng(0)
        cache = random_cache(4, rng)
        table = best_parents_table(cache, StructuralPrior("uninformative"))
        for i in range(4):
            assert table.cell(i, 0) == (cache.score(i, 0), 0)

    def test_monotone_in_subset(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cache = random_cache(5, rng)
            table = best_parents_table(cache, StructuralPrior("koivisto"))
            for i in range(5):
                for S in other_subsets(5, i):
                    for j in range(5):
                        if j == i or S >> j & 1:
                            continue
                        assert table.cell(i, S | (1 << j))[0] >= table.cell(i, S)[0]

    def test_equals_direct_subset_max(self):
        rng = np.random.default_rng(2)
        prior = StructuralPrior("uninformative")
        for _ in range(50):
            cache = random_cache(4, rng)
            table = best_parents_table(cache, prior)
            for i in range(4):
                for S in other_subsets(4, i):
                    direct = max(
                        (cache.score(i, int(m)) for m in cache.masks[i]
                         if int(m) & ~S == 0),
                        default=-np.inf,
                    )
                    assert table.cell(i, S)[0] == direct

    def test_tie_break_prefers_smaller_sets(self):
        rng = np.random.default_rng(3)
        cache = random_cache(3, rng)
        # force an exact tie between the empty set and a singleton
        cache.scores[0][:] = -1.0
        table = best_parents_table(cache, StructuralPrior("uninformative"))
        assert table.cell(0, 0b110)[1] == 0

    def test_cell_rejects_subset_holding_the_node(self):
        cache = random_cache(3, np.random.default_rng(3))
        table = best_parents_table(cache, StructuralPrior("uninformative"))
        with pytest.raises(AbnError, match="holds node 1"):
            table.cell(1, 0b011)

    @pytest.mark.parametrize("prior_kind", ["uninformative", "koivisto"])
    def test_ties_and_neg_inf_match_brute_force(self, prior_kind):
        rng = np.random.default_rng(50)
        prior = StructuralPrior(prior_kind)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            retained = None
            if trial % 4 == 0:  # x0 must keep parent x1: the empty set is no entry
                retained = np.zeros((n, n), dtype=np.int8)
                retained[0, 1] = 1
            cache = random_cache(n, rng, retained=retained)
            assert (0 in cache.masks[0]) == (retained is None)
            for scores in cache.scores:
                scores[:] = rng.integers(-3, 0, size=scores.shape)  # exact ties
                scores[rng.random(len(scores)) < 0.2] = -np.inf
            table = best_parents_table(cache, prior)
            for i in range(n):
                # at most 32 cached sets: one byte holds every rank
                assert table.rank[i].dtype == np.uint8
                assert table.rank[i].size == 1 << (n - 1)
                assert table.masks[i].dtype == np.int32
                for S in other_subsets(n, i):
                    assert table.cell(i, S) == oracle_table_cell(cache, prior, i, S)

    def test_uint16_ranks_match_brute_force(self):
        # ten nodes: x1 has 512 cached sets, x0 (which must keep parent x1)
        # 256; with the virtual entry both need ranks past 255
        rng = np.random.default_rng(51)
        n = 10
        retained = np.zeros((n, n), dtype=np.int8)
        retained[0, 1] = 1
        cache = random_cache(n, rng, retained=retained)
        for scores in cache.scores:
            scores[:] = rng.integers(-6, 0, size=scores.shape)  # exact ties
            scores[rng.random(len(scores)) < 0.2] = -np.inf
        prior = StructuralPrior("koivisto")
        table = best_parents_table(cache, prior)
        assert [len(m) for m in cache.masks[:2]] == [256, 512]
        assert all(rank.dtype == np.uint16 for rank in table.rank)
        for i in (0, 1):
            for S in other_subsets(n, i):
                assert table.cell(i, S) == oracle_table_cell(cache, prior, i, S)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_subset_sweep_equals_submask_minimum(self, dtype):
        # 0-10 bits: tables of one cell, fewer than the 32 cells of the five
        # transposed low bits, and more, with high bits swept in place
        rng = np.random.default_rng(52)
        for bits in range(11):
            cells = np.arange(1 << bits)
            for _ in range(3):
                rank = rng.integers(0, np.iinfo(dtype).max, size=1 << bits,
                                    endpoint=True).astype(dtype)
                expected = [rank[(cells & ~S) == 0].min() for S in cells]
                swept = _subset_sweep(rank.copy())
                assert swept.dtype == dtype
                assert swept.tolist() == expected

    def test_rank_dtype_is_the_narrowest(self):
        # ranks run from 0 to the number of cached sets (the virtual entry)
        for n, entries, dtype in [(9, 255, np.uint8), (9, 256, np.uint16),
                                  (17, 65_535, np.uint16), (17, 65_536, np.uint32)]:
            nodes = tuple(f"x{i}" for i in range(n))
            empty = (np.zeros(1, np.int64),) * (n - 1)  # the other nodes cache the empty set
            masks = (np.arange(entries, dtype=np.int64) << 1, *empty)
            cache = ScoreCache(nodes=nodes, distributions=("gaussian",) * n, method="bayes",
                               fingerprint="test", constraints=ConstraintSet(nodes),
                               masks=masks, scores=tuple(-np.ones((len(m), 1)) for m in masks))
            assert best_parents_table(cache).rank[0].dtype == dtype

    def test_memory_limit(self):
        rng = np.random.default_rng(4)
        cache = random_cache(6, rng)
        need = _search_bytes([32] * 6)
        with pytest.raises(MemoryLimit, match=f"need {need} bytes"):
            best_parents_table(cache, memory_budget=100)

    def test_budget_counts_each_nodes_rank_width(self):
        # 12 nodes with at most two parents: 67 cached sets each, so one-byte
        # ranks; the search fits a budget that four-byte ranks would overrun
        cache = random_cache(12, np.random.default_rng(5), max_parents=2)
        need = _search_bytes([67] * 12)
        assert need == (13 * 2**11 + 12 * 12 * 68 + 64 * 68
                        + 8 * 2**12 + 2 * 2**11 + 64 * 462)
        assert need + 3 * 13 * 2**11 == 187_072  # the same search in int32 ranks
        best_parents_table(cache, memory_budget=120_000)
        best_parents_table(cache, memory_budget=need)
        with pytest.raises(MemoryLimit, match=f"12 nodes need {need} bytes"):
            best_parents_table(cache, memory_budget=need - 1)

    def test_budget_counts_every_search_array(self):
        # 24 nodes with at most two parents: 277 cached sets each, so rank
        # tables and the sweep's transposed copy (2 * 24 + 2) * 2^23; 278
        # ranked values and masks per node, and one node's ranking arrays;
        # F 8 * 2^24, popcounts and their layer mask 2 * 2^23, eight 8-byte
        # arrays over C(23, 11) cells
        need = _search_bytes([277] * 24)
        assert need == (419_430_400 + 12 * 24 * 278 + 64 * 278
                        + 134_217_728 + 16_777_216 + 64 * 1_352_078)
        assert need < DEFAULT_MEMORY_BUDGET
        _check_budget([277] * 24, need)
        with pytest.raises(MemoryLimit, match=f"24 nodes need {need} bytes"):
            _check_budget([277] * 24, need - 1)
        # every parent set of 23 others: 2^23 sets need four-byte ranks
        entries = 2**23 + 1 - 278
        assert _search_bytes([2**23] * 24) - need == (
            2 * 25 * 2**23 + 12 * 24 * entries + 64 * entries)
        assert _search_bytes([2**23] * 24) < DEFAULT_MEMORY_BUDGET
        with pytest.raises(MemoryLimit, match="at most 31"):
            _check_budget([1] * 32, 1 << 62)

    @pytest.mark.parametrize("max_parents", [2, None])
    def test_budget_bounds_the_traced_peak(self, max_parents):
        # 14 nodes: 92 cached sets per node (one-byte ranks), or all 8192
        # (two-byte ranks, and ranked values that outweigh the tables)
        cache = random_cache(14, np.random.default_rng(14), max_parents=max_parents)
        tracemalloc.start()
        try:
            most_probable_dag(best_parents_table(cache))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _search_bytes([len(masks) for masks in cache.masks])


class TestMostProbable:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(10 + n)
        dag_masks = all_dag_parent_masks(n)
        assert len(dag_masks) == {3: 25, 4: 543}[n]
        for prior_kind in ("uninformative", "koivisto"):
            prior = StructuralPrior(prior_kind)
            for _ in range(100):
                cache = random_cache(n, rng)
                table = best_parents_table(cache, prior)
                dag, total = most_probable_dag(table)
                assert total == oracle_best(cache, prior, dag_masks)
                assert total == dag_objective(cache, dag, prior)

    @pytest.mark.parametrize("prior_kind", ["uninformative", "koivisto"])
    def test_first_maximum_sink_equals_choice_oracle(self, prior_kind):
        # integer scores make exact ties between sinks, and between whole
        # orderings, common
        rng = np.random.default_rng(70)
        prior = StructuralPrior(prior_kind)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            max_parents = [None, *range(n)][int(rng.integers(0, n + 1))]
            cache = random_cache(n, rng, max_parents=max_parents, low=-4.0)
            for scores in cache.scores:
                np.floor(scores, out=scores)
            table = best_parents_table(cache, prior)
            dag, total = most_probable_dag(table)
            oracle_dag, oracle_total = oracle_most_probable_dag(table, cache, prior)
            assert np.array_equal(dag.adjacency, oracle_dag.adjacency)
            assert total == oracle_total

    def test_dag_objective_rejects_other_nodes(self):
        cache = random_cache(3, np.random.default_rng(21))
        for nodes in [("x0", "x2", "x1"), ("x0", "x1", "y2"), ("x0", "x1")]:
            with pytest.raises(CacheMismatch, match="^DAG node set differs from cache$"):
                dag_objective(cache, Dag(nodes))

    def test_output_satisfies_constraints(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            cache = random_cache(5, rng, max_parents=2)
            table = best_parents_table(cache, StructuralPrior("koivisto"))
            dag, _ = most_probable_dag(table)
            assert find_cycle(dag.adjacency) is None
            assert cache.constraints.allows(dag)

    def test_relabeling_equivariance(self):
        # permuting node labels permutes the selected structure identically
        rng = np.random.default_rng(30)
        cache = random_cache(4, rng)
        prior = StructuralPrior("uninformative")
        dag, total = most_probable_dag(best_parents_table(cache, prior))

        perm = [2, 0, 3, 1]  # new index of each old node
        inv = np.argsort(perm)
        masks2, scores2 = [], []
        for new_i in range(4):
            old_i = int(inv[new_i])
            remapped = []
            for mask, row in zip(cache.masks[old_i], cache.scores[old_i]):
                new_mask = 0
                for j in range(4):
                    if int(mask) >> j & 1:
                        new_mask |= 1 << perm[j]
                remapped.append((new_mask, row))
            remapped.sort()
            masks2.append(np.array([m for m, _ in remapped], dtype=np.int64))
            scores2.append(np.vstack([r for _, r in remapped]))
        from abnkit.cache import ScoreCache

        cache2 = ScoreCache(
            nodes=cache.nodes, distributions=cache.distributions,
            method="bayes", fingerprint="test",
            constraints=cache.constraints, masks=tuple(masks2), scores=tuple(scores2),
        )
        dag2, total2 = most_probable_dag(best_parents_table(cache2, prior))
        assert total2 == pytest.approx(total, abs=1e-12)
        expected = np.zeros((4, 4), dtype=np.int8)
        for i in range(4):
            for j in range(4):
                expected[perm[i], perm[j]] = dag.adjacency[i, j]
        assert np.array_equal(dag2.adjacency, expected)

    def test_sweep_monotone_in_max_parents(self):
        ds = standardize(sample_asia_like(600, seed=5))
        totals = []
        for limit in range(1, 5):
            cache = build_cache(ds, ConstraintSet(ds.names, max_parents=limit))
            table = best_parents_table(cache, StructuralPrior("koivisto"))
            dag, _ = most_probable_dag(table)
            totals.append(cache.dag_score(dag))
        assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_planted_optimum_at_twenty_nodes(self):
        """A chosen DAG whose parent sets strictly win their nodes' entries is
        the unique optimum, whatever the other scores."""
        n = 20
        rng = np.random.default_rng(60)
        cache = random_cache(n, rng, max_parents=2)
        order = rng.permutation(n)
        planted = [0] * n
        for pos in range(1, n):
            parents = rng.choice(order[:pos], size=min(pos, int(rng.integers(0, 3))),
                                 replace=False)
            planted[order[pos]] = sum(1 << int(p) for p in parents)
        for i in range(n):
            # log C(19, 2) < 6 bounds the koivisto prior's spread over sizes
            row = int(np.flatnonzero(cache.masks[i] == planted[i])[0])
            cache.scores[i][row] = cache.scores[i].max() + 10.0
        prior = StructuralPrior("koivisto")
        dag, total = most_probable_dag(best_parents_table(cache, prior))
        assert dag.parent_masks() == planted
        assert total == dag_objective(cache, dag, prior)


class TestPipelineRecovery:
    def test_asia_like_skeleton_recovered(self):
        """End-to-end: 5000 samples of the toy lung-disease net, exact search
        at limit 4 recovers the seven strong edges (the rare-exposure arc is
        statistically invisible at this size)."""
        ds = sample_asia_like(5000, seed=42)
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=4))
        table = best_parents_table(cache, StructuralPrior("koivisto"))
        dag, _ = most_probable_dag(table)
        skel = {frozenset(arc) for arc in dag.arcs()}
        expected = {
            frozenset({"Smoking", "LungCancer"}),
            frozenset({"Smoking", "Bronchitis"}),
            frozenset({"Tuberculosis", "Either"}),
            frozenset({"LungCancer", "Either"}),
            frozenset({"Either", "XRay"}),
            frozenset({"Either", "Dyspnea"}),
            frozenset({"Bronchitis", "Dyspnea"}),
        }
        assert expected <= skel
        assert len(skel) <= len(expected) + 2
