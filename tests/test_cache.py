import math
import operator
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abnkit.cache
import abnkit.glm
from abnkit.bootstrap import run_bootstrap
from abnkit.cache import (
    FIT_ERRORS,
    build_cache,
    cache_from_text,
    cache_to_text,
    enumerate_parent_sets,
    ordered_sum,
    parallel_map,
)
from abnkit.dag import ConstraintSet, Dag
from abnkit.data import Dataset, build_design, standardize
from abnkit.errors import (AbnError, CacheMismatch, ConfigError, FitError,
                           UnenumeratedParentSet)
from abnkit.exact import StructuralPrior, best_parents_table, most_probable_dag
from abnkit.formula import parse_formula
from abnkit.glm import fit_bayes_stack, fit_dag, fit_node, frequentist_scores
from abnkit.heuristic import HeuristicConfig, heuristic_search
from abnkit.simulate import SimSpec, simulate_dag, simulate_data

from conftest import (CASE_STUDY_ARCS, CASE_STUDY_DISTS, CASE_STUDY_NODES, dag_from_arcs,
                      gaussian_chain_dataset, mixed_dataset)


class TestEnumerate:
    def test_unconstrained_count_matches_binomial_sum(self):
        cons = ConstraintSet(tuple(f"x{i}" for i in range(8)), max_parents=4)
        masks = enumerate_parent_sets(0, cons)
        assert len(masks) == sum(math.comb(7, k) for k in range(5))  # 99
        assert masks == sorted(masks)
        assert len(set(masks)) == len(masks)

    def test_fully_banned_row_yields_empty_set_only(self):
        nodes = tuple(f"x{i}" for i in range(5))
        banned = parse_formula("~x0|.", nodes)
        cons = ConstraintSet(nodes, banned=banned, max_parents=3)
        assert enumerate_parent_sets(0, cons) == [0]
        # other nodes are unrestricted (x0 may still be their parent)
        assert len(enumerate_parent_sets(1, cons)) == sum(math.comb(4, k) for k in range(4))

    def test_retained_with_limit_one(self):
        nodes = ("a", "b", "c")
        retained = parse_formula("~a|b", nodes)
        cons = ConstraintSet(nodes, retained=retained, max_parents=1)
        masks = enumerate_parent_sets(0, cons)
        assert masks == [0b010]

    def test_retained_always_subset(self):
        nodes = tuple(f"x{i}" for i in range(6))
        retained = parse_formula("~x0|x3", nodes)
        cons = ConstraintSet(nodes, retained=retained, max_parents=3)
        for mask in enumerate_parent_sets(0, cons):
            assert mask & 0b001000

    def test_per_node_limits(self):
        nodes = ("a", "b", "c", "d")
        cons = ConstraintSet(nodes, max_parents=[0, 1, 2, 3])
        assert len(enumerate_parent_sets(0, cons)) == 1
        assert len(enumerate_parent_sets(1, cons)) == 4
        assert len(enumerate_parent_sets(2, cons)) == 7
        assert len(enumerate_parent_sets(3, cons)) == 8

    def test_monotone_in_max_parents(self):
        nodes = tuple(f"x{i}" for i in range(6))
        counts = []
        for limit in range(6):
            cons = ConstraintSet(nodes, max_parents=limit)
            counts.append(len(enumerate_parent_sets(0, cons)))
        assert counts == sorted(counts)
        assert counts[-1] == 2**5  # saturation at n-1 parents


class TestBuildCache:
    def test_scores_finite_and_decomposable(self):
        ds = standardize(gaussian_chain_dataset(120, 0))
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=2))
        assert cache.n_entries == 3 * 4  # C(2,0)+C(2,1)+C(2,2) per node
        dag = Dag(ds.names, np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        total = cache.dag_score(dag)
        parts = [cache.score(i, m) for i, m in enumerate(dag.parent_masks())]
        assert total == reduce(operator.add, parts, 0.0)  # left to right, on every Python

    def test_ordered_sum_adds_left_to_right(self):
        # a compensated sum (sum() from Python 3.12) gives 1.0
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        assert ordered_sum(iter([0.1, 0.2, 0.3])).hex() == ((0.1 + 0.2) + 0.3).hex()
        assert ordered_sum([]) == 0.0

    def test_mle_cache_has_four_scores(self):
        ds = mixed_dataset(80, 1)
        cache = build_cache(ds, method="mle")
        assert cache.score_types == ("loglik", "aic", "bic", "mdl")
        for i in range(3):
            vec_ll = cache.score_vector(i, "loglik")
            vec_aic = cache.score_vector(i, "aic")
            assert np.all(vec_ll >= vec_aic)

    def test_limit_zero_single_entry_per_node(self):
        ds = mixed_dataset(60, 2)
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=0))
        assert cache.n_entries == 3
        assert all(cache.masks[i].tolist() == [0] for i in range(3))

    def test_deterministic_rebuild(self):
        ds = mixed_dataset(90, 3)
        a = cache_to_text(build_cache(ds, ConstraintSet(ds.names, max_parents=2)))
        b = cache_to_text(build_cache(ds, ConstraintSet(ds.names, max_parents=2)))
        assert a == b

    def test_parallel_build_matches_serial(self):
        ds = mixed_dataset(70, 4)
        cons = ConstraintSet(ds.names, max_parents=2)
        serial = cache_to_text(build_cache(ds, cons, jobs=1))
        parallel = cache_to_text(build_cache(ds, cons, jobs=2))
        assert serial == parallel

    def test_single_task_runs_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one task")

        monkeypatch.setattr(abnkit.cache, "ProcessPoolExecutor", no_pool)
        assert parallel_map(math.hypot, (3.0,), [(4.0,)], jobs=4) == [5.0]
        assert parallel_map(math.hypot, (3.0,), [], jobs=4) == []

    @pytest.mark.parametrize("run", ["build_cache", "heuristic_search", "run_bootstrap"])
    def test_tasks_carry_no_shared_input(self, monkeypatch, run):
        """What a pool sends per task is the task's own indices and masks; the
        dataset, objective tables and grid posteriors go to each worker once,
        through the initializer, and the results are the serial ones."""
        sent = []

        class RecordingPool:
            """Runs in this process and keeps what a real pool would send."""

            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)
                sent.append(initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                sent.append(tasks)
                return map(fn, tasks)

        ds = mixed_dataset(60, 2)
        cons = ConstraintSet(ds.names, max_parents=2)
        cache = build_cache(ds, cons)
        dag = dag_from_arcs(ds.names, (("g", "b"), ("b", "p")))
        fits = fit_dag(ds, dag)
        calls = {
            "build_cache": lambda jobs: cache_to_text(build_cache(ds, cons, jobs=jobs)),
            "heuristic_search": lambda jobs: heuristic_search(
                cache, HeuristicConfig(restarts=3, seed=1), jobs=jobs),
            "run_bootstrap": lambda jobs: run_bootstrap(
                fits, dag, ds, n_replicates=3, seed=1, n_grid=50, jobs=jobs).support.tolist(),
        }
        serial = calls[run](1)
        monkeypatch.setattr(abnkit.cache, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(abnkit.cache, "_worker_call", None, raising=False)
        assert calls[run](2) == serial

        def leaves(item):
            if isinstance(item, (list, tuple)):
                for part in item:
                    yield from leaves(part)
            else:
                yield item

        (fn, shared), per_task = sent
        assert len(per_task) == 3  # nodes, restarts or replicates
        assert all(type(leaf) is int for leaf in leaves(per_task))
        assert fn.__name__ == {"build_cache": "_score_one_node",
                               "heuristic_search": "_run_restart",
                               "run_bootstrap": "_one_replicate"}[run]
        if run == "build_cache":
            assert shared[0] is ds
        else:  # the objective tables, or the grid posteriors of every node
            assert isinstance(shared[2], (list, dict)) and len(shared[2]) == 3

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match=f"need at least one worker process, got {jobs}"):
            parallel_map(math.hypot, (3.0,), [(4.0,)], jobs=jobs)
        with pytest.raises(ConfigError):
            build_cache(mixed_dataset(20, 1), jobs=jobs)

    def test_unenumerated_lookup_fails_loudly(self):
        ds = mixed_dataset(60, 5)
        nodes = ds.names
        banned = parse_formula("~g|b", nodes)
        cache = build_cache(ds, ConstraintSet(nodes, banned=banned, max_parents=2))
        banned_mask = 1 << nodes.index("b")
        with pytest.raises(UnenumeratedParentSet):
            cache.score(nodes.index("g"), banned_mask)

    @pytest.mark.parametrize("mask", [0, 0b0010, 0b1000, 0b1110, 0b10000],
                             ids=["below-0", "below-2", "between", "above-14", "above-16"])
    def test_lookup_outside_the_cached_masks_fails(self, mask):
        # a keeps c and may not have b: its sets are {c} (4) and {c,d} (12)
        ds = _overflow_dataset()
        cons = ConstraintSet(ds.names, banned=parse_formula("~a|b", ds.names),
                             retained=parse_formula("~a|c", ds.names), max_parents=2)
        cache = build_cache(ds, cons)
        assert cache.masks[0].tolist() == [0b0100, 0b1100]
        assert cache.score(0, 0b1100) == cache.scores[0][1, 0]
        with pytest.raises(UnenumeratedParentSet, match=f"parent set {mask:#x} of node 'a'"):
            cache.score(0, mask)

    def test_failed_fit_recorded_not_fatal(self):
        # magnitudes around 1e160 overflow the profiled variance: the node is
        # unscoreable, recorded as -inf, and the build completes anyway
        cols = np.column_stack([np.tile([0.0, 1e160], 20), np.tile([1e160, 0.0], 20)])
        ds = Dataset(names=("a", "b"), columns=cols,
                     distributions=("gaussian", "gaussian"))
        cache = build_cache(ds, method="mle")
        assert len(cache.diagnostics) > 0
        assert cache.score(0, 0, "loglik") == -np.inf

    def test_overflowing_residuals_are_named_in_the_diagnostic(self):
        # the start log(n / RSS) needs a finite RSS; 1e160 columns make it inf or NaN
        cache = build_cache(_overflow_dataset())
        words = {word for _, _, word in cache.diagnostics}
        assert not any("math domain error" in word for word in words)
        assert words == {f"FitError: node {name!r}: the residual sum of squares overflows"
                         for name in "abcd"}

    def test_overflowing_precision_is_not_a_crash(self):
        # huge ~ 1e40 * big: the precision of huge|{big} runs past exp's range,
        # which once raised OverflowError out of build_cache (28 of these seeds)
        for seed in range(40):
            g = np.random.default_rng(seed).normal(size=30)
            ds = Dataset(names=("big", "huge"), columns=np.column_stack([1e8 * g, 1e40 * g]),
                         distributions=("gaussian", "gaussian"))
            cache = build_cache(ds)
            noted = {(i, mask) for i, mask, _ in cache.diagnostics}
            for i, mask in ((0, 0), (0, 2), (1, 0), (1, 1)):
                score = cache.score(i, mask)
                assert math.isfinite(score) or (i, mask) in noted, (seed, i, mask)
            scores, notes = _fit_node_loop(ds, ConstraintSet(ds.names))
            assert sorted(cache.diagnostics) == sorted(notes)
            _assert_bit_equal(cache, scores)

    def test_pruned_fit_is_a_failed_entry(self):
        """A fit that drops a predictor scores the kept design, not the parent
        set: the entry is -inf with a ``pruned:`` note, so an exact search
        cannot pick the larger set for its smaller koivisto penalty."""
        rng = np.random.default_rng(4)
        a = rng.normal(size=300)
        y = (rng.random(300) < 1 / (1 + np.exp(-(0.2 + a)))).astype(float)
        nodes = ("a", "b", "y")
        ds = Dataset(names=nodes, columns=np.column_stack([a, a, y]),
                     distributions=("gaussian", "gaussian", "binomial"))
        cons = ConstraintSet(nodes, banned=parse_formula("~a|b:y + b|a:y", nodes),
                             max_parents=2)
        cache = build_cache(ds, cons, method="mle")
        both = 0b011
        assert cache.score(2, both) == -np.inf
        assert (2, both, "pruned:b") in cache.diagnostics
        assert cache_from_text(cache_to_text(cache)).diagnostics == cache.diagnostics
        table = best_parents_table(cache, StructuralPrior("koivisto"))
        dag, total = most_probable_dag(table)
        assert len(dag.parents("y")) == 1
        assert math.isfinite(total)


class TestFitStatus:
    """Finite entries from degraded fits carry a status note; failures are -inf."""

    @staticmethod
    def separated_dataset():
        # y is 1 exactly where x > 0: the MLE of y|{x} needs Firth's penalty
        x = np.linspace(-2.0, 2.0, 60)
        rng = np.random.default_rng(3)
        cols = np.column_stack([x, (x > 0).astype(float), rng.normal(size=60)])
        return Dataset(names=("x", "y", "z"), columns=cols,
                       distributions=("gaussian", "binomial", "gaussian"))

    def test_firth_entry_is_finite_and_noted(self):
        ds = self.separated_dataset()
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=1), method="mle")
        x_only = 0b001
        assert math.isfinite(cache.score(1, x_only, "bic"))
        assert (1, x_only, "firth") in cache.diagnostics
        assert cache.n_failed == 0
        assert cache_from_text(cache_to_text(cache)).diagnostics == cache.diagnostics

    def test_unconverged_entry_is_finite_and_noted(self, monkeypatch):
        # no Newton step: a fit ends at its start, far from the mode
        monkeypatch.setattr(abnkit.glm, "NEWTON_MAX_ITER", 0)
        ds = mixed_dataset(100, 6)
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=1))
        noted = {(node, mask) for node, mask, msg in cache.diagnostics if msg == "unconverged"}
        assert (1, 0b001) in noted and (2, 0b010) in noted  # b|{g}, p|{b}
        assert all(math.isfinite(cache.score(node, mask)) for node, mask in noted)
        assert cache.n_failed == 0

    def test_all_zero_poisson_response_is_a_failed_entry(self):
        cols = np.column_stack([np.zeros(30), np.arange(30, dtype=float)])
        ds = Dataset(names=("p", "g"), columns=cols, distributions=("poisson", "gaussian"))
        cache = build_cache(ds, method="mle")
        assert cache.score(0, 0, "loglik") == -np.inf
        assert (0, 0, "_Diverged: all-zero poisson response") in cache.diagnostics
        # p|{}, p|{g} and the pruned g|{p}, whose all-zero parent is collinear
        # with the intercept; g|{} stays finite
        assert cache.n_failed == 3
        assert math.isfinite(cache.score(1, 0, "bic"))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        ds = mixed_dataset(100, 6)
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=2))
        text = cache_to_text(cache)
        back = cache_from_text(text)
        assert back.nodes == cache.nodes
        assert back.fingerprint == cache.fingerprint
        for i in range(cache.n_nodes):
            assert np.array_equal(back.masks[i], cache.masks[i])
            assert np.array_equal(back.scores[i], cache.scores[i])
        assert cache_to_text(back) == text

    def test_fingerprint_guard(self):
        ds = mixed_dataset(100, 7)
        other = mixed_dataset(100, 8)
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=1))
        cache.check_dataset(ds)
        with pytest.raises(CacheMismatch):
            cache.check_dataset(other)

    def test_rejects_garbage(self):
        with pytest.raises(CacheMismatch):
            cache_from_text("not a cache\n")

    def test_non_finite_scores_rejected_except_neg_inf(self):
        ds = mixed_dataset(100, 6)
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=1))
        lines = cache_to_text(cache).splitlines()
        body = [k for k, line in enumerate(lines) if line[:1].isdigit()]

        def with_score(k, value):
            edited = list(lines)
            edited[k] = edited[k].rpartition("\t")[0] + "\t" + value
            return "\n".join(edited) + "\n"

        for k, bad in ((body[1], "nan"), (body[2], "inf")):
            with pytest.raises(CacheMismatch):
                cache_from_text(with_score(k, bad))
        assert cache_from_text(with_score(body[1], "-inf")).scores[0][1, 0] == -np.inf

    def test_diagnostics_survive_round_trip(self):
        cols = np.column_stack([np.zeros(30), np.arange(30, dtype=float)])
        ds = Dataset(names=("p", "g"), columns=cols,
                     distributions=("poisson", "gaussian"))
        cache = build_cache(ds, method="mle")
        back = cache_from_text(cache_to_text(cache))
        assert back.diagnostics == cache.diagnostics


def _wide_dataset(n_nodes: int) -> Dataset:
    """40 gaussian columns, then binomial ones, n = 30."""
    rng = np.random.default_rng(n_nodes)
    cols = np.column_stack([rng.normal(size=(30, 40)),
                            rng.integers(0, 2, size=(30, n_nodes - 40))]).astype(float)
    return Dataset(names=tuple(f"v{j}" for j in range(n_nodes)), columns=cols,
                   distributions=("gaussian",) * 40 + ("binomial",) * (n_nodes - 40))


class TestNodeLimit:
    """Parent sets are int64 bitmasks, so a cache holds at most 63 nodes."""

    @pytest.fixture(scope="class")
    def text63(self):
        ds = _wide_dataset(63)
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=1))
        assert cache.n_entries == 63 * 63
        return cache_to_text(cache)

    def test_sixty_three_nodes_build_and_round_trip(self, text63):
        back = cache_from_text(text63)
        assert back.n_nodes == 63 and cache_to_text(back) == text63

    def test_sixty_four_nodes_rejected_before_the_first_fit(self, monkeypatch):
        def never(*args):
            raise AssertionError("a fit ran before the node-count check")

        monkeypatch.setattr(abnkit.cache, "_score_one_node", never)
        ds = _wide_dataset(64)
        with pytest.raises(AbnError, match="at most 63 nodes, got 64"):
            build_cache(ds, ConstraintSet(ds.names, max_parents=1))

    def test_sixty_four_node_header_rejected(self, text63):
        widened = {"nodes": ",v63", "distributions": ",gaussian", "max_parents": ",1"}
        lines = [line + widened.get(line.partition("=")[0], "")
                 for line in text63.splitlines()]
        with pytest.raises(CacheMismatch, match="names 64 nodes"):
            cache_from_text("\n".join(lines) + "\n")


def _overflow_dataset():
    """Four gaussian columns; fits involving the 1e160 columns a and b fail,
    so the cache mixes finite and -inf entries with diagnostics."""
    rng = np.random.default_rng(0)
    cols = np.column_stack([np.tile([0.0, 1e160], 20), np.tile([1e160, 0.0], 20),
                            rng.normal(size=40), rng.normal(size=40)])
    return Dataset(names=("a", "b", "c", "d"), columns=cols,
                   distributions=("gaussian",) * 4)


def _hard_dataset(n_obs: int, seed: int) -> Dataset:
    """Mixed nodes whose names sort in another order than their columns: a
    binomial child that g separates completely, an all-zero poisson child,
    and adup, a copy of g, so that a design holding both is singular."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n_obs)
    cols = np.column_stack([
        (g > 0).astype(float),
        g,
        np.zeros(n_obs),
        rng.poisson(np.exp(0.2 + 0.5 * g)).astype(float),
        g.copy(),
        (rng.random(n_obs) < 1.0 / (1.0 + np.exp(0.8 * g - 0.3))).astype(float),
    ])
    return Dataset(names=("zsep", "g", "m0", "cnt", "adup", "b2"), columns=cols,
                   distributions=("binomial", "gaussian", "poisson", "poisson",
                                  "gaussian", "binomial"))


def _mask_names(ds: Dataset, mask: int) -> list[str]:
    return [name for j, name in enumerate(ds.names) if mask >> j & 1]


def _fit_node_loop(ds: Dataset, cons: ConstraintSet, nodes=None):
    """The bayes scores and notes of one fit_node call per parent set, of
    every node or of those in ``nodes``."""
    scores, notes = {}, []
    for i in range(len(ds.names)) if nodes is None else nodes:
        for mask in enumerate_parent_sets(i, cons):
            try:
                fit = fit_node(build_design(ds, ds.names[i], _mask_names(ds, mask)))
            except FIT_ERRORS as exc:
                scores[i, mask] = -np.inf
                notes.append((i, mask, f"{type(exc).__name__}: {exc}"))
                continue
            if math.isfinite(fit.mlik):
                scores[i, mask] = fit.mlik
                notes.extend((i, mask, word) for word in fit.status())
            else:
                scores[i, mask] = -np.inf
                notes.append((i, mask, "non-finite score"))
    return scores, notes


def _mle_fit_node_loop(ds: Dataset, cons: ConstraintSet):
    """The MLE scores and notes of one fit_node call and its
    frequentist_scores per parent set."""
    scores, notes = {}, []
    for i in range(len(ds.names)):
        for mask in enumerate_parent_sets(i, cons):
            scores[i, mask] = (-np.inf,) * 4
            try:
                fit = fit_node(build_design(ds, ds.names[i], _mask_names(ds, mask)), "mle")
            except FIT_ERRORS as exc:
                notes.append((i, mask, f"{type(exc).__name__}: {exc}"))
                continue
            if fit.dropped_predictors:
                notes.append((i, mask, fit.status()[0]))
                continue
            fs = frequentist_scores(fit, ds.n_obs, len(ds.names) - 1)
            values = (fs.loglik, fs.aic, fs.bic, fs.mdl)
            if all(map(math.isfinite, values)):
                scores[i, mask] = values
                notes.extend((i, mask, word) for word in fit.status())
            else:
                notes.append((i, mask, "non-finite score"))
    return scores, notes


def _assert_bit_equal(cache, scores):
    """Each cached score is the fit_node loop's, to the last bit."""
    for (i, mask), want in scores.items():
        assert cache.score(i, mask).hex() == float(want).hex(), (i, mask)


def _assert_mle_bit_equal(cache, scores):
    """Each cached MLE score of every type is the fit_node loop's, to the
    last bit."""
    for (i, mask), want in scores.items():
        got = [cache.score(i, mask, st) for st in cache.score_types]
        assert [v.hex() for v in got] == [float(v).hex() for v in want], (i, mask)


def _case_study_data(n_obs: int, seed: int) -> Dataset:
    """Standardized data in the pig-growth case study's layout: five binomial
    nodes, one poisson and two gaussian (age, adg) on its ten arcs."""
    dag = dag_from_arcs(CASE_STUDY_NODES, CASE_STUDY_ARCS)
    coefficients = {node: {"(Intercept)": 0.1, **{p: 0.7 for p in dag.parents(node)}}
                    for node in dag.nodes}
    sd = {node: 1.0 for node, family in CASE_STUDY_DISTS.items() if family == "gaussian"}
    return standardize(simulate_data(SimSpec(dag=dag, families=dict(CASE_STUDY_DISTS),
                                             coefficients=coefficients, sd=sd,
                                             n_obs=n_obs, seed=seed)))


def _criterion7_data(n_obs: int, seed: int) -> Dataset:
    """Standardized data of acceptance criterion 7's ten-node network, whose
    families cycle gaussian, binomial, poisson."""
    rng = np.random.default_rng(2024)
    dag = simulate_dag(10, 0.25, seed=77)
    families = {node: ("gaussian", "binomial", "poisson")[i % 3]
                for i, node in enumerate(dag.nodes)}
    coefficients = {node: {"(Intercept)": 0.1, **{
        p: float(rng.uniform(0.6, 1.2) * rng.choice([-1, 1])) for p in dag.parents(node)}}
        for node in dag.nodes}
    sd = {node: 1.0 for node, family in families.items() if family == "gaussian"}
    return standardize(simulate_data(SimSpec(dag=dag, families=families,
                                             coefficients=coefficients, sd=sd,
                                             n_obs=n_obs, seed=seed)))


def _gaussian_edge_dataset() -> Dataset:
    """Gaussian nodes at the edges of the gaussian fit: dup copies g, near is
    3g plus 1e-6 noise (R^2 > 1 - 1e-10 on g), the 1e160 column wild
    overflows the residual sum of squares, and big and big2, 1e100 g and
    2e100 g, make singular starts, unconverged fits and curvatures that are
    not positive definite, each in a stack with finite fits."""
    rng = np.random.default_rng(5)
    g = rng.normal(size=40)
    cols = np.column_stack([g, g.copy(), 3.0 * g + 1e-6 * rng.normal(size=40),
                            np.tile([0.0, 1e160], 20), 1e100 * g, 2e100 * g,
                            rng.normal(size=40)])
    return Dataset(names=("g", "dup", "near", "wild", "big", "big2", "z"), columns=cols,
                   distributions=("gaussian",) * 7)


def _degraded_dataset(n_obs: int, seed: int) -> Dataset:
    """Mixed nodes whose bayes fits degrade: g separates zsep, so some of its
    fits stop unconverged, and the 1e160 column wild makes the binomial and
    poisson fits that hold it non-finite and the gaussian fits fail."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n_obs)
    cols = np.column_stack([(g > 0).astype(float), g * 1e40, np.tile([0.0, 1e160], n_obs // 2),
                            rng.poisson(np.exp(0.2 + 0.5 * g)).astype(float),
                            (rng.random(n_obs) < 0.1).astype(float)])
    return Dataset(names=("zsep", "huge", "wild", "cnt", "rare"), columns=cols,
                   distributions=("binomial", "gaussian", "gaussian", "poisson", "binomial"))


@st.composite
def _gaussian_heavy_datasets(draw):
    """Small datasets with at least two gaussian nodes at scales from 1e-150
    to 1e150, some exact or near multiples of another gaussian column, some
    constant, and maybe a binomial node."""
    n_obs = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["normal", "normal", *draw(st.lists(
        st.sampled_from(["normal", "copy", "near", "constant", "binomial"]), max_size=3))]
    cols, dists = [], []
    for kind in kinds:
        scale = 10.0 ** draw(st.integers(-150, 150))
        gaussian = [c for c, d in zip(cols, dists) if d == "gaussian"]
        if kind == "binomial":
            cols.append((rng.random(n_obs) < 0.5).astype(float))
        elif kind == "constant":
            cols.append(np.full(n_obs, scale * rng.normal()))
        elif kind == "normal":
            cols.append(scale * rng.normal(size=n_obs))
        else:  # an exact or a near multiple of an earlier gaussian column
            base = gaussian[draw(st.integers(0, len(gaussian) - 1))]
            col = base * 10.0 ** draw(st.integers(-5, 5))
            if kind == "near":
                col = col + 1e-8 * np.abs(col).max() * rng.normal(size=n_obs)
            cols.append(col)
        dists.append("binomial" if kind == "binomial" else "gaussian")
    return Dataset(names=tuple(f"v{k}" for k in range(len(cols))),
                   columns=np.column_stack(cols), distributions=tuple(dists))


@st.composite
def _extreme_mixed_datasets(draw):
    """A four-column dataset and a DAG on it.  The first column is gaussian;
    each other is gaussian, binomial or poisson, or an extreme of these: a
    binomial column that separates on an earlier column, an all-zero count,
    counts up to 1e15."""
    n_obs = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols, dists = [10.0 ** draw(st.integers(-8, 8)) * rng.normal(size=n_obs)], ["gaussian"]
    kinds = ["gaussian", "binomial", "separated", "poisson", "zeros", "huge"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=3, max_size=3)):
        if kind == "gaussian":
            col = 10.0 ** draw(st.integers(-8, 8)) * rng.normal(size=n_obs)
        elif kind == "binomial":
            col = (rng.random(n_obs) < draw(st.floats(0, 1))).astype(float)
        elif kind == "separated":  # an earlier column above its median
            base = cols[draw(st.integers(0, len(cols) - 1))]
            col = (base > np.median(base)).astype(float)
        elif kind == "poisson":
            col = rng.poisson(draw(st.floats(0.1, 20)), size=n_obs).astype(float)
        elif kind == "zeros":
            col = np.zeros(n_obs)
        else:
            top = 10 ** draw(st.integers(1, 15))
            col = rng.integers(0, top, size=n_obs, endpoint=True).astype(float)
        cols.append(col)
        dists.append({"separated": "binomial", "zeros": "poisson", "huge": "poisson"}.get(
            kind, kind))
    names = ("v0", "v1", "v2", "v3")
    adjacency = np.zeros((4, 4), dtype=np.int8)
    adjacency[np.tril_indices(4, -1)] = draw(st.lists(st.booleans(), min_size=6, max_size=6))
    return (Dataset(names=names, columns=np.column_stack(cols), distributions=tuple(dists)),
            Dag(names, adjacency))


class TestExtremeData:
    @settings(max_examples=40, deadline=None)
    @given(_extreme_mixed_datasets())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_caches_and_fit_dag_never_crash(self, case):
        """Bayes and MLE caches of any valid data hold a finite score or a
        noted -inf in every entry, and fit_dag raises nothing but FitError."""
        ds, dag = case
        for method in ("bayes", "mle"):
            cache = build_cache(ds, ConstraintSet(ds.names, max_parents=3), method=method)
            noted = {(i, mask) for i, mask, _ in cache.diagnostics}
            for i, masks in enumerate(cache.masks):
                for mask, row in zip(masks.tolist(), cache.scores[i]):
                    assert np.all(np.isfinite(row)) or (
                        np.all(row == -np.inf) and (i, mask) in noted), (method, i, mask)
            try:
                fit_dag(ds, dag, method=method)
            except FitError:
                pass

    @settings(max_examples=40, deadline=None)
    @given(_extreme_mixed_datasets())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mle_caches_are_fit_nodes(self, case):
        """Separated, all-zero and 1e15-count members share MLE stacks with
        clean ones, in whole layers and in stacks of 2; every entry's scores
        and notes are one fit_node call's."""
        ds, _ = case
        cons = ConstraintSet(ds.names, max_parents=3)
        scores, notes = _mle_fit_node_loop(ds, cons)
        for cells in (abnkit.cache.STACK_MAX_CELLS, 8 * ds.n_obs):
            with mock.patch.object(abnkit.cache, "STACK_MAX_CELLS", cells):
                cache = build_cache(ds, cons, method="mle")
            assert sorted(cache.diagnostics) == sorted(notes), cells
            _assert_mle_bit_equal(cache, scores)


class TestStackedScoring:
    """A node's parent sets, of either method and every family, are fitted
    per cardinality in stacks of up to STACK_MAX_CELLS design numbers, laid
    out by data.design_stack as build_design lays out each one; each score
    is fit_node's to the last bit, and each note is fit_node's."""

    @pytest.mark.parametrize("pairs", [False, True], ids=["whole-layers", "stacks-of-2"])
    @pytest.mark.parametrize("n_obs", [30, 341])
    def test_scores_and_notes_are_fit_nodes(self, monkeypatch, n_obs, pairs):
        if pairs:  # the 2- and 3-parent layers split into stacks of 2
            monkeypatch.setattr(abnkit.cache, "STACK_MAX_CELLS", 8 * n_obs)
        ds = _hard_dataset(n_obs, n_obs)
        cons = ConstraintSet(ds.names, max_parents=3)
        cache = build_cache(ds, cons)
        scores, notes = _fit_node_loop(ds, cons)
        assert sorted(cache.diagnostics) == sorted(notes)
        _assert_bit_equal(cache, scores)

    @pytest.mark.parametrize("pairs", [False, True], ids=["whole-layers", "stacks-of-2"])
    @pytest.mark.parametrize("n_obs", [30, 341])
    def test_mle_scores_and_notes_are_fit_nodes(self, monkeypatch, n_obs, pairs):
        # separated, all-zero, singular and rank-deficient members of an MLE
        # stack are fitted again by fit_node, which adds Firth and pruning
        if pairs:
            monkeypatch.setattr(abnkit.cache, "STACK_MAX_CELLS", 8 * n_obs)
        ds = _hard_dataset(n_obs, n_obs)
        cons = ConstraintSet(ds.names, max_parents=3)
        cache = build_cache(ds, cons, method="mle")
        scores, notes = _mle_fit_node_loop(ds, cons)
        assert sorted(cache.diagnostics) == sorted(notes)
        kinds = {word.partition(":")[0] for _, _, word in notes}
        assert {"firth", "pruned", "_Diverged"} <= kinds, kinds
        _assert_mle_bit_equal(cache, scores)

    @pytest.mark.parametrize("pairs", [False, True], ids=["whole-layers", "stacks-of-2"])
    @pytest.mark.parametrize("data", [
        lambda: _case_study_data(341, 1),
        lambda: _case_study_data(341, 2),
        lambda: _case_study_data(341, 3),
        lambda: _criterion7_data(1000, 1),
    ], ids=["case-study-341-s1", "case-study-341-s2", "case-study-341-s3", "criterion7-1000"])
    def test_clean_mle_stacks_never_reach_fit_node(self, monkeypatch, data, pairs):
        # every fit of clean data is clean, so each is its stack's own and
        # no family calls fit_node
        ds = data()
        if pairs:
            monkeypatch.setattr(abnkit.cache, "STACK_MAX_CELLS", 8 * ds.n_obs)
        families = []

        def counted(design, method):
            families.append(design.family)
            return fit_node(design, method)

        monkeypatch.setattr(abnkit.cache, "fit_node", counted)
        cons = ConstraintSet(ds.names, max_parents=3)
        cache = build_cache(ds, cons, method="mle")
        scores, notes = _mle_fit_node_loop(ds, cons)
        assert notes == [] and cache.diagnostics == ()
        _assert_mle_bit_equal(cache, scores)
        assert "gaussian" in ds.distributions and families == []

    @pytest.mark.parametrize("pairs", [False, True], ids=["whole-layers", "stacks-of-2"])
    @pytest.mark.parametrize("data", [
        lambda: _case_study_data(341, 1),
        lambda: _case_study_data(341, 2),
        lambda: _case_study_data(341, 3),
        lambda: _criterion7_data(1000, 1),
    ], ids=["case-study-341-s1", "case-study-341-s2", "case-study-341-s3", "criterion7-1000"])
    def test_gaussian_scores_are_fit_nodes(self, monkeypatch, data, pairs):
        ds = data()
        if pairs:
            monkeypatch.setattr(abnkit.cache, "STACK_MAX_CELLS", 8 * ds.n_obs)
        cons = ConstraintSet(ds.names, max_parents=3)
        cache = build_cache(ds, cons)
        gaussian = [i for i, family in enumerate(ds.distributions) if family == "gaussian"]
        scores, notes = _fit_node_loop(ds, cons, gaussian)
        assert notes == [] and not any(i in gaussian for i, _, _ in cache.diagnostics)
        _assert_bit_equal(cache, scores)

    def test_gaussian_edge_cases_are_fit_nodes(self, monkeypatch):
        # each stacked fit that failed or did not converge, and no other, is
        # fitted again by one fit_node call
        degraded, refits = [], []

        def stacked(*args):
            fits = fit_bayes_stack(*args)
            degraded.extend(e is not None or not c for e, c in zip(fits.errors, fits.converged))
            return fits

        def refit(design, method):
            refits.append(method)
            return fit_node(design, method)

        monkeypatch.setattr(abnkit.cache, "fit_bayes_stack", stacked)
        monkeypatch.setattr(abnkit.cache, "fit_node", refit)
        ds = _gaussian_edge_dataset()
        cons = ConstraintSet(ds.names, max_parents=2)
        cache = build_cache(ds, cons)
        assert refits == ["bayes"] * sum(degraded) and 0 < len(refits) < len(degraded)
        scores, notes = _fit_node_loop(ds, cons)
        assert sorted(cache.diagnostics) == sorted(notes)
        _assert_bit_equal(cache, scores)
        assert {word.partition(":")[0] for _, _, word in notes} == {
            "unconverged", "FitError", "NonPositiveDefiniteHessian", "_Diverged"}
        assert (0, 8, "FitError: node 'g': the residual sum of squares overflows") in notes
        assert (0, 48, "_Diverged: node 'g': singular start") in notes
        tame = 0b1000111  # g, dup, near and z: their fits among themselves are finite
        for (i, mask), score in scores.items():
            assert math.isfinite(score) or not (tame >> i & 1 and mask & tame == mask), (i, mask)

    def test_degraded_fits_are_fit_nodes(self):
        # each stacked fit's own result is its entry: unconverged fits keep
        # their score and note, non-finite evidences are -inf, and a gaussian
        # fit whose residuals overflow fails in a stack of finite fits
        ds = _degraded_dataset(30, 3)
        cons = ConstraintSet(ds.names, max_parents=2)
        cache = build_cache(ds, cons)
        scores, notes = _fit_node_loop(ds, cons)
        assert sorted(cache.diagnostics) == sorted(notes)
        overflow = "FitError: node {!r}: the residual sum of squares overflows"
        assert {word for _, _, word in notes} == {
            "unconverged", "non-finite score", overflow.format("huge"), overflow.format("wild")}
        assert any(math.isfinite(scores[1, mask]) for mask in (1, 8, 16))  # huge's finite fits
        _assert_bit_equal(cache, scores)

    def test_stack_as_wide_as_its_designs(self):
        # the 3-parent layer of a 5-node dataset stacks B = 4 designs of
        # width p = 4, where a (B, p) right-hand side of np.linalg.solve
        # would be solved as one matrix
        rng = np.random.default_rng(8)
        g = rng.normal(size=(120, 2))
        eta = 0.4 + g @ [0.7, -0.5]
        cols = np.column_stack([
            g, (rng.random(120) < 1.0 / (1.0 + np.exp(-eta))).astype(float),
            rng.poisson(np.exp(0.3 * eta)), (rng.random(120) < 0.3).astype(float)])
        ds = Dataset(names=("g1", "g2", "b", "p", "c"), columns=cols,
                     distributions=("gaussian", "gaussian", "binomial", "poisson",
                                    "binomial"))
        cons = ConstraintSet(ds.names, max_parents=3)
        cache = build_cache(ds, cons)
        scores, notes = _fit_node_loop(ds, cons)
        assert notes == [] and cache.diagnostics == ()
        for i in range(5):
            assert len([m for m in enumerate_parent_sets(i, cons) if m.bit_count() == 3]) == 4
        _assert_bit_equal(cache, scores)

    @pytest.mark.parametrize("method", ["bayes", "mle"])
    @pytest.mark.parametrize("n_obs", [200, 5000],
                             ids=["one-stack-per-layer", "several-stacks-per-layer"])
    def test_text_identical_across_jobs(self, n_obs, method):
        ds = _hard_dataset(n_obs, 9)
        cons = ConstraintSet(ds.names, max_parents=2)
        serial = cache_to_text(build_cache(ds, cons, method=method, jobs=1))
        assert serial == cache_to_text(build_cache(ds, cons, method=method, jobs=2))

    @settings(max_examples=40, deadline=None)
    @given(_gaussian_heavy_datasets())
    # found by this test while a gaussian precision could overflow math.exp
    # and crash build_cache: three rows, where some fits leave no residual
    @example(Dataset(names=("v0", "v1", "v2"),
                     columns=np.array([[-0.24, 3.3e99, 0.0], [0.023, -1.7e100, 1.0],
                                       [-0.19, -1.2e100, 1.0]]),
                     distributions=("gaussian", "gaussian", "binomial")))
    @example(Dataset(names=("v0", "v1", "v2"),
                     columns=np.array([[0.68, -0.4, -8.7e99], [0.13, 2.5, 7.7e99],
                                       [1.2, 0.42, -1.1e98]]),
                     distributions=("gaussian",) * 3))
    def test_gaussian_heavy_caches_are_fit_nodes(self, ds):
        cons = ConstraintSet(ds.names, max_parents=2)
        cache = build_cache(ds, cons)
        scores, notes = _fit_node_loop(ds, cons)
        assert sorted(cache.diagnostics) == sorted(notes)
        noted = {(i, mask) for i, mask, _ in notes}
        for (i, mask), score in scores.items():
            assert math.isfinite(score) or (score == -np.inf and (i, mask) in noted)
        _assert_bit_equal(cache, scores)


class TestRestrict:
    @pytest.mark.parametrize("ban, retain, limit", [
        (None, None, 1),
        ("~c|a + d|b:c", None, 3),
        (None, "~c|d + a|b", 3),
        ("~d|a", "~c|b", 2),
        (None, None, 0),
    ])
    def test_restrict_equals_direct_build(self, ban, retain, limit):
        ds = _overflow_dataset()
        nodes = ds.names
        tight = ConstraintSet(
            nodes,
            banned=parse_formula(ban, nodes) if ban else None,
            retained=parse_formula(retain, nodes) if retain else None,
            max_parents=limit,
        )
        direct = build_cache(ds, tight)
        restricted = build_cache(ds).restrict(tight)
        assert restricted.constraints == direct.constraints
        for i in range(len(nodes)):
            assert np.array_equal(restricted.masks[i], direct.masks[i])
            assert np.array_equal(restricted.scores[i], direct.scores[i])
        assert restricted.diagnostics == direct.diagnostics
        assert cache_to_text(restricted) == cache_to_text(direct)
        assert any(np.any(block == -np.inf) for block in direct.scores)

    def test_looser_constraints_raise(self):
        ds = mixed_dataset(60, 9)
        nodes = ds.names
        banned = parse_formula("~b|g", nodes)
        cache = build_cache(ds, ConstraintSet(nodes, banned=banned, max_parents=1))
        with pytest.raises(CacheMismatch, match=r"node 'g' with parents \{b,p\}"):
            cache.restrict(ConstraintSet(nodes, banned=banned, max_parents=2))
        with pytest.raises(CacheMismatch, match=r"node 'b' with parents \{g\}"):
            cache.restrict(ConstraintSet(nodes, max_parents=1))
        with pytest.raises(CacheMismatch):
            cache.restrict(ConstraintSet(("x", "y", "z")))

    @pytest.mark.parametrize("ban, missing", [("~a|b", "{b}"), ("~a|d", "{b,c}")],
                             ids=["between", "above-the-largest"])
    def test_names_the_first_missing_set(self, ban, missing):
        # a's cached sets are {}, {c}, {d} (a hole at {b}) or {}, {b}, {c}
        # (the wanted {b,c} lies above them), and a's larger sets are missing too
        ds = _overflow_dataset()
        nodes = ds.names
        cache = build_cache(ds, ConstraintSet(nodes, banned=parse_formula(ban, nodes),
                                              max_parents=1))
        with pytest.raises(CacheMismatch, match=f"node 'a' with parents \\{missing}; "):
            cache.restrict(ConstraintSet(nodes, max_parents=2))


class TestMalformedText:
    @pytest.fixture(scope="class")
    def lines(self):
        ds = mixed_dataset(60, 10)
        return cache_to_text(build_cache(ds, ConstraintSet(ds.names, max_parents=1))).splitlines()

    @pytest.mark.parametrize("edit", [
        lambda line: "7" + line[1:],                    # unknown node index
        lambda line: "-1" + line[1:],                   # negative node index
        lambda line: line + "\textra",                  # five fields
        lambda line: line.rpartition("\t")[0],          # three fields
        lambda line: "x" + line[1:],                    # non-integer node
        lambda line: line.replace("\t", "\t0x", 1),     # non-integer mask
        lambda line: line.replace("\t", "\t64", 1),     # mask beyond the nodes
        lambda line: line.rpartition("\t")[0] + "\tbig",  # non-numeric score
        lambda line: line + "\n" + line.rpartition("\t")[0] + "\t12.5",  # a second score
    ])
    def test_bad_body_line(self, lines, edit):
        body = next(k for k, line in enumerate(lines) if line[:1].isdigit())
        edited = list(lines)
        edited[body] = edit(lines[body])
        with pytest.raises(CacheMismatch):
            cache_from_text("\n".join(edited) + "\n")

    @pytest.mark.parametrize("key", ["nodes", "score_types", "max_parents", "banned"])
    def test_missing_header_key(self, lines, key):
        edited = [line for line in lines if not line.startswith(key + "=")]
        with pytest.raises(CacheMismatch, match=key):
            cache_from_text("\n".join(edited) + "\n")

    @pytest.mark.parametrize("old, new, key", [
        ("method=bayes", "method=foo", "method"),
        ("score_types=mlik", "score_types=bic", "score_types"),
        ("distributions=gaussian,binomial,poisson", "distributions=gaussian,binomial",
         "distributions"),
        ("distributions=gaussian,binomial,poisson", "distributions=gaussian,binomial,weibull",
         "distributions"),
    ], ids=["unknown-method", "score-types-of-other-method", "too-few-distributions",
            "unknown-family"])
    def test_bad_header_value(self, lines, old, new, key):
        assert old in lines
        edited = [new if line == old else line for line in lines]
        with pytest.raises(CacheMismatch, match=f"cache header {key}="):
            cache_from_text("\n".join(edited) + "\n")

    def test_non_integer_max_parents(self, lines):
        edited = [line.replace("max_parents=1,", "max_parents=one,") for line in lines]
        with pytest.raises(CacheMismatch, match="max_parents"):
            cache_from_text("\n".join(edited) + "\n")

    def test_unknown_score_type(self, lines):
        edited = [line.replace("\tmlik\t", "\tmlk\t") if line.startswith("1\t0\t") else line
                  for line in lines]
        assert edited != lines
        with pytest.raises(CacheMismatch, match="'mlk'"):
            cache_from_text("\n".join(edited) + "\n")

    def test_entry_lacking_a_score_type(self):
        ds = mixed_dataset(60, 10)
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=1), method="mle")
        lines = cache_to_text(cache).splitlines()
        entry = [k for k, line in enumerate(lines) if line.startswith("1\t0\t")]
        assert len(entry) == 4
        del lines[entry[2]]  # node 1's empty-set bic line
        with pytest.raises(CacheMismatch, match="lacks score types bic"):
            cache_from_text("\n".join(lines) + "\n")

    def test_bad_diagnostic_line(self, lines):
        with pytest.raises(CacheMismatch):
            cache_from_text("\n".join([*lines, "# diag\t9\t0\tboom"]) + "\n")

    def test_blank_body_line_is_skipped(self, lines):
        body = next(k for k, line in enumerate(lines) if line[:1].isdigit())
        text = "\n".join(lines) + "\n"
        blank = "\n".join([*lines[:body + 1], "", "  ", *lines[body + 1:]]) + "\n"
        assert cache_to_text(cache_from_text(blank)) == text
