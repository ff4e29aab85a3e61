from dataclasses import replace

import numpy as np
import pytest

import abnkit.bootstrap
from abnkit.bootstrap import (MAX_FAILURE_FRACTION, model_grid_posteriors, prune_by_support,
                              run_bootstrap)
from abnkit.cache import build_cache
from abnkit.dag import ConstraintSet, Dag, find_cycle
from abnkit.data import standardize
from abnkit.errors import AbnError, ConfigError, NodeSetMismatch
from abnkit.glm import fit_dag
from abnkit.heuristic import arc_frequency_matrix
from abnkit.simulate import SimSpec, simulate_data

from conftest import dag_from_arcs


@pytest.fixture(scope="module")
def small_model():
    """A sparse 3-node mixed model, its data, and its bayes fits."""
    dag = dag_from_arcs(("g", "b", "p"), (("g", "b"), ("b", "p")))
    spec = SimSpec(
        dag=dag,
        families={"g": "gaussian", "b": "binomial", "p": "poisson"},
        coefficients={"g": {"(Intercept)": 0.0},
                      "b": {"(Intercept)": -0.2, "g": 1.2},
                      "p": {"(Intercept)": 0.4, "b": 0.9}},
        sd={"g": 1.0},
        n_obs=341,
        seed=5,
    )
    ds = standardize(simulate_data(spec))
    fits = fit_dag(ds, dag, method="bayes")
    return dag, ds, fits


class TestSupportMatrix:
    def test_single_dag_is_its_adjacency(self, asia_dag):
        directed = arc_frequency_matrix([asia_dag])
        assert np.array_equal(directed, asia_dag.adjacency.astype(float))
        # no arc of a DAG has its reversal, so each undirected support is 1
        assert prune_by_support(asia_dag, directed, 1.0, mode="undirected") == asia_dag
        with pytest.raises(ConfigError, match="threshold must lie in"):
            prune_by_support(asia_dag, directed, 1.0 + 1e-9, mode="undirected")

    def test_opposite_arcs(self):
        a = dag_from_arcs(("x", "y"), (("x", "y"),))
        b = dag_from_arcs(("x", "y"), (("y", "x"),))
        directed = arc_frequency_matrix([a, b])
        assert directed[1, 0] == directed[0, 1] == 0.5
        # undirected support sums both directions: 0.5 + 0.5
        assert prune_by_support(a, directed, 0.5 + 1e-9, mode="directed").n_arcs == 0
        assert prune_by_support(a, directed, 1.0, mode="undirected") == a
        with pytest.raises(ConfigError, match="threshold must lie in"):
            prune_by_support(a, directed, 1.0 + 1e-9, mode="undirected")

    def test_mismatched_nodes(self, asia_dag):
        with pytest.raises(NodeSetMismatch):
            arc_frequency_matrix([asia_dag, Dag(("a", "b"))])

    def test_unknown_mode(self, asia_dag):
        with pytest.raises(ConfigError, match="unknown support mode 'bogus'"):
            prune_by_support(asia_dag, arc_frequency_matrix([asia_dag]), mode="bogus")


class TestPrune:
    def test_threshold_zero_keeps_original(self, asia_dag):
        support = np.zeros((8, 8))
        out = prune_by_support(asia_dag, support, threshold=0.0)
        assert out == asia_dag

    def test_threshold_outside_the_unit_interval_rejected(self, asia_dag):
        support = asia_dag.adjacency.astype(float)  # unanimous
        assert prune_by_support(asia_dag, support, threshold=1.0) == asia_dag
        for threshold in (1.0 + 1e-9, -1e-9, float("nan")):
            with pytest.raises(ConfigError, match="threshold must lie in"):
                prune_by_support(asia_dag, support, threshold=threshold)

    def test_monotone_in_threshold(self, asia_dag):
        rng = np.random.default_rng(0)
        support = rng.random((8, 8)) * asia_dag.adjacency
        previous = None
        for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
            pruned = prune_by_support(asia_dag, support, threshold=threshold)
            if previous is not None:
                assert np.all(pruned.adjacency <= previous.adjacency)
            previous = pruned

    def test_subset_of_original_and_acyclic(self, asia_dag):
        rng = np.random.default_rng(1)
        support = rng.random((8, 8))
        pruned = prune_by_support(asia_dag, support, threshold=0.5)
        assert np.all(pruned.adjacency <= asia_dag.adjacency)
        assert find_cycle(pruned.adjacency) is None

    def test_undirected_mode_credits_reversals(self):
        dag = dag_from_arcs(("x", "y"), (("x", "y"),))
        support = np.array([[0.0, 0.0], [0.0, 0.0]])
        support[0, 1] = 0.4  # reversed direction got 40%
        support[1, 0] = 0.3  # the original direction only 30%
        directed = prune_by_support(dag, support, 0.5, mode="directed")
        undirected = prune_by_support(dag, support, 0.5, mode="undirected")
        assert directed.n_arcs == 0
        assert undirected.n_arcs == 1


class TestRunBootstrap:
    def test_single_replicate_support_is_its_adjacency(self, small_model):
        dag, ds, fits = small_model
        report = run_bootstrap(fits, dag, ds, n_replicates=1, seed=3,
                               structural_prior="uninformative")
        assert set(np.unique(report.support)) <= {0.0, 1.0}
        assert np.array_equal(report.support, report.replicates[0][1].adjacency)

    def test_deterministic_under_seed(self, small_model):
        dag, ds, fits = small_model
        kwargs = dict(n_replicates=6, seed=11, structural_prior="uninformative")
        a = run_bootstrap(fits, dag, ds, **kwargs)
        b = run_bootstrap(fits, dag, ds, **kwargs)
        assert a.replicates == b.replicates
        assert np.array_equal(a.support, b.support)
        assert a.pruned == b.pruned

    def test_parallel_matches_serial(self, small_model):
        dag, ds, fits = small_model
        kwargs = dict(n_replicates=4, seed=13, structural_prior="uninformative")
        serial = run_bootstrap(fits, dag, ds, jobs=1, **kwargs)
        parallel = run_bootstrap(fits, dag, ds, jobs=2, **kwargs)
        assert np.array_equal(serial.support, parallel.support)
        assert serial.replicates == parallel.replicates

    @pytest.mark.parametrize(
        "error", [ValueError, np.linalg.LinAlgError, FloatingPointError, OverflowError]
    )
    def test_replicate_exception_is_a_failure(self, small_model, monkeypatch, error):
        """A replicate whose simulation raises is logged, not fatal."""
        dag, ds, fits = small_model
        calls = []

        def flaky_simulate(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise error("lam too large")
            return simulate_data(spec)

        monkeypatch.setattr(abnkit.bootstrap, "simulate_data", flaky_simulate)
        report = run_bootstrap(fits, dag, ds, n_replicates=20, seed=23,
                               structural_prior="uninformative")
        assert report.failures == ((1, f"{error.__name__}: lam too large"),)
        assert [k for k, _, _ in report.replicates] == [0, *range(2, 20)]

    def test_more_failures_than_the_fraction_abort(self, small_model, monkeypatch):
        dag, ds, fits = small_model
        calls = []

        def flaky_simulate(spec):
            calls.append(spec)
            if len(calls) in (2, 5):
                raise ValueError(f"draw {len(calls)}")
            return simulate_data(spec)

        monkeypatch.setattr(abnkit.bootstrap, "simulate_data", flaky_simulate)
        assert MAX_FAILURE_FRACTION * 20 < 2
        with pytest.raises(AbnError, match="^2/20 bootstrap replicates failed; "
                                           "first: ValueError: draw 2$"):
            run_bootstrap(fits, dag, ds, n_replicates=20, seed=23,
                          structural_prior="uninformative", jobs=1)

    def test_node_without_a_finite_score_is_a_failure(self, small_model, monkeypatch):
        dag, ds, fits = small_model
        calls = []

        def hopeless_p(replicate, *args, **kwargs):
            cache = build_cache(replicate, *args, **kwargs)
            calls.append(cache)
            if len(calls) != 2:
                return cache
            p = cache.nodes.index("p")  # replicate 1: every parent set of p scores -inf
            scores = tuple(np.full_like(s, -np.inf) if i == p else s
                           for i, s in enumerate(cache.scores))
            return replace(cache, scores=scores)

        monkeypatch.setattr(abnkit.bootstrap, "build_cache", hopeless_p)
        report = run_bootstrap(fits, dag, ds, n_replicates=20, seed=23,
                               structural_prior="uninformative", jobs=1)
        assert report.failures == (
            (1, "AbnError: node 'p' has -inf scores for every parent set"),)
        assert [k for k, _, _ in report.replicates] == [0, *range(2, 20)]

    def test_true_arcs_dominate_spurious(self, small_model):
        dag, ds, fits = small_model
        report = run_bootstrap(fits, dag, ds, n_replicates=200, seed=17,
                               structural_prior="uninformative", jobs=2)
        undirected = report.support + report.support.T
        true_vals = [undirected[dag.index(c), dag.index(p)] for p, c in dag.arcs()]
        spurious = undirected[(dag.adjacency + dag.adjacency.T) == 0]
        off_diag = spurious[~np.eye(3, dtype=bool)[(dag.adjacency + dag.adjacency.T) == 0]]
        assert np.median(true_vals) > np.median(off_diag)

    def test_constraints_propagate(self, small_model):
        from abnkit.formula import parse_formula

        dag, ds, fits = small_model
        banned = parse_formula("~g|.", ds.names)
        constraints = ConstraintSet(ds.names, banned=banned, max_parents=2)
        report = run_bootstrap(fits, dag, ds, constraints, n_replicates=5, seed=19,
                               structural_prior="uninformative")
        g_row = report.support[ds.names.index("g")]
        assert np.all(g_row == 0.0)

    @pytest.mark.parametrize("standardized", [False, True])
    def test_replicates_follow_the_standardisation(self, monkeypatch, standardized):
        """Replicates are standardised exactly when the original data are, so
        their scores sit on the original model's scale."""
        dag = dag_from_arcs(("g", "b"), (("g", "b"),))
        spec = SimSpec(
            dag=dag,
            families={"g": "gaussian", "b": "binomial"},
            coefficients={"g": {"(Intercept)": 50.0},
                          "b": {"(Intercept)": -2.5, "g": 0.05}},
            sd={"g": 10.0},
            n_obs=200,
            seed=8,
        )
        ds = simulate_data(spec)
        if standardized:
            ds = standardize(ds)
        fits = fit_dag(ds, dag, method="bayes")
        calls = []

        def spy(replicate):
            calls.append(replicate)
            return standardize(replicate)

        monkeypatch.setattr(abnkit.bootstrap, "standardize", spy)
        report = run_bootstrap(fits, dag, ds, n_replicates=3, seed=4,
                               structural_prior="uninformative", jobs=1)
        assert len(calls) == (3 if standardized else 0)
        total = sum(f.mlik for f in fits.values())
        assert all(abs(s - total) < 0.25 * abs(total) for _, _, s in report.replicates)

    @pytest.mark.parametrize("bad", [dict(structural_prior="bogus"), dict(mode="bogus")])
    def test_bad_options_fail_before_any_replicate(self, small_model, monkeypatch, bad):
        dag, ds, fits = small_model
        calls = []
        monkeypatch.setattr(abnkit.bootstrap, "build_cache",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(AbnError, match="unknown .* 'bogus'"):
            run_bootstrap(fits, dag, ds, n_replicates=3, seed=1, **bad)
        assert calls == []

    @pytest.mark.parametrize("threshold", [1.7, -3.0])
    def test_threshold_fails_before_any_replicate(self, small_model, monkeypatch, threshold):
        dag, ds, fits = small_model
        calls = []
        monkeypatch.setattr(abnkit.bootstrap, "build_cache",
                            lambda *args, **kwargs: calls.append(args))
        message = rf"^threshold must lie in \[0, 1\], got {threshold}$"
        with pytest.raises(ConfigError, match=message):
            run_bootstrap(fits, dag, ds, n_replicates=3, seed=1, threshold=threshold)
        assert calls == []

    def test_grid_posteriors_cover_all_parameters(self, small_model):
        dag, ds, fits = small_model
        grids = model_grid_posteriors(dag, fits)
        assert set(grids) == set(dag.nodes)
        assert [d.label for d in grids["g"]] == ["(Intercept)", "log_precision"]
        assert [d.label for d in grids["p"]] == ["(Intercept)", "b"]
