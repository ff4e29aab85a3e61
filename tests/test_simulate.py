import json
import math

import numpy as np
import pytest

from abnkit.bootstrap import _draw_simspec, model_grid_posteriors
from abnkit.dag import find_cycle, info_metrics, topological_order
from abnkit.data import build_design
from abnkit.errors import AbnError, ConfigError, PoissonOverflow
from abnkit.glm import fit_dag, fit_node
from abnkit.simulate import SimSpec, simulate_dag, simulate_data


class TestSimulateDag:
    def test_zero_probability_empty(self):
        assert simulate_dag(6, 0.0, seed=1).n_arcs == 0

    def test_full_probability_complete(self):
        dag = simulate_dag(6, 1.0, seed=2)
        assert dag.n_arcs == 6 * 5 // 2

    def test_always_acyclic_ten_thousand_trials(self):
        for seed in range(10_000):
            dag = simulate_dag(4 + seed % 5, 0.5, seed=seed)
            assert find_cycle(dag.adjacency) is None

    def test_arc_fraction_matches_probability(self):
        p, n, reps = 0.3, 8, 10_000
        possible = n * (n - 1) / 2
        counts = [simulate_dag(n, p, seed=s).n_arcs for s in range(reps)]
        mean = np.mean(counts) / possible
        sigma = np.sqrt(p * (1 - p) / (possible * reps))
        assert abs(mean - p) < 3 * sigma + 1e-12

    def test_markov_blanket_nonlinear_in_density(self):
        # normalized parent count grows linearly with density; the blanket
        # saturates, so mid-density blankets overshoot the linear interpolant
        n, reps = 20, 60
        ps = (0.1, 0.5, 0.9)
        mb = {}
        parents = {}
        for p in ps:
            mbs, pars = [], []
            for s in range(reps):
                m = info_metrics(simulate_dag(n, p, seed=1000 + s))
                mbs.append(m.avg_markov_blanket)
                pars.append(m.avg_parents)
            mb[p] = np.mean(mbs)
            parents[p] = np.mean(pars)
        lin_par = (parents[0.1] + parents[0.9]) / 2
        assert abs(parents[0.5] - lin_par) / lin_par < 0.05
        lin_mb = (mb[0.1] + mb[0.9]) / 2
        assert mb[0.5] > lin_mb * 1.05

    def test_bad_probability(self):
        with pytest.raises(AbnError):
            simulate_dag(4, 1.5, seed=0)


class TestSimulateData:
    def _binary_spec(self, n_obs, seed):
        dag = simulate_dag(3, 0.5, seed=4)
        coefs = {node: {"(Intercept)": 0.0, **{p: 0.0 for p in dag.parents(node)}}
                 for node in dag.nodes}
        return SimSpec(dag=dag, families={v: "binomial" for v in dag.nodes},
                       coefficients=coefs, n_obs=n_obs, seed=seed)

    def test_zero_coefficients_binomial_half(self):
        ds = simulate_data(self._binary_spec(20_000, 7))
        for name in ds.names:
            freq = ds.column(name).mean()
            assert abs(freq - 0.5) < 3 * np.sqrt(0.25 / 20_000)

    def test_same_seed_identical(self):
        spec = self._binary_spec(500, 9)
        a, b = simulate_data(spec), simulate_data(spec)
        assert np.array_equal(a.columns, b.columns)

    def test_gaussian_arc_correlation(self):
        from conftest import dag_from_arcs

        dag = dag_from_arcs(("a", "b"), (("a", "b"),))
        spec = SimSpec(
            dag=dag, families={"a": "gaussian", "b": "gaussian"},
            coefficients={"a": {"(Intercept)": 0.0},
                          "b": {"(Intercept)": 0.0, "a": 1.0}},
            sd={"a": 1.0, "b": 1.0}, n_obs=10_000, seed=12,
        )
        ds = simulate_data(spec)
        corr = np.corrcoef(ds.column("a"), ds.column("b"))[0, 1]
        assert abs(corr - 1 / np.sqrt(2)) < 0.03

    def test_poisson_overflow_guard(self):
        from conftest import dag_from_arcs

        dag = dag_from_arcs(("a", "b"), (("a", "b"),))
        spec = SimSpec(
            dag=dag, families={"a": "gaussian", "b": "poisson"},
            coefficients={"a": {"(Intercept)": 0.0},
                          "b": {"(Intercept)": 0.0, "a": 50.0}},
            sd={"a": 1.0}, n_obs=200, seed=13,
        )
        with pytest.raises(PoissonOverflow):
            simulate_data(spec)

    @pytest.mark.parametrize("intercept, sd, message", [
        (math.nan, 1.0, "node 'b' has a non-finite coefficient"),
        (-math.inf, 1.0, "node 'b' has a non-finite coefficient"),
        (0.0, math.inf, "gaussian node 'a' needs a positive finite sd"),
        (0.0, math.nan, "gaussian node 'a' needs a positive finite sd"),
    ], ids=["nan-intercept", "infinite-intercept", "infinite-sd", "nan-sd"])
    def test_non_finite_values_rejected(self, intercept, sd, message):
        # a NaN binomial intercept would simulate an all-zero column, and an
        # infinite sd a dataset that fails to load
        from conftest import dag_from_arcs

        raw = {"nodes": ["a", "b"], "adjacency": [[0, 0], [1, 0]],
               "families": {"a": "gaussian", "b": "binomial"},
               "coefficients": {"a": {"(Intercept)": 0.0},
                                "b": {"(Intercept)": intercept, "a": 1.0}},
               "sd": {"a": sd}, "n_obs": 50, "seed": 1}
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SimSpec(dag=dag_from_arcs(("a", "b"), (("a", "b"),)), families=raw["families"],
                    coefficients=raw["coefficients"], sd=raw["sd"])
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SimSpec.from_json(json.dumps(raw))  # written as NaN or Infinity

    def test_spec_json_round_trip(self):
        spec = self._binary_spec(50, 3)
        back = SimSpec.from_json(spec.to_json())
        assert back.dag == spec.dag
        assert back.coefficients == spec.coefficients
        assert np.array_equal(simulate_data(back).columns, simulate_data(spec).columns)

    def test_generation_respects_topology(self):
        dag = simulate_dag(6, 0.4, seed=21)
        order = topological_order(dag)
        for parent, child in dag.arcs():
            assert order.index(parent) < order.index(child)


class TestParameterRecovery:
    @pytest.mark.parametrize("family,true_beta", [
        ("gaussian", (0.4, 0.9)),
        ("binomial", (-0.3, 1.1)),
        ("poisson", (0.5, 0.6)),
    ])
    def test_fit_recovers_known_coefficients(self, family, true_beta):
        from conftest import dag_from_arcs

        dag = dag_from_arcs(("a", "b"), (("a", "b"),))
        spec = SimSpec(
            dag=dag, families={"a": "gaussian", "b": family},
            coefficients={"a": {"(Intercept)": 0.0},
                          "b": {"(Intercept)": true_beta[0], "a": true_beta[1]}},
            sd={"a": 1.0, **({"b": 1.0} if family == "gaussian" else {})},
            n_obs=10_000, seed=33,
        )
        ds = simulate_data(spec)
        fit = fit_node(build_design(ds, "b", ["a"]), method="bayes")
        cov = np.linalg.inv(fit.neg_hessian)
        for k, true in enumerate(true_beta):
            sd_k = np.sqrt(cov[k, k])
            assert abs(fit.coefficients[k] - true) < 3 * sd_k + 1e-6


class TestGridPipeline:
    def test_density_grids_feed_sampler(self):
        from conftest import dag_from_arcs, mixed_dataset

        ds = mixed_dataset(400, 5)
        dag = dag_from_arcs(ds.names, (("g", "b"),))
        fits = fit_dag(ds, dag, method="bayes")
        grids = model_grid_posteriors(dag, fits)
        rng = np.random.default_rng(2)
        draws = np.array([
            _draw_simspec(dag, ds.dist_map(), grids, ds.n_obs, rng).coefficients["b"]["g"]
            for _ in range(4000)
        ])
        fit = fits["b"]
        k = fit.labels.index("g")
        sd_k = np.sqrt(np.linalg.inv(fit.neg_hessian)[k, k])
        assert abs(draws.mean() - fit.coefficient("g")) < 0.1 * sd_k
        assert abs(draws.std() - sd_k) < 0.1 * sd_k
