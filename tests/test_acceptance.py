"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 4, 5, 6 and 8 reproduce published numbers and need the
user-exported reference datasets (see README, "Reference datasets"); they
skip with an explicit message when the files are absent.  Everything else
runs standalone from a clean checkout with no network access.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expit

from abnkit.bootstrap import run_bootstrap
from abnkit.cache import build_cache
from abnkit.dag import ConstraintSet, info_metrics
from abnkit.data import DesignMatrix, build_design, load_dataset, standardize
from abnkit.exact import StructuralPrior, best_parents_table, dag_objective, most_probable_dag
from abnkit.formula import parse_formula
from abnkit.glm import PriorSpec, fit_dag, fit_node, marginal_densities
from abnkit.simulate import SimSpec, simulate_dag, simulate_data
from abnkit.strength import discretize, pls_matrix

from conftest import (
    ASIA_ARCS,
    ASIA_NODES,
    CASE_STUDY_ARCS,
    CASE_STUDY_DISTS,
    CASE_STUDY_NODES,
    DATA_DIR,
    all_dag_parent_masks,
    dag_from_arcs,
    mixed_dataset,
    random_cache,
)

ASIA_CSV = DATA_DIR / "asia.csv"
ADG_CSV = DATA_DIR / "adg.csv"


def report(criterion: int, label: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({label}): PASS")


def need(path, criterion, label):
    if not path.is_file():
        pytest.skip(
            f"ACCEPTANCE {criterion} ({label}): SKIP - requires user-exported "
            f"{path.name} (see README)"
        )


def load_adg(criterion: int, label: str):
    need(ADG_CSV, criterion, label)
    ds = load_dataset(ADG_CSV, CASE_STUDY_DISTS, group_var="farm")
    return standardize(ds)


class TestCriterion1ExactSearchOracle:
    def test_dp_equals_brute_force_exactly(self):
        started = time.time()
        rng = np.random.default_rng(20240601)
        for n in (3, 4):
            rows = all_dag_parent_masks(n)
            assert len(rows) == {3: 25, 4: 543}[n]
            size = 1 << n
            for trial in range(1000):
                prior = StructuralPrior("koivisto" if trial % 2 else "uninformative")
                cache = random_cache(n, rng)
                dense = np.full((n, size), -np.inf)
                for i in range(n):
                    for mask in cache.masks[i]:
                        mask = int(mask)
                        dense[i, mask] = cache.score(i, mask) + prior.log_prior(
                            n, bin(mask).count("1")
                        )
                totals = dense[0, rows[:, 0]].copy()
                for i in range(1, n):  # accumulate like dag_objective does
                    totals += dense[i, rows[:, i]]
                oracle = float(totals.max())
                dag, total = most_probable_dag(best_parents_table(cache, prior))
                assert total == oracle  # exact float equality
                assert total == dag_objective(cache, dag, prior)
        elapsed = time.time() - started
        assert elapsed < 5.0, f"oracle equivalence took {elapsed:.1f}s"
        report(1, "exact-search oracle equivalence, 2000 caches")


class TestCriterion2Laplace:
    def test_conjugate_gaussian_and_quadrature(self):
        # (a) fixed-precision gaussian: Laplace must equal the closed form
        rng = np.random.default_rng(7)
        n, tau, v = 60, 1.7, 13.0
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = X @ np.array([0.5, 1.0, -0.5]) + rng.normal(size=n) / math.sqrt(tau)
        d = DesignMatrix(response=y, predictors=X,
                         labels=("(Intercept)", "x0", "x1"), child="y",
                         family="gaussian")
        fit = fit_node(d, method="bayes",
                       priors=PriorSpec(coef_variance=v, fixed_precision=tau))
        cov = np.eye(n) / tau + v * (X @ X.T)
        _, logdet = np.linalg.slogdet(cov)
        exact = (-0.5 * n * np.log(2 * np.pi) - 0.5 * logdet
                 - 0.5 * y @ np.linalg.solve(cov, y))
        assert abs(fit.mlik - exact) < 1e-6

        # (b) binomial intercept-only vs 1-D trapezoid quadrature
        m, ones = 200, 80
        yb = np.zeros(m)
        yb[:ones] = 1.0
        db = DesignMatrix(response=yb, predictors=np.ones((m, 1)),
                          labels=("(Intercept)",), child="y", family="binomial")
        fb = fit_node(db, method="bayes")
        theta = np.linspace(-30, 30, 400001)
        log_h = (ones * theta - m * np.logaddexp(0, theta)
                 - 0.5 * theta**2 / 1000 - 0.5 * np.log(2 * np.pi * 1000))
        peak = log_h.max()
        quad = peak + np.log(np.trapezoid(np.exp(log_h - peak), theta))
        assert abs(fb.mlik - quad) < 5e-3
        report(2, "Laplace vs conjugate closed form and quadrature")


class TestCriterion3Irls:
    def test_least_squares_and_gradients(self):
        rng = np.random.default_rng(11)
        # gaussian: IRLS result equals closed-form least squares
        for _ in range(20):
            n = int(rng.integers(20, 120))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
            y = X @ rng.normal(size=4) + rng.normal(size=n)
            d = DesignMatrix(response=y, predictors=X,
                             labels=("(Intercept)", "a", "b", "c"),
                             child="y", family="gaussian")
            fit = fit_node(d, method="mle")
            ols, *_ = np.linalg.lstsq(X, y, rcond=None)
            assert np.max(np.abs(fit.coefficients - ols)) < 1e-8

        # binomial/poisson analytic gradient vs central finite differences
        from abnkit.glm import _Objective

        priors = PriorSpec()
        checked = 0
        for trial in range(100):
            family = "binomial" if trial % 2 else "poisson"
            n = int(rng.integers(15, 50))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            beta = rng.normal(scale=0.5, size=3)
            if family == "binomial":
                y = (rng.random(n) < expit(X @ beta)).astype(float)
            else:
                y = rng.poisson(np.exp(np.clip(X @ beta, -5, 3))).astype(float)
            d = DesignMatrix(response=y, predictors=X,
                             labels=("(Intercept)", "a", "b"),
                             child="y", family=family)
            post = _Objective.of(d, priors)  # a stack of one: (1, 3) params
            theta = rng.normal(scale=0.5, size=3)
            grad = post.grad_curvature(theta[None], post.evaluate(theta[None])[1])[0][0]
            h = 1e-6
            numeric = np.empty(3)
            for k in range(3):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                numeric[k] = (post.evaluate(up[None])[0][0]
                              - post.evaluate(dn[None])[0][0]) / (2 * h)
            rel = np.max(np.abs(grad - numeric)) / max(1.0, np.max(np.abs(grad)))
            assert rel < 1e-4
            checked += 1
        assert checked == 100
        report(3, "IRLS least-squares identity and 100 gradient checks")


class TestCriterion4AsiaReproduction:
    def test_asia_structure_and_coefficients(self):
        need(ASIA_CSV, 4, "asia reproduction")
        started = time.time()
        ds = load_dataset(ASIA_CSV, {name: "binomial" for name in ASIA_NODES})
        assert ds.n_obs == 5000
        cache = build_cache(ds, ConstraintSet(ds.names, max_parents=4), jobs=2)
        dag, _ = most_probable_dag(best_parents_table(cache, StructuralPrior("koivisto")))

        learned_skeleton = {frozenset(arc) for arc in dag.arcs()}
        published = dag_from_arcs(ASIA_NODES, ASIA_ARCS[1:])  # rare-exposure arc absent
        expected_skeleton = {frozenset(arc) for arc in published.arcs()}
        assert learned_skeleton == expected_skeleton

        fits = fit_dag(ds, published, method="bayes")
        assert fits["LungCancer"].coefficient("Smoking") == pytest.approx(2.26, abs=0.05)
        odds_ratio = math.exp(fits["LungCancer"].coefficient("Smoking"))
        assert odds_ratio == pytest.approx(9.58, abs=0.5)
        assert fits["Bronchitis"].coefficient("Smoking") == pytest.approx(1.78, abs=0.05)
        assert fits["Dyspnea"].coefficient("Bronchitis") == pytest.approx(3.31, abs=0.05)
        elapsed = time.time() - started
        assert elapsed < 30
        report(4, f"asia skeleton and posterior modes in {elapsed:.0f}s")


class TestCriterion5AdgReproduction:
    def test_adg_sweep_and_selected_model(self):
        started = time.time()
        ds = load_adg(5, "adg reproduction")
        assert ds.n_obs == 341
        banned = parse_formula("~female|.", ds.names)
        totals = []
        selected = None
        for limit in range(1, 8):
            constraints = ConstraintSet(ds.names, banned=banned, max_parents=limit)
            cache = build_cache(ds, constraints, jobs=2)
            dag, _ = most_probable_dag(
                best_parents_table(cache, StructuralPrior("koivisto"))
            )
            totals.append(cache.dag_score(dag))
            if limit == 4:
                selected = dag
        assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))
        assert totals[3] == pytest.approx(-2709.25, abs=2.0)
        for k in (4, 5, 6):  # plateau from four parents on
            assert totals[k] - totals[3] < 0.1
        metrics = info_metrics(selected)
        assert metrics.n_arcs == 10
        assert metrics.avg_parents == pytest.approx(1.25)
        assert metrics.avg_markov_blanket == pytest.approx(3.75)
        elapsed = time.time() - started
        assert elapsed < 300
        report(5, f"adg total score, sweep plateau and metrics in {elapsed:.0f}s")


class TestCriterion6PlsReproduction:
    def test_case_study_link_strengths(self):
        ds = load_adg(6, "link-strength reproduction")
        dag = dag_from_arcs(CASE_STUDY_NODES, CASE_STUDY_ARCS)
        pls = pls_matrix(dag, discretize(ds))
        idx = {name: k for k, name in enumerate(ds.names)}
        assert pls[idx["wormCount"], idx["eggs"]] == pytest.approx(0.407, abs=0.03)
        assert pls[idx["wormCount"], idx["age"]] == pytest.approx(0.434, abs=0.03)
        assert pls[idx["adg"], idx["age"]] == pytest.approx(0.390, abs=0.03)
        report(6, "case-study percentage link strengths")


class TestCriterion7ScoreEfficiency:
    def test_recovery_improves_with_n_and_penalties_matter(self):
        """Desk-scale score-efficiency study: 10-node network, three sample
        sizes, 20 datasets each.  Recovery is counted on the skeleton, which
        is what the scores can identify up to Markov equivalence."""
        started = time.time()
        rng = np.random.default_rng(2024)
        true = simulate_dag(10, 0.25, seed=77)
        cycle = ("gaussian", "binomial", "poisson")
        fams = {node: cycle[i % 3] for i, node in enumerate(true.nodes)}
        coefs, sd = {}, {}
        for node in true.nodes:
            c = {"(Intercept)": 0.1}
            for p in true.parents(node):
                c[p] = float(rng.uniform(0.6, 1.2) * rng.choice([-1, 1]))
            coefs[node] = c
            if fams[node] == "gaussian":
                sd[node] = 1.0
        true_skeleton = (true.adjacency | true.adjacency.T).astype(bool)
        prior = StructuralPrior("uninformative")
        score_names = ("mlik", "loglik", "aic", "bic", "mdl")
        medians = {s: {} for s in score_names}
        fp_medians = {s: {} for s in score_names}
        for n_obs in (50, 500, 5000):
            counts = {s: {"tp": [], "fp": []} for s in score_names}
            for d in range(20):
                spec = SimSpec(dag=true, families=fams, coefficients=coefs,
                               sd=sd, n_obs=n_obs, seed=1000 + n_obs + d)
                ds = standardize(simulate_data(spec))
                constraints = ConstraintSet(ds.names, max_parents=3)
                for method in ("bayes", "mle"):
                    cache = build_cache(ds, constraints, method=method, jobs=2)
                    for st in (("mlik",) if method == "bayes"
                               else ("loglik", "aic", "bic", "mdl")):
                        table = best_parents_table(cache, prior, score_type=st)
                        dag, _ = most_probable_dag(table)
                        skel = (dag.adjacency | dag.adjacency.T).astype(bool)
                        counts[st]["tp"].append(int((skel & true_skeleton).sum()) // 2)
                        counts[st]["fp"].append(int((skel & ~true_skeleton).sum()) // 2)
            for s in score_names:
                medians[s][n_obs] = float(np.median(counts[s]["tp"]))
                fp_medians[s][n_obs] = float(np.median(counts[s]["fp"]))
        for s in score_names:
            tps = [medians[s][n] for n in (50, 500, 5000)]
            assert tps[0] <= tps[1] <= tps[2], f"{s} recovery not monotone: {tps}"
        assert fp_medians["loglik"][5000] > fp_medians["bic"][5000]
        elapsed = time.time() - started
        assert elapsed < 600
        report(7, f"score-efficiency recovery study in {elapsed:.0f}s")


class TestCriterion8Bootstrap:
    # printed per-arc recovery percentages of the ten-arc case-study model
    PUBLISHED_SUPPORT = {
        ("age", "AR"): 0.76,
        ("age", "pneumS"): 0.40,
        ("eggs", "livdam"): 0.53,
        ("adg", "eggs"): 0.75,
        ("AR", "wormCount"): 0.71,
        ("eggs", "wormCount"): 1.00,
        ("age", "wormCount"): 1.00,
        ("adg", "wormCount"): 0.60,
        ("female", "age"): 0.56,
        ("age", "adg"): 0.74,
    }

    def test_case_study_bootstrap(self):
        started = time.time()
        ds = load_adg(8, "bootstrap reproduction")
        dag = dag_from_arcs(CASE_STUDY_NODES, CASE_STUDY_ARCS)
        banned = parse_formula("~female|.", ds.names)
        constraints = ConstraintSet(ds.names, banned=banned, max_parents=4)
        fits = fit_dag(ds, dag, method="bayes")
        report_a = run_bootstrap(fits, dag, ds, constraints, n_replicates=10, seed=99,
                                 jobs=2)
        report_b = run_bootstrap(fits, dag, ds, constraints, n_replicates=10, seed=99,
                                 jobs=2)
        assert np.array_equal(report_a.support, report_b.support)  # determinism

        full = run_bootstrap(fits, dag, ds, constraints, n_replicates=200, seed=99,
                             jobs=2)
        assert np.median([d.n_arcs for _, d, _ in full.replicates]) <= dag.n_arcs
        idx = {name: k for k, name in enumerate(ds.names)}
        for (parent, child), published in self.PUBLISHED_SUPPORT.items():
            observed = full.support[idx[child], idx[parent]]
            assert observed == pytest.approx(published, abs=0.10), (parent, child)
        pruned_arcs = set(full.pruned.arcs())
        assert ("age", "pneumS") not in pruned_arcs  # 40% < threshold
        assert ("adg", "wormCount") in pruned_arcs   # 60% >= threshold
        elapsed = time.time() - started
        assert elapsed < 1200
        report(8, f"bootstrap support and pruning in {elapsed:.0f}s")


class TestCriterion9SeparationRobustness:
    def test_hundred_separated_fits_and_cache_build(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            n = int(rng.integers(20, 80))
            x = rng.normal(size=n)
            cut = float(np.quantile(x, rng.uniform(0.2, 0.8)))
            y = (x > cut).astype(float)
            X = np.column_stack([np.ones(n), x])
            d = DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "x"),
                             child="y", family="binomial")
            fit = fit_node(d, method="mle")
            assert np.all(np.isfinite(fit.coefficients)), f"trial {trial}"
            assert fit.used_firth or fit.converged

        # a cache over a dataset with a perfectly separated node must build
        from abnkit.data import Dataset

        g = np.linspace(-2, 2, 120)
        sep = (g > 0).astype(float)
        other = (np.sin(7 * g) > 0).astype(float)
        ds = Dataset(names=("g", "sep", "other"),
                     columns=np.column_stack([g, sep, other]),
                     distributions=("gaussian", "binomial", "binomial"))
        for method in ("mle", "bayes"):
            cache = build_cache(ds, ConstraintSet(ds.names, max_parents=2),
                                method=method)
            assert cache.n_entries == 12
        report(9, "Firth fallback finite on 100 separated datasets")


class TestCriterion10MarginalDensityAreas:
    def test_every_density_integrates_to_one(self):
        checked = 0
        ds = mixed_dataset(341, 23)
        for child, parents in (("g", []), ("g", ["b", "p"]), ("b", ["g"]),
                               ("b", ["g", "p"]), ("p", ["g", "b"]), ("p", [])):
            design = build_design(ds, child, parents)
            fit = fit_node(design, method="bayes")
            for dens in marginal_densities(fit):
                assert 0.99 <= dens.area <= 1.01
                checked += 1
        assert checked >= 15
        report(10, f"{checked} marginal densities integrate to 1 +/- 0.01")


class TestCriterion11StandaloneSuite:
    def test_standalone_subset_needs_no_external_data(self):
        """Criteria 1-3, 7, 9, 10 and all module property suites reference no
        external files; only the reproduction tests (4, 5, 6, 8) touch the
        optional data directory and each skips cleanly when it is absent."""
        import pathlib

        here = pathlib.Path(__file__).parent
        gated = {"asia.csv", "adg.csv"}
        for test_file in sorted(here.glob("test_*.py")):
            text = test_file.read_text()
            if test_file.name == "test_acceptance.py":
                continue
            for name in gated:
                assert name not in text, f"{test_file.name} references {name}"
        assert ASIA_CSV.name in {"asia.csv"} and ADG_CSV.name in {"adg.csv"}
        report(11, "standalone subset is free of external-data references")
