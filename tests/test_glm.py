import math

import numpy as np
import pytest
from scipy.special import expit, gammaln

import abnkit.glm
from abnkit import families
from abnkit.data import DesignMatrix, build_design
from abnkit.errors import (
    AllPredictorsDropped,
    FitError,
    NoObservations,
    NonFiniteData,
    NonPositiveDefiniteHessian,
    RangeTooNarrow,
)
from abnkit.exact import StructuralPrior
from abnkit.glm import (
    PriorSpec,
    _ascend,
    _Diverged,
    _fit_mle_once,
    _laplace,
    _Objective,
    fit_mle_stack,
    fit_node,
    frequentist_scores,
    marginal_densities,
)

from conftest import mixed_dataset


def gaussian_design(n, p, seed, beta=None, sd=1.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    beta = beta if beta is not None else rng.normal(size=p + 1)
    y = X @ beta + rng.normal(scale=sd, size=n)
    return DesignMatrix(
        response=y, predictors=X,
        labels=("(Intercept)", *[f"x{i}" for i in range(p)]),
        child="y", family="gaussian",
    )


def binomial_design(n, p, seed, beta=None):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    beta = beta if beta is not None else rng.normal(scale=0.8, size=p + 1)
    y = (rng.random(n) < expit(X @ beta)).astype(float)
    return DesignMatrix(
        response=y, predictors=X,
        labels=("(Intercept)", *[f"x{i}" for i in range(p)]),
        child="y", family="binomial",
    )


def poisson_design(n, p, seed, beta=None):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    beta = beta if beta is not None else rng.normal(scale=0.4, size=p + 1)
    y = rng.poisson(np.exp(X @ beta)).astype(float)
    return DesignMatrix(
        response=y, predictors=X,
        labels=("(Intercept)", *[f"x{i}" for i in range(p)]),
        child="y", family="poisson",
    )


class TestIrls:
    def test_gaussian_equals_least_squares(self):
        for seed in range(10):
            d = gaussian_design(60, 3, seed)
            fit = fit_node(d, method="mle")
            ols, *_ = np.linalg.lstsq(d.predictors, d.response, rcond=None)
            assert np.max(np.abs(fit.coefficients - ols)) < 1e-8

    def test_binomial_converges_on_regular_data(self):
        d = binomial_design(500, 2, 0, beta=np.array([0.3, 1.0, -0.7]))
        fit = fit_node(d, method="mle")
        assert fit.converged and not fit.used_firth
        assert np.max(np.abs(fit.coefficients - [0.3, 1.0, -0.7])) < 0.4

    def test_poisson_converges(self):
        d = poisson_design(500, 2, 1, beta=np.array([0.5, 0.6, -0.4]))
        fit = fit_node(d, method="mle")
        assert fit.converged
        assert np.max(np.abs(fit.coefficients - [0.5, 0.6, -0.4])) < 0.3

    @pytest.mark.parametrize("family", ["binomial", "poisson", "gaussian"])
    def test_gradient_matches_finite_differences(self, family):
        maker = {"binomial": binomial_design, "poisson": poisson_design,
                 "gaussian": gaussian_design}[family]
        rng = np.random.default_rng(99)
        # the bayes log joint, and the MLE's log-likelihood alone (a gaussian
        # one with its log-precision as a parameter)
        for priors in (PriorSpec(fixed_precision=1.0 if family == "gaussian" else None), None):
            for seed in range(30):
                d = maker(40, 2, seed)
                obj = _Objective.of(d, priors)  # a stack of one: (1, P) params
                params = rng.normal(scale=0.5, size=d.width + obj.free_precision)
                grad = obj.grad_curvature(params[None], obj.evaluate(params[None])[1])[0][0]
                h = 1e-6
                numeric = np.zeros_like(params)
                for k in range(len(params)):
                    up, dn = params.copy(), params.copy()
                    up[k] += h
                    dn[k] -= h
                    numeric[k] = (obj.evaluate(up[None])[0][0]
                                  - obj.evaluate(dn[None])[0][0]) / (2 * h)
                denom = max(1.0, np.max(np.abs(grad)))
                assert np.max(np.abs(grad - numeric)) / denom < 1e-4, (priors, seed)

    def test_gaussian_stack_is_fit_nodes(self):
        # each clean member's numbers are fit_node's to the last bit; a
        # member with a duplicated column and one at overflow scale fail on
        # their own, and their errors are their stacks of one's
        rng = np.random.default_rng(4)
        y, (a, b, c) = rng.normal(size=40), rng.normal(size=(3, 40))
        members = [(a, b), (a, a), (b, c), (a, 1e200 * c), (c, a)]
        X = np.empty((len(members), 40, 3))  # row-major, as design_stack lays it out
        X[:, :, 0] = 1.0
        for k, (u, v) in enumerate(members):
            X[k, :, 1], X[k, :, 2] = u, v
        stack = fit_mle_stack(X, y, "gaussian")
        assert stack.mliks is None and stack.converged == [True] * 5

        def hexes(values):
            return [float(x).hex() for x in np.ravel(values)]

        for k in range(5):
            design = DesignMatrix(response=y, predictors=X[k], labels=("(Intercept)", "u", "v"),
                                  child="y", family="gaussian")
            if k in (1, 3):
                assert str(stack.errors[k]) == "rank-deficient design"
                with pytest.raises(_Diverged, match="rank-deficient design"):
                    _fit_mle_once(design)
                continue
            fit = fit_node(design, method="mle")
            assert stack.errors[k] is None and fit.status() == []
            assert hexes(stack.coefficients[k]) == hexes(fit.coefficients)
            assert hexes(stack.log_likelihoods[k]) == hexes(fit.log_likelihood)
            assert hexes(stack.log_precisions[k]) == hexes(fit.gaussian_log_precision)
            assert hexes(stack.neg_hessians[k]) == hexes(fit.neg_hessian)

    def test_no_observations(self):
        d = DesignMatrix(response=np.zeros(0), predictors=np.ones((0, 1)),
                         labels=("(Intercept)",), child="y", family="gaussian")
        with pytest.raises(NoObservations):
            fit_node(d, method="mle")

    def test_non_finite_rejected(self):
        d = gaussian_design(10, 1, 0)
        bad = DesignMatrix(response=d.response.copy(), predictors=d.predictors.copy(),
                           labels=d.labels, child="y", family="gaussian")
        bad.response[0] = np.nan
        with pytest.raises(NonFiniteData):
            fit_node(bad, method="mle")


    def test_poisson_mean_underflow_at_zero_count(self):
        # the last row's fitted mean exp(0.15 - 0.71 * 1500) underflows to 0;
        # its y == 0 term adds nothing to y*eta - sum(mu), not NaN
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        y = rng.poisson(np.exp(0.2 + 0.6 * x)).astype(float)
        X = np.column_stack([np.ones(41), np.append(x, -1500.0)])
        d = DesignMatrix(response=np.append(y, 0.0), predictors=X,
                         labels=("(Intercept)", "x"), child="y", family="poisson")
        with np.errstate(all="ignore"):
            stack = fit_mle_stack(X[None], d.response, "poisson")
            theta = stack.coefficients[0]
            mu = np.exp(X @ theta)
        assert stack.errors == [None] and stack.converged == [True] and mu[-1] == 0.0
        np.testing.assert_allclose(theta, [0.1513626643965747, 0.7129195051298354],
                                   rtol=1e-12)
        fit = fit_node(d, method="mle")
        assert fit.converged and fit.dropped_predictors == ()


class TestFamilyKernels:
    """The fast family kernels against SciPy's and NumPy's own functions."""

    ETA = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 36.8, -36.8, 709.0, -709.0,
                    800.0, -800.0, 1e308, -1e308])

    @staticmethod
    def ulps(got, want):
        return np.abs(got - want) / np.spacing(np.maximum(np.abs(want), 1e-300))

    def test_agrees_with_expit_and_logaddexp_without_warnings(self):
        with np.errstate(all="raise"):
            mu = families.mean("binomial", self.ETA)
            softplus = -families.loglik_terms("binomial", np.zeros_like(self.ETA), self.ETA)
        with np.errstate(under="ignore"):  # logaddexp itself underflows here
            want_mu, want_softplus = expit(self.ETA), np.logaddexp(0.0, self.ETA)
        assert np.max(self.ulps(mu, want_mu)) <= 4
        assert np.max(self.ulps(softplus, want_softplus)) <= 4

    def test_loglik_and_mean_share_one_kernel(self):
        rng = np.random.default_rng(3)
        eta = rng.normal(scale=5.0, size=200)
        y = (rng.random(200) < 0.5).astype(float)
        terms, mu = families.loglik_mean("binomial", y, eta)
        assert np.array_equal(mu, families.mean("binomial", eta))
        assert np.array_equal(terms, families.loglik_terms("binomial", y, eta))

    @pytest.mark.parametrize("y", [
        np.random.default_rng(0).poisson(3.0, size=500).astype(float),  # looked up
        np.array([0.0, 1e6, 2.0]),  # a count beyond the lookup
        np.array([0.5, 2.0, 1.0]),  # not counts
    ])
    def test_log_y_factorial_is_gammaln(self, y):
        assert np.array_equal(families.log_y_factorial(y), gammaln(y + 1.0))

    def test_scalar_linear_predictor(self):
        assert families.mean("binomial", 0.0) == 0.5
        assert families.loglik_terms("binomial", 1.0, 0.0) == -math.log(2.0)


def same_bits(got, want) -> bool:
    """Whether two float sequences hold the same values, compared by ``float.hex``."""
    return [float(v).hex() for v in got] == [float(v).hex() for v in want]


def around(x: float) -> list[float]:
    """``x`` and its two neighbouring floats."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


class TestLogGamma:
    """``families.log_gamma`` and its memoised ``log k!`` table against
    ``scipy.special.gammaln``, the Cephes routine it ports, bit for bit."""

    INTEGERS = np.arange(1.0, 200_001.0)

    def test_integers(self):
        assert same_bits(map(families.log_gamma, self.INTEGERS.tolist()),
                         gammaln(self.INTEGERS))

    def test_random_reals(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([rng.uniform(0.0, 50.0, 5000), 10.0 ** rng.uniform(-300, 300, 5000)])
        assert same_bits(map(families.log_gamma, x.tolist()), gammaln(x))

    @pytest.mark.parametrize("edge", [2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305])
    def test_branch_edges(self, edge):
        x = around(edge)
        assert same_bits(map(families.log_gamma, x), gammaln(x))

    def test_special_values(self):
        x = [0.001, 0.0, math.inf, 1.001, 0.5, 1.5, 5e-324, math.nan]
        assert same_bits(map(families.log_gamma, x), gammaln(x))
        assert families.log_gamma(0.0) == math.inf

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="x >= 0"):
            families.log_gamma(-0.5)

    def test_log_factorial_table(self):
        k_max = len(self.INTEGERS) - 1
        small = families.log_factorials(5)
        table = families.log_factorials(k_max)
        assert len(small) == 6 and len(table) == k_max + 1
        assert table[:6] == small and families.log_factorials(k_max) == table
        assert same_bits(table, gammaln(self.INTEGERS))

    def test_constants_keep_the_gammaln_expressions(self):
        """The structure prior, the MDL penalty and the precision prior's
        normaliser keep the bits of their gammaln forms."""
        pairs = [(n, k) for n in range(41) for k in range(n + 1)]
        assert same_bits([families.log_choose(n, k) for n, k in pairs],
                         [gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) for n, k in pairs])
        assert same_bits([StructuralPrior().log_prior(n + 1, k) for n, k in pairs],
                         [-families.log_choose(n, k) for n, k in pairs])
        a, b = abnkit.glm.PRECISION_SHAPE, abnkit.glm.PRECISION_RATE
        assert same_bits([abnkit.glm.PRECISION_LOG_NORM], [a * math.log(b) - gammaln(a)])


class TestFirthAndPruning:
    def test_separated_data_triggers_firth(self):
        x = np.linspace(-2, 2, 60)
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(60), x])
        d = DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "x"),
                         child="y", family="binomial")
        fit = fit_node(d, method="mle")
        assert fit.used_firth
        assert np.all(np.isfinite(fit.coefficients))
        assert np.max(np.abs(fit.coefficients)) < 20

    def test_separation_with_a_flat_gradient_triggers_firth(self):
        # two observations straddle the cut 0.005 apart, so the gradient
        # falls under its tolerance while the deviance is still 1.1e-6; the
        # iterate that classifies every response marks the separation
        rng = np.random.default_rng(13)
        n = int(rng.integers(20, 80))
        x = rng.normal(size=n)
        y = (x > np.quantile(x, rng.uniform(0.2, 0.8))).astype(float)
        d = DesignMatrix(response=y, predictors=np.column_stack([np.ones(n), x]),
                         labels=("(Intercept)", "x"), child="y", family="binomial")
        fit = fit_node(d, method="mle")
        assert fit.used_firth and fit.converged
        assert np.max(np.abs(fit.coefficients)) < 20

    def test_constant_response_finite_via_firth(self):
        d = DesignMatrix(response=np.ones(30), predictors=np.ones((30, 1)),
                         labels=("(Intercept)",), child="y", family="binomial")
        fit = fit_node(d, method="mle")
        assert np.all(np.isfinite(fit.coefficients))

    def test_duplicate_column_pruned_gaussian(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        y = 1 + x + rng.normal(size=50)
        X = np.column_stack([np.ones(50), x, x])
        d = DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "a", "b"),
                         child="y", family="gaussian")
        fit = fit_node(d, method="mle")
        assert len(fit.dropped_predictors) == 1
        assert fit.dropped_predictors[0] in ("a", "b")
        assert np.all(np.isfinite(fit.coefficients))

    @pytest.mark.parametrize("separated", [False, True])
    def test_duplicate_column_pruned_binomial(self, separated):
        # the duplicated columns make X'WX singular: IRLS and Firth both
        # diverge on the full design, so one copy must go.  At this seed the
        # rounded X'WX fails a Cholesky factorization but not an LU solve
        rng = np.random.default_rng(28)
        x = rng.normal(size=60)
        y = (x > 0.1) if separated else (rng.random(60) < expit(0.3 + x))
        X = np.column_stack([np.ones(60), x, x])
        d = DesignMatrix(response=y.astype(float), predictors=X,
                         labels=("(Intercept)", "a", "b"), child="y", family="binomial")
        fit = fit_node(d, method="mle")
        assert fit.dropped_predictors == ("b",)
        assert fit.used_firth == separated and fit.converged
        assert np.all(np.isfinite(fit.coefficients))

    def test_pruning_fits_the_kept_design_once(self, monkeypatch):
        """The failed full fit plus one scan fit per candidate drop: the scan's
        fit of the kept design is the result, not refitted."""
        rng = np.random.default_rng(5)
        x, z = rng.normal(size=(2, 50))
        y = 1 + x + 0.5 * z + rng.normal(size=50)
        X = np.column_stack([np.ones(50), x, x, z])
        d = DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "a", "b", "c"),
                         child="y", family="gaussian")
        fit_once = abnkit.glm._fit_mle_once
        calls = []

        def spy(design):
            calls.append(design.labels)
            return fit_once(design)

        monkeypatch.setattr(abnkit.glm, "_fit_mle_once", spy)
        fit = fit_node(d, method="mle")
        assert len(calls) == 4
        assert fit.dropped_predictors == ("b",)  # a tie with "a": the last name goes
        assert np.array_equal(fit.coefficients, fit_once(d.drop("b")).coefficients)

    def test_exhausted_pruning_raises(self):
        # overflow-scale responses defeat even the intercept-only fallback
        y = np.tile([0.0, 1e200], 10)
        X = np.column_stack([np.ones(20), np.tile([1e200, 0.0], 10)])
        d = DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "x"),
                         child="y", family="gaussian")
        with pytest.raises(AllPredictorsDropped):
            fit_node(d, method="mle")

    def test_all_zero_poisson_response_diverges(self):
        # sum(-exp(eta)) rises toward 0 without bound on the intercept: no
        # finite MLE, so no fit is reported converged at a stopping-rule value
        d = DesignMatrix(response=np.zeros(30), predictors=np.ones((30, 1)),
                         labels=("(Intercept)",), child="y", family="poisson")
        with pytest.raises(FitError, match="all-zero poisson response"):
            fit_node(d, method="mle")
        assert fit_node(d, method="bayes").converged  # the prior bounds the mode

    def test_firth_suite_always_finite(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(20, 60))
            x = rng.normal(size=n)
            cut = float(np.median(x))
            y = (x > cut).astype(float)
            X = np.column_stack([np.ones(n), x])
            d = DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "x"),
                             child="y", family="binomial")
            fit = fit_node(d, method="mle")
            assert np.all(np.isfinite(fit.coefficients))
            assert fit.used_firth and fit.converged, trial


class TestBayes:
    def test_flat_prior_limit_matches_mle(self):
        for maker, seed in ((gaussian_design, 0), (binomial_design, 1), (poisson_design, 2)):
            d = maker(300, 2, seed)
            mle = fit_node(d, method="mle")
            bayes = fit_node(d, method="bayes", priors=PriorSpec(coef_variance=1e8))
            assert np.max(np.abs(bayes.coefficients - mle.coefficients)) < 1e-4

    def test_default_prior_close_to_mle_at_n300(self):
        for maker, seed in ((gaussian_design, 3), (binomial_design, 4), (poisson_design, 5)):
            d = maker(400, 2, seed)
            mle = fit_node(d, method="mle")
            bayes = fit_node(d, method="bayes")
            assert np.max(np.abs(bayes.coefficients - mle.coefficients)) < 0.05

    def test_gaussian_fixed_precision_closed_form(self):
        d = gaussian_design(80, 2, 9)
        tau, v = 2.3, 17.0
        fit = fit_node(d, method="bayes", priors=PriorSpec(coef_variance=v, fixed_precision=tau))
        X = d.predictors
        expected = np.linalg.solve(tau * X.T @ X + np.eye(3) / v, tau * X.T @ d.response)
        assert np.max(np.abs(fit.coefficients - expected)) < 1e-8

    def test_near_separated_mode_is_prior_bounded(self):
        # deterministic OR-style child: likelihood plateaus, prior picks the mode
        rng = np.random.default_rng(12)
        x = (rng.random(500) < 0.1).astype(float)
        y = x.copy()
        X = np.column_stack([np.ones(500), x])
        d = DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "x"),
                         child="y", family="binomial")
        fit = fit_node(d, method="bayes")
        assert fit.converged
        assert np.all(np.isfinite(fit.coefficients))
        assert 5 < fit.coefficient("x") < 60


def _quadratics(g, h):
    """``_ascend``'s value and derivatives of a stack of quadratics
    ``f(x) = g'x - x'Hx / 2``, each problem's sums over its own row."""
    g, h = np.array(g, dtype=float), np.array(h, dtype=float)

    def value(params):
        hx = (h * params[:, None, :]).sum(axis=2)
        return (g * params).sum(axis=1) - 0.5 * (params * hx).sum(axis=1), hx

    def derivatives(params, hx):
        return g - hx, h.copy()

    return value, derivatives


class TestAscend:
    def test_singular_curvature_stops_only_its_problem(self):
        # problem 1's curvature diag(1, 0) is exactly singular
        g = [[1.0, 2.0], [1.0, 1.0], [-3.0, 0.5]]
        h = [[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 0.0]], [[4.0, 0.0], [0.0, 3.0]]]
        params, _, _, _, converged, singular = _ascend(*_quadratics(g, h), np.zeros((3, 2)))
        assert singular == [False, True, False]
        assert converged == [True, False, True]
        assert params[1].tolist() == [0.0, 0.0]  # it keeps the params where it stopped
        for b in (0, 2):
            alone = _ascend(*_quadratics(g[b:b + 1], h[b:b + 1]), np.zeros((1, 2)))
            assert alone[4:] == ([True], [False])
            assert [x.hex() for x in params[b].tolist()] == [
                x.hex() for x in alone[0][0].tolist()]
            assert np.allclose(params[b], np.linalg.solve(h[b], g[b]), rtol=1e-14)


class TestSharedArithmetic:
    """The fit's scores are the posterior's own numbers at the mode."""

    @pytest.mark.parametrize("family", ["binomial", "poisson", "gaussian"])
    @pytest.mark.parametrize("fixed", [None, 9.0])  # exp(log(9.0)) != 9.0
    def test_fit_reuses_mode_evaluation_exactly(self, family, fixed):
        maker = {"binomial": binomial_design, "poisson": poisson_design,
                 "gaussian": gaussian_design}[family]
        priors = PriorSpec(fixed_precision=fixed)
        for seed in range(5):
            d = maker(80, 2, seed)
            fit = fit_node(d, method="bayes", priors=priors)
            params = fit.coefficients
            if len(fit.neg_hessian) > len(params):
                params = np.append(params, fit.gaussian_log_precision)
            joint = _Objective.of(d, priors).evaluate(params[None])[0][0]
            assert fit.mlik == _laplace(joint, len(fit.neg_hessian), fit.neg_hessian)
            tau = (math.exp(fit.gaussian_log_precision) if family == "gaussian"
                   else None)
            eta = d.predictors @ fit.coefficients
            ll = float(np.sum(families.loglik_terms(family, d.response, eta, tau)))
            assert fit.log_likelihood == ll


    @pytest.mark.parametrize("kind", ["binomial", "poisson", "firth"])
    def test_mle_log_likelihood_is_the_family_sum(self, kind):
        for seed in range(5):
            if kind == "poisson":
                d = poisson_design(80, 2, seed)
            else:
                d = binomial_design(80, 2, seed)
                if kind == "firth":  # separated on x0
                    y = (d.predictors[:, 1] > 0).astype(float)
                    d = DesignMatrix(response=y, predictors=d.predictors, labels=d.labels,
                                     child="y", family="binomial")
            fit = fit_node(d, method="mle")
            assert fit.used_firth == (kind == "firth") and fit.status() == (
                ["firth"] if kind == "firth" else [])
            eta = d.predictors @ fit.coefficients
            assert fit.log_likelihood == np.sum(families.loglik_terms(d.family, d.response, eta))


class TestLaplace:
    def test_conjugate_gaussian_evidence_exact(self):
        for seed in range(5):
            d = gaussian_design(50, 2, seed)
            tau, v = 1.7, 13.0
            fit = fit_node(d, method="bayes",
                           priors=PriorSpec(coef_variance=v, fixed_precision=tau))
            X, y = d.predictors, d.response
            cov = np.eye(50) / tau + v * (X @ X.T)
            _, logdet = np.linalg.slogdet(cov)
            exact = (-0.5 * 50 * np.log(2 * np.pi) - 0.5 * logdet
                     - 0.5 * y @ np.linalg.solve(cov, y))
            assert abs(fit.mlik - exact) < 1e-6

    def test_binomial_intercept_only_vs_quadrature(self):
        # large-n check: the Laplace error for this node decays like 1/n
        n, ones = 200, 80
        y = np.zeros(n)
        y[:ones] = 1.0
        d = DesignMatrix(response=y, predictors=np.ones((n, 1)),
                         labels=("(Intercept)",), child="y", family="binomial")
        fit = fit_node(d, method="bayes")
        theta = np.linspace(-30, 30, 400001)
        log_m = (ones * theta - n * np.logaddexp(0, theta)
                 - 0.5 * theta**2 / 1000 - 0.5 * np.log(2 * np.pi * 1000))
        peak = log_m.max()
        quad = peak + np.log(np.trapezoid(np.exp(log_m - peak), theta))
        assert abs(fit.mlik - quad) < 5e-3

    def test_two_observation_laplace_formula_pinned(self):
        # At n=2 the gaussian approximation is structurally off by ~0.12
        # against exact quadrature; pin both values so any change is loud.
        d = DesignMatrix(response=np.array([0.0, 1.0]), predictors=np.ones((2, 1)),
                         labels=("(Intercept)",), child="y", family="binomial")
        fit = fit_node(d, method="bayes")
        manual = (2 * math.log(0.5) - 0.5 * math.log(2 * math.pi * 1000)
                  + 0.5 * math.log(2 * math.pi) - 0.5 * math.log(2 * 0.25 + 1e-3))
        assert abs(fit.mlik - manual) < 1e-9
        theta = np.linspace(-30, 30, 400001)
        log_m = (theta - 2 * np.logaddexp(0, theta)
                 - 0.5 * theta**2 / 1000 - 0.5 * np.log(2 * np.pi * 1000))
        peak = log_m.max()
        quad = peak + np.log(np.trapezoid(np.exp(log_m - peak), theta))
        assert abs(fit.mlik - quad) == pytest.approx(0.12, abs=0.01)

    def test_non_spd_hessian_rejected(self):
        d = gaussian_design(30, 1, 4)
        fit = fit_node(d, method="bayes")
        from dataclasses import replace

        broken = replace(fit, neg_hessian=-np.eye(fit.neg_hessian.shape[0]))
        params = np.append(broken.coefficients, broken.gaussian_log_precision)
        joint = _Objective.of(d, PriorSpec()).evaluate(params[None])[0][0]
        with pytest.raises(NonPositiveDefiniteHessian):
            _laplace(joint, len(broken.neg_hessian), broken.neg_hessian)

    def test_invariant_under_predictor_reordering(self):
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(120), rng.normal(size=(120, 3))])
        y = (rng.random(120) < expit(X @ np.array([0.2, 0.8, -0.5, 0.3]))).astype(float)
        d1 = DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "a", "b", "c"),
                          child="y", family="binomial")
        perm = [0, 3, 1, 2]
        d2 = DesignMatrix(response=y, predictors=X[:, perm],
                          labels=("(Intercept)", "c", "a", "b"),
                          child="y", family="binomial")
        f1 = fit_node(d1, method="bayes")
        f2 = fit_node(d2, method="bayes")
        assert abs(f1.mlik - f2.mlik) < 1e-8

    def test_free_precision_gaussian_close_to_fine_quadrature(self):
        # 2-D integral over (intercept, log tau) for an intercept-only node
        rng = np.random.default_rng(3)
        y = rng.normal(1.0, 2.0, size=150)
        d = DesignMatrix(response=y, predictors=np.ones((150, 1)),
                         labels=("(Intercept)",), child="y", family="gaussian")
        priors = PriorSpec()
        fit = fit_node(d, method="bayes", priors=priors)
        betas = np.linspace(-3, 5, 401)
        lams = np.linspace(-6, 2, 401)
        B, L = np.meshgrid(betas, lams, indexing="ij")
        n = len(y)
        ss = np.array([[np.sum((y - b) ** 2) for _ in [0]] for b in betas])
        tau = np.exp(L)
        ll = 0.5 * n * L - 0.5 * n * np.log(2 * np.pi) - 0.5 * tau * ss
        a, bb = abnkit.glm.PRECISION_SHAPE, abnkit.glm.PRECISION_RATE
        lp = (-0.5 * np.log(2 * np.pi * 1000) - 0.5 * B**2 / 1000
              + a * np.log(bb) - math.lgamma(a) + a * L - bb * tau)
        log_m = ll + lp
        peak = log_m.max()
        inner = np.trapezoid(np.exp(log_m - peak), lams, axis=1)
        quad = peak + np.log(np.trapezoid(inner, betas))
        assert abs(fit.mlik - quad) < 0.02


class TestFrequentistScores:
    def test_gaussian_intercept_only_aic(self):
        d = gaussian_design(100, 0, 0)
        fit = fit_node(d, method="mle")
        scores = frequentist_scores(fit, 100, n_candidate_parents=7)
        assert scores.aic == pytest.approx(fit.log_likelihood - 2)  # k = 2

    def test_nested_loglik_monotone(self):
        for seed in range(10):
            d = gaussian_design(80, 2, seed)
            sub = d.drop("x1")
            full = fit_node(d, method="mle")
            small = fit_node(sub, method="mle")
            assert full.log_likelihood >= small.log_likelihood - 1e-9

    def test_bic_penalty_arithmetic(self):
        d = poisson_design(341, 2, 0)  # k = 3 coefficients
        fit = fit_node(d, method="mle")
        scores = frequentist_scores(fit, 341, n_candidate_parents=7)
        assert fit.log_likelihood - scores.bic == pytest.approx(1.5 * math.log(341))
        assert abs(1.5 * math.log(341) - 8.748) < 5e-3

    def test_mdl_below_bic(self):
        d = gaussian_design(100, 2, 4)
        fit = fit_node(d, method="mle")
        scores = frequentist_scores(fit, 100, n_candidate_parents=7)
        assert scores.mdl <= scores.bic


class TestMarginalDensities:
    def test_areas_near_one(self):
        ds = mixed_dataset(300, 0)
        for child, parents in (("g", []), ("b", ["g"]), ("p", ["b", "g"])):
            d = build_design(ds, child, parents)
            fit = fit_node(d, method="bayes")
            for dens in marginal_densities(fit):
                assert 0.99 <= dens.area <= 1.01

    def test_quadratic_posterior_matches_exact_gaussian(self):
        d = gaussian_design(60, 1, 8)
        priors = PriorSpec(coef_variance=50.0, fixed_precision=2.0)
        fit = fit_node(d, method="bayes", priors=priors)
        cov = np.linalg.inv(fit.neg_hessian)
        for k, dens in enumerate(marginal_densities(fit)):
            sd = math.sqrt(cov[k, k])
            exact = (np.exp(-0.5 * ((dens.grid - fit.coefficients[k]) / sd) ** 2)
                     / (sd * math.sqrt(2 * math.pi)))
            assert np.max(np.abs(dens.density - exact)) < 1e-6

    def test_narrow_range_raises(self, monkeypatch):
        d = gaussian_design(60, 1, 8)
        fit = fit_node(d, method="bayes")
        monkeypatch.setattr(abnkit.glm, "RANGE_SD", 1.5)
        with pytest.raises(RangeTooNarrow):
            marginal_densities(fit)

    def test_probabilities_sum_to_one(self):
        d = binomial_design(100, 1, 2)
        fit = fit_node(d, method="bayes")
        for dens in marginal_densities(fit):
            assert dens.probabilities.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("fixed", [None, 2.0])
    def test_parameters_follow_the_fit(self, fixed):
        # the log-precision is a parameter exactly when the fit optimized it
        d = gaussian_design(60, 1, 8)
        fit = fit_node(d, method="bayes", priors=PriorSpec(fixed_precision=fixed))
        labels = [dens.label for dens in marginal_densities(fit)]
        extra = ["log_precision"] if fixed is None else []
        assert labels == [*d.labels, *extra]
        assert len(fit.neg_hessian) == len(labels)


class TestFormatting:
    def test_coefficient_lines_use_child_bar_parent(self):
        ds = mixed_dataset(100, 3)
        d = build_design(ds, "b", ["g"])
        fit = fit_node(d, method="bayes")
        lines = fit.format_lines("b")
        assert lines[0].startswith("b|(Intercept)\t")
        assert lines[1].startswith("b|g\t")
