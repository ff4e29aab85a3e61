"""Per-node model fitting and scoring.

Two fitting modes mirror the two scoring frameworks:

* ``mle`` -- Newton ascent of the log-likelihood (IRLS, for canonical links)
  from IRLS's first weighted least-squares step; gaussian models are least
  squares with the precision profiled out.  Binomial models whose fit
  diverges or separates completely (an iterate classifies every response)
  are refit with Firth's bias-reducing penalty; when the fit still
  diverges, predictors are removed one at a time until it succeeds.  A
  poisson model of an all-zero response has no finite MLE and fails.
* ``bayes`` -- Newton optimization of log-likelihood plus log-prior to the
  posterior mode, with the gaussian precision handled on the log scale, and
  the model evidence approximated by Laplace's method at the mode.

One objective, :class:`_Objective`, is the unclipped log-likelihood (plus
the log-prior of a bayes fit) of a stack of designs of one response, with
its derivatives.  One Newton ascent with step halving, :func:`_ascend`,
climbs a stack, each problem with its own halving and convergence test; its
final state holds the log-likelihoods and its final curvatures are the
information.  Every bayes fit is :func:`fit_bayes_stack` and every MLE
fit :func:`fit_mle_stack`, gaussian least squares included; both return a
:class:`FitStack`, and the Firth fit is an ascent of a stack of one.  The
score cache (:mod:`abnkit.cache`) fits a node's parent sets of one
cardinality in stacks, :func:`fit_node` fits a stack of one, and each
problem's arithmetic is the same in both, so each stacked fit's own result,
failed or unconverged fits included, is bit for bit fit_node's.  A binomial
or poisson evaluation's means, from :func:`families.loglik_mean`'s one
``exp``, pass on to the derivatives of the same iterate.  No fit or
evaluation computes a log-gamma: the precision prior's normaliser is the
constant ``PRECISION_LOG_NORM``, and the poisson ``log y!`` and the MDL
penalty read the memoised ``log k!`` table of :func:`families.log_factorials`.

All scores are stored in larger-is-better orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import families
from .dag import Dag
from .data import Dataset, DesignMatrix, build_design
from .errors import (AllPredictorsDropped, ConfigError, FitError, NoObservations,
                     NonFiniteData, NonPositiveDefiniteHessian, RangeTooNarrow)

UNBOUNDED_COEF = 500.0
NEWTON_MAX_ITER = 200
NEWTON_GRAD_TOL = 1e-8
# Gamma(shape, rate) prior on a gaussian node's precision tau
PRECISION_SHAPE = 0.001
PRECISION_RATE = 0.001
# the prior's log normaliser, log(rate^shape / Gamma(shape))
PRECISION_LOG_NORM = (PRECISION_SHAPE * math.log(PRECISION_RATE)
                      - families.log_gamma(PRECISION_SHAPE))
RANGE_SD = 6.0  # marginal density grids span mode +/- this many posterior sds


@dataclass(frozen=True)
class PriorSpec:
    """Parameter priors for the bayes fitting mode.

    Every regression coefficient gets an independent N(0, coef_variance)
    prior; the gaussian-node precision tau gets a Gamma(0.001, 0.001) prior
    (shape, rate: ``PRECISION_SHAPE``, ``PRECISION_RATE``).  Setting
    ``fixed_precision`` removes tau from the parameter vector (used by the
    conjugate-evidence checks).
    """

    coef_variance: float = 1000.0
    fixed_precision: float | None = None

    def __post_init__(self):
        if self.coef_variance <= 0:
            raise ValueError("coef_variance must be positive")


@dataclass(frozen=True)
class FitResult:
    """Fitted node model: estimates, curvature and scores.

    ``neg_hessian`` is the curvature in the optimized parameters: the
    coefficients, then the log-precision of a gaussian bayes fit whose
    precision was not fixed.
    """

    labels: tuple[str, ...]
    coefficients: np.ndarray
    family: str
    method: str
    log_likelihood: float
    neg_hessian: np.ndarray = field(repr=False)
    gaussian_log_precision: float | None = None
    mlik: float | None = None
    dropped_predictors: tuple[str, ...] = ()
    used_firth: bool = False
    converged: bool = True

    @property
    def precision(self) -> float | None:
        if self.gaussian_log_precision is None:
            return None
        return float(np.exp(self.gaussian_log_precision))

    def status(self) -> list[str]:
        """How the fit is degraded, in words: ``pruned:<dropped names>``,
        ``firth``, ``unconverged``, in that order; none for a clean fit."""
        words = ["pruned:" + ",".join(self.dropped_predictors)] if self.dropped_predictors else []
        if self.used_firth:
            words.append("firth")
        if not self.converged:
            words.append("unconverged")
        return words

    def coefficient(self, label: str) -> float:
        return float(self.coefficients[self.labels.index(label)])

    def format_lines(self, child: str) -> list[str]:
        """Human-readable coefficient block, one ``child|parent value`` line."""
        lines = [f"{child}|{label}\t{value:.6g}"
                 for label, value in zip(self.labels, self.coefficients)]
        if self.gaussian_log_precision is not None:
            lines.append(f"{child}|precision\t{self.precision:.6g}")
        return lines


# --------------------------------------------------------------------------
# priors and the one objective
# --------------------------------------------------------------------------


def _precision(log_precision: float) -> float:
    """``math.exp(log_precision)``, or inf where that overflows: the
    objective is then not finite, and step halving rejects the iterate."""
    try:
        return math.exp(log_precision)
    except OverflowError:
        return math.inf


class _Objective:
    """Log-likelihood of a stack of B designs of one response, plus the
    log-prior of a bayes fit, and its derivatives; ``priors=None`` gives an
    MLE fit's objective, the log-likelihood alone.

    ``X`` is a (B, n, p) stack of designs laid out by
    :func:`~abnkit.data.design_stack`, which the objective also uses through
    ``Xt``, the transposed (B, p, n) view.  Each problem takes the BLAS calls
    of a stack of one: a gemv for ``X @ theta`` and ``X'r``, a syrk for a
    gaussian ``X'X``, a dot for ``r'r``; its precision is ``math.exp`` of its
    own log-precision (inf where that overflows), and its sums are
    ``np.add.reduce`` over its own row.  The per-fit constants (prior
    precision matrix, gaussian ``X'X``, poisson ``log y!``) are built once.
    ``params`` is (B, P): the coefficients, then the gaussian log-precision
    unless it is fixed.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, family: str,
                 priors: PriorSpec | None = None):
        self.X, self.Xt, self.family = X, X.transpose(0, 2, 1), family
        self.priors = priors
        self.width = X.shape[2]
        gaussian = self.family == "gaussian"
        self.y = y[None]  # one row, shaped like each problem's eta
        self.fixed_precision = None if priors is None or not gaussian else priors.fixed_precision
        self.free_precision = gaussian and self.fixed_precision is None
        if priors is None:  # the derivatives' prior terms are zeros
            self.coef_variance, self.prior_precision = math.inf, 0.0
        else:
            self.coef_variance = priors.coef_variance
            self.prior_precision = np.eye(self.width) / priors.coef_variance
            # the N(0, v) coefficient log-prior is this minus |theta|^2 / 2v
            self.coef_norm = -0.5 * self.width * np.log(2.0 * np.pi * priors.coef_variance)
        self.gram = self.Xt @ self.X if gaussian else None
        self.log_factorial = families.log_y_factorial(y) if family == "poisson" else None

    @classmethod
    def of(cls, design: DesignMatrix, priors: PriorSpec | None = None) -> _Objective:
        """The objective of one design, a stack of one."""
        return cls(design.predictors[None], design.response, design.family, priors)

    def split(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(coefficients, log-precisions or None) of a stack of optimized vectors."""
        if self.free_precision:
            return params[:, :self.width], params[:, self.width]
        return params, None

    def precisions(self, log_precision: np.ndarray | None) -> np.ndarray:
        """Each gaussian problem's precision tau, (B,)."""
        if log_precision is None:
            return np.full(len(self.X), self.fixed_precision)
        return np.array([_precision(lam) for lam in log_precision.tolist()])

    def linear(self, theta: np.ndarray) -> np.ndarray:
        """Each problem's linear predictor ``X @ theta``, (B, n)."""
        if self.family == "gaussian":
            return (self.X @ theta[:, :, None])[:, :, 0]
        return (theta[:, None, :] @ self.Xt)[:, 0]

    def evaluate(self, params: np.ndarray):
        """(objectives, state) at ``params``, as :func:`_ascend` takes them;
        the state is (log-likelihoods, eta, means), the means None for a
        gaussian node."""
        theta, log_precision = self.split(params)
        eta, mu = self.linear(theta), None
        if self.family == "gaussian":
            tau = self.precisions(log_precision)
            terms = families.loglik_terms("gaussian", self.y, eta, tau[:, None])
        else:
            terms, mu = families.loglik_mean(self.family, self.y, eta, self.log_factorial)
        ll = np.add.reduce(terms, axis=1)
        joint = ll
        if self.priors is not None:
            sq = np.add.reduce(theta**2, axis=1)
            joint = ll + (self.coef_norm - 0.5 * sq / self.coef_variance)
            if self.free_precision:  # Gamma(a, rate b) on tau, as a density of log tau
                a, b = PRECISION_SHAPE, PRECISION_RATE
                joint += PRECISION_LOG_NORM + a * log_precision - b * tau
        return joint, (ll, eta, mu)

    def grad_curvature(self, params: np.ndarray, state):
        """Gradients (B, P) and curvatures, the negative Hessians (B, P, P),
        of the objective at ``params``, whose :meth:`evaluate` state is
        ``state``."""
        Xt, y, p = self.Xt, self.y, self.width
        _, eta, mu = state
        v = self.coef_variance
        if self.family == "gaussian":
            theta, lam = self.split(params)
            tau = self.precisions(lam)
            r = y - eta
            xr = (Xt @ r[:, :, None])[:, :, 0]
            coef_grad = tau[:, None] * xr - theta / v
            coef_curv = tau[:, None, None] * self.gram + self.prior_precision
            if not self.free_precision:
                return coef_grad, coef_curv
            rr = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
            a, b = PRECISION_SHAPE, PRECISION_RATE
            grad = np.column_stack([coef_grad, 0.5 * y.shape[1] - 0.5 * tau * rr + a - b * tau])
            curv = np.empty((len(params), p + 1, p + 1))
            curv[:, :p, :p] = coef_curv
            curv[:, :p, p] = curv[:, p, :p] = -tau[:, None] * xr
            curv[:, p, p] = 0.5 * tau * rr + b * tau
            return grad, curv
        w = families.irls_weights(self.family, mu)
        grad = (Xt @ (y - mu)[:, :, None])[:, :, 0]
        curv = Xt @ (Xt * w[:, None, :]).transpose(0, 2, 1)
        if self.priors is None:
            return grad, curv
        return grad - params / v, curv + self.prior_precision


# --------------------------------------------------------------------------
# fitting: Newton ascent; mle with Firth + pruning; bayes posterior mode
# --------------------------------------------------------------------------


class _Diverged(FitError):
    pass


def _each(fn, error: type[Exception], fill: float, *stacks: np.ndarray):
    """``fn(*stacks)`` of a stack of problems, one per row of each array in
    ``stacks``, and each problem's ``error`` or None.  When the stack raises
    ``error``, each problem runs as a stack of one; the results are then
    shaped like the last array in ``stacks``, and a failing problem's is ``fill``."""
    try:
        return fn(*stacks), [None] * len(stacks[0])
    except error:
        out, errors = np.full_like(stacks[-1], fill), [None] * len(stacks[0])
    for k in range(len(out)):
        try:
            out[k] = fn(*(s[k:k + 1] for s in stacks))[0]
        except error as exc:
            errors[k] = exc
    return out, errors


def _solve(a: np.ndarray, b: np.ndarray):
    """Solutions (B, P) of a stack of systems ``a x = b``, ``a`` (B, P, P)
    and ``b`` (B, P), each by the LAPACK call of a stack of one, and each
    system's LinAlgError or None; a singular system's solution is 0."""
    # a (B, P, 1) right-hand side: NumPy 2 solves a (B, P) one as one matrix
    return _each(lambda a, b: np.linalg.solve(a, b[:, :, None])[:, :, 0],
                 np.linalg.LinAlgError, 0.0, a, b)


def _ascend(value, derivatives, params: np.ndarray, live: list[int] | None = None):
    """Newton ascent with step halving of a stack of B problems from
    ``params`` (B, P): (params, objectives, state, curvatures) at the final
    params, and lists of which problems converged and which met singular
    curvature.  ``value(params)`` returns the objectives (B,) and a state,
    ``derivatives(params, state)`` the gradients (B, P) and the curvatures
    (B, P, P): negative Hessians or positive definite stand-ins.

    Each problem in ``live`` (all by default) halves its own step and stops
    on its own, keeping its params from then on: converged at max|grad| <
    NEWTON_GRAD_TOL or a step below 1e-10; after 40 halvings without ascent,
    or NEWTON_MAX_ITER steps, converged iff max|grad| < 1e-4; unconverged at
    singular curvature.  The other problems keep their params, unconverged.
    """
    f_old, state = value(params)
    n = len(params)
    live = list(range(n)) if live is None else live
    converged, singular = [False] * n, [False] * n
    for _ in range(NEWTON_MAX_ITER):
        grad, curv = derivatives(params, state)
        gmax = np.abs(grad).max(axis=1).tolist()
        for b in live:
            converged[b] = gmax[b] < NEWTON_GRAD_TOL
        live = [b for b in live if not converged[b]]
        if not live:
            break
        if len(live) == n:
            step, failed = _solve(curv, grad)
        else:  # stopped problems take no step
            step = np.zeros_like(grad)
            step[live], failed = _solve(curv[live], grad[live])
        if any(failed):
            for b, error in zip(live, failed):
                singular[b] = error is not None
            live = [b for b in live if not singular[b]]
            if not live:
                break
        cand, scale, todo, floor = params + step, [1.0] * n, live, f_old.tolist()
        for _ in range(40):
            f_new, state_new = value(cand)
            f = f_new.tolist()
            todo = [b for b in todo if not (math.isfinite(f[b]) and f[b] >= floor[b] - 1e-12)]
            if not todo:
                break
            for b in todo:
                scale[b] /= 2.0
                cand[b] = params[b] + scale[b] * step[b]
        else:  # no ascent step: these problems stop, their grad and curv are those of params
            for b in todo:
                converged[b] = gmax[b] < 1e-4
            live = [b for b in live if b not in todo]
            if not live:
                break
            cand[todo] = params[todo]
            f_new, state_new = value(cand)
        params, f_old, state = cand, f_new, state_new
        smax = np.abs(step).max(axis=1).tolist()
        for b in live:
            converged[b] = smax[b] * scale[b] < 1e-10
        live = [b for b in live if not converged[b]]
    else:
        grad, curv = derivatives(params, state)
        for b in live:
            converged[b] = np.abs(grad[b]).max() < 1e-4
    return params, f_old, state, curv, converged, singular


def _firth(design: DesignMatrix) -> FitResult:
    """Firth-penalized logistic fit: maximizes ll + 0.5*logdet(X'WX) from
    zero, by :func:`_ascend` of a stack of one.  Singular curvature raises
    _Diverged."""
    obj = _Objective.of(design)
    X, y = design.predictors, design.response

    def penalized(theta):
        ll, (_, _, mu) = obj.evaluate(theta)
        wx = X * families.irls_weights("binomial", mu[0])[:, None]
        info = X.T @ wx
        sign, logdet = np.linalg.slogdet(info)
        return (ll + 0.5 * logdet if sign > 0 else np.full(1, -np.inf)), (ll, mu[0], wx, info)

    def modified_score(theta, state):
        _, mu, wx, info = state
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            raise _Diverged("singular information matrix in Firth fit")
        h = np.einsum("ij,ji->i", X, np.linalg.solve(info, wx.T))
        return (X.T @ (y - mu + h * (0.5 - mu)))[None], info[None]

    theta, _, (ll, *_), info, converged, singular = _ascend(
        penalized, modified_score, np.zeros((1, X.shape[1])))
    if singular[0]:
        raise _Diverged("singular curvature")
    return FitResult(labels=design.labels, coefficients=theta[0], family="binomial",
                     method="mle", log_likelihood=float(ll[0]), neg_hessian=info[0],
                     used_firth=True, converged=converged[0])


def _fit_mle_once(design: DesignMatrix) -> FitResult:
    """One MLE fit of the whole design, :func:`fit_mle_stack` of a stack of
    one; a binomial fit that fails there or does not converge is fitted
    again with Firth's penalty.  Raises _Diverged or LinAlgError."""
    fit = fit_mle_stack(design.predictors[None], design.response, design.family)
    if design.family == "binomial" and not (fit.errors[0] is None and fit.converged[0]):
        return _firth(design)
    fit = _fit_result(fit, design)
    if not fit.converged:
        raise _Diverged("Newton ascent did not converge")
    return fit


def _fit_mle(design: DesignMatrix) -> FitResult:
    """The MLE fit of ``design``, or of what is left after dropping
    predictors until the fit succeeds.

    Each round removes the predictor whose removal costs the least
    log-likelihood (ties drop the lexicographically last name); the round's
    scan has already fitted the kept design.  When even the intercept-only
    design fails, its fit's error propagates.
    """
    try:
        return _fit_mle_once(design)
    except (_Diverged, np.linalg.LinAlgError):
        if design.width == 1:
            raise
    dropped: list[str] = []
    fit = None
    while fit is None:
        best_ll, best = -np.inf, None
        for label in sorted(design.labels[1:]):
            sub = design.drop(label)
            try:
                sub_fit = _fit_mle_once(sub)
                ll = sub_fit.log_likelihood
            except (FitError, np.linalg.LinAlgError):
                if sub.width == 1:
                    raise
                sub_fit, ll = None, -np.inf
            if not math.isfinite(ll):
                ll = -np.inf
            if ll >= best_ll:
                best_ll, best = ll, (label, sub, sub_fit)
        label, design, fit = best
        dropped.append(label)
    if design.width == 1 and not math.isfinite(fit.log_likelihood):
        raise AllPredictorsDropped(f"node {design.child!r}: every predictor was removed and "
                                   "the intercept-only fallback is still non-finite")
    return replace(fit, dropped_predictors=tuple(dropped))


class FitStack(NamedTuple):
    """Fits of a stack of B designs of one response, by either method: the
    estimates or modes (B, p), the gaussian log-precisions (B,) or None,
    log-likelihoods (B,), negative Hessians (B, P, P) in the optimized
    parameters, the Laplace log-evidences (B,) of bayes fits or None,
    whether each fit converged, and the error that failed it or None."""

    coefficients: np.ndarray
    log_precisions: np.ndarray | None
    log_likelihoods: np.ndarray
    neg_hessians: np.ndarray
    mliks: np.ndarray | None
    converged: list[bool]
    errors: list[Exception | None]


def _fit_result(fit: FitStack, design: DesignMatrix) -> FitResult:
    """The FitResult of ``fit``, the fit of ``design`` as a stack of one, or
    its error raised."""
    if fit.errors[0] is not None:
        raise fit.errors[0]
    lam = None if fit.log_precisions is None else float(fit.log_precisions[0])
    mlik = None if fit.mliks is None else float(fit.mliks[0])
    return FitResult(labels=design.labels, coefficients=fit.coefficients[0],
                     family=design.family, method="mle" if mlik is None else "bayes",
                     log_likelihood=float(fit.log_likelihoods[0]),
                     neg_hessian=fit.neg_hessians[0], gaussian_log_precision=lam, mlik=mlik,
                     converged=fit.converged[0])


def fit_mle_stack(X: np.ndarray, y: np.ndarray, family: str) -> FitStack:
    """MLE fits of a stack of designs, ``X`` (B, n, p), of one response
    ``y``, laid out by :func:`~abnkit.data.design_stack`; each fit takes the
    last bits of a stack of one.

    A gaussian fit is one least-squares solve of its design, with the
    precision profiled out at n / RSS; it fails on a rank-deficient design
    or a non-finite solution.  Binomial and poisson fits are one Newton
    ascent of the stack's log-likelihood: IRLS, for the canonical links.
    Each starts from IRLS's first weighted least-squares step and takes the
    iterates of a stack of one.  It fails, first reason first, on an
    all-zero poisson response, a singular start, an iterate that certifies
    complete separation (where it stops), singular curvature, or non-finite
    estimates or any beyond UNBOUNDED_COEF.
    """
    # overflow/underflow is detected explicitly via finiteness checks
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if family == "gaussian":
            n_sets, n_obs, p = X.shape
            theta, lam = np.full((n_sets, p), np.nan), np.full(n_sets, np.nan)
            ll, info = lam.copy(), np.full((n_sets, p, p), np.nan)
            errors: list[Exception | None] = [None] * n_sets
            for b, x in enumerate(X):
                try:
                    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
                except np.linalg.LinAlgError as exc:
                    errors[b] = exc
                    continue
                if rank < p or not np.all(np.isfinite(beta)):
                    errors[b] = _Diverged("rank-deficient design" if rank < p
                                          else "non-finite least-squares solution")
                    continue
                # the precision is profiled out at n / RSS
                eta = x @ beta
                tau = 1.0 / max(float(np.sum((y - eta) ** 2)) / n_obs, 1e-300)
                theta[b], lam[b] = beta, np.log(tau)
                ll[b] = np.sum(families.loglik_terms("gaussian", y, eta, tau))
                # the information uses exp(log tau), the precision the fit reports
                info[b] = math.exp(lam[b]) * (x.T @ x)
            return FitStack(theta, lam, ll, info, None, [True] * n_sets, errors)
        obj = _Objective(X, y, family)
        binomial = family == "binomial"
        # start from the first IRLS step: weighted least squares at mu0
        mu = (y + 0.5) / 2.0 if binomial else y + 0.5
        w = families.irls_weights(family, mu)
        wx = X * w[:, None]
        z = families.link(family, mu) + (y - mu) / w
        theta, failed = _solve(obj.Xt @ wx, wx.transpose(0, 2, 1) @ z)
        errors = [error and _Diverged("singular weighted design") for error in failed]
        if not binomial and not np.any(y):
            # sum(-exp(eta)) rises toward 0 as the intercept falls: no finite MLE
            errors = [_Diverged("all-zero poisson response") for _ in errors]
        live, sign = [b for b, error in enumerate(errors) if error is None], 2.0 * y - 1.0

        def score(theta, state):
            grad, curv = obj.grad_curvature(theta, state)
            if binomial:
                # an iterate that classifies every 0/1 response certifies that
                # no finite MLE exists; a zero gradient stops its problem there
                for b in np.flatnonzero((sign * state[1]).min(axis=1) > 0).tolist():
                    errors[b], grad[b] = errors[b] or _Diverged("complete separation"), 0.0
            return grad, curv

        theta, ll, _, info, converged, singular = _ascend(obj.evaluate, score, theta, live)
        bounded = np.all(np.abs(theta) <= UNBOUNDED_COEF, axis=1).tolist()  # NaN fails too
        for b in live:
            if errors[b] is None and (singular[b] or not bounded[b]):
                errors[b] = _Diverged("singular curvature" if singular[b]
                                      else "non-finite or unbounded estimates")
    return FitStack(theta, None, ll, info, None, converged, errors)


def fit_bayes_stack(X: np.ndarray, y: np.ndarray, family: str, child: str,
                    priors: PriorSpec = PriorSpec()) -> FitStack:
    """Bayes fits of a stack of designs of node ``child``'s response ``y``
    by one Newton ascent.

    ``X`` is (B, n, p) and ``y`` the response, as
    :func:`~abnkit.data.design_stack` lays them out, so that each fit takes
    the iterates and the last bits of a stack of one.
    A binomial or poisson fit starts from the intercept at the link of the
    clamped mean response, with 0 slopes; a gaussian fit from
    ``solve(X'X + I/v, X'y)`` and a free log-precision of
    ``log(n / max(RSS, 1e-12))``, which needs a finite RSS.  A fit fails
    when its start does, on singular curvature, or when its negative Hessian
    at the mode is not positive definite; :func:`fit_node` fits a stack of
    one and raises its error.
    """
    # overflow/underflow is detected explicitly via finiteness checks
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        post = _Objective(X, y, family, priors)
        p = post.width
        params = np.zeros((len(X), p + post.free_precision))
        errors: list[Exception | None] = [None] * len(X)
        if family == "gaussian":
            params[:, :p], failed = _solve(post.gram + post.prior_precision,
                                           (post.Xt @ y[:, None])[:, :, 0])
            errors = [e and _Diverged(f"node {child!r}: singular start") for e in failed]
        elif family == "binomial":
            params[:, 0] = families.link(family, min(max(float(np.mean(y)), 1e-3), 1 - 1e-3))
        else:
            params[:, 0] = math.log(max(float(np.mean(y)), 1e-8))
        if post.free_precision:
            rss = np.add.reduce((post.y - post.linear(params[:, :p])) ** 2, axis=1)
            for b, value in enumerate(rss.tolist()):
                if math.isfinite(value):
                    params[b, p] = math.log(len(y) / max(value, 1e-12))
                else:
                    errors[b] = errors[b] or FitError(
                        f"node {child!r}: the residual sum of squares overflows")
        params, joint, (ll, eta, _), neg_h, converged, singular = _ascend(
            post.evaluate, post.grad_curvature, params,
            [b for b, error in enumerate(errors) if error is None])
        errors = [_Diverged("singular curvature") if s and e is None else e
                  for e, s in zip(errors, singular)]
        theta, lam = post.split(params)
        if post.fixed_precision is not None:
            lam = np.full(len(params), float(np.log(post.fixed_precision)))
            # the reported likelihood uses exp(log tau), not tau itself
            terms = families.loglik_terms(family, post.y, eta, math.exp(lam[0]))
            ll = np.add.reduce(terms, axis=1)
        mlik, failed = _each(lambda h, j: _laplace(j, params.shape[1], h),
                             NonPositiveDefiniteHessian, np.nan, neg_h, joint)
        errors = [e or x for e, x in zip(errors, failed)]
    return FitStack(theta, lam, ll, neg_h, mlik, converged, errors)


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------


def fit_node(design: DesignMatrix, method: str = "bayes",
             priors: PriorSpec = PriorSpec()) -> FitResult:
    """Fit one node's regression, in the design's family, by the requested
    method.

    The returned FitResult carries the Laplace marginal likelihood (bayes)
    or the log-likelihood ready for :func:`frequentist_scores` (mle).
    """
    if design.n_obs < 1:
        raise NoObservations(f"node {design.child!r} has no observations")
    if not (np.all(np.isfinite(design.predictors))
            and np.all(np.isfinite(design.response))):
        raise NonFiniteData(f"node {design.child!r} design contains non-finite values")
    families.check_family(design.family)
    # overflow/underflow is detected explicitly via finiteness checks
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if method == "mle":
            return _fit_mle(design)
        if method == "bayes":
            return _fit_result(fit_bayes_stack(design.predictors[None], design.response,
                                               design.family, design.child, priors), design)
    raise ValueError(f"unknown method {method!r}; expected 'bayes' or 'mle'")


def fit_dag(ds: Dataset, dag: Dag, method: str = "bayes") -> dict[str, FitResult]:
    """Fit every node of a DAG against its parents; keyed by node name."""
    if dag.nodes != ds.names:
        raise FitError("DAG node set differs from dataset columns")
    return {
        node: fit_node(build_design(ds, node, dag.parents(node)), method=method)
        for node in dag.nodes
    }


def _laplace(joint, n_params: int, neg_hessian: np.ndarray):
    """Laplace's log-evidence at a mode, or at each of a stack of modes."""
    try:
        chol = np.linalg.cholesky(neg_hessian)
    except np.linalg.LinAlgError:
        raise NonPositiveDefiniteHessian(
            "negative Hessian is not positive definite at the reported mode")
    logdet = 2.0 * np.add.reduce(np.log(chol.diagonal(0, -2, -1)), axis=-1)
    return joint + 0.5 * n_params * np.log(2.0 * np.pi) - 0.5 * logdet


@dataclass(frozen=True)
class FrequentistScores:
    loglik: float
    aic: float
    bic: float
    mdl: float


def information_criteria(ll, n_coefficients, family: str, n_obs: int,
                         n_candidate_parents: int) -> tuple:
    """Larger-is-better (loglik, aic, bic, mdl) of the MLE log-likelihood
    ``ll``, a float or an array of fits, of ``n_coefficients`` coefficients
    each: an int, or an array with one width per fit.

    ``k`` counts every estimated parameter (variance included for gaussian
    nodes).  The MDL adds to BIC a structure-encoding penalty of
    ``log C(n_candidate_parents, k - 1)``, the cost of naming which
    predictors enter; the binomial index is clamped to the valid range.
    """
    k = np.asarray(n_coefficients, dtype=np.int64) + (1 if family == "gaussian" else 0)
    bic = ll - 0.5 * k * math.log(n_obs)
    pick = np.clip(k - 1, 0, n_candidate_parents)
    log_k = np.array(families.log_factorials(n_candidate_parents))
    return ll, ll - k, bic, bic - (log_k[-1] - log_k[pick] - log_k[n_candidate_parents - pick])


def frequentist_scores(
    fit: FitResult, n_obs: int, n_candidate_parents: int
) -> FrequentistScores:
    """The :func:`information_criteria` of an MLE fit."""
    if fit.method != "mle":
        raise FitError("frequentist_scores needs an mle fit")
    return FrequentistScores(*map(float, information_criteria(
        fit.log_likelihood, len(fit.coefficients), fit.family, n_obs, n_candidate_parents)))


def check_grid_size(n_grid: int) -> None:
    """Raise ConfigError unless a density grid of ``n_grid`` points is usable."""
    if n_grid < 3:  # two points are the +/- RANGE_SD endpoints alone
        raise ConfigError(f"a density grid needs at least 3 points, got {n_grid}")


@dataclass(frozen=True)
class ParamDensity:
    """Marginal posterior density of one parameter on a finite grid."""

    label: str
    grid: np.ndarray
    density: np.ndarray
    probabilities: np.ndarray
    area: float


def marginal_densities(fit: FitResult, n_grid: int = 1000) -> list[ParamDensity]:
    """Gaussian Laplace marginals for every parameter of a bayes fit.

    The parameters are the coefficients, then the gaussian log-precision
    when the fit optimized it (its curvature then has one more row than
    there are coefficients).  Each parameter gets a grid of ``n_grid``
    points over mode +/- ``RANGE_SD`` posterior standard deviations.  The
    reported ``area`` is the raw trapezoid integral (a diagnostic that
    should sit within 1 +/- 0.01 for an adequate range); ``probabilities``
    renormalize the grid for categorical sampling.  Raises RangeTooNarrow
    when the boundary density exceeds 1e-3 of the peak.
    """
    if fit.method != "bayes":
        raise FitError("marginal_densities needs a bayes-mode fit")
    check_grid_size(n_grid)
    cov = np.linalg.inv(fit.neg_hessian)
    modes = list(fit.coefficients)
    labels = list(fit.labels)
    if len(fit.neg_hessian) > len(fit.coefficients):
        modes.append(fit.gaussian_log_precision)
        labels.append("log_precision")
    out = []
    for k, (label, mode) in enumerate(zip(labels, modes)):
        sd = math.sqrt(max(cov[k, k], 1e-300))
        grid = np.linspace(mode - RANGE_SD * sd, mode + RANGE_SD * sd, n_grid)
        density = np.exp(-0.5 * ((grid - mode) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        peak = float(density.max())
        if max(density[0], density[-1]) > 1e-3 * peak:
            raise RangeTooNarrow(
                f"density of {label!r} has not vanished at +/-{RANGE_SD} sd"
            )
        area = float(np.trapezoid(density, grid))
        out.append(ParamDensity(label=label, grid=grid, density=density,
                                probabilities=density / density.sum(), area=area))
    return out
