"""Canonical-link exponential family machinery shared by fitting and simulation.

Three families are supported, each with its canonical link: binomial-logit,
gaussian-identity, poisson-log.  This module holds the mean and link, the
Newton (IRLS) weights and the per-observation log-likelihood; the fits
themselves, and the one objective they ascend, live in :mod:`abnkit.glm`.
Functions are vectorized over observations and return per-observation
values.

The binomial mean and log-likelihood share one logistic kernel: with
``e = exp(-|eta|)``, ``expit(eta) = where(eta >= 0, 1, e) / (1 + e)`` and
``log(1 + exp(eta)) = max(eta, 0) + log1p(e)``, so :func:`loglik_mean`
returns both from one ``exp``.  Both forms are stable on either tail and
agree with ``scipy.special.expit`` and ``np.logaddexp(0, eta)`` to a few
ulp, at a fraction of their cost.  Gaussian arithmetic does not use the
kernel.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError

FAMILIES = ("binomial", "gaussian", "poisson")


def check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return family


def _logistic(eta: np.ndarray, softplus: bool = False):
    """``(expit(eta), log(1 + exp(eta)) or None)`` for a float array ``eta``,
    from one ``exp``; the second only when ``softplus`` is set."""
    e = np.abs(eta, out=np.empty_like(eta))
    np.negative(e, out=e)
    # exp(-|eta|) and the terms scaled by it may round to subnormals or 0,
    # which is as exact as these values need
    with np.errstate(under="ignore"):
        np.exp(e, out=e)
        mu = np.where(eta >= 0, 1.0, e)
        mu /= 1.0 + e
        if not softplus:
            return mu, None
        np.log1p(e, out=e)
    e += np.maximum(eta, 0.0)
    return mu, e


def mean(family: str, eta: np.ndarray) -> np.ndarray:
    """Inverse canonical link applied to the linear predictor."""
    if family == "binomial":
        return _logistic(np.asarray(eta, dtype=float))[0]
    if family == "poisson":
        with np.errstate(over="ignore"):
            return np.exp(eta)
    return np.asarray(eta, dtype=float)


def link(family: str, mu: np.ndarray) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if family == "binomial":
        return np.log(mu) - np.log1p(-mu)
    if family == "poisson":
        return np.log(mu)
    return mu


def irls_weights(family: str, mu: np.ndarray) -> np.ndarray:
    """Canonical-link IRLS weights, floored away from zero for stability."""
    if family == "binomial":
        w = 1.0 - mu
        w *= mu
        return np.maximum(w, 1e-10, out=w)
    if family == "poisson":
        return np.maximum(mu, 1e-10)
    return np.ones_like(mu)


def log_y_factorial(y: np.ndarray) -> np.ndarray:
    """``log(y!)``, the response-only term of the poisson log-likelihood."""
    y = np.asarray(y, dtype=float)
    if y.size and 0.0 <= y.min() and y.max() < y.size:
        counts = y.astype(np.intp)
        if np.array_equal(counts, y):
            # fewer distinct counts than observations: one gammaln per count
            # up to the largest, looked up; the arguments are y + 1 as below
            return gammaln(np.arange(counts.max() + 1.0) + 1.0)[counts]
    return gammaln(y + 1.0)


def loglik_mean(family: str, y: np.ndarray, eta: np.ndarray,
                log_factorial: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """(per-observation log-likelihood, mean) of a binomial or poisson
    response at the float array ``eta``, from one ``exp``.

    A poisson caller that evaluates many ``eta`` for one ``y`` passes
    ``log_y_factorial(y)`` once as ``log_factorial``.
    """
    terms = y * eta
    if family == "binomial":
        mu, softplus = _logistic(eta, softplus=True)
        terms -= softplus
        return terms, mu
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    if log_factorial is None:
        log_factorial = log_y_factorial(y)
    return terms - mu - log_factorial, mu


def loglik_terms(family: str, y: np.ndarray, eta: np.ndarray,
                 precision: float | None = None) -> np.ndarray:
    """Per-observation log-likelihood at linear predictor ``eta``.

    For the gaussian family ``precision`` (tau = 1/sigma^2) is required.
    """
    y = np.asarray(y, dtype=float)
    if family != "gaussian":
        return loglik_mean(family, y, np.asarray(eta, dtype=float))[0]
    if precision is None:
        raise ValueError("gaussian log-likelihood needs a precision")
    resid = y - eta
    return 0.5 * (np.log(precision) - np.log(2.0 * np.pi)) - 0.5 * precision * resid**2
