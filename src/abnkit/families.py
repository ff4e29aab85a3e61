"""Canonical-link exponential family machinery shared by fitting and simulation.

Three families are supported, each with its canonical link: binomial-logit,
gaussian-identity, poisson-log.  Functions are vectorized over observations
and return per-observation values unless noted.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, gammaln

FAMILIES = ("binomial", "gaussian", "poisson")


def check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return family


def mean(family: str, eta: np.ndarray) -> np.ndarray:
    """Inverse canonical link applied to the linear predictor."""
    if family == "binomial":
        return expit(eta)
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
        w = mu * (1.0 - mu)
    elif family == "poisson":
        w = mu
    else:
        w = np.ones_like(mu)
    return np.maximum(w, 1e-10)


def log_y_factorial(y: np.ndarray) -> np.ndarray:
    """``log(y!)``, the response-only term of the poisson log-likelihood."""
    return gammaln(np.asarray(y, dtype=float) + 1.0)


def loglik_terms(family: str, y: np.ndarray, eta: np.ndarray,
                 precision: float | None = None,
                 log_factorial: np.ndarray | None = None) -> np.ndarray:
    """Per-observation log-likelihood at linear predictor ``eta``.

    For the gaussian family ``precision`` (tau = 1/sigma^2) is required.  A
    poisson caller that evaluates many ``eta`` for one ``y`` passes
    ``log_y_factorial(y)`` once as ``log_factorial``.
    """
    y = np.asarray(y, dtype=float)
    if family == "binomial":
        # y*eta - log(1 + exp(eta)), stable on both tails
        return y * eta - np.logaddexp(0.0, eta)
    if family == "poisson":
        with np.errstate(over="ignore"):
            mu = np.exp(eta)
        if log_factorial is None:
            log_factorial = log_y_factorial(y)
        return y * eta - mu - log_factorial
    if precision is None:
        raise ValueError("gaussian log-likelihood needs a precision")
    resid = y - eta
    return 0.5 * (np.log(precision) - np.log(2.0 * np.pi)) - 0.5 * precision * resid**2


def _sum_xlogx(v: np.ndarray) -> float:
    """sum(v * log v) over the entries of ``v`` whose term is not 0."""
    v = v[(v > 0) & (v != 1)]
    return float(v @ np.log(v))


def saturated_deviance_term(family: str, y: np.ndarray) -> float:
    """The response-only half of the binomial or poisson deviance (the
    saturated model's log-likelihood kernel); 0 for 0/1 binomial responses."""
    y = np.asarray(y, dtype=float)
    if family == "binomial":
        return _sum_xlogx(y) + _sum_xlogx(1.0 - y)
    return _sum_xlogx(y) - float(np.sum(y))


def deviance(family: str, y: np.ndarray, mu: np.ndarray, saturated: float) -> float:
    """Binomial or poisson deviance, ``2 * (saturated - fitted)``, where
    ``saturated = saturated_deviance_term(family, y)`` is computed once per
    response and ``fitted`` holds the y-weighted log terms of ``mu``.

    Binomial ``mu`` must lie strictly inside (0, 1).  A poisson ``y == 0``
    term counts 0 even where ``mu`` underflows to 0.
    """
    y = np.asarray(y, dtype=float)
    if family == "binomial":
        fitted = y @ np.log(mu) + (1.0 - y) @ np.log1p(-mu)
        return float(2.0 * (saturated - fitted))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mu = np.log(mu)
        fitted = y @ log_mu
        if math.isnan(fitted):  # 0 * log(0) where a mean underflowed
            log_mu[y == 0] = 0.0
            fitted = y @ log_mu
    return float(2.0 * (saturated - (fitted - np.sum(mu))))
