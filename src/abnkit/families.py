"""Canonical-link exponential family machinery shared by fitting and simulation.

Three families are supported, each with its canonical link: binomial-logit,
gaussian-identity, poisson-log.  This module holds the mean and link, the
Newton (IRLS) weights and the per-observation log-likelihood; the fits
themselves, including the MLE objective, live in :mod:`abnkit.glm`.
Functions are vectorized over observations and return per-observation
values.
"""

from __future__ import annotations

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
