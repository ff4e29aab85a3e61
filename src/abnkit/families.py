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

Every log-gamma value abnkit uses (the poisson ``log y!``, the gaussian
precision prior's normaliser, the Koivisto structure prior and the MDL
penalty) comes from :func:`log_gamma`, a scalar port of Cephes ``lgam``
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989),
the routine behind ``scipy.special.gammaln``.  It is built on ``math.log``
and gives gammaln's values to the last bit; ``math.lgamma`` does not (its
``lgamma(3)`` is one ulp off ``log 2``).  Integer arguments are read from
one memoised table, :func:`log_factorials`, so no fit computes a log-gamma.
"""

from __future__ import annotations

import math

import numpy as np

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


# Cephes lgam: the Stirling-series coefficients for x >= 13, and the
# numerator and (monic) denominator of the rational form on [2, 3)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (1.0, -3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LOG_SQRT_2PI = 0.91893853320467274178
_LGAM_OVERFLOW = 2.556348e305


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    """The polynomial with coefficients ``coefs``, highest power first, at
    ``x`` by Horner's rule, as Cephes ``polevl`` (and, with a leading 1.0,
    ``p1evl``) evaluates it."""
    total = coefs[0]
    for c in coefs[1:]:
        total = total * x + c
    return total


def log_gamma(x: float) -> float:
    """``log Gamma(x)`` for ``x >= 0``, bit for bit ``scipy.special.gammaln``:
    ``inf`` at 0 and beyond 2.556348e305, ``nan`` at ``nan``."""
    x = float(x)
    if x < 0.0:
        raise ValueError(f"log_gamma needs x >= 0, got {x!r}")
    if not math.isfinite(x):
        return x
    if x < 13.0:
        # shift x into [2, 3), collecting the factors of Gamma's recurrence
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _LGAM_OVERFLOW:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


_LOG_FACTORIALS: list[float] = []  # log k! = log_gamma(k + 1), grown on demand


def log_factorials(k_max: int) -> list[float]:
    """``[log 0!, log 1!, ..., log k_max!]``, each ``log_gamma(k + 1)``, read
    from one table that grows to the largest ``k_max`` asked for."""
    table = _LOG_FACTORIALS
    while len(table) <= k_max:
        table.append(log_gamma(len(table) + 1.0))
    return table[:k_max + 1]


def log_choose(n: int, k: int) -> float:
    """``log C(n, k)`` for ``0 <= k <= n``, from the ``log k!`` table."""
    log_k = log_factorials(n)
    return log_k[n] - log_k[k] - log_k[n - k]


def log_y_factorial(y: np.ndarray) -> np.ndarray:
    """``log(y!)``, the response-only term of the poisson log-likelihood."""
    y = np.asarray(y, dtype=float)
    if y.size and 0.0 <= y.min() and y.max() < y.size:
        counts = y.astype(np.intp)
        if np.array_equal(counts, y):
            # fewer distinct counts than observations: a table lookup
            return np.array(log_factorials(int(counts.max())))[counts]
    # one log_gamma per distinct value
    values, inverse = np.unique(y, return_inverse=True)
    return np.array([log_gamma(v + 1.0) for v in values.tolist()])[inverse].reshape(y.shape)


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
