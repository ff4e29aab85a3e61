"""Information-theoretic arc strength: discretization, plug-in entropy,
mutual information, and percentage link strength.

All entropies are plug-in estimates over observed joint cells, in bits.
The plug-in estimator is biased low in small samples; no bias correction is
applied (the percentage ratio partly cancels it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dag import Dag
from .data import Dataset
from .errors import AbnError, ConfigError, UnknownName

RULES = ("fixed_k", "sturges", "scott", "freedman_diaconis")


@dataclass(frozen=True)
class DiscretizedData:
    """Per-column integer bin indices."""

    names: tuple[str, ...]
    indices: np.ndarray = field(repr=False)  # (n_obs, n_cols) int64

    def column(self, name: str) -> np.ndarray:
        try:
            return self.indices[:, self.names.index(name)]
        except ValueError:
            raise UnknownName(f"unknown column {name!r}") from None


def _n_bins(rule: str, x: np.ndarray, fixed_k: int) -> int:
    n = len(x)
    if rule == "fixed_k":
        return fixed_k
    if rule == "sturges":
        return int(np.ceil(np.log2(n))) + 1
    span = float(x.max() - x.min())
    if span == 0.0:
        return 1
    if rule == "scott":
        width = 3.49 * float(np.std(x, ddof=1)) * n ** (-1 / 3)
    else:  # freedman_diaconis
        q75, q25 = np.percentile(x, [75, 25])
        width = 2.0 * float(q75 - q25) * n ** (-1 / 3)
    if width <= 0.0:
        return 1
    return max(int(np.ceil(span / width)), 1)


def discretize(ds: Dataset, rule: str = "fixed_k", fixed_k: int = 8) -> DiscretizedData:
    """Bin every non-binomial column by the chosen histogram rule.

    ``fixed_k`` uses quantile edges, making downstream strengths invariant
    under strictly monotone transforms; the other rules use equal-width bins
    over the observed range.  Binomial columns pass through as two bins;
    constant columns collapse to a single bin (entropy 0 downstream).
    """
    if rule not in RULES:
        raise AbnError(f"unknown discretization rule {rule!r}; expected one of {RULES}")
    if rule == "fixed_k" and fixed_k < 1:
        raise ConfigError(f"fixed_k needs at least one bin, got {fixed_k}")
    indices = np.zeros((ds.n_obs, len(ds.names)), dtype=np.int64)
    for j, dist in enumerate(ds.distributions):
        x = ds.columns[:, j]
        if dist == "binomial":
            indices[:, j] = x.astype(np.int64)
            continue
        k = _n_bins(rule, x, fixed_k)
        if k <= 1 or x.max() == x.min():
            edges = np.array([])
        elif rule == "fixed_k":
            qs = np.quantile(x, np.arange(1, k) / k)
            edges = np.unique(qs)
        else:
            edges = np.linspace(x.min(), x.max(), k + 1)[1:-1]
        indices[:, j] = np.searchsorted(edges, x, side="right")
    return DiscretizedData(names=ds.names, indices=indices)


def _cell_counts(rows: np.ndarray) -> np.ndarray:
    """How often each distinct row of a 2-D array occurs, in lexicographic
    row order: the counts of ``np.unique(rows, axis=0, return_counts=True)``.

    Each row gets one mixed-radix code, first column most significant, so
    codes sort like rows; re-compacting after every column keeps the codes
    below the row count, so they never overflow.
    """
    code = None
    for column in rows.T:
        levels, index = np.unique(column, return_inverse=True)
        if code is None:
            code = index
        else:
            _, code = np.unique(code * len(levels) + index, return_inverse=True)
    return np.bincount(code)


def empirical_entropy(*columns: np.ndarray) -> float:
    """Plug-in joint entropy H = -sum p log2 p over observed cells, in bits."""
    if not columns:
        raise AbnError("need at least one column")
    stacked = np.column_stack([np.asarray(c) for c in columns])
    if stacked.shape[0] == 0:
        raise AbnError("columns are empty")
    counts = _cell_counts(stacked)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def conditional_entropy(y: np.ndarray, *given: np.ndarray) -> float:
    """H(y | given) = H(y, given) - H(given); H(y) when nothing is given."""
    if not given:
        return empirical_entropy(y)
    return empirical_entropy(y, *given) - empirical_entropy(*given)


def pls_matrix(dag: Dag, disc: DiscretizedData) -> np.ndarray:
    """Percentage link strength of every arc, in the row=child layout.

    For an arc X -> Y with co-parents Z, the entry (Y, X) is
    ``(H(Y|Z) - H(Y|X,Z)) / H(Y|Z)``: the share of the child's remaining
    uncertainty removed by learning X.  Defined 0 when H(Y|Z) is already 0;
    non-arcs stay 0.
    """
    n = dag.n_nodes
    out = np.zeros((n, n))
    for child in dag.nodes:
        i = dag.index(child)
        parents = dag.parents(child)
        y = disc.column(child)
        for x_name in parents:
            z_cols = [disc.column(p) for p in parents if p != x_name]
            h_given_z = conditional_entropy(y, *z_cols)
            if h_given_z <= 0.0:
                continue
            h_given_xz = conditional_entropy(y, disc.column(x_name), *z_cols)
            out[i, dag.index(x_name)] = (h_given_z - h_given_xz) / h_given_z
    return out
