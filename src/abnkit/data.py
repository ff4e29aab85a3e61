"""Dataset ingestion, validation, standardization and design matrices.

Supported node distributions: binomial (two levels, coded 0/1), gaussian
(continuous) and poisson (nonnegative counts).  Data must be complete;
missing values are rejected at load rather than silently dropped.  Every
design a fit sees is laid out by :func:`design_stack`; :func:`build_design`
is its stack of one.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dag import check_node_names
from .errors import (
    BadLevelCount,
    DataError,
    MissingColumn,
    MissingValue,
    NegativeCount,
    SelfParent,
    UnknownName,
    ZeroVariance,
)
from .families import FAMILIES

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "?"}


@dataclass(frozen=True)
class Dataset:
    """Validated, fully numeric dataset with one declared family per column."""

    names: tuple[str, ...]
    columns: np.ndarray = field(repr=False)  # (n_obs, n_cols) float64
    distributions: tuple[str, ...]
    standardized: bool = False

    def __post_init__(self):
        check_node_names(self.names)
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[1] != len(self.names):
            raise DataError(f"column block shape {cols.shape} does not match names")
        if cols.shape[0] == 0:
            raise DataError("dataset has no observations")
        if not np.all(np.isfinite(cols)):
            raise MissingValue("dataset contains non-finite values")
        for j, (name, dist) in enumerate(zip(self.names, self.distributions)):
            if dist not in FAMILIES:
                raise DataError(f"unknown distribution {dist!r} for column {name!r}")
            col = cols[:, j]
            if dist == "binomial":
                if not np.all((col == 0) | (col == 1)):
                    raise BadLevelCount(
                        f"binomial column {name!r} must be coded 0/1"
                    )
            elif dist == "poisson":
                if np.any(col < 0) or np.any(col != np.floor(col)):
                    raise NegativeCount(
                        f"poisson column {name!r} must hold nonnegative integers"
                    )
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def n_obs(self) -> int:
        return self.columns.shape[0]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownName(f"unknown column {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.columns[:, self.index(name)]

    def dist_map(self) -> dict[str, str]:
        return dict(zip(self.names, self.distributions))

    def fingerprint(self) -> str:
        """Stable hash of values + declared distributions.

        Changes iff the data or the distribution spec changes; used to detect
        stale score caches.
        """
        h = hashlib.sha256()
        for name, dist in zip(self.names, self.distributions):
            h.update(f"{name}={dist};".encode())
        h.update(b"std=1;" if self.standardized else b"std=0;")
        h.update(np.ascontiguousarray(self.columns, dtype=np.float64).tobytes())
        return h.hexdigest()

    def to_csv(self) -> str:
        """The dataset as CSV text: gaussian values by ``repr``, counts and
        0/1 codes as integers."""
        cells = [list(map(repr, column)) if dist == "gaussian"
                 else [str(int(value)) for value in column]
                 for column, dist in zip(self.columns.T.tolist(), self.distributions)]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.names)
        writer.writerows(zip(*cells))
        return buf.getvalue()


def parse_dist_spec(text: str) -> tuple[dict[str, str], str | None]:
    """Parse a ``column=distribution`` spec file.

    One assignment per line; ``#`` starts a comment; the reserved key
    ``group_var`` names an optional grouping column, which the loader skips.
    """
    dists: dict[str, str] = {}
    group_var = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"dist spec line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().lower()
        if key == "group_var":
            group_var = value if value else None
            continue
        if value not in FAMILIES:
            raise DataError(
                f"dist spec line {lineno}: {value!r} is not one of {FAMILIES}"
            )
        dists[key] = value
    if not dists:
        raise DataError("dist spec declares no columns")
    return dists, group_var


def format_dist_spec(dists: Mapping[str, str]) -> str:
    return "\n".join(f"{k}={v}" for k, v in dists.items()) + "\n"


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8: {exc.reason}") from None


def load_dataset(
    path,
    dist_spec: Mapping[str, str] | str | Path,
    group_var: str | None = None,
    text: str | None = None,
) -> Dataset:
    """Read a comma-delimited text file with header into a validated Dataset.

    ``dist_spec`` maps every modeled column to a distribution; it may also be
    the path of a spec file.  Two-level string columns declared binomial are
    mapped to {0, 1} with the lexicographically first level as 0.  The file
    may contain the grouping column ``group_var``, which is checked to exist
    and then skipped; any other undeclared column is an error.  ``text`` is
    the file's text when the caller has read it already.
    """
    if isinstance(dist_spec, (str, Path)):
        dists, spec_group = parse_dist_spec(_read_text(dist_spec))
        group_var = group_var or spec_group
    else:
        dists = dict(dist_spec)

    rows = list(csv.reader(io.StringIO(_read_text(path) if text is None else text)))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header and at least one data row")
    header = [h.strip() for h in rows[0]]
    for col in dists:
        if col not in header:
            raise MissingColumn(f"declared column {col!r} not found in {path}")
    if group_var is not None and group_var not in header:
        raise MissingColumn(f"group_var {group_var!r} not found in {path}")
    for col in header:
        if col not in dists and col != group_var:
            raise MissingColumn(
                f"column {col!r} in {path} is not named in the dist spec"
            )

    # keep file column order for the modeled variables
    names = tuple(c for c in header if c in dists)
    col_pos = {c: header.index(c) for c in header}
    n_obs = len(rows) - 1
    raw: dict[str, list[str]] = {c: [] for c in names}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} fields, expected {len(header)}")
        for c in names:
            raw[c].append(row[col_pos[c]].strip())

    columns = np.empty((n_obs, len(names)), dtype=float)
    for j, name in enumerate(names):
        columns[:, j] = _decode_column(name, raw[name], dists[name])

    return Dataset(
        names=names,
        columns=columns,
        distributions=tuple(dists[c] for c in names),
    )


def _decode_column(name: str, cells: list[str], dist: str) -> np.ndarray:
    if not _MISSING_TOKENS.isdisjoint(map(str.lower, cells)):
        raise MissingValue(f"column {name!r} contains a missing value")
    try:
        values = np.array(list(map(float, cells)))
        numeric = True
    except ValueError:
        numeric = False

    if dist == "binomial":
        if numeric:
            levels = np.unique(values)
        else:
            text_levels = sorted(set(cells))
            if len(text_levels) != 2:
                raise BadLevelCount(
                    f"binomial column {name!r} has {len(text_levels)} levels: {text_levels}"
                )
            mapping = {text_levels[0]: 0.0, text_levels[1]: 1.0}
            return np.array([mapping[c] for c in cells])
        if len(levels) != 2 or set(levels) != {0.0, 1.0}:
            raise BadLevelCount(
                f"binomial column {name!r} must have exactly the levels 0 and 1, "
                f"found {levels.tolist()}"
            )
        return values
    if not numeric:
        raise DataError(f"column {name!r} declared {dist} but is not numeric")
    return values


def standardize(ds: Dataset) -> Dataset:
    """Center and scale every gaussian column to mean 0, sd 1.

    Other columns pass through bit-for-bit.
    """
    columns = np.array(ds.columns)
    for j, (name, dist) in enumerate(zip(ds.names, ds.distributions)):
        if dist != "gaussian":
            continue
        mean = float(columns[:, j].mean())
        sd = float(columns[:, j].std(ddof=1)) if ds.n_obs > 1 else 0.0
        if sd == 0.0:
            raise ZeroVariance(f"gaussian column {name!r} is constant")
        columns[:, j] = (columns[:, j] - mean) / sd
    return Dataset(
        names=ds.names,
        columns=columns,
        distributions=ds.distributions,
        standardized=True,
    )


@dataclass(frozen=True)
class DesignMatrix:
    """Response vector plus predictor block for one node's regression.

    Predictors always lead with an all-ones intercept column; parent columns
    follow in canonical (lexicographic) name order.
    """

    response: np.ndarray
    predictors: np.ndarray
    labels: tuple[str, ...]
    child: str
    family: str

    @property
    def n_obs(self) -> int:
        return self.response.shape[0]

    @property
    def width(self) -> int:
        return self.predictors.shape[1]

    def drop(self, label: str) -> "DesignMatrix":
        """Design with one predictor column removed (never the intercept)."""
        if label == "(Intercept)" or label not in self.labels:
            raise UnknownName(f"cannot drop predictor {label!r}")
        keep = [k for k, lab in enumerate(self.labels) if lab != label]
        return DesignMatrix(
            response=self.response,
            predictors=self.predictors[:, keep],
            labels=tuple(self.labels[k] for k in keep),
            child=self.child,
            family=self.family,
        )


def design_stack(ds: Dataset, child: int, parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Designs of column ``child`` on a stack of B parent sets, and its response.

    ``parents`` is a (B, k) array of column indices, each row in name order.
    Returns X, (B, n, 1 + k), each design an all-ones intercept column and
    then its parents' columns, and y, the child's column.  Every design a fit
    sees is laid out here.  Binomial and poisson fits form X @ theta and
    X'WX at every Newton iterate, and both run about twice as fast on
    column-major designs; their response is copied out of the row-major
    dataset for the same reason.  Gaussian designs are row-major and their
    response a view of the dataset column: the layout changes the last bits
    of X @ theta, and ties between Markov-equivalent gaussian pairs are
    broken on the last bits of their scores.
    """
    n_sets, size = parents.shape
    if ds.distributions[child] == "gaussian":
        X = np.empty((n_sets, ds.n_obs, 1 + size))
        Xt, y = X.transpose(0, 2, 1), ds.columns[:, child]
    else:
        Xt = np.empty((n_sets, 1 + size, ds.n_obs))
        X, y = Xt.transpose(0, 2, 1), np.ascontiguousarray(ds.columns[:, child])
    Xt[:, 0] = 1.0
    # column by column: no fancy-indexed temporary, which would double the
    # cost of a stack of one
    for b, row in enumerate(parents.tolist()):
        for k, j in enumerate(row, start=1):
            Xt[b, k] = ds.columns[:, j]
    return X, y


def mask_parents(ds: Dataset, masks: list[int]) -> np.ndarray:
    """The ``parents`` of :func:`design_stack` for B parent sets of k
    columns each, given as bitmasks over the columns: a (B, k) array of
    column indices, each row in name order."""
    order = np.array(sorted(range(len(ds.names)), key=ds.names.__getitem__))
    bits = np.array(masks, dtype=np.uint64)[:, None] >> order.astype(np.uint64) & 1
    return order[np.nonzero(bits)[1]].reshape(len(masks), masks[0].bit_count())


def build_design(ds: Dataset, child: str, parent_set: Sequence[str]) -> DesignMatrix:
    """The design of ``child`` on ``parent_set``: :func:`design_stack` of one."""
    parents = list(parent_set)
    if child in parents:
        raise SelfParent(f"{child!r} cannot be its own parent")
    if len(set(parents)) != len(parents):
        raise UnknownName(f"duplicate parent names in {parents}")
    order = sorted(parents)
    index = ds.index(child)
    X, y = design_stack(ds, index, np.array([[ds.index(p) for p in order]], dtype=np.intp))
    return DesignMatrix(response=y, predictors=X[0], labels=("(Intercept)", *order),
                        child=child, family=ds.distributions[index])
