"""Parent-set enumeration and score caching.

For every node, all parent sets compatible with the constraints (retained
subset, banned excluded, cardinality limit) are enumerated as bitmasks over
the node index order and scored once: a node's bayes sets in stacks of one
cardinality, laid out by :func:`~abnkit.data.design_stack`, its MLE sets by
one :func:`~abnkit.glm.fit_node` each.  The cache is the single input of
both search backends; a dataset fingerprint guards against scoring one
dataset and searching another.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .dag import ConstraintSet, Dag
from .data import Dataset, design_for_mask, design_stack
from .errors import AbnError, CacheMismatch, ConfigError, UnenumeratedParentSet
from .families import FAMILIES
from .formula import parse_formula, render_formula
from .glm import fit_bayes_stack, fit_node, frequentist_scores

BAYES_SCORES = ("mlik",)
MLE_SCORES = ("loglik", "aic", "bic", "mdl")
# Exceptions a single hard fit may raise; they mark that fit failed.
FIT_ERRORS = (AbnError, np.linalg.LinAlgError, ValueError)
# A node's bayes parent sets of one cardinality are fitted in stacks of as
# many as fit STACK_MAX_CELLS design numbers (512 KiB).
STACK_MAX_CELLS = 2**16
# A fit's cache entry before its finiteness test: the scores, None for a
# failed fit, and the diagnostic or status words.
Outcome = tuple[tuple[float, ...] | None, list[str]]


def default_score_type(method: str) -> str:
    """The score a method reports when none is named."""
    return "mlik" if method == "bayes" else "bic"


def parallel_map(fn, tasks, jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, run in ``min(jobs, len(tasks))``
    worker processes when that is more than one; results keep the task order
    either way."""
    if jobs < 1:
        raise ConfigError(f"need at least one worker process, got {jobs}")
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]


def enumerate_parent_sets(node: int, constraints: ConstraintSet) -> list[int]:
    """All constraint-valid parent sets of one node, as ascending bitmasks.

    Valid means: contains the retained parents, avoids banned parents and the
    node itself, and stays within the node's cardinality limit (which a
    ConstraintSet guarantees the retained parents fit).
    """
    n_nodes = constraints.n_nodes
    if n_nodes > 64:
        raise AbnError("parent-set bitmasks support at most 64 nodes")
    retained = constraints.retained[node].tolist()
    banned = constraints.banned[node].tolist()
    limit = constraints.max_parents[node]
    base = sum(1 << j for j in range(n_nodes) if retained[j])
    free = [1 << j for j in range(n_nodes) if j != node and not banned[j] and not retained[j]]
    # the bits are disjoint, so a sum is their union
    masks = [base + sum(combo)
             for extra in range(limit - sum(retained) + 1)
             for combo in combinations(free, extra)]
    return sorted(masks)


@dataclass(frozen=True)
class ScoreCache:
    """Immutable map (node, parent set) -> score vector.

    ``masks[i]`` lists node i's enumerated parent sets in ascending bitmask
    order; ``scores[i]`` is the aligned (n_sets, n_score_types) block.
    Failed fits carry -inf scores and a diagnostic message.  A finite entry
    whose fit used Firth's penalty or did not converge carries the status
    message ``firth`` or ``unconverged``.
    """

    nodes: tuple[str, ...]
    distributions: tuple[str, ...]
    method: str
    score_types: tuple[str, ...]
    fingerprint: str
    constraints: ConstraintSet
    masks: tuple[np.ndarray, ...] = field(repr=False)
    scores: tuple[np.ndarray, ...] = field(repr=False)
    diagnostics: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self):
        lookup = tuple(dict(zip(m.tolist(), range(len(m)))) for m in self.masks)
        object.__setattr__(self, "_lookup", lookup)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_entries(self) -> int:
        return sum(len(m) for m in self.masks)

    @property
    def n_failed(self) -> int:
        """Entries whose scores are -inf."""
        return sum(int(np.isneginf(s[:, 0]).sum()) for s in self.scores)

    def score_index(self, score_type: str) -> int:
        try:
            return self.score_types.index(score_type)
        except ValueError:
            raise AbnError(
                f"score type {score_type!r} not in cache (has {self.score_types})"
            ) from None

    def score(self, node: int, mask: int, score_type: str | None = None) -> float:
        st = self.score_index(score_type or default_score_type(self.method))
        try:
            row = self._lookup[node][mask]
        except KeyError:
            raise UnenumeratedParentSet(
                f"parent set {mask:#x} of node {self.nodes[node]!r} was never enumerated"
            ) from None
        return float(self.scores[node][row, st])

    def score_vector(self, node: int, score_type: str | None = None) -> np.ndarray:
        st = self.score_index(score_type or default_score_type(self.method))
        return self.scores[node][:, st]

    def restrict(self, constraints: ConstraintSet) -> ScoreCache:
        """The entries ``constraints`` allow, with their scores and diagnostics.

        Every parent set ``constraints`` allow must be cached: a cache built
        under looser constraints can be narrowed, never widened.
        """
        if constraints.nodes != self.nodes:
            raise CacheMismatch("constraint node set differs from cache")
        masks, scores = [], []
        for i, lookup in enumerate(self._lookup):
            wanted = enumerate_parent_sets(i, constraints)
            for mask in wanted:
                if mask not in lookup:
                    parents = [name for j, name in enumerate(self.nodes) if mask >> j & 1]
                    raise CacheMismatch(
                        f"cache has no entry for node {self.nodes[i]!r} with parents "
                        f"{{{','.join(parents)}}}; rebuild it under these constraints"
                    )
            masks.append(np.array(wanted, dtype=np.int64))
            scores.append(self.scores[i][[lookup[m] for m in wanted]])
        allowed = [set(m.tolist()) for m in masks]
        return replace(
            self,
            constraints=constraints,
            masks=tuple(masks),
            scores=tuple(scores),
            diagnostics=tuple(d for d in self.diagnostics if d[1] in allowed[d[0]]),
        )

    def check_dataset(self, ds: Dataset) -> None:
        if ds.fingerprint() != self.fingerprint:
            raise CacheMismatch(
                "dataset fingerprint does not match the score cache; rebuild the cache"
            )

    def dag_score(self, dag: Dag, score_type: str | None = None) -> float:
        """Decomposable total: sum of per-node scores over the DAG's parent sets."""
        if dag.nodes != self.nodes:
            raise CacheMismatch("DAG node set differs from cache")
        total = 0.0
        for i, mask in enumerate(dag.parent_masks()):
            total += self.score(i, mask, score_type)
        return total


def _fit_error(exc: Exception) -> Outcome:
    """The outcome of a fit that raised ``exc``."""
    return None, [f"{type(exc).__name__}: {exc}"]


def _stacked_fits(ds: Dataset, node: int, node_masks: list[int]) -> dict[int, Outcome]:
    """Outcomes of a node's bayes fits, keyed by mask.

    The sets are fitted by :func:`~abnkit.glm.fit_bayes_stack`, one
    cardinality at a time, in stacks of up to STACK_MAX_CELLS design numbers
    laid out by :func:`~abnkit.data.design_stack`.  Each fit starts where
    fit_node starts and so takes fit_node's iterates.
    """
    names, family = ds.names, ds.distributions[node]
    order = np.array(sorted(range(len(names)), key=names.__getitem__))  # design_stack's order
    shifts = order.astype(np.uint64)
    layers: dict[int, list[int]] = {}
    for mask in node_masks:
        layers.setdefault(mask.bit_count(), []).append(mask)
    outcomes = {}
    for size, masks in layers.items():
        width = max(1, STACK_MAX_CELLS // ((1 + size) * ds.n_obs))
        for first in range(0, len(masks), width):
            chunk = masks[first:first + width]
            bits = np.array(chunk, dtype=np.uint64)[:, None] >> shifts & 1
            parents = order[np.nonzero(bits)[1]].reshape(len(chunk), size)
            fit = fit_bayes_stack(*design_stack(ds, node, parents), family, names[node])
            for b, mask in enumerate(chunk):
                error = fit.errors[b]
                outcomes[mask] = _fit_error(error) if error is not None else (
                    (float(fit.mliks[b]),), [] if fit.converged[b] else ["unconverged"])
    return outcomes


def _fit_one(ds: Dataset, node: int, mask: int) -> Outcome:
    """The outcome of one MLE :func:`fit_node` fit."""
    design = design_for_mask(ds, node, mask)
    try:
        fit = fit_node(design, method="mle")
        if fit.dropped_predictors:  # the kept design's score is not this parent set's
            return None, fit.status()[:1]
        fs = frequentist_scores(fit, ds.n_obs, len(ds.names) - 1)
        return (fs.loglik, fs.aic, fs.bic, fs.mdl), fit.status()
    except FIT_ERRORS as exc:
        return _fit_error(exc)


def _score_one_node(
    ds: Dataset, node: int, node_masks: list[int], method: str
) -> tuple[np.ndarray, list[tuple[int, int, str]]]:
    if method == "bayes":
        outcomes, n_scores = _stacked_fits(ds, node, node_masks), len(BAYES_SCORES)
    else:
        outcomes, n_scores = {m: _fit_one(ds, node, m) for m in node_masks}, len(MLE_SCORES)
    block = np.full((len(node_masks), n_scores), -np.inf)
    notes: list[tuple[int, int, str]] = []
    for k, mask in enumerate(node_masks):
        scores, words = outcomes[mask]
        if scores is not None:
            if all(map(math.isfinite, scores)):
                block[k] = scores  # a finite entry's degraded fit is flagged, not failed
            else:
                words = ["non-finite score"]
        notes.extend((node, mask, word) for word in words)
    return block, notes


def build_cache(
    ds: Dataset,
    constraints: ConstraintSet | None = None,
    method: str = "bayes",
    jobs: int = 1,
) -> ScoreCache:
    """Score every constraint-valid (node, parent set) pair.

    The build is embarrassingly parallel across nodes; output ordering is
    fixed by the enumeration, not by worker scheduling, so repeated builds
    are byte-identical.  Individual fit failures are recorded as -inf scores
    and never abort the build; finite entries from degraded fits are noted.
    """
    if method not in ("bayes", "mle"):
        raise AbnError(f"unknown method {method!r}")
    if constraints is None:
        constraints = ConstraintSet(ds.names)
    if constraints.nodes != ds.names:
        raise CacheMismatch("constraint node set differs from dataset columns")
    score_types = BAYES_SCORES if method == "bayes" else MLE_SCORES
    n = len(ds.names)
    all_masks = [enumerate_parent_sets(i, constraints) for i in range(n)]

    tasks = [(ds, i, all_masks[i], method) for i in range(n)]
    results = parallel_map(_score_one_node, tasks, jobs)

    diagnostics: list[tuple[int, int, str]] = []
    blocks = []
    for block, notes in results:
        blocks.append(block)
        diagnostics.extend(notes)
    return ScoreCache(
        nodes=ds.names,
        distributions=ds.distributions,
        method=method,
        score_types=score_types,
        fingerprint=ds.fingerprint(),
        constraints=constraints,
        masks=tuple(np.array(m, dtype=np.int64) for m in all_masks),
        scores=tuple(blocks),
        diagnostics=tuple(diagnostics),
    )


# --------------------------------------------------------------------------
# portable text serialization
# --------------------------------------------------------------------------

_CACHE_MAGIC = "# abnkit score cache v1"


def cache_to_text(cache: ScoreCache) -> str:
    lines = [
        _CACHE_MAGIC,
        f"fingerprint={cache.fingerprint}",
        f"method={cache.method}",
        f"score_types={','.join(cache.score_types)}",
        f"nodes={','.join(cache.nodes)}",
        f"distributions={','.join(cache.distributions)}",
        f"max_parents={','.join(str(v) for v in cache.constraints.max_parents)}",
        f"banned={render_formula(cache.constraints.banned, cache.nodes)}",
        f"retained={render_formula(cache.constraints.retained, cache.nodes)}",
    ]
    for i in range(cache.n_nodes):
        for k, mask in enumerate(cache.masks[i]):
            for s, st in enumerate(cache.score_types):
                lines.append(f"{i}\t{int(mask)}\t{st}\t{cache.scores[i][k, s]:.17g}")
    for node, mask, message in cache.diagnostics:
        lines.append(f"# diag\t{node}\t{mask}\t{message}")
    return "\n".join(lines) + "\n"


_HEADER_KEYS = ("fingerprint", "method", "score_types", "nodes", "distributions",
                "max_parents", "banned", "retained")


def _body_fields(line: str, count: int, n_nodes: int) -> list:
    """A body line's ``count`` tab-separated fields, the leading node index
    and parent mask checked and converted to int."""
    fields = line.split("\t", count - 1)
    try:
        node, mask = int(fields[0]), int(fields[1])
        ok = len(fields) == count and 0 <= node < n_nodes and 0 <= mask < 1 << n_nodes
    except (ValueError, IndexError):
        ok = False
    if not ok:
        raise CacheMismatch(f"malformed cache line {line!r}")
    return [node, mask, *fields[2:]]


def cache_from_text(text: str) -> ScoreCache:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _CACHE_MAGIC:
        raise CacheMismatch("not a score cache file")
    header: dict[str, str] = {}
    body_start = 1
    for k, line in enumerate(lines[1:], start=1):
        if "=" not in line or line.startswith("#"):
            body_start = k
            break
        key, _, value = line.partition("=")
        header[key] = value
        body_start = k + 1
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CacheMismatch(f"cache header lacks {', '.join(missing)}")
    method = header["method"]
    if method not in ("bayes", "mle"):
        raise CacheMismatch(f"cache header method={method} is neither bayes nor mle")
    nodes = tuple(header["nodes"].split(","))
    score_types = tuple(header["score_types"].split(","))
    if score_types != (BAYES_SCORES if method == "bayes" else MLE_SCORES):
        raise CacheMismatch(f"cache header score_types={header['score_types']} "
                            f"are not the scores of method={method}")
    distributions = tuple(header["distributions"].split(","))
    if len(distributions) != len(nodes) or not set(distributions) <= set(FAMILIES):
        raise CacheMismatch(f"cache header distributions={header['distributions']} "
                            f"do not give one of {FAMILIES} for each of {len(nodes)} nodes")
    try:
        limits = [int(v) for v in header["max_parents"].split(",")]
    except ValueError:
        raise CacheMismatch(f"malformed header max_parents={header['max_parents']}") from None
    constraints = ConstraintSet(
        nodes,
        banned=parse_formula(header["banned"], nodes),
        retained=parse_formula(header["retained"], nodes),
        max_parents=limits,
    )
    per_node: dict[int, dict[int, dict[str, float]]] = {i: {} for i in range(len(nodes))}
    diagnostics = []
    for line in lines[body_start:]:
        if not line.strip():
            continue
        if line.startswith("# diag\t"):
            node, mask, message = _body_fields(line.removeprefix("# diag\t"), 3, len(nodes))
            diagnostics.append((node, mask, message))
            continue
        node, mask, st, value = _body_fields(line, 4, len(nodes))
        if st not in score_types:
            raise CacheMismatch(f"score type {st!r} is not in the header's score_types "
                                f"in line {line!r}")
        entry = per_node[node].setdefault(mask, {})
        if st in entry:
            raise CacheMismatch(f"second {st} score of node {node} parent mask {mask} "
                                f"in line {line!r}")
        try:
            score = float(value)
        except ValueError:
            score = math.nan
        if not (math.isfinite(score) or score == -math.inf):
            raise CacheMismatch(f"score {value!r} is neither finite nor -inf in line {line!r}")
        entry[st] = score
    masks = []
    scores = []
    for i in range(len(nodes)):
        entries = per_node[i]
        node_masks = sorted(entries)
        try:
            values = [entries[mask][st] for mask in node_masks for st in score_types]
        except KeyError:
            mask = next(m for m in node_masks if len(entries[m]) < len(score_types))
            lacking = [st for st in score_types if st not in entries[mask]]
            raise CacheMismatch(f"node {nodes[i]!r} parent mask {mask} lacks "
                                f"score types {','.join(lacking)}") from None
        masks.append(np.array(node_masks, dtype=np.int64))
        scores.append(np.array(values, dtype=float).reshape(len(node_masks), len(score_types)))
    return ScoreCache(
        nodes=nodes,
        distributions=distributions,
        method=method,
        score_types=score_types,
        fingerprint=header["fingerprint"],
        constraints=constraints,
        masks=tuple(masks),
        scores=tuple(scores),
        diagnostics=tuple(diagnostics),
    )
