"""Parent-set enumeration and score caching.

For every node, all parent sets compatible with the constraints (retained
subset, banned excluded, cardinality limit) are enumerated as bitmasks over
the node index order and scored once.  A node's sets are laid out by
:func:`~abnkit.data.design_stack` in stacks of one cardinality, whatever the
method: a bayes stack is fitted by one :func:`~abnkit.glm.fit_bayes_stack`,
a binomial or poisson MLE stack by one :func:`~abnkit.glm.fit_mle_stack`,
whose degraded fits :func:`~abnkit.glm.fit_node` fits again, and a gaussian
MLE stack by one fit_node per design.  The cache is the single input of
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
from .data import Dataset, DesignMatrix, design_stack, mask_parents
from .errors import AbnError, CacheMismatch, ConfigError, UnenumeratedParentSet
from .families import FAMILIES
from .formula import parse_formula, render_formula
from .glm import FitResult, fit_bayes_stack, fit_mle_stack, fit_node, frequentist_scores

BAYES_SCORES = ("mlik",)
MLE_SCORES = ("loglik", "aic", "bic", "mdl")
# Exceptions a single hard fit may raise; they mark that fit failed.
FIT_ERRORS = (AbnError, np.linalg.LinAlgError, ValueError)
# A node's parent sets of one cardinality are laid out in stacks of as many
# as fit STACK_MAX_CELLS design numbers (512 KiB).
STACK_MAX_CELLS = 2**16
# Parent sets are int64 bitmasks over the node order, so bit 63 stays clear.
MAX_NODES = 63
# A fit's cache entry before its finiteness test: the scores, None for a
# failed fit, and the diagnostic or status words.
Outcome = tuple[tuple[float, ...] | None, list[str]]


def default_score_type(method: str) -> str:
    """The score a method reports when none is named."""
    return "mlik" if method == "bayes" else "bic"


def ordered_sum(terms) -> float:
    """The float sum of ``terms`` added left to right, every total of
    per-node terms: not ``sum()``, whose float sum is compensated from
    Python 3.12, so the same terms give the same bits on every Python."""
    total = 0.0
    for term in terms:
        total += term
    return total


def check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"need at least one worker process, got {jobs}")


def _start_worker(fn, shared: tuple) -> None:
    """Pool initializer: keep what every task of this worker shares."""
    global _worker_call
    _worker_call = fn, shared


def _run_task(task: tuple):
    fn, shared = _worker_call
    return fn(*shared, *task)


def parallel_map(fn, shared: tuple, tasks, jobs: int) -> list:
    """``[fn(*shared, *task) for task in tasks]``, run in ``min(jobs,
    len(tasks))`` worker processes when that is more than one; results keep
    the task order either way.  ``fn`` and ``shared`` reach each worker once,
    through the pool initializer, so a task carries only its own arguments."""
    check_jobs(jobs)
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(jobs, initializer=_start_worker,
                                 initargs=(fn, shared)) as pool:
            return list(pool.map(_run_task, tasks))
    return [fn(*shared, *task) for task in tasks]


def enumerate_parent_sets(node: int, constraints: ConstraintSet) -> list[int]:
    """All constraint-valid parent sets of one node, as ascending bitmasks.

    Valid means: contains the retained parents, avoids banned parents and the
    node itself, and stays within the node's cardinality limit (which a
    ConstraintSet guarantees the retained parents fit).
    """
    n_nodes = constraints.n_nodes
    if n_nodes > MAX_NODES:
        raise AbnError(f"parent-set bitmasks support at most {MAX_NODES} nodes, "
                       f"got {n_nodes}")
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
    fingerprint: str
    constraints: ConstraintSet
    masks: tuple[np.ndarray, ...] = field(repr=False)
    scores: tuple[np.ndarray, ...] = field(repr=False)
    diagnostics: tuple[tuple[int, int, str], ...] = ()

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def score_types(self) -> tuple[str, ...]:
        return BAYES_SCORES if self.method == "bayes" else MLE_SCORES

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
        masks = self.masks[node]
        row = int(np.searchsorted(masks, mask))
        if masks[row:row + 1].tolist() != [mask]:
            raise UnenumeratedParentSet(
                f"parent set {mask:#x} of node {self.nodes[node]!r} was never enumerated")
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
        for i, cached in enumerate(self.masks):
            wanted = np.array(enumerate_parent_sets(i, constraints), dtype=np.int64)
            rows = np.searchsorted(cached, wanted)
            # a set above every cached one finds the -1 appended past the end
            missing = wanted[np.append(cached, -1)[rows] != wanted]
            if len(missing):
                parents = [name for j, name in enumerate(self.nodes) if missing[0] >> j & 1]
                raise CacheMismatch(
                    f"cache has no entry for node {self.nodes[i]!r} with parents "
                    f"{{{','.join(parents)}}}; rebuild it under these constraints"
                )
            masks.append(wanted)
            scores.append(self.scores[i][rows])
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
        return ordered_sum(self.score(i, mask, score_type)
                           for i, mask in enumerate(dag.parent_masks()))


def _fit_error(exc: Exception) -> Outcome:
    """The outcome of a fit that raised ``exc``."""
    return None, [f"{type(exc).__name__}: {exc}"]


def _mle_outcome(design: DesignMatrix, n_candidates: int,
                 fit: FitResult | None = None) -> Outcome:
    """The outcome of the MLE fit ``fit`` of ``design``, or of one
    :func:`fit_node` fit when there is none."""
    try:
        fit = fit or fit_node(design, method="mle")
        if fit.dropped_predictors:  # the kept design's score is not this parent set's
            return None, fit.status()[:1]
        fs = frequentist_scores(fit, design.n_obs, n_candidates)
        return (fs.loglik, fs.aic, fs.bic, fs.mdl), fit.status()
    except FIT_ERRORS as exc:
        return _fit_error(exc)


def _score_one_node(
    ds: Dataset, method: str, node: int, node_masks: list[int]
) -> tuple[np.ndarray, list[tuple[int, int, str]]]:
    """A node's scores, one row per mask, and its notes.

    The sets are laid out by :func:`~abnkit.data.design_stack` one
    cardinality at a time, in stacks of up to STACK_MAX_CELLS design
    numbers.  A bayes stack is fitted by :func:`~abnkit.glm.fit_bayes_stack`,
    whose fits start where fit_node starts and so take fit_node's iterates.
    A binomial or poisson MLE stack is fitted by
    :func:`~abnkit.glm.fit_mle_stack`, whose fits take fit_node's iterates
    too; a fit that fails there or does not converge is fitted again by
    fit_node, which decides on Firth's penalty and pruning.  A gaussian MLE
    stack is fitted by one fit_node per design, each laid out as
    :func:`~abnkit.data.build_design` lays out its stack of one.
    """
    child, family = ds.names[node], ds.distributions[node]
    layers: dict[int, list[int]] = {}
    for mask in node_masks:
        layers.setdefault(mask.bit_count(), []).append(mask)
    outcomes: dict[int, Outcome] = {}
    for size, masks in layers.items():
        width = max(1, STACK_MAX_CELLS // ((1 + size) * ds.n_obs))
        for first in range(0, len(masks), width):
            chunk = masks[first:first + width]
            parents = mask_parents(ds, chunk)
            X, y = design_stack(ds, node, parents)
            if method == "bayes":
                fit = fit_bayes_stack(X, y, family, child)
                for mask, error, mlik, converged in zip(chunk, fit.errors, fit.mliks,
                                                        fit.converged):
                    outcomes[mask] = _fit_error(error) if error is not None else (
                        (float(mlik),), [] if converged else ["unconverged"])
            else:
                fits = None if family == "gaussian" else fit_mle_stack(X, y, family)
                for k, (mask, row) in enumerate(zip(chunk, parents.tolist())):
                    labels = ("(Intercept)", *(ds.names[j] for j in row))
                    fit = None
                    if fits is not None and fits.errors[k] is None and fits.converged[k]:
                        fit = FitResult(labels, fits.coefficients[k], family, "mle",
                                        float(fits.log_likelihoods[k]), fits.neg_hessians[k])
                    outcomes[mask] = _mle_outcome(DesignMatrix(y, X[k], labels, child, family),
                                                  len(ds.names) - 1, fit)
    n_scores = len(BAYES_SCORES if method == "bayes" else MLE_SCORES)
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
    all_masks = [enumerate_parent_sets(i, constraints) for i in range(len(ds.names))]
    results = parallel_map(_score_one_node, (ds, method), list(enumerate(all_masks)), jobs)

    diagnostics: list[tuple[int, int, str]] = []
    blocks = []
    for block, notes in results:
        blocks.append(block)
        diagnostics.extend(notes)
    return ScoreCache(
        nodes=ds.names,
        distributions=ds.distributions,
        method=method,
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
    if len(nodes) > MAX_NODES:
        raise CacheMismatch(f"cache header names {len(nodes)} nodes; "
                            f"parent-set bitmasks support at most {MAX_NODES}")
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
        fingerprint=header["fingerprint"],
        constraints=constraints,
        masks=tuple(masks),
        scores=tuple(scores),
        diagnostics=tuple(diagnostics),
    )
