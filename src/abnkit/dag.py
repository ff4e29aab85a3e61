"""Directed acyclic graph representation, structural metrics and comparison.

Adjacency orientation is fixed everywhere in the package: entry ``(i, j)`` of
an adjacency matrix is 1 when there is an arc from parent ``j`` into child
``i`` (row = child, column = parent).  All file formats use the same
orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConstraintError,
    CyclicInput,
    NodeSetMismatch,
    RetainedExceedsLimit,
    UnknownName,
)

RESERVED = set("~:|+.,#=")
RESERVED_LABELS = ("(Intercept)", "log_precision")  # a fit's own parameter labels


def check_node_names(names: Sequence[str]) -> None:
    if len(names) == 0:
        raise UnknownName("node list is empty")
    if len(set(names)) != len(names):
        raise UnknownName("node names must be unique")
    for name in names:
        if not name or any(ch in RESERVED or ch.isspace() for ch in name):
            raise UnknownName(
                f"invalid node name {name!r}: must be nonempty and free of "
                "'~ : | + . , # =' and whitespace"
            )
        if name in RESERVED_LABELS:
            raise UnknownName(f"invalid node name {name!r}: reserved for a model parameter")


def _as_binary_matrix(matrix, n: int) -> np.ndarray:
    m = np.asarray(matrix)
    if m.shape != (n, n):
        raise ConstraintError(f"expected a {n}x{n} matrix, got {m.shape}")
    m = (m != 0).astype(np.int8)
    return m


def row_masks(matrix) -> list[int]:
    """Bitmask of each row's nonzero columns: every node's parent set."""
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in np.asarray(matrix)]


def descendants(masks: list[int]) -> list[int]:
    """Bitmask of the nodes reachable from each node, itself included, where
    ``masks[i]`` is node i's parent bitmask.  Cycles are allowed."""
    reach = [1 << i for i in range(len(masks))]
    for child, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            reach[low.bit_length() - 1] |= 1 << child
            mask ^= low
    for k in range(len(reach)):  # Warshall's transitive closure over bitset rows
        bit, via = 1 << k, reach[k]
        if via != bit:  # a node without children extends no row
            reach = [r | via if r & bit else r for r in reach]
    return reach


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def find_cycle(adjacency: np.ndarray) -> list[int] | None:
    """Return a list of node indices forming a directed cycle, or None.

    A node lies on a cycle iff it reaches one of its parents, and whatever
    such nodes reach is exactly what no topological order can place.  The
    cycle is recovered by walking from the smallest node of that set to the
    smallest parent inside it until a node repeats.
    """
    adj = np.asarray(adjacency)
    loops = np.flatnonzero(np.diag(adj))
    if loops.size:
        return [int(loops[0])]
    masks = row_masks(adj)
    stuck = 0
    for reach, mask in zip(descendants(masks), masks):
        if reach & mask:
            stuck |= reach
    if not stuck:
        return None
    # every stuck node has a parent inside the set; walk until repeat
    path = [_lowest(stuck)]
    while (node := _lowest(masks[path[-1]] & stuck)) not in path:
        path.append(node)
    return path[path.index(node):]


@dataclass(frozen=True, eq=False)
class Dag:
    """Immutable DAG over named, typed nodes.

    ``nodes`` fixes the index order used by the adjacency matrix and by every
    bitmask in the scoring layer.
    """

    nodes: tuple[str, ...]
    adjacency: np.ndarray = field(repr=False)

    def __init__(self, nodes: Sequence[str], adjacency=None):
        names = tuple(nodes)
        check_node_names(names)
        n = len(names)
        if adjacency is None:
            adj = np.zeros((n, n), dtype=np.int8)
        else:
            adj = _as_binary_matrix(adjacency, n)
        cycle = find_cycle(adj)
        if cycle is not None:
            raise CyclicInput([names[i] for i in cycle])
        adj.setflags(write=False)
        object.__setattr__(self, "nodes", names)
        object.__setattr__(self, "adjacency", adj)

    # --- basic structure -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_arcs(self) -> int:
        return int(self.adjacency.sum())

    def index(self, node: str) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise UnknownName(f"unknown node {node!r}") from None

    def parents(self, node: str) -> tuple[str, ...]:
        i = self.index(node)
        return tuple(self.nodes[j] for j in np.flatnonzero(self.adjacency[i]))

    def arcs(self) -> list[tuple[str, str]]:
        """All arcs as (parent, child) pairs in row-major matrix order."""
        out = []
        for i, j in zip(*np.nonzero(self.adjacency)):
            out.append((self.nodes[int(j)], self.nodes[int(i)]))
        return out

    def parent_masks(self) -> list[int]:
        """Per-node parent set encoded as a bitmask over node indices."""
        return row_masks(self.adjacency)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dag)
            and self.nodes == other.nodes
            and np.array_equal(self.adjacency, other.adjacency)
        )


def dag_from_masks(nodes: Sequence[str], masks: Sequence[int]) -> Dag:
    """The DAG whose node i has parent bitmask ``masks[i]``; the inverse of
    :func:`row_masks`."""
    n = len(nodes)
    return Dag(nodes, [[int(mask) >> j & 1 for j in range(n)] for mask in masks])


def topological_order(dag: Dag) -> list[str]:
    """Node names ordered so every parent precedes its children.

    Each step places the smallest-named node whose parents are all placed,
    so the result is reproducible across runs regardless of input column
    order.
    """
    masks = dag.parent_masks()
    by_name = sorted(range(dag.n_nodes), key=dag.nodes.__getitem__)
    placed, order = 0, []
    while len(order) < dag.n_nodes:
        node = next(i for i in by_name if not placed >> i & 1 and not masks[i] & ~placed)
        placed |= 1 << node
        order.append(dag.nodes[node])
    return order


def markov_blanket(dag: Dag, node: str) -> set[str]:
    """Parents, children and co-parents of ``node``, excluding the node."""
    i = dag.index(node)
    adj = dag.adjacency
    members = set(np.flatnonzero(adj[i]))          # parents
    children = np.flatnonzero(adj[:, i])
    members.update(int(c) for c in children)
    for c in children:
        members.update(int(p) for p in np.flatnonzero(adj[int(c)]))  # co-parents
    members.discard(i)
    return {dag.nodes[m] for m in members}


@dataclass(frozen=True)
class DagMetrics:
    n_nodes: int
    n_arcs: int
    avg_markov_blanket: float
    avg_neighborhood: float
    avg_parents: float
    avg_children: float


def info_metrics(dag: Dag) -> DagMetrics:
    """Standard descriptive metrics of a DAG.

    Neighborhood of a node = parents union children; parent and child
    averages both equal ``n_arcs / n_nodes``.
    """
    n = dag.n_nodes
    adj = dag.adjacency
    mb_total = sum(len(markov_blanket(dag, v)) for v in dag.nodes)
    nh_total = int(np.count_nonzero(adj | adj.T))  # each arc -> 2 neighbor slots
    n_arcs = dag.n_arcs
    return DagMetrics(
        n_nodes=n,
        n_arcs=n_arcs,
        avg_markov_blanket=mb_total / n,
        avg_neighborhood=nh_total / n,
        avg_parents=n_arcs / n,
        avg_children=n_arcs / n,
    )


@dataclass(frozen=True)
class DagComparison:
    tpr: float
    fpr: float
    accuracy: float
    g_measure: float
    f1: float
    ppv: float
    false_omission_rate: float
    hamming: int
    tp: int
    fp: int
    tn: int
    fn: int


def compare_dags(reference: Dag, candidate: Dag) -> DagComparison:
    """Arc-wise confusion metrics of ``candidate`` against ``reference``.

    Counts run over the n(n-1) ordered node pairs.  Ratios with an empty
    denominator take their vacuous best value (e.g. tpr = 1 when the
    reference has no arcs) so that comparing a DAG with itself is always
    perfect.
    """
    if reference.nodes != candidate.nodes:
        raise NodeSetMismatch(
            f"node sets differ: {reference.nodes} vs {candidate.nodes}"
        )
    n = reference.n_nodes
    ref = reference.adjacency.astype(bool)
    cand = candidate.adjacency.astype(bool)
    off = ~np.eye(n, dtype=bool)
    tp = int(np.count_nonzero(ref & cand & off))
    fp = int(np.count_nonzero(~ref & cand & off))
    fn = int(np.count_nonzero(ref & ~cand & off))
    tn = int(np.count_nonzero(~ref & ~cand & off))

    def ratio(num: int, den: int, vacuous: float) -> float:
        return num / den if den else vacuous

    tpr = ratio(tp, tp + fn, 1.0)
    fpr = ratio(fp, fp + tn, 0.0)
    ppv = ratio(tp, tp + fp, 1.0)
    fom = ratio(fn, fn + tn, 0.0)
    total = n * (n - 1)
    accuracy = ratio(tp + tn, total, 1.0)
    f1 = ratio(2 * tp, 2 * tp + fp + fn, 1.0)
    g = float(np.sqrt(ppv * tpr))
    return DagComparison(
        tpr=tpr,
        fpr=fpr,
        accuracy=accuracy,
        g_measure=g,
        f1=f1,
        ppv=ppv,
        false_omission_rate=fom,
        hamming=fp + fn,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Banned/retained arc matrices plus max-parent limits.

    ``banned[i, j] = 1`` forbids the arc child i <- parent j; ``retained``
    requires it.  ``max_parents`` is either one integer for all nodes or a
    per-node sequence.
    """

    nodes: tuple[str, ...]
    banned: np.ndarray = field(repr=False)
    retained: np.ndarray = field(repr=False)
    max_parents: tuple[int, ...] = ()

    def __init__(self, nodes, banned=None, retained=None, max_parents=None):
        names = tuple(nodes)
        check_node_names(names)
        n = len(names)
        ban = (
            _as_binary_matrix(banned, n)
            if banned is not None
            else np.zeros((n, n), dtype=np.int8)
        )
        ret = (
            _as_binary_matrix(retained, n)
            if retained is not None
            else np.zeros((n, n), dtype=np.int8)
        )
        np.fill_diagonal(ban, 0)
        if np.any(np.diag(ret)):
            raise ConstraintError("a node cannot be retained as its own parent")
        if np.any(ban & ret):
            raise ConstraintError("an arc cannot be both banned and retained")
        cycle = find_cycle(ret)
        if cycle is not None:
            raise ConstraintError(
                "retained arcs alone contain a cycle through "
                + ", ".join(names[i] for i in cycle)
            )
        if max_parents is None:
            limits = tuple([n - 1] * n)
        elif np.isscalar(max_parents):
            if int(max_parents) < 0:
                raise ConstraintError("max_parents must be nonnegative")
            limits = tuple([int(max_parents)] * n)
        else:
            limits = tuple(int(v) for v in max_parents)
            if len(limits) != n:
                raise ConstraintError("per-node max_parents length mismatch")
        for i in range(n):
            if int(ret[i].sum()) > limits[i]:
                raise RetainedExceedsLimit(
                    f"node {names[i]!r} retains {int(ret[i].sum())} parents "
                    f"but max_parents is {limits[i]}"
                )
        ban.setflags(write=False)
        ret.setflags(write=False)
        object.__setattr__(self, "nodes", names)
        object.__setattr__(self, "banned", ban)
        object.__setattr__(self, "retained", ret)
        object.__setattr__(self, "max_parents", limits)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConstraintSet)
            and self.nodes == other.nodes
            and self.max_parents == other.max_parents
            and np.array_equal(self.banned, other.banned)
            and np.array_equal(self.retained, other.retained)
        )

    def allows(self, dag: Dag) -> bool:
        """True when every arc of ``dag`` satisfies ban/retain/limits."""
        if dag.nodes != self.nodes:
            raise NodeSetMismatch("constraint node set differs from DAG")
        adj = dag.adjacency
        if np.any(adj & self.banned):
            return False
        if np.any(self.retained & ~adj.astype(bool)):
            return False
        return all(
            int(adj[i].sum()) <= self.max_parents[i] for i in range(self.n_nodes)
        )


# --- plain-text adjacency format ------------------------------------------


def format_adjacency(nodes: Sequence[str], matrix, fmt: str = "g") -> str:
    """Render a named square matrix: header row of names, then one row per
    child starting with its name."""
    m = np.asarray(matrix)
    lines = ["\t".join(["node", *nodes])]
    for i, name in enumerate(nodes):
        cells = [format(v, fmt) if not float(v).is_integer() else str(int(v)) for v in m[i]]
        lines.append("\t".join([name, *cells]))
    return "\n".join(lines) + "\n"


def parse_adjacency(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Inverse of :func:`format_adjacency`; returns (names, float matrix)."""
    rows = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    if not rows:
        raise ConstraintError("empty adjacency text")
    header = rows[0]
    names = tuple(header[1:]) if header[0] == "node" else tuple(header)
    n = len(names)
    if len(rows) - 1 != n:
        raise ConstraintError(f"expected {n} rows, found {len(rows) - 1}")
    matrix = np.zeros((n, n), dtype=float)
    for r, row in enumerate(rows[1:]):
        if row[0] != names[r]:
            raise ConstraintError(f"row {r} named {row[0]!r}, expected {names[r]!r}")
        if len(row) - 1 != n:
            raise ConstraintError(f"row {row[0]!r} has {len(row) - 1} entries, expected {n}")
        try:
            matrix[r] = [float(v) for v in row[1:]]
        except ValueError:
            raise ConstraintError(f"row {row[0]!r} has a non-numeric entry") from None
    return names, matrix


def dag_to_text(dag: Dag) -> str:
    return format_adjacency(dag.nodes, dag.adjacency)


def dag_from_text(text: str) -> Dag:
    names, matrix = parse_adjacency(text)
    binary = matrix != 0
    if not np.array_equal(matrix, binary.astype(float)):
        raise ConstraintError("adjacency entries must be 0/1")
    return Dag(names, binary.astype(np.int8))


# --- DOT export ------------------------------------------------------------

_DOT_SHAPE = {"binomial": "box", "gaussian": "ellipse", "poisson": "diamond"}
_MAX_PENWIDTH = 6.0  # penwidth of the strongest weighted arc


def _dot_id(name: str) -> str:
    """A node name as a quoted DOT ID, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dag_to_dot(
    dag: Dag,
    distributions: dict[str, str] | None = None,
    edge_weights: np.ndarray | None = None,
) -> str:
    """Graphviz DOT text for a DAG.

    Node shapes encode the distribution (box = binomial, ellipse = gaussian,
    diamond = poisson).  When ``edge_weights`` (same orientation as the
    adjacency) is given, arc penwidth scales linearly with the weight.
    """
    lines = ["digraph dag {"]
    for name in dag.nodes:
        shape = _DOT_SHAPE.get((distributions or {}).get(name, ""), "ellipse")
        lines.append(f"  {_dot_id(name)} [shape={shape}];")
    weights = None
    if edge_weights is not None:
        weights = np.asarray(edge_weights, dtype=float)
        top = float(np.max(np.abs(weights[dag.adjacency != 0]))) if dag.n_arcs else 0.0
    for parent, child in dag.arcs():
        attr = ""
        if weights is not None and top > 0:
            w = abs(float(weights[dag.index(child), dag.index(parent)]))
            attr = f' [penwidth={max(0.5, _MAX_PENWIDTH * w / top):.3f}]'
        lines.append(f"  {_dot_id(parent)} -> {_dot_id(child)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
