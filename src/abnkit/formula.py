"""Constraint formula parsing.

The mini-language builds ban/retain matrices from text such as
``~ child|parent1:parent2 + other|parent3``:

* ``~``   starts the statement (mandatory, may stand alone for "no arcs"),
* ``|``   separates children (left) from parents (right) within one term,
* ``:``   separates names inside the child list or the parent list,
* ``+``   separates terms,
* ``.``   expands to every variable (minus the child itself on the parent
          side).

Whitespace is insignificant, duplicate terms are idempotent, and every
identifier must match a supplied node name exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import FormulaError, SelfArc, UnknownName


def _split_names(part: str, what: str) -> list[str]:
    if part == "":
        raise FormulaError(f"empty {what} list")
    names = [p.strip() for p in part.split(":")]
    if any(n == "" for n in names):
        raise FormulaError(f"dangling ':' in {what} list {part!r}")
    return names


def parse_formula(text: str, node_names: Sequence[str]) -> np.ndarray:
    """Expand a constraint formula into an n x n binary matrix.

    Entry ``(child, parent)`` is set for every pair implied by the formula.
    ``.`` expands at parse time against ``node_names``.  An explicit self
    pair (``x|x``) is rejected; self pairs arising from ``.`` expansion are
    silently dropped, which is what makes ``~x|.`` mean "every other node".
    """
    names = list(node_names)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    matrix = np.zeros((n, n), dtype=np.int8)

    stripped = text.strip()
    if not stripped.startswith("~"):
        raise FormulaError(f"formula must start with '~': {text!r}")
    body = stripped[1:].strip()
    if body == "":
        return matrix

    def resolve(token: str) -> int:
        if token not in index:
            raise UnknownName(f"unknown name {token!r} in formula")
        return index[token]

    for raw_term in body.split("+"):
        term = raw_term.strip()
        if term == "":
            raise FormulaError(f"dangling '+' in formula {text!r}")
        if "|" not in term:
            raise FormulaError(f"term {term!r} lacks a '|' separator")
        child_part, _, parent_part = term.partition("|")
        child_part = child_part.strip()
        parent_part = parent_part.strip()
        if "|" in parent_part:
            raise FormulaError(f"term {term!r} has more than one '|'")

        children_from_dot = child_part == "."
        child_tokens = (
            list(names) if children_from_dot else _split_names(child_part, "child")
        )
        for child_tok in child_tokens:
            c = resolve(child_tok)
            if parent_part == ".":
                parent_idx = [j for j in range(n) if j != c]
            else:
                parent_idx = []
                for parent_tok in _split_names(parent_part, "parent"):
                    p = resolve(parent_tok)
                    if p == c:
                        if children_from_dot:
                            continue  # '.'-expanded self pair: drop silently
                        raise SelfArc(f"{child_tok!r} listed as its own parent")
                    parent_idx.append(p)
            matrix[c, parent_idx] = 1
    return matrix


def render_formula(matrix, node_names: Sequence[str]) -> str:
    """Canonical formula for a binary matrix; inverse of :func:`parse_formula`.

    Children appear in name order, parents inside each term in name order.
    A matrix with no arcs renders as ``~``.
    """
    names = list(node_names)
    m = np.asarray(matrix)
    terms = []
    for child in sorted(names):
        i = names.index(child)
        parents = sorted(names[int(j)] for j in np.flatnonzero(m[i]))
        if parents:
            terms.append(f"{child}|{':'.join(parents)}")
    return "~" + " + ".join(terms) if terms else "~"
