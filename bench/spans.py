"""In-memory span recording for the traced benchmark run.

Spans are recorded only around calls into abnkit: the tracer replaces a
module attribute (``abnkit.cache.fit_node``, ``abnkit.cli.build_cache``, ...)
with a wrapper for the duration of one traced operation and restores it
afterwards, so no file under ``src/`` changes and untraced operations run the
original functions.

Pool workers are forked, so they inherit the wrappers and the stack of open
spans; a worker's first span therefore names the parent-process span that
created the pool.  Each worker keeps its spans in memory and writes them to
one file per pid when it exits; the parent reads those files back after the
operation.  Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans from different processes share one
time base.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = spool_dir
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.run_id: int | None = None
        self._pid = os.getpid()
        self._count = 0
        self._installed: list[tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._enter_worker)

    # --- recording -----------------------------------------------------

    def _enter_worker(self) -> None:
        self._pid = os.getpid()
        self._count = 0
        self.spans = []
        multiprocessing.util.Finalize(self, self._spool, exitpriority=100)

    def _spool(self) -> None:
        if self.spans:
            path = self.spool_dir / f"{self._pid}.json"
            path.write_text(json.dumps(self.spans))

    def open(self, name: str) -> dict:
        self._count += 1
        span = {
            "id": f"{self._pid}-{self._count}",
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "run": self.run_id,
            "pid": self._pid,
            "start": time.perf_counter(),
        }
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    # --- wrapping --------------------------------------------------------

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Record a span around every call of ``module.attr``.

        ``describe(args, kwargs, result)`` returns extra fields for the span
        of a call that returned; a call that raised gets ``error``.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def collect_workers(self) -> None:
        """Move the span files written by exited workers into memory."""
        for path in sorted(self.spool_dir.glob("*.json")):
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run in parallel (pool workers), so the covered part is the
    length of the union of the child intervals clipped to the parent.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
