"""One benchmark run: set up a workload, time its operations, check them.

End-to-end metrics come from a run with tracing off.  A traced run
alternates untraced and traced operations of the same configuration: the
traced ones give the per-layer metrics, the pair gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import layers
from spans import Tracer
from workloads import WORKLOADS, OpFailed, compare_digests

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
)
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_vendor(config_dicts) -> str | None:
    try:
        return config_dicts["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return None


def environment(root: Path, caller_threads: dict) -> dict:
    src = sorted((root / "src" / "abnkit").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_vendor(np.show_config(mode="dicts")),
        "scipy_blas": _blas_vendor(scipy.show_config(mode="dicts")),
        "thread_env_caller": caller_threads,
        "thread_env": {k: os.environ.get(k) for k in caller_threads},
        "git_commit": _git_commit(root),
        "src_sha256": digest,
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mib() -> float:
    """Larger of this process's peak RSS and the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _inputs_digest(directory: Path) -> str:
    """Digest of the generated input files; manifests name their own paths
    and are left out."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*")
                       if p.is_file() and not p.name.startswith("manifest-")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(workload_name: str, seed: int, seconds: float, trace: bool, size_name: str,
        root: Path, caller_threads: dict, reference: dict | None,
        expect_reference: bool) -> dict:
    """One run; ``reference`` is the committed digest the outputs must match
    (``expect_reference`` makes a missing one a failed check)."""
    workload = WORKLOADS[workload_name]
    env = environment(root, caller_threads)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tag = f"{workload.name}-{size_name}-seed{seed}-trace{int(trace)}"
    results_dir = root / ".bench_work" / "results"
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        record = _run_in(workload, size_name, seed, seconds, trace, work, reference,
                         expect_reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=workload.name, size=size_name, seed=seed, trace=trace,
                  seconds=seconds, env=env)
    spans = record.pop("spans")
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if trace:
        (results_dir / f"{tag}.spans.json").write_text(json.dumps(spans))
    (results_dir / f"{workload.name}-{size_name}-seed{seed}.digest.json").write_text(
        json.dumps(record["digest"], indent=1, sort_keys=True))
    return record["result"]


def _run_in(workload, size_name: str, seed: int, seconds: float, trace: bool,
            work: Path, reference: dict | None, expect_reference: bool) -> dict:
    size = workload.sizes[size_name]
    problems: list[str] = []
    if expect_reference and reference is None:
        problems.append(f"no reference digest for {workload.name} {size_name}")

    # setup_s is the median of several set-ups; generating data alone takes
    # milliseconds, so set-up repeats for at least SETUP_MIN_S
    setup_times, setup_digests, inputs = [], [], None
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S:
        if inputs is not None:
            shutil.rmtree(inputs.directory)
        directory = work / f"setup-{len(setup_times)}"
        t0 = time.perf_counter()
        inputs = workload.setup(directory, seed, size)
        setup_times.append(time.perf_counter() - t0)
        setup_digests.append(_inputs_digest(directory))
    if len(set(setup_digests)) != 1:
        problems.append("set-up is not deterministic: inputs differ between repetitions")

    tracer = Tracer(work / "spool") if trace else None
    ops = _measure(workload, inputs, size, seconds, work, tracer)
    # read before the checks, which may use more memory than the operations
    peak_rss_mb = _peak_rss_mib()
    spans = tracer.spans if tracer else []
    digest = next((op["digest"] for op in ops if op["error"] is None), None)
    _check_ops(ops, workload, inputs, size, reference, digest)

    per_op = workload.attempted(size)
    attempted = per_op * len(ops)
    failed = sum(per_op if op["error"] is not None or op["problems"]
                 else workload.failed_units(op["digest"]) for op in ops)
    correct = not problems and all(op["error"] is None and not op["problems"] for op in ops)
    for message in dict.fromkeys(problems + [p for op in ops for p in op["problems"]]):
        print(f"check failed: {message}", file=sys.stderr)

    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    else:
        traced = [op for op in ops if op["traced"]]
        metrics = layers.run_metrics([op["layers"] for op in traced],
                                     [t for op in traced for t in op["replicate_s"]],
                                     [op["wall_s"] for op in traced], untraced)
        units = layers.UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return {
        "result": result,
        "setup_s": setup_times,
        "ops": [{k: v for k, v in op.items() if k != "digest"} for op in ops],
        "digest": digest,
        "spans": spans,
    }


def _measure(workload, inputs, size: dict, seconds: float, work: Path,
             tracer: Tracer | None) -> list[dict]:
    """Run operations while the next is expected to end within ``seconds``.
    With a tracer, every second operation is traced and at least one of each
    kind runs."""
    ops = []
    if tracer is not None:
        tracer.spool_dir.mkdir(parents=True)
    started = time.perf_counter()
    while True:
        ops.append(_one_op(workload, inputs, size, work, tracer, len(ops)))
        # stop before an operation as long as the last would overrun the window
        remaining = seconds - (time.perf_counter() - started)
        if remaining < ops[-1]["wall_s"] and (tracer is None or len(ops) >= 2):
            return ops


def _one_op(workload, inputs, size: dict, work: Path, tracer: Tracer | None,
            index: int) -> dict:
    """Run operation ``index``; with a tracer, odd-numbered ones are traced
    and also carry their per-layer metrics and bootstrap replicate times."""
    traced = tracer is not None and index % 2 == 1
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if traced:
        layers.install(tracer)
        tracer.run_id = index
        op_span = tracer.open("op")
        cpu0 = _children_cpu()
    error, digest = None, None
    t0 = time.perf_counter()
    try:
        digest = workload.op(inputs, out, size)
    except OpFailed as exc:
        error = str(exc)
    except Exception:
        error = traceback.format_exc(limit=8)
    wall = time.perf_counter() - t0
    op = {"wall_s": wall, "traced": traced, "error": error, "digest": digest}
    if traced:
        tracer.close(op_span)
        tracer.unwrap_all()
        tracer.collect_workers()
        spans = [s for s in tracer.spans if s["run"] == index]
        op["layers"] = layers.op_metrics(spans, _children_cpu() - cpu0)
        op["replicate_s"] = [s["end"] - s["start"] for s in spans
                             if s["name"] == "bootstrap.replicate"]
        tracer.run_id = None
    if error is not None:
        print(f"operation failed: {error}", file=sys.stderr)
    return op


def _check_ops(ops: list[dict], workload, inputs, size: dict, reference: dict | None,
               first: dict | None) -> None:
    """Set each operation's ``problems``: failed checks of its outputs, a miss
    against the reference digest, or outputs that differ from the first
    successful operation's."""
    checked: dict[str, list[str]] = {}
    for op in ops:
        op["problems"] = []
        if op["error"] is not None:
            continue
        key = json.dumps(op["digest"], sort_keys=True)
        if key not in checked:
            found = workload.check(op["digest"], inputs, size)
            if reference is not None:
                found += [f"reference {p}" for p in compare_digests(reference, op["digest"])]
            checked[key] = found
        op["problems"] = list(checked[key])
        if op["digest"] != first:
            op["problems"].append("outputs differ from the run's first operation")
