"""The benchmark's own tests: smoke runs of every workload, determinism of
the artifacts it measures, and the tracer's self-time arithmetic.

    python -m pytest bench/tests -q

They are not part of the main test suite (``testpaths`` names ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import layers  # noqa: E402
from harness import END_TO_END  # noqa: E402
from run import DEFAULT_SEED, WORKLOAD_NAMES  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS, call_cli, compare_digests  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_lists_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "exact-dp18", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_bootstrap_artifacts_are_identical_serial_and_parallel(tmp_path):
    workload = WORKLOADS["bootstrap-n341"]
    size = workload.sizes["full"]
    inputs = workload.setup(tmp_path / "inputs", DEFAULT_SEED, size)
    for jobs in (1, 2):
        call_cli(workload.args(inputs, size, jobs, tmp_path / f"jobs{jobs}"))
    serial, parallel = _files(tmp_path / "jobs1"), _files(tmp_path / "jobs2")
    assert "support.txt" in serial
    assert serial == parallel


def test_dp18_cache_file_is_identical_across_jobs(tmp_path):
    workload = WORKLOADS["exact-dp18"]
    size = workload.sizes["full"]
    inputs = workload.setup(tmp_path / "inputs", DEFAULT_SEED, size)
    call_cli(["build-cache", *inputs.data_args(), "--method", "bayes",
              "--max-parents", str(size["max_parents"]), "--jobs", "1",
              "--out", str(tmp_path / "jobs1")])
    assert _files(tmp_path / "jobs1") == _files(inputs.cache.parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 4.0},
        {"id": "b", "parent": "p", "start": 3.0, "end": 6.0},
        {"id": "c", "parent": "p", "start": 8.0, "end": 12.0},
        {"id": "d", "parent": "b", "start": 3.5, "end": 4.5},
    ]
    own = self_times(spans)
    assert own["p"] == pytest.approx(10 - 5 - 2)
    assert own["b"] == pytest.approx(2.0)
    assert own["d"] == pytest.approx(1.0)


def test_digest_comparison_tolerates_only_tiny_float_differences():
    ref = {"dag": "node\ta\na\t0\n", "objective": -1234.5, "scores": [1.0, -2.0]}
    assert compare_digests(ref, {**ref, "objective": -1234.5 * (1 + 1e-10)}) == []
    assert compare_digests(ref, {**ref, "objective": -1234.5 * (1 + 1e-6)})
    assert compare_digests(ref, {**ref, "dag": "node\ta\na\t1\n"})
    assert compare_digests(ref, {**ref, "scores": [1.0]})
