"""Run every benchmark workload and print its metrics by name, with units.

    python3 bench/report.py                       # seed 1, traced and untraced
    python3 bench/report.py --seeds 1-10 --trace 0

Each run measures for BENCHMARK.json's ``run_seconds``.  For each workload
it prints the end-to-end metrics (untraced run) and the per-layer metrics
with each layer's self-time share and the tracing overhead (traced run).
With several seeds it prints, per metric, the median and the spread: the
distance between the first and third quartile as a share of the median.
Each run is a separate ``bench/run.py`` process; the summary is
also written to ``.bench_work/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from run import WORKLOAD_NAMES  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        out[name] = {"unit": metric["unit"], "values": values,
                     "median": statistics.median(values), "spread": spread(values)}
    return out


def print_table(title: str, summary: dict, results: list[dict]) -> None:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"\n== {title}: correct={correct} failed={failed}/{attempted} "
          f"(fail_frac {failed / attempted:.4g}), {len(results)} run(s)")
    for name, s in summary.items():
        line = f"  {name:34s} {s['median']:>14.6g} {s['unit']:<14s}"
        if s["spread"] is not None:
            line += f" spread {s['spread']:.4f}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    report = {}
    for workload in WORKLOAD_NAMES:
        for trace in traces:
            results = [run_one(workload, seed, seconds, trace, "full")
                       for seed in parse_seeds(args.seeds)]
            summary = summarize(results)
            kind = "per-layer (traced)" if trace else "end-to-end"
            print_table(f"{workload} {kind}", summary, results)
            report[f"{workload}/trace{trace}"] = {"results": results, "summary": summary}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    (ROOT / ".bench_work" / "report.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
