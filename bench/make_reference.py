"""Regenerate the committed reference digests of the default seed.

    python3 bench/make_reference.py

Runs every workload at both sizes once with the default seed and stores the
output digests in ``bench/reference/<workload>.json``.  Only run this on a
commit whose outputs are known to be right: the benchmark counts any later
operation whose outputs miss these digests as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from report import run_one  # noqa: E402
from run import DEFAULT_SEED, REFERENCE_DIR, WORKLOAD_NAMES  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    results = ROOT / ".bench_work" / "results"
    for workload in WORKLOAD_NAMES:
        reference = {}
        for size in ("full", "smoke"):
            run_one(workload, DEFAULT_SEED, 0, 0, size)
            digest_file = results / f"{workload}-{size}-seed{DEFAULT_SEED}.digest.json"
            reference[size] = json.loads(digest_file.read_text())
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
