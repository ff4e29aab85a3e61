"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload exact-n5000 --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; abnkit is imported from ``src/``.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--size smoke`` runs the same workload on tiny inputs.  Each run also
writes its full record (environment, per-operation times, output digest)
under ``.bench_work/results/``.  With the default seed the outputs must also
match the committed digests in ``bench/reference/`` (see make_reference.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "bench" / "reference"
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("exact-n5000", "bootstrap-n341", "exact-dp18", "heuristic-18")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run operations while the next is expected to end "
                             "within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "abnkit" / "__init__.py").is_file():
        print(f"error: no abnkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread per process: --jobs 2 then stays within two cores.
    # The pin must precede the first numpy import.
    caller_threads = {name: os.environ.get(name) for name in THREAD_VARS}
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    reference = None
    reference_file = REFERENCE_DIR / f"{args.workload}.json"
    if args.seed == DEFAULT_SEED and reference_file.is_file():
        reference = json.loads(reference_file.read_text()).get(args.size)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, ROOT, caller_threads, reference,
                         expect_reference=args.seed == DEFAULT_SEED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
