"""Benchmark entry point.

    python3 perfbench/run.py --workload train-cae --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports paprlab from ``src/``
and needs nothing built.  It prints a readable report, then as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` runs the
workload once plainly and once with every layer wrapped in spans, and reports
the per-layer metrics and the tracing overhead.  Scratch files go to
``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread: on a 2-core machine it measured as fast as two for both
# training workloads and leaves a core for the OS.  The count changes float
# results (reduction order), so it is fixed before numpy loads and recorded
# in each result.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "paprlab" / "__init__.py").is_file():
        print(f"error: no paprlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.report import emit
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    emit(args, WORKLOADS[args.workload], result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
