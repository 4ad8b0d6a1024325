"""Run one workload of the nbqc benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
`./src`, never from an installed copy.  BLAS/OpenMP threads and
NBQC_WORKERS are pinned to 1 before numpy is imported.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the exit code is 0 only when every correctness
check passed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

PINNED_ENV = {
    "NBQC_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

HERE = os.path.dirname(os.path.abspath(__file__))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True,
                    help="1: traced run that reports the per-layer metrics")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    return ap


def import_workloads():
    """Pin threads, then import the benchmark against ./src.

    Returns None, after printing why, when the current directory holds
    no nbqc sources.
    """
    os.environ.update(PINNED_ENV)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "nbqc", "__init__.py")):
        print(f"error: no nbqc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return None
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads  # imports numpy and nbqc, so only after the pinning above

    return workloads


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workloads = import_workloads()
    if workloads is None:
        return 2
    return workloads.run(args)


if __name__ == "__main__":
    sys.exit(main())
