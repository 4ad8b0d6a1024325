#!/usr/bin/env python3
"""Tabulate the rate-limit curves and the thresholds of common rates.

Writes limits.csv (f_m, shannon, s2, bdd) through `nbqc limits`, on the
grid step, 2 step, ... below 1/3, and prints the flip probability at
which each curve crosses a few quantum rates.
"""

import argparse
import sys

from nbqc import harness
from nbqc.harness import bdd_limit, s2_limit, shannon_limit

F_MAX = 1 / 3 - 1e-9        # the limits are defined on (0, 1/3)


def crossing(fn, target: float, lo=1e-6, hi=F_MAX) -> float:
    for _ in range(200):
        mid = (lo + hi) / 2
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="limits.csv")
    ap.add_argument("--step", type=float, default=0.001)
    args = ap.parse_args()

    rc = harness.main(["limits", "--fm-min", repr(args.step), "--fm-max", repr(F_MAX),
                       "--fm-step", repr(args.step), "--out", args.out])
    if rc:
        return rc
    print(f"wrote {args.out}")

    print(f"{'R_Q':>6} {'shannon':>9} {'s2':>9} {'bdd':>9}   (f_m at crossing)")
    for rq in (1 / 3, 1 / 2, 5 / 7):
        row = [crossing(fn, rq) for fn in (shannon_limit, s2_limit, bdd_limit)]
        print(f"{rq:6.3f} {row[0]:9.5f} {row[1]:9.5f} {row[2]:9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
