#!/usr/bin/env python3
"""Desk-scale block-error-rate sweep.

Builds one code per field size on a shared quasi-cyclic template with
`nbqc construct`, sweeps the marginal flip probability with
`nbqc simulate`, and writes one CSV per code into --outdir (the .nbqc
files go to a temporary directory).  Trials are split over NBQC_WORKERS
processes, by default one per CPU.  Defaults are sized to finish in a
few minutes on a laptop; larger fields and trial counts reproduce the
qualitative picture at lower error rates.
"""

import argparse
import os
import tempfile
from pathlib import Path

from nbqc import harness
from nbqc.qcpair import find_params


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, default=6)
    ap.add_argument("--P", type=int, default=7)
    ap.add_argument("--fields", type=int, nargs="+", default=[2, 4, 8],
                    help="extension degrees p to sweep")
    ap.add_argument("--fm", type=float, nargs="+",
                    default=[0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04])
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-iter", type=int, default=32)
    ap.add_argument("--outdir", default="sweep_out")
    args = ap.parse_args()

    candidates = find_params(args.L, [args.P])
    if not candidates:
        raise SystemExit(f"no valid (sigma, tau) for L={args.L}, P={args.P}")
    params = candidates[0]
    os.environ.setdefault("NBQC_WORKERS", str(os.cpu_count() or 1))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        for p in args.fields:
            prefix = os.path.join(tmp, f"p{p}")
            path = outdir / f"bler_p{p}_L{params.L}_P{params.P}.csv"
            for argv in (["construct", "--p", str(p), "--L", str(params.L),
                          "--P", str(params.P), "--sigma", str(params.sigma),
                          "--tau", str(params.tau), "--seed", str(args.seed),
                          "--reject-trivial", "--out", prefix],
                         ["simulate", f"{prefix}.gamma.nbqc", f"{prefix}.delta.nbqc",
                          "--fm", *map(str, args.fm), "--trials", str(args.trials),
                          "--seed", str(args.seed), "--max-iter", str(args.max_iter),
                          "--out", str(path)]):
                if harness.main(argv):
                    raise SystemExit(f"nbqc {argv[0]} failed for p={p}")
            print(f"  -> {path}")


if __name__ == "__main__":
    main()
