#!/usr/bin/env python3
"""Desk-scale block-error-rate sweep.

Builds one code per field size on a shared quasi-cyclic template, sweeps
the marginal flip probability, and writes one CSV per code (plus the
limit curves) into --outdir.  Defaults are sized to finish in a few
minutes on a laptop; larger fields and trial counts reproduce the
qualitative picture at lower error rates.
"""

import argparse
import os
from pathlib import Path

import numpy as np

from nbqc.binexpand import expand_pair
from nbqc.decoder import DecoderConfig
from nbqc.gf2p import make_field
from nbqc.harness import CSV_HEADER, record_csv_line, simulate_sweep
from nbqc.nblift import lift
from nbqc.qcpair import QCParams, build_pair, find_params


def build_code(p: int, params: QCParams, seed: int):
    gamma, delta = lift(build_pair(params), make_field(p), np.random.default_rng(seed),
                        reject_trivial=True)
    return expand_pair(gamma, delta)


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
    workers = int(os.environ.get("NBQC_WORKERS", str(os.cpu_count() or 1)))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for p in args.fields:
        code = build_code(p, params, args.seed)
        print(f"GF(2^{p}): n={code.n_qubits} qubits, R_Q={code.rate_q:.4f}")
        records = simulate_sweep(code, args.fm, args.trials, args.seed,
                                 DecoderConfig(max_iter=args.max_iter),
                                 workers=workers)
        path = outdir / f"bler_p{p}_L{params.L}_P{params.P}.csv"
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in records:
                fh.write(record_csv_line(rec) + "\n")
                print(f"  f_m={rec.f_m:<6g} role={rec.role} "
                      f"bler={rec.bler:.5f} iters={rec.mean_iterations:.2f}")
        print(f"  -> {path}")


if __name__ == "__main__":
    main()
