#!/usr/bin/env python3
"""Decoder cost per iteration of one failing decode.

    python scripts/decoder_cost.py [--fields 8] [--P 7 31 127 331]

For each field degree p and circulant size P, builds role C of the code
on `find_params(6, [P])[0]` (lift seed 0, trivial lifts rejected, as
`nbqc construct --reject-trivial` does), draws errors at f_m = FM from
`default_rng(0)` until one fails to decode within 11 iterations,
and times that decode at max-iter 11 and at max-iter 1.  The cost of an
iteration is (best time at 11 - best time at 1) / 10, best of REPEAT
calls each, so it covers iterations 2-11 and leaves out the set-up of a
decode and its first, cached check pass.  Prints one row per code:
ms per iteration, and ns per message entry (2 N q entries).
"""

import argparse
import time

import numpy as np

from nbqc.binexpand import expand_pair
from nbqc.channel import ChannelParams, sample_error, syndrome_of
from nbqc.decoder import DecoderConfig, SyndromeDecoder
from nbqc.gf2p import make_field
from nbqc.nblift import lift
from nbqc.qcpair import build_pair, find_params

MAX_ITER = 11
MAX_DRAWS = 1000
FM = 0.12
REPEAT = 5


def failing_syndrome(code, decoder, f_m: float) -> np.ndarray:
    """The syndrome of the first error drawn from `default_rng(0)` whose
    decode fails within MAX_ITER iterations."""
    params, rng = ChannelParams(f_m), np.random.default_rng(0)
    for _ in range(MAX_DRAWS):
        syndrome = syndrome_of(code, "C", sample_error(code.N, code.field.p, params, rng)[0])
        if not decoder.decode(syndrome, f_m, DecoderConfig(max_iter=MAX_ITER)).ok:
            return syndrome
    raise SystemExit(f"no failing decode in {MAX_DRAWS} draws at f_m {f_m}")


def best_time(decoder, syndrome, max_iter: int) -> float:
    config = DecoderConfig(max_iter=max_iter)
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        decoder.decode(syndrome, FM, config)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fields", type=int, nargs="+", default=[8],
                    help="extension degrees p")
    ap.add_argument("--P", type=int, nargs="+", default=[7, 31, 127, 331],
                    help="circulant sizes")
    args = ap.parse_args()

    print(f"{'p':>2} {'P':>5} {'N':>6} {'ms/iteration':>13} {'ns/entry':>9}")
    for p in args.fields:
        field = make_field(p)
        for P in args.P:
            candidates = find_params(6, [P])
            if not candidates:
                raise SystemExit(f"no valid (sigma, tau) for L=6, P={P}")
            pair = build_pair(candidates[0])
            code = expand_pair(*lift(pair, field, np.random.default_rng(0), True))
            decoder = SyndromeDecoder(code, "C")
            syndrome = failing_syndrome(code, decoder, FM)
            per_iter = (best_time(decoder, syndrome, MAX_ITER)
                        - best_time(decoder, syndrome, 1)) / (MAX_ITER - 1)
            entries = 2 * code.N * field.q
            print(f"{p:>2} {P:>5} {code.N:>6} {per_iter * 1e3:>13.3f} "
                  f"{per_iter / entries * 1e9:>9.1f}", flush=True)


if __name__ == "__main__":
    main()
