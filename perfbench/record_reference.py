"""Record the reference values that the benchmark's correctness checks use.

    python3 perfbench/record_reference.py

Run from the root of a checkout; it rewrites perfbench/reference.json.
For each size and workload it records, for every construct seed, the
SHA-256 of both .nbqc files and the exact counts of the reference
trials; and the BLER, mean iterations and per-trial iteration spread of
the fixed rounds, pooled over REFERENCE_SEEDS seeds from REFERENCE_SEED
on.  Re-record only when a change is meant to alter the .nbqc bytes or
the decoder's decisions or iteration counts, and say so where the change
is described.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import tempfile

import run

REFERENCE_SEED = 1000
REFERENCE_SEEDS = 10


def record(wb, wl) -> dict:
    ledger = wb.Ledger()
    digests, exact, rounds = {}, {}, []
    with tempfile.TemporaryDirectory(dir=wb.WORK_DIR) as work:
        for i, lift_seed in enumerate(wl.lift_seeds):
            pipe = wb.Pipeline(wl, i, work, ledger)    # seed i picks lift_seeds[i]
            pipe.construct()
            digests[str(lift_seed)] = pipe.digest()
            exact[str(lift_seed)] = wb.reference_counts(pipe)
        for seed in range(REFERENCE_SEED, REFERENCE_SEED + REFERENCE_SEEDS):
            pipe = wb.Pipeline(wl, seed, work, ledger)
            expected = digests[str(pipe.lift_seed)]
            rounds += [pipe.round(r, expected) for r in range(wl.fixed_rounds)]
    if not ledger.correct:
        raise SystemExit(f"{wl.name}: " + "; ".join(ledger.problems))
    sample = wb.pooled(rounds)
    batch_means = [r.mean_iterations for rnd in rounds for r in rnd.records]
    return {"digests": digests, "exact": exact,
            "seeds": [REFERENCE_SEED, REFERENCE_SEED + REFERENCE_SEEDS - 1],
            "trials": sample["trials"], "bler": sample["bler"],
            "mean_iterations": sample["mean_iterations"],
            "iteration_sd": statistics.stdev(batch_means) * math.sqrt(wl.batch)}


def main() -> int:
    wb = run.import_workloads()
    if wb is None:
        return 2
    os.makedirs(wb.WORK_DIR, exist_ok=True)
    out = {size: {name: record(wb, wl) for name, wl in table.items()}
           for size, table in wb.WORKLOADS.items()}
    path = wb.REFERENCE_PATH
    with open(path, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
