"""Alternating parent/change runs of the benchmark, with medians, IQRs and wins.

    python scripts/bench_ab.py --parent HEAD~1 --workload sim-gf16-n168 --seeds 5-14

The change is the checkout this script sits in, working tree included.
The parent revision is checked out into a temporary `git worktree`,
which is removed at the end.  For every seed, `perfbench/run.py` runs
once on each side (untraced, `--seconds` each); the change runs first on
even seeds and second on odd ones, so a slow stretch of the host hits
both sides alike.  For every end-to-end metric of `BENCHMARK.json` the
script prints each side's median and quartiles, the change's median
relative to the parent's, the median gain against the parent's IQR, and
in how many pairs the change was better (ties count for neither).

Uses the standard library only and imports nothing from nbqc, so both
sides run on their own sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """'5-14' or '3,7,9' (or a mix: '1-3,8')."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"no result from {checkout} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def value(result: dict, metric: dict) -> str:
    v = result["metrics"].get(metric["name"])
    return "-" if v is None else f"{v['value']:.5g}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, metrics: list[dict], runs: list[tuple[dict, dict]]) -> None:
    print(f"\n{workload}: {len(runs)} pairs")
    bad = [(side, r) for pair in runs for side, r in zip(("parent", "change"), pair)
           if not r["correct"] or r["failed"] or r["exit"]]
    for side, r in bad:
        print(f"  WARNING: a {side} run was not correct: failed {r['failed']} "
              f"of {r['attempted']}, exit {r['exit']}")
    print(f"  {'metric':<14} {'parent median (q1-q3)':<32} {'change median (q1-q3)':<32} "
          f"{'change/parent':>13} {'gain/IQR':>9} {'wins':>6}")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in runs
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        par = quartiles([p for p, _ in pairs])
        chg = quartiles([c for _, c in pairs])
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        gain = (chg[1] - par[1]) if higher else (par[1] - chg[1])
        iqr = par[2] - par[0]
        ratio = chg[1] / par[1] if par[1] else float("nan")
        per_iqr = f"{gain / iqr:9.2f}" if iqr else f"{'-':>9}"
        cells = [f"{med:.5g} ({q1:.5g}-{q3:.5g})" for q1, med, q3 in (par, chg)]
        print(f"  {name:<14} {cells[0]:<32} {cells[1]:<32} {ratio:13.4f} {per_iqr} "
              f"{wins:>3}/{len(pairs)}  [{m['unit']}, {m['better']} is better]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name from BENCHMARK.json; repeat for several")
    ap.add_argument("--seeds", required=True, help="e.g. 5-14 or 3,7,9")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    # on SIGTERM, unwind: the running benchmark is killed and the worktree removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="bench_ab_")
    parent_dir = os.path.join(tmp, "parent")
    subprocess.run(["git", "worktree", "add", "--detach", parent_dir, args.parent],
                   cwd=ROOT, check=True, capture_output=True)
    try:
        for workload in args.workload:
            runs = []
            for seed in seeds:
                sides = {"parent": parent_dir, "change": ROOT}
                order = ("change", "parent") if seed % 2 == 0 else ("parent", "change")
                got = {side: run_once(sides[side], workload, seed, seconds) for side in order}
                runs.append((got["parent"], got["change"]))
                print(f"# {workload} seed {seed} ({order[0]} first): " + ", ".join(
                    f"{m['name']} {value(got['parent'], m)} -> {value(got['change'], m)}"
                    for m in bench["end_to_end"]), flush=True)
            report(workload, bench["end_to_end"], runs)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent_dir],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
