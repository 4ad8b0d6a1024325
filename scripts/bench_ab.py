"""Alternating parent/change runs of the benchmark, with medians, IQRs and wins.

    python scripts/bench_ab.py --parent HEAD~1 [--workload sim-gf16-n168] --seeds 5-14 \
        [--trace] [--claim trials_per_s@sim-gf16-n168]

Without --workload, every workload of `BENCHMARK.json` runs, in its
order, so one command prints the whole no-regression table.  The change
is the checkout this script sits in, working tree included.
The parent revision is checked out into a temporary `git worktree`,
which is removed at the end.  For every seed, `perfbench/run.py` runs
once on each side (untraced, `--seconds` each); the change runs first on
even seeds and second on odd ones, so a slow stretch of the host hits
both sides alike.  For every end-to-end metric of `BENCHMARK.json` the
script prints each side's median and quartiles, the change's median
relative to the parent's, the median gain against the parent's IQR, and
in how many pairs the change was better (ties count for neither).  A pair
in which either run was incorrect (`correct` false, failed operations or
a nonzero exit) is left out of these statistics; the report says how
many pairs were dropped, and warns when fewer than 10 pairs are kept.

Each end-to-end row ends in the verdict of the acceptance rule.  The
metric named by --claim METRIC@WORKLOAD, on that workload, is "met" when
the change wins at least 9 of every 10 kept pairs and its median gain
exceeds the parent's IQR, else "not met".  Every other end-to-end metric
is "within bound" or "worse than bound": whether the change's median is
worse than the parent's by more than the metric's `bound` of
`BENCHMARK.json`, a fraction of the parent's median.  It is
"unresolved" when the parent's IQR is wider than that bound, unless
every change run beats every parent run.

With --trace, every seed also gets one traced run per side (`--trace 1`,
same order), and the same statistics are printed for the per-layer
metrics of `BENCHMARK.json`, from the traced pairs; they have no verdict.

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
# five pairs once read a decoder-free change as 12.5% slower on
# sim-gf256-n336, half the bound of trials_per_s; fewer than this many
# pairs are reported with a warning
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """'5-14' or '3,7,9' (or a mix: '1-3,8')."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
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


def is_correct(result: dict) -> bool:
    return bool(result["correct"]) and not result["failed"] and not result["exit"]


def compare(pairs: list[tuple[float, float]], higher: bool) -> tuple:
    """Each side's quartiles, the change's wins and its median gain."""
    par = quartiles([p for p, _ in pairs])
    chg = quartiles([c for _, c in pairs])
    wins = sum((c > p) if higher else (c < p) for p, c in pairs)
    gain = (chg[1] - par[1]) if higher else (par[1] - chg[1])
    return par, chg, wins, gain


def verdict(metric: dict, pairs: list[tuple[float, float]], claimed: bool) -> str:
    """The acceptance rule's reading of one metric's (parent, change) pairs."""
    higher = metric["better"] == "higher"
    par, chg, wins, gain = compare(pairs, higher)
    iqr = par[2] - par[0]
    if claimed:
        return "met" if 10 * wins >= 9 * len(pairs) and gain > iqr else "not met"
    if "bound" not in metric:
        return "-"
    limit = metric["bound"] * abs(par[1])
    parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
    all_better = (min(changes) > max(parents)) if higher else (max(changes) < min(parents))
    if iqr > limit and not all_better:
        return "unresolved"
    return "worse than bound" if -gain > limit else "within bound"


def report(workload: str, metrics: list[dict], runs: list[tuple[dict, dict]],
           claim: str | None = None) -> None:
    """Print the statistics of each metric; `claim` names the metric
    claimed on this workload, if any."""
    print(f"\n{workload}: {len(runs)} pairs")
    for pair in runs:
        for side, r in zip(("parent", "change"), pair):
            if not is_correct(r):
                print(f"  WARNING: a {side} run was not correct: failed {r['failed']} "
                      f"of {r['attempted']}, exit {r['exit']}")
    # an incorrect run's metrics measure a broken pipeline: its whole pair goes
    kept = [pair for pair in runs if all(map(is_correct, pair))]
    print(f"  {len(runs) - len(kept)} pairs dropped for an incorrect run, {len(kept)} kept")
    if len(kept) < MIN_PAIRS:
        print(f"  WARNING: only {len(kept)} pairs kept, fewer than {MIN_PAIRS}: "
              "host noise alone can move a median by a tenth")
    runs = kept
    width = max([14] + [len(m["name"]) for m in metrics])
    print(f"  {'metric':<{width}} {'parent median (q1-q3)':<32} {'change median (q1-q3)':<32} "
          f"{'change/parent':>13} {'gain/IQR':>9} {'wins':>6}  {'verdict':<16}")
    for m in metrics:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in runs
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        par, chg, wins, gain = compare(pairs, m["better"] == "higher")
        iqr = par[2] - par[0]
        ratio = chg[1] / par[1] if par[1] else float("nan")
        per_iqr = f"{gain / iqr:9.2f}" if iqr else f"{'-':>9}"
        cells = [f"{med:.5g} ({q1:.5g}-{q3:.5g})" for q1, med, q3 in (par, chg)]
        print(f"  {name:<{width}} {cells[0]:<32} {cells[1]:<32} {ratio:13.4f} {per_iqr} "
              f"{wins:>3}/{len(pairs)}  {verdict(m, pairs, name == claim):<16} "
              f"[{m['unit']}, {m['better']} is better]")


def run_pairs(sides: dict, workload: str, seeds: list[int], seconds: float,
              trace: bool, metrics: list[dict]) -> tuple[list, list]:
    """(parent, change) result pairs, one per seed: untraced, and with
    `trace` also traced (else an empty list).  The change runs first on
    even seeds; each untraced pair's `metrics` are printed as it lands."""
    runs, traced = [], []
    for seed in seeds:
        order = ("change", "parent") if seed % 2 == 0 else ("parent", "change")
        got = {side: run_once(sides[side], workload, seed, seconds) for side in order}
        runs.append((got["parent"], got["change"]))
        print(f"# {workload} seed {seed} ({order[0]} first): " + ", ".join(
            f"{m['name']} {value(got['parent'], m)} -> {value(got['change'], m)}"
            for m in metrics), flush=True)
        if trace:
            got = {side: run_once(sides[side], workload, seed, seconds, trace=True)
                   for side in order}
            traced.append((got["parent"], got["change"]))
    return runs, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append",
                    help="workload name from BENCHMARK.json; repeat for several "
                         "(default: every workload)")
    ap.add_argument("--seeds", required=True, help="e.g. 5-14 or 3,7,9")
    ap.add_argument("--trace", action="store_true",
                    help="add one traced run per side and seed, and report the per-layer metrics")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--claim", metavar="METRIC@WORKLOAD",
                    help="the end-to-end metric the change claims to improve, and where")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    claim, _, claim_workload = (args.claim or "").partition("@")
    if args.claim and (claim not in {m["name"] for m in bench["end_to_end"]}
                       or claim_workload not in workloads):
        ap.error(f"--claim {args.claim}: no end-to-end metric {claim!r} "
                 f"on a workload of this run")
    seeds = parse_seeds(args.seeds)
    # on SIGTERM, unwind: the running benchmark is killed and the worktree removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="bench_ab_")
    parent_dir = os.path.join(tmp, "parent")
    subprocess.run(["git", "worktree", "add", "--detach", parent_dir, args.parent],
                   cwd=ROOT, check=True, capture_output=True)
    try:
        for workload in workloads:
            runs, traced = run_pairs({"parent": parent_dir, "change": ROOT}, workload, seeds,
                                     seconds, args.trace, bench["end_to_end"])
            report(workload, bench["end_to_end"], runs,
                   claim if workload == claim_workload else None)
            if args.trace:
                report(f"{workload}, traced, per layer", bench["per_layer"], traced)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent_dir],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
