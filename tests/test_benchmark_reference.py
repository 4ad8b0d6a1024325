"""The benchmark's exact reference-trial counts, checked in tier 1.

Every benchmark run first decodes fixed reference trials of each
workload and must reproduce the per-role [block_errors, fail_count,
iterations] recorded in `perfbench/reference.json` exactly, so any
change to a decoding decision or an iteration count refuses the run.
This test repeats that gate without the benchmark: it reads the
workloads' `Workload(...)` calls in `perfbench/workloads.py` with `ast`
and the recorded counts from `reference.json` as data, builds each code
with `nbqc construct` and decodes the reference trials with
`simulate_sweep`.  Nothing under `perfbench/` is imported or changed.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from nbqc.binexpand import load_pair
from nbqc.decoder import DecoderConfig
from nbqc.harness import main, simulate_sweep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# `REFERENCE_SIM_SEED` and `MAX_ITER` of perfbench/workloads.py
REFERENCE_SIM_SEED = 1 << 62
MAX_ITER = 32


def workloads() -> dict:
    """{size: {name: keyword arguments}} of the `WORKLOADS` table."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["WORKLOADS"])
    out = {}
    for size, calls in zip(table.keys, table.values):
        out[ast.literal_eval(size)] = {}
        for call in calls.values:
            assert isinstance(call, ast.Call) and call.func.id == "Workload"
            kwargs = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
            out[ast.literal_eval(size)][ast.literal_eval(call.args[0])] = kwargs
    return out


def cases() -> list:
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    tables = workloads()
    assert {size: set(table) for size, table in tables.items()} == {
        size: set(table) for size, table in reference.items()}
    return [pytest.param(size, name, wl, seed, reference[size][name], id=f"{size}-{name}-{seed}")
            for size, table in tables.items() for name, wl in table.items()
            for seed in wl["lift_seeds"]]


@pytest.mark.parametrize("size, name, wl, lift_seed, ref", cases())
def test_reference_trials_decode_to_recorded_counts(size, name, wl, lift_seed, ref, tmp_path):
    prefix = str(tmp_path / "code")
    argv = ["construct", "--p", str(wl["p"]), "--L", "6", "--P", str(wl["P"]),
            "--sigma", str(wl["sigma"]), "--tau", str(wl["tau"]),
            "--seed", str(lift_seed), "--out", prefix]
    assert main(argv + (["--reject-trivial"] if wl.get("reject_trivial") else [])) == 0
    paths = {part: f"{prefix}.{part}.nbqc" for part in ("gamma", "delta")}
    assert ref["digests"][str(lift_seed)] == {
        part: hashlib.sha256(Path(path).read_bytes()).hexdigest() for part, path in paths.items()}
    code = load_pair(paths["gamma"], paths["delta"])
    records = simulate_sweep(code, [wl["f_m"]], wl["ref_trials"], REFERENCE_SIM_SEED,
                             DecoderConfig(max_iter=MAX_ITER), mode="independent", workers=1)
    got = {r.role: [r.block_errors, r.fail_count, round(r.mean_iterations * r.trials)]
           for r in records}
    assert got == ref["exact"][str(lift_seed)]
