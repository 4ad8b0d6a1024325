"""Smoke tests of the scripts under scripts/: each runs as a subprocess on
a tiny input and writes CSVs with the expected header and rows."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from nbqc.harness import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, NBQC_WORKERS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, check=True)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# bler_sweep.py output for the run below, recorded when each code was built
# by separate lift_gamma and solve_delta calls: the build path must not
# change a byte
BLER_SWEEP_CSV = {
    "bler_p2_L6_P7.csv": """\
f_m,role,trials,block_errors,bler,mean_iterations,fail_count,mismatch_count,seed
0.03,C,20,4,0.2,6.15,3,1,0
0.03,D,20,5,0.25,9,5,0,0
0.05,C,20,11,0.55,16.65,9,2,0
0.05,D,20,14,0.7,22,13,1,0
""",
    "bler_p4_L6_P7.csv": """\
f_m,role,trials,block_errors,bler,mean_iterations,fail_count,mismatch_count,seed
0.03,C,20,3,0.15,6.35,2,1,0
0.03,D,20,1,0.05,4.15,1,0,0
0.05,C,20,10,0.5,18.5,10,0,0
0.05,D,20,10,0.5,18.7,10,0,0
""",
}


def test_bler_sweep(tmp_path):
    run_script("bler_sweep.py", "--fields", "2", "4", "--fm", "0.03", "0.05",
               "--trials", "20", "--outdir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BLER_SWEEP_CSV)
    for name, text in BLER_SWEEP_CSV.items():
        assert text.startswith(CSV_HEADER + "\n")
        assert (tmp_path / name).read_bytes() == text.encode("ascii")


def test_limit_curves(tmp_path):
    out = tmp_path / "limits.csv"
    run_script("limit_curves.py", "--step", "0.05", "--out", str(out))
    rows = read_rows(out)
    assert rows[0] == ["f_m", "shannon", "s2", "bdd"]
    # 0.05, 0.10, ..., 0.30 lie below 1/3
    assert len(rows) == 1 + 6
    assert all(len(r) == 4 for r in rows)


def test_decoder_cost():
    out = run_script("decoder_cost.py", "--fields", "2", "--P", "7").stdout
    header, row = out.splitlines()
    assert header.split() == ["p", "P", "N", "ms/iteration", "ns/entry"]
    p, P, N, ms, ns = row.split()
    assert (p, P, N) == ("2", "7", "42")
    # ns/entry is ms/iteration (printed to 3 decimals) over the 2 N q =
    # 336 message entries
    assert float(ms) > 0 and abs(float(ns) * 336e-6 - float(ms)) <= 6e-4


def import_bench_ab():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_ab
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return bench_ab


def test_bench_ab_report_drops_incorrect_pairs(capsys):
    bench_ab = import_bench_ab()

    def run(value, correct=True, failed=0, exit=0):
        return {"correct": correct, "failed": failed, "attempted": 8, "exit": exit,
                "metrics": {"trials_per_s": {"value": value}}}
    runs = [(run(10.0), run(11.0)), (run(10.0), run(12.0)),
            (run(10.0), run(1e6, correct=False)), (run(1e6, failed=1), run(13.0)),
            (run(1e6, exit=1), run(14.0))]
    metric = {"name": "trials_per_s", "unit": "1/s", "better": "higher"}
    bench_ab.report("w", [metric], runs)
    out = capsys.readouterr().out
    assert "3 pairs dropped for an incorrect run, 2 kept" in out
    # three incorrect runs, and two kept pairs are fewer than 10
    assert out.count("WARNING: a ") == 3
    assert out.count("WARNING") == 4 and "WARNING: only 2 pairs kept" in out
    row = next(line for line in out.splitlines() if line.strip().startswith("trials_per_s"))
    assert "10 (10-10)" in row and "11.5 (11.25-11.75)" in row and " 2/2 " in row


def test_bench_ab_warns_below_ten_kept_pairs(capsys):
    bench_ab = import_bench_ab()

    def pair(correct=True):
        return tuple({"correct": c, "failed": 0, "attempted": 8, "exit": 0,
                      "metrics": {"trials_per_s": {"value": v}}}
                     for c, v in ((True, 10.0), (correct, 11.0)))

    metric = {"name": "trials_per_s", "unit": "1/s", "better": "higher"}
    # 4 of 6 pairs kept: one WARNING line that names the count
    bench_ab.report("w", [metric], [pair(), pair(), pair(False), pair(), pair(False), pair()])
    warnings = [line for line in capsys.readouterr().out.splitlines() if "WARNING" in line]
    assert len(warnings) == 3
    assert [line for line in warnings if "kept" in line] == [
        "  WARNING: only 4 pairs kept, fewer than 10: "
        "host noise alone can move a median by a tenth"]
    # 10 kept pairs: no warning at all
    bench_ab.report("w", [metric], [pair() for _ in range(10)])
    out = capsys.readouterr().out
    assert "0 pairs dropped for an incorrect run, 10 kept" in out
    assert "WARNING" not in out


def test_bench_ab_traced_runs_and_per_layer_report(monkeypatch, capsys):
    bench_ab = import_bench_ab()
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout, seed, trace))
        if not trace:
            return {"correct": True, "failed": 0, "attempted": 8, "exit": 0,
                    "metrics": {"verify_s": {"value": 1.0}}}
        # the change halves read_matrix_s; seed 3's parent run is incorrect
        ms = (2.0 + seed) * (0.5 if checkout == "change" else 1.0)
        return {"correct": not (seed == 3 and checkout == "parent"), "failed": 0,
                "attempted": 8, "exit": 0,
                "metrics": {"binexpand.read_matrix_s": {"value": ms},
                            "binexpand.binary_orthogonal_calls": {"value": 24}}}

    monkeypatch.setattr(bench_ab, "run_once", fake_run_once)
    end_to_end = [{"name": "verify_s", "unit": "s", "better": "lower"}]
    runs, traced = bench_ab.run_pairs({"parent": "parent", "change": "change"}, "w",
                                      [1, 2, 3], 1.0, True, end_to_end)
    # one untraced and one traced run per side and seed, each pair in the
    # seed's order: the change first on even seeds
    assert calls == [("parent", 1, False), ("change", 1, False),
                     ("parent", 1, True), ("change", 1, True),
                     ("change", 2, False), ("parent", 2, False),
                     ("change", 2, True), ("parent", 2, True),
                     ("parent", 3, False), ("change", 3, False),
                     ("parent", 3, True), ("change", 3, True)]
    assert len(runs) == len(traced) == 3
    per_layer = [{"name": "binexpand.read_matrix_s", "unit": "s", "better": "lower"},
                 {"name": "binexpand.binary_orthogonal_calls", "unit": "count",
                  "better": "lower"},
                 {"name": "decoder.wht_s", "unit": "s", "better": "lower"}]
    capsys.readouterr()
    bench_ab.report("w, traced, per layer", per_layer, traced)
    out = capsys.readouterr().out
    assert "w, traced, per layer: 3 pairs" in out
    assert "1 pairs dropped for an incorrect run, 2 kept" in out
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
    # medians over seeds 1 and 2: parent 3 and 4, change 1.5 and 2
    assert "3.5 (3.25-3.75)" in lines["binexpand.read_matrix_s"]
    assert "1.75 (1.625-1.875)" in lines["binexpand.read_matrix_s"]
    assert " 0.5000 " in lines["binexpand.read_matrix_s"]
    assert " 2/2 " in lines["binexpand.read_matrix_s"]
    assert "24 (24-24)" in lines["binexpand.binary_orthogonal_calls"]
    assert " 0/2 " in lines["binexpand.binary_orthogonal_calls"]
    assert "decoder.wht_s" not in lines     # a layer neither side reports is left out


def test_bench_ab_verdicts(capsys):
    bench_ab = import_bench_ab()
    lower = {"name": "construct_s", "unit": "s", "better": "lower", "bound": 0.25}
    higher = {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    parent = [3.2, 3.3, 3.4, 3.25, 3.35, 3.3, 3.2, 3.4, 3.3, 3.3]     # IQR 0.1125

    def verdict(metric, change, claimed=False, base=parent):
        return bench_ab.verdict(metric, list(zip(base, change)), claimed)

    # a claim: met on 10/10 and 9/10 wins with a median gain above the IQR
    assert verdict(lower, [2.5] * 10, claimed=True) == "met"
    assert verdict(lower, [2.5] * 9 + [3.5], claimed=True) == "met"
    assert verdict(lower, [2.5] * 8 + [3.5] * 2, claimed=True) == "not met"
    # every pair won by 0.05, below the parent's IQR
    assert verdict(lower, [v - 0.05 for v in parent], claimed=True) == "not met"
    # the bound is 25% of the parent's median 3.3, 0.825: 0.8 worse is within it
    assert verdict(higher, [2.5] * 10, base=[3.3] * 10) == "within bound"
    assert verdict(higher, [2.45] * 10, base=[3.3] * 10) == "worse than bound"
    assert verdict(lower, [4.1] * 10) == "within bound"
    assert verdict(lower, [4.2] * 10) == "worse than bound"
    # the parent's IQR (100) is wider than 25% of its median (100): no reading,
    # unless every change run beats every parent run
    wide = [50, 150] * 5
    assert verdict(higher, [100] * 10, base=wide) == "unresolved"
    assert verdict(higher, [151] * 10, base=wide) == "within bound"
    assert verdict({**higher, "bound": 2.0}, [10] * 10, base=wide) == "within bound"
    # a per-layer metric has no bound and no verdict
    assert verdict({"name": "decoder.wht_s", "unit": "s", "better": "lower"}, [9] * 10) == "-"

    runs = [tuple({"correct": True, "failed": 0, "attempted": 8, "exit": 0,
                   "metrics": {"construct_s": {"value": v}, "trials_per_s": {"value": v}}}
                  for v in pair) for pair in zip(parent, [2.5] * 10)]
    bench_ab.report("w", [lower, higher], runs, claim="construct_s")
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ") and "pairs" not in line}
    assert " 10/10  met " in rows["construct_s"]
    assert " 0/10  within bound " in rows["trials_per_s"]


def test_bench_ab_defaults_to_every_workload(monkeypatch):
    bench_ab = import_bench_ab()
    ran, git = [], []
    # no git and no benchmark runs: record what main would run
    monkeypatch.setattr(bench_ab, "subprocess",
                        SimpleNamespace(run=lambda cmd, **kw: git.append(cmd[1:3])))
    monkeypatch.setattr(bench_ab, "signal", SimpleNamespace(signal=lambda *a: None, SIGTERM=15))
    monkeypatch.setattr(bench_ab, "run_pairs",
                        lambda sides, workload, *a: ran.append(workload) or ([], []))
    monkeypatch.setattr(bench_ab, "report", lambda *a: None)
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert bench_ab.main(["--parent", "HEAD", "--seeds", "1"]) == 0
    assert ran == names and len(names) == 3
    ran.clear()
    bench_ab.main(["--parent", "HEAD", "--seeds", "1", "--workload", "sim-gf16-n168",
                   "--workload", "build-gf16-n1032"])
    assert ran == ["sim-gf16-n168", "build-gf16-n1032"]
    assert git == [["worktree", "add"], ["worktree", "remove"]] * 2


def test_bench_ab_claim_names_a_metric_of_the_run(monkeypatch, capsys):
    bench_ab = import_bench_ab()
    claims = []
    monkeypatch.setattr(bench_ab, "subprocess", SimpleNamespace(run=lambda cmd, **kw: None))
    monkeypatch.setattr(bench_ab, "signal", SimpleNamespace(signal=lambda *a: None, SIGTERM=15))
    monkeypatch.setattr(bench_ab, "run_pairs", lambda *a: ([], []))
    monkeypatch.setattr(bench_ab, "report", lambda *a: claims.append(a[3]))
    assert bench_ab.main(["--parent", "HEAD", "--seeds", "1",
                          "--claim", "construct_s@build-gf16-n1032"]) == 0
    # the claim reaches the claimed workload's report only
    assert claims == [None, None, "construct_s"]
    for claim in ("wht_s@build-gf16-n1032", "construct_s@nowhere", "construct_s"):
        with pytest.raises(SystemExit):
            bench_ab.main(["--parent", "HEAD", "--seeds", "1", "--claim", claim])
        assert "--claim" in capsys.readouterr().err


LOC_MODULE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment does not hide the code

# a whole-line comment


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring,

        over three lines."""
        return 0


def banner():
    text = """a string that is not a docstring
counts on each of its lines"""
    "a bare string after the first statement is not a docstring"
    return text
'''


def test_loc_counts_code_lines_only(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "shapes.py").write_text(LOC_MODULE)
    (pkg / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    out = run_script("loc.py", str(pkg)).stdout.splitlines()
    # import, class, def area, return, def banner, text (2 lines), bare string, return
    assert out == [f"     0 {pkg / 'empty.py'}", f"     9 {pkg / 'shapes.py'}", "     9 total"]
