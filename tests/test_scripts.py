"""Smoke tests of the scripts under scripts/: each runs as a subprocess on
a tiny input and writes CSVs with the expected header and rows."""

import csv
import os
import subprocess
import sys
from pathlib import Path

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
    assert out.count("WARNING") == 3
    row = next(line for line in out.splitlines() if line.strip().startswith("trials_per_s"))
    assert "10 (10-10)" in row and "11.5 (11.25-11.75)" in row and " 2/2 " in row


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
