"""Smoke tests of the scripts under scripts/: each runs as a subprocess on
a tiny input and writes CSVs with the expected header and row count."""

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


def test_bler_sweep(tmp_path):
    run_script("bler_sweep.py", "--fields", "2", "--fm", "0.01", "--trials", "5",
               "--outdir", str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["bler_p2_L6_P7.csv"]
    rows = read_rows(tmp_path / "bler_p2_L6_P7.csv")
    assert rows[0] == CSV_HEADER.split(",")
    assert [(r[0], r[1], r[2]) for r in rows[1:]] == [("0.01", "C", "5"), ("0.01", "D", "5")]


def test_limit_curves(tmp_path):
    out = tmp_path / "limits.csv"
    run_script("limit_curves.py", "--step", "0.05", "--out", str(out))
    rows = read_rows(out)
    assert rows[0] == ["f_m", "shannon", "s2", "bdd"]
    # 0.05, 0.10, ..., 0.30 lie below 1/3
    assert len(rows) == 1 + 6
    assert all(len(r) == 4 for r in rows)
