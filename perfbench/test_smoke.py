"""Smoke test of the benchmark itself, at the tiny size.

    python -m pytest perfbench/test_smoke.py -q

Run from the root of a checkout.  Each workload must report every metric
that BENCHMARK.json names, and a corrupted result (a tampered .nbqc file,
a wrong BLER reference) or a checkout without sources must fail the run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def tiny(workload, trace=0):
    return bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_reports_every_named_metric(workload, trace):
    proc, result = tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.fixture
def wb(monkeypatch):
    """The benchmark's workloads module, imported in-process as run.py does."""
    import run

    for key, value in run.PINNED_ENV.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(ROOT)
    return run.import_workloads()


def run_in_process(capsys, workload):
    import run

    rc = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.5",
                   "--trace", "0", "--size", "tiny"])
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    return rc, out


def wrong_bler(ref):
    ref["bler"] = 0.95


def one_iteration_more(ref):
    ref["exact"]["0"]["C"][2] += 1


@pytest.mark.parametrize("corrupt, message", [(wrong_bler, "FAIL bler"),
                                              (one_iteration_more, "FAIL reference trials")])
def test_wrong_reference_fails_the_run(wb, monkeypatch, capsys, corrupt, message):
    load = wb.load_reference

    def corrupted(size, name):
        ref = load(size, name)
        corrupt(ref)
        return ref

    monkeypatch.setattr(wb, "load_reference", corrupted)
    rc, out = run_in_process(capsys, "sim-gf256-n336")
    assert rc != 0
    assert message in out


def test_tampered_nbqc_file_fails_the_run(wb, monkeypatch, capsys):
    construct = wb.Pipeline.construct

    def construct_then_tamper(self):
        construct(self)
        with open(self.gamma, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        row = lines[3].split()                   # "r0: col:log col:log ..."
        col, log = row[1].split(":")
        row[1] = f"{col}:{(int(log, 16) + 1) % (2 ** self.wl.p - 1):x}"
        lines[3] = " ".join(row)
        with open(self.gamma, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    monkeypatch.setattr(wb.Pipeline, "construct", construct_then_tamper)
    rc, out = run_in_process(capsys, "build-gf16-n1032")
    assert rc != 0
    assert "nbqc digests" in out


def test_checkout_without_sources_fails_without_a_result():
    os.makedirs(WORK, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc, result = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert result is None
