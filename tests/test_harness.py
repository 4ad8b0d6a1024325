"""CLI and simulation harness tests.

Spot values for the limit curves were computed independently at 30
digits (mpmath root-finding on the closed forms) and frozen here.
"""

import concurrent.futures
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import read_rows
from nbqc import harness, nblift, qcpair
from nbqc.binexpand import FieldMismatch, load_pair, read_matrix, write_matrix
from nbqc.channel import ChannelParams, sample_error, syndrome_of
from nbqc.decoder import DecoderConfig, SyndromeDecoder
from nbqc.harness import (DomainError, SimRecord, _seek, bdd_limit,
                          build_parser, cmd_construct, limit_point, main, record_csv_line,
                          s2_limit, shannon_limit, simulate_sweep, verify_pair_files)

DATA = Path(__file__).parent / "data"

# frozen independent evaluations (30-digit root finds)
S2_ZERO = 0.110027864438359551          # root of 1 - 2 h(f)
SHANNON_THIRD = 0.0722357932154816416   # shannon(f) = 1/3
SWEEP_CSV_SHA256 = "a21ec43283ec343de746eb7cbf8a38fc904f8dca58224dc32bf73b26932c1e0c"
# the two codes the benchmark builds: construct flags, then the SHA-256 of
# the gamma and the delta file
BENCHMARK_CODES = {
    "gf256-n336": (
        ["--p", "8", "--L", "6", "--P", "7", "--sigma", "2", "--tau", "3", "--seed", "0"],
        "ba814459fc83c1a32405ef850f3abcf56d3c6e435e5264afd2ce475571f88090",
        "db45b7e86ba71ef69de9aa03165cd3ab8f4f80e1f4364aedd57f745b51d06a16"),
    "gf16-n1032": (
        ["--p", "4", "--L", "6", "--P", "43", "--sigma", "6", "--tau", "2", "--seed", "0",
         "--reject-trivial"],
        "b2df7bcdb9bc56dac217af91b9ada25b75cf4bc244ee6a8eae05a13de9c2f950",
        "f54e637e6dae1ff84f54b0721a69a7472b4d9542cff0f799609e851b809b1437"),
}


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_reader_matches_token_reader(*paths):
    for path in paths:
        mat = read_matrix(path)
        text = Path(path).read_text()
        assert (mat.row.tolist(), mat.col.tolist(),
                mat.log.tolist()) == read_rows(text, mat.n, mat.field.q)


def bisect(fn, lo, hi, tol=1e-12):
    flo = fn(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        fmid = fn(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < tol:
            break
    return (lo + hi) / 2


class TestLimits:
    def test_all_limits_approach_one_at_zero(self):
        pt = limit_point(1e-9)
        assert pt.shannon == pytest.approx(1.0, abs=1e-6)
        assert pt.s2 == pytest.approx(1.0, abs=1e-6)
        assert pt.bdd == pytest.approx(1.0, abs=1e-6)

    def test_s2_zero_crossing(self):
        root = bisect(s2_limit, 0.05, 0.2)
        assert root == pytest.approx(S2_ZERO, abs=1e-6)
        assert abs(s2_limit(S2_ZERO)) < 1e-9

    def test_shannon_crossing_at_one_third(self):
        root = bisect(lambda f: shannon_limit(f) - 1 / 3, 0.01, 0.2)
        assert root == pytest.approx(SHANNON_THIRD, abs=1e-6)
        assert shannon_limit(SHANNON_THIRD) == pytest.approx(1 / 3, abs=1e-9)

    def test_ordering_on_grid(self):
        for f in np.linspace(0.002, 0.249, 60):
            pt = limit_point(float(f))
            assert pt.bdd < pt.s2 < pt.shannon

    def test_formulas_against_direct_evaluation(self):
        for f in (0.01, 0.05, 0.1, 0.2):
            x = 1.5 * f
            h = lambda t: -t * math.log2(t) - (1 - t) * math.log2(1 - t)
            assert shannon_limit(f) == pytest.approx(1 - h(x) - x * math.log2(3))
            assert s2_limit(f) == pytest.approx(1 - 2 * h(f))
            assert bdd_limit(f) == pytest.approx(1 - 2 * h(2 * f))

    def test_domain(self):
        with pytest.raises(DomainError):
            limit_point(0.0)
        with pytest.raises(DomainError):
            limit_point(1 / 3)
        with pytest.raises(DomainError):
            limit_point(0.4)


@pytest.fixture(scope="module")
def golden_paths():
    return (str(DATA / "golden_gf16.gamma.nbqc"),
            str(DATA / "golden_gf16.delta.nbqc"))


@pytest.fixture(scope="module")
def golden_code(golden_paths):
    return load_pair(*golden_paths)


@pytest.fixture
def pools(monkeypatch):
    """Every process pool that a sweep opens, through a stand-in executor
    that records its size and job count and maps in-process."""
    opened = []

    class CountingPool:
        def __init__(self, max_workers):
            self.max_workers, self.jobs = max_workers, 0
            opened.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            jobs = list(zip(*iterables))
            self.jobs += len(jobs)
            return [fn(*job) for job in jobs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return opened


class TestSimulate:
    def test_zero_rate_is_error_free(self, golden_code):
        for rec in simulate_sweep(golden_code, [0.0], trials=50, seed=1):
            assert rec.bler == 0.0
            assert rec.block_errors == rec.fail_count == rec.mismatch_count == 0
            assert rec.mean_iterations == 0.0

    def test_counting_identity(self, golden_code):
        for rec in simulate_sweep(golden_code, [0.06], trials=200, seed=2):
            assert rec.block_errors == rec.fail_count + rec.mismatch_count
            assert rec.bler == rec.block_errors / rec.trials

    def test_worker_split_invariance(self, golden_code):
        serial = simulate_sweep(golden_code, [0.04], trials=120, seed=3, workers=1)
        split = simulate_sweep(golden_code, [0.04], trials=120, seed=3, workers=3)
        assert serial == split

    def test_sweep_order(self, golden_code):
        records = simulate_sweep(golden_code, [0.01, 0.02], trials=10, seed=5)
        assert [(r.f_m, r.role) for r in records] == [
            (0.01, "C"), (0.01, "D"), (0.02, "C"), (0.02, "D")]

    def test_trial_rng_streams_differ(self):
        # one generator re-seeked through its own state, as the trial loop does
        got = np.random.Generator(np.random.Philox(key=7))
        state = got.bit_generator.state
        draws = []
        for t in (0, 1, 0):
            got.bit_generator.state = _seek(state, t)
            draws.append(got.random(4))
        a, b, c = draws
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 7, 2**62, 2**64 + 5, 2**128 - 1])
    def test_trial_rng_is_philox_keyed_by_seed(self, seed):
        got = np.random.Generator(np.random.Philox(key=seed))
        state = got.bit_generator.state
        for t in (0, 1, 2**64 + 3, 5):
            want = np.random.Generator(np.random.Philox(key=seed, counter=t << 128))
            got.bit_generator.state = _seek(state, t)
            assert np.array_equal(got.random(6), want.random(6))
            assert np.array_equal(got.integers(0, 2**62, 6), want.integers(0, 2**62, 6))
            assert np.array_equal(got.random(5, dtype=np.float32),
                                  want.random(5, dtype=np.float32))

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (2**128, 0), (1 << 130, 3),
                                             (5, -1), (5, 2**128)])
    def test_trial_rng_rejects_out_of_range(self, seed, trial):
        # a bad seed is refused by Philox, a bad trial by _seek
        with pytest.raises(ValueError):
            _seek(np.random.Philox(key=seed).state, trial)

    def test_simulation_draws_the_trial_rng_streams(self, golden_code):
        # the simulation re-seeks one generator; trial t must still see the
        # stream of Philox(key=seed, counter=t << 128), whose X part role C
        # decodes and whose Z part role D decodes
        seed, f_m, trials = 2**64 + 5, 0.05, 30
        records = simulate_sweep(golden_code, [f_m], trials=trials, seed=seed)
        assert [rec.role for rec in records] == ["C", "D"]
        for part, rec in enumerate(records):
            dec = SyndromeDecoder(golden_code, rec.role)
            fails = iters = 0
            for t in range(trials):
                rng = np.random.Generator(np.random.Philox(key=seed, counter=t << 128))
                err = sample_error(golden_code.N, golden_code.field.p, ChannelParams(f_m),
                                   rng)[part]
                out = dec.decode(syndrome_of(golden_code, rec.role, err), f_m)
                fails += not out.ok
                iters += out.iterations
            assert iters > trials
            assert rec.fail_count == fails and rec.mean_iterations == iters / trials
        with pytest.raises(ValueError):
            simulate_sweep(golden_code, [f_m], trials=3, seed=-1)

    def test_one_decoder_alive_at_a_time(self, golden_code, monkeypatch):
        # role C's decoder, and all that refers to it, is freed before role
        # D's is built
        built = []

        class Tracked(SyndromeDecoder):
            def __init__(self, code, role):
                assert all(ref() is None for ref in built)
                super().__init__(code, role)
                built.append(weakref.ref(self))

        monkeypatch.setattr(harness, "SyndromeDecoder", Tracked)
        simulate_sweep(golden_code, [0.02, 0.05], trials=4, seed=1)
        assert len(built) == 2

    def test_one_pool_per_sweep(self, golden_code, monkeypatch, tmp_path, golden_paths, pools):
        f_m = [0.02, 0.05, 0.08]
        split = simulate_sweep(golden_code, f_m, trials=30, seed=4, workers=3)
        # one executor for the sweep, one job per trial range of 10
        assert [(pool.max_workers, pool.jobs) for pool in pools] == [(3, 3)]
        assert split == simulate_sweep(golden_code, f_m, trials=30, seed=4, workers=1)
        assert len(pools) == 1
        # the CLI caps workers at the CPUs the process may use
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv("NBQC_WORKERS", "2")
        out = tmp_path / "sweep.csv"
        assert main(["simulate", *golden_paths, "--fm", *map(str, f_m), "--trials", "8",
                     "--max-iter", "6", "--out", str(out)]) == 0
        assert [(pool.max_workers, pool.jobs) for pool in pools[1:]] == [(2, 2)]
        assert len(out.read_text().splitlines()) == 1 + 2 * len(f_m)

    def test_pool_sized_to_its_jobs(self, golden_code, pools):
        # 9 trials over 4 workers are 3 ranges of 3: 3 processes, not 4
        split = simulate_sweep(golden_code, [0.05], trials=9, seed=6, workers=4)
        assert [(pool.max_workers, pool.jobs) for pool in pools] == [(3, 3)]
        assert split == simulate_sweep(golden_code, [0.05], trials=9, seed=6, workers=1)

    @pytest.mark.parametrize("value", ["abc", "", "2.5", "0", "-3"])
    def test_bad_worker_count_is_an_error(self, golden_paths, monkeypatch, capsys, tmp_path,
                                          pools, value):
        monkeypatch.setenv("NBQC_WORKERS", value)
        out = tmp_path / "sweep.csv"
        assert main(["simulate", *golden_paths, "--fm", "0.05", "--trials", "8",
                     "--out", str(out)]) == 2
        assert "NBQC_WORKERS" in capsys.readouterr().err
        assert not out.exists() and not pools

    @pytest.mark.parametrize("affinity, cpus, sizes", [
        pytest.param(None, 2, [(2, 2)], id="2-sizes0"),
        pytest.param(None, None, [], id="None-sizes1"),
        pytest.param({1, 3}, 8, [(2, 2)], id="affinity-2-of-8"),
        pytest.param({2}, 8, [], id="affinity-1-of-8")])
    def test_worker_count_capped_at_cpu_count(self, golden_paths, monkeypatch, tmp_path,
                                              pools, affinity, cpus, sizes):
        # 8 workers asked for on 2 usable CPUs run 2 processes, also when the
        # machine has more than the process may use; one usable CPU, or an
        # unknown CPU count where the platform has no affinity mask, runs
        # serially
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("NBQC_WORKERS", "8")
        out = tmp_path / "sweep.csv"
        assert main(["simulate", *golden_paths, "--fm", "0.05", "--trials", "30",
                     "--max-iter", "6", "--out", str(out)]) == 0
        assert [(pool.max_workers, pool.jobs) for pool in pools] == sizes
        assert len(out.read_text().splitlines()) == 3

    def test_sweep_csv_digest(self, golden_code):
        # SHA-256 of these sweeps' CSV rows, recorded when every (f_m, role)
        # point ran on its own decoder and, with two workers, in its own pool
        digest = hashlib.sha256()
        for mode in ("independent", "joint"):
            for workers in (1, 2):
                records = simulate_sweep(golden_code, [0.02, 0.05, 0.08], trials=30, seed=0,
                                         config=DecoderConfig(max_iter=12), mode=mode,
                                         workers=workers)
                digest.update(("\n".join(map(record_csv_line, records)) + "\n").encode())
        assert digest.hexdigest() == SWEEP_CSV_SHA256

    def test_csv_line(self):
        rec = SimRecord(f_m=0.02, role="C", trials=1000, block_errors=13,
                        bler=0.013, mean_iterations=2.5, fail_count=11,
                        mismatch_count=2, seed=9)
        assert record_csv_line(rec) == "0.02,C,1000,13,0.013,2.5,11,2,9"


class TestVerify:
    def test_golden_pair_all_pass(self, golden_paths):
        checks = verify_pair_files(*golden_paths)
        assert all(ok for _, ok, _ in checks)
        assert len(checks) == 10
        names = {name for name, _, _ in checks}
        assert {"nonbinary_orthogonal", "binary_orthogonal", "column_weight",
                "row_weight", "no_symbol_4cycles", "determinant_condition"} <= names

    def test_tampered_entry_fails(self, golden_paths, tmp_path):
        text = Path(golden_paths[1]).read_text()
        bad = tmp_path / "bad.delta.nbqc"
        # change one hexlog (row r2 first entry 6:7 -> 6:8)
        assert "r2: 6:7" in text
        bad.write_text(text.replace("r2: 6:7", "r2: 6:8", 1))
        checks = dict((n, ok) for n, ok, _ in
                      verify_pair_files(golden_paths[0], str(bad)))
        assert not checks["nonbinary_orthogonal"]
        assert not checks["binary_orthogonal"]
        assert checks["determinant_condition"]  # gamma side is untouched

    # verdicts of every check on tampered copies of the golden first matrix;
    # recorded with the per-entry field products that the log-domain cycle
    # balance replaced
    TAMPERED_GAMMA = {
        # one log changed: r0's entry in column 1, log 4 -> 5
        "log": ({0: lambda t: ["1:5"] + t[1:]},
                "TTTTTTTFFF"),
        # one entry moved off the construction support, column 1 -> 0: two
        # cycles meet a zero on one side
        "moved": ({0: lambda t: ["0:4"] + t[1:]},
                  "TTTFTFFFFF"),
        # both entries of column 1 removed: each cycle through the column
        # meets a zero on both sides
        "column": ({0: lambda t: t[1:], 11: lambda t: [x for x in t if x[:2] != "1:"]},
                   "TTTFFFTFTF"),
        # (1, 2) on E1 and (13, 7) on E2 of row 5's cycle removed: that cycle
        # meets zeros on both sides, the other cycles through them on one
        "two_columns": ({1: lambda t: t[1:], 13: lambda t: [x for x in t if x[:2] != "7:"]},
                        "TTTFFFTFFF"),
    }

    @pytest.mark.parametrize("name", sorted(TAMPERED_GAMMA))
    def test_tampered_gamma_verdicts(self, golden_paths, tmp_path, name):
        edits, verdicts = self.TAMPERED_GAMMA[name]
        lines = Path(golden_paths[0]).read_text().splitlines()
        for r, edit in edits.items():
            prefix, entries = lines[3 + r].split(" ", 1)
            lines[3 + r] = " ".join([prefix] + edit(entries.split()))
        bad = tmp_path / f"{name}.gamma.nbqc"
        bad.write_text("\n".join(lines) + "\n")
        checks = verify_pair_files(str(bad), golden_paths[1])
        assert "".join("TF"[not ok] for _, ok, _ in checks) == verdicts
        assert [n for n, _, _ in checks][8] == "determinant_condition"

    @pytest.mark.parametrize("J", [1, 3])
    def test_column_weight_other_than_2_fails(self, golden_paths, tmp_path, capsys, J):
        paths = []
        for path in golden_paths:
            bad = tmp_path / Path(path).name
            bad.write_text(Path(path).read_text().replace(" J=2 ", f" J={J} ", 1))
            paths.append(str(bad))
        checks = verify_pair_files(*paths)
        assert [n for n, ok, _ in checks if not ok] == ["params_valid"]
        assert f"J={J}" in dict((n, d) for n, _, d in checks)["params_valid"]
        assert main(["verify", *paths]) == 1
        assert "FAIL params_valid" in capsys.readouterr().out

    @pytest.mark.parametrize("which", [0, 1])
    def test_column_count_header_differs_fails(self, golden_paths, tmp_path, capsys, which):
        # N=43 in one file's header: the entries fit, but the shape is not
        # the construction's, so the checks that need it do not run
        paths = list(golden_paths)
        bad = tmp_path / Path(paths[which]).name
        bad.write_text(Path(paths[which]).read_text().replace("\nM=14 N=42\n", "\nM=14 N=43\n", 1))
        paths[which] = str(bad)
        checks = verify_pair_files(*paths)
        assert [n for n, ok, _ in checks if not ok] == ["supports_match_construction",
                                                        "column_weight"]
        assert "14x43" in dict((n, d) for n, _, d in checks)["supports_match_construction"]
        assert len(checks) == 7 and checks[-1][0] == "no_symbol_4cycles"
        assert main(["verify", *paths]) == 1
        out = capsys.readouterr()
        assert "FAIL supports_match_construction" in out.out and "error" not in out.err

    @pytest.mark.parametrize("old, new, scale, failing", [
        # the entries fit, but N=10^12 must size no array: with more columns
        # than entries, the column weights are counted from the entries
        ("\nM=14 N=42\n", "\nM=14 N=1000000000000\n", 1,
         ["supports_match_construction", "column_weight"]),
        # columns c -> 2^15 c with N = 2^49 + 1: an int64 key c1 N + c2 of
        # the column pair (c1, c2) would wrap to 2^15 (c1 + c2), so pairs of
        # equal sum would collide and report 4-cycles the code does not have
        ("\nM=14 N=42\n", "\nM=14 N=562949953421313\n", 1 << 15,
         ["supports_match_construction", "column_weight"]),
        # a construction has 2P rows, so a P above M fails without the O(P)
        # scan of the unit group
        (" P=7 ", " P=999999999999999 ", 1, ["params_valid"]),
    ], ids=["huge-N", "huge-N-spread-columns", "huge-P"])
    def test_header_numbers_size_nothing(self, golden_paths, tmp_path, capsys, old, new, scale,
                                         failing):
        paths = []
        for path in golden_paths:
            bad = tmp_path / Path(path).name
            text = re.sub(r"(?<= )(\d+):", lambda c: f"{int(c[1]) * scale}:",
                          Path(path).read_text())
            bad.write_text(text.replace(old, new, 1))
            paths.append(str(bad))
        assert [n for n, ok, _ in verify_pair_files(*paths) if not ok] == failing
        assert main(["verify", *paths]) == 1
        out = capsys.readouterr()
        assert f"FAIL {failing[-1]}" in out.out and not out.err
        assert main(["simulate", *paths, "--fm", "0.05", "--trials", "1"]) == 2
        assert "not 2P x LP" in capsys.readouterr().err

    def test_cross_seed_pair_fails(self, golden_paths, tmp_path):
        import numpy as np
        from nbqc.gf2p import make_field
        from nbqc.nblift import lift
        from nbqc.qcpair import QCParams, build_pair
        pair = build_pair(QCParams(P=7, J=2, L=6, sigma=2, tau=3))
        field = make_field(4)
        gamma, delta = lift(pair, field, np.random.default_rng(1234))
        other = tmp_path / "other.delta.nbqc"
        write_matrix(delta, other)
        checks = dict((n, ok) for n, ok, _ in
                      verify_pair_files(golden_paths[0], str(other)))
        assert not checks["nonbinary_orthogonal"]

    @staticmethod
    def with_polys(golden_paths, tmp_path, polys):
        """Copies of the golden pair whose headers spell the polynomial as
        `polys` (gamma, delta); None leaves a header as it is."""
        paths = []
        for path, poly in zip(golden_paths, polys):
            text = Path(path).read_text()
            assert " poly=0x3 " in text
            paths.append(str(tmp_path / Path(path).name))
            Path(paths[-1]).write_text(text if poly is None
                                       else text.replace(" poly=0x3 ", f" poly={poly} ", 1))
        return paths

    @pytest.mark.parametrize("polys", [("0x13", "0x13"), ("0x13", None), (None, "0x13")],
                             ids=["both", "gamma", "delta"])
    def test_leading_term_spells_the_same_field(self, golden_paths, golden_code, tmp_path,
                                                capsys, polys):
        # x^4 + x + 1 spelled with its leading term, 0x13, in either header or both
        paths = self.with_polys(golden_paths, tmp_path, polys)
        code = load_pair(*paths)
        assert (code.field.p, code.field.poly) == (4, 0x3)
        assert all(np.array_equal(getattr(code, m).log, getattr(golden_code, m).log)
                   for m in ("gamma", "delta"))
        checks = verify_pair_files(*paths)
        assert len(checks) == 10 and all(ok for _, ok, _ in checks)
        assert main(["verify", *paths]) == 0
        sweeps = []
        for pair in (paths, golden_paths):
            out = tmp_path / "sweep.csv"
            assert main(["simulate", *pair, "--fm", "0.05", "--trials", "8",
                         "--out", str(out)]) == 0
            sweeps.append(out.read_bytes())
        assert sweeps[0] == sweeps[1]
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("poly", ["0x9", "0x19"])
    def test_other_polynomial_is_refused(self, golden_paths, tmp_path, capsys, poly):
        # x^4 + x^3 + 1 is primitive too, but not the first file's field
        paths = self.with_polys(golden_paths, tmp_path, (None, poly))
        with pytest.raises(FieldMismatch):
            load_pair(*paths)
        with pytest.raises(FieldMismatch):
            verify_pair_files(*paths)
        for argv in (["verify", *paths], ["simulate", *paths, "--fm", "0.05", "--trials", "1"]):
            assert main(argv) == 2
            assert "poly=0x9) != expected (p=4, poly=0x3)" in capsys.readouterr().err

    def test_longer_code_bytes_and_checks(self, tmp_path, capsys):
        # n=3048 (P=127); the digests pin the written bytes, which must not
        # depend on how the checks and cycle walks are implemented
        prefix = str(tmp_path / "long")
        assert main(["construct", "--p", "4", "--L", "6", "--P", "127",
                     "--sigma", "19", "--tau", "2", "--seed", "0",
                     "--reject-trivial", "--out", prefix]) == 0
        assert "n=3048" in capsys.readouterr().out
        g, d = prefix + ".gamma.nbqc", prefix + ".delta.nbqc"
        assert hashlib.sha256(Path(g).read_bytes()).hexdigest() == (
            "30afc028036fb5f10eff623cf9fddec994528b2a617664a6f7d0a74da701e5f9")
        assert hashlib.sha256(Path(d).read_bytes()).hexdigest() == (
            "21e75f7a926f931521d512f468e3face8b7f7345f0fe1f939294e1c7af721ce9")
        checks = verify_pair_files(g, d)
        assert len(checks) == 10
        assert all(ok for _, ok, _ in checks), [n for n, ok, _ in checks if not ok]

    def test_long_code_n29976_bytes_and_checks(self, tmp_path, capsys):
        # P=1249: the balance system has 2498 equations over 14988 variables,
        # too large for a dense solver; the digests pin the written bytes
        prefix = str(tmp_path / "n29976")
        assert main(["construct", "--p", "4", "--L", "6", "--P", "1249",
                     "--sigma", "93", "--tau", "2", "--seed", "0",
                     "--reject-trivial", "--out", prefix]) == 0
        assert "n=29976" in capsys.readouterr().out
        g, d = prefix + ".gamma.nbqc", prefix + ".delta.nbqc"
        assert hashlib.sha256(Path(g).read_bytes()).hexdigest() == (
            "4d756300919314f88851027b7612692ca41004d608207738adff2fac6c17df98")
        assert hashlib.sha256(Path(d).read_bytes()).hexdigest() == (
            "f8550537bd9e9d8636e3f6ce3ebe44598fa2b8ed689094c12b560486ab6449d7")
        checks, verify_peak = traced_peak(verify_pair_files, g, d)
        assert len(checks) == 10
        assert all(ok for _, ok, _ in checks), [n for n, ok, _ in checks if not ok]
        # linear memory: one m x m array of the binary rows (9992^2 cells)
        # would take at least 100 MB
        _, load_peak = traced_peak(load_pair, g, d)
        assert max(verify_peak, load_peak) < 64 * 2 ** 20, (verify_peak, load_peak)
        assert_reader_matches_token_reader(g, d)


    @pytest.mark.parametrize("flags, gamma_sha, delta_sha", list(BENCHMARK_CODES.values()),
                             ids=list(BENCHMARK_CODES))
    def test_benchmark_code_bytes_and_checks(self, tmp_path, flags, gamma_sha, delta_sha):
        # the two codes the benchmark builds; at p=8 the logs take two hex digits
        prefix = str(tmp_path / "code")
        assert main(["construct", *flags, "--out", prefix]) == 0
        g, d = prefix + ".gamma.nbqc", prefix + ".delta.nbqc"
        assert hashlib.sha256(Path(g).read_bytes()).hexdigest() == gamma_sha
        assert hashlib.sha256(Path(d).read_bytes()).hexdigest() == delta_sha
        checks = verify_pair_files(g, d)
        assert len(checks) == 10
        assert all(ok for _, ok, _ in checks), [n for n, ok, _ in checks if not ok]
        assert_reader_matches_token_reader(g, d)

class TestCli:
    def test_construct_verify_simulate(self, tmp_path, capsys):
        prefix = str(tmp_path / "code")
        rc = main(["construct", "--p", "4", "--L", "6", "--P", "7",
                   "--sigma", "2", "--tau", "3", "--seed", "11",
                   "--out", prefix])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=168" in out and "R_Q=0.333333" in out
        g, d = prefix + ".gamma.nbqc", prefix + ".delta.nbqc"

        assert main(["verify", g, d]) == 0
        capsys.readouterr()

        csv_path = str(tmp_path / "sweep.csv")
        rc = main(["simulate", g, d, "--fm", "0.01", "--trials", "20",
                   "--seed", "3", "--out", csv_path])
        assert rc == 0
        lines = Path(csv_path).read_text().splitlines()
        assert lines[0].startswith("f_m,role,trials")
        assert len(lines) == 3

    def test_construct_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            main(["construct", "--p", "2", "--L", "6", "--P", "7",
                  "--sigma", "2", "--tau", "3", "--seed", "5",
                  "--out", prefix])
        assert Path(a + ".gamma.nbqc").read_bytes() == Path(b + ".gamma.nbqc").read_bytes()
        assert Path(a + ".delta.nbqc").read_bytes() == Path(b + ".delta.nbqc").read_bytes()

    def test_construct_expands_and_walks_once(self, tmp_path, monkeypatch):
        calls = {"expand": 0, "cycle_structure": 0}
        for module, name in ((qcpair, "expand"), (nblift, "cycle_structure")):
            def counted(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)
        assert main(["construct", "--p", "4", "--L", "6", "--P", "7", "--sigma", "2",
                     "--tau", "3", "--out", str(tmp_path / "code")]) == 0
        assert calls == {"expand": 2, "cycle_structure": 1}

    def test_verify_exit_code_on_tamper(self, tmp_path, golden_paths, capsys):
        text = Path(golden_paths[1]).read_text()
        bad = tmp_path / "bad.nbqc"
        bad.write_text(text.replace("r2: 6:7", "r2: 6:8", 1))
        assert main(["verify", golden_paths[0], str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_rates_for_other_row_weights(self, tmp_path, capsys):
        # L=8 -> R_Q = 1/2; L=14 -> R_Q = 5/7
        from nbqc.qcpair import find_params
        for L, p_range, rq in ((8, [13], 0.5), (14, range(3, 50), 5 / 7)):
            params = find_params(L, p_range)[0]
            prefix = str(tmp_path / f"L{L}")
            rc = main(["construct", "--p", "2", "--L", str(L),
                       "--P", str(params.P), "--sigma", str(params.sigma),
                       "--tau", str(params.tau), "--seed", "1", "--out", prefix])
            assert rc == 0
            out = capsys.readouterr().out
            assert f"R_Q={rq:.6g}" in out
            code = load_pair(prefix + ".gamma.nbqc", prefix + ".delta.nbqc")
            assert code.rate_q == pytest.approx(rq)
            assert code.n_qubits == 2 * L * params.P

    def test_limits_cli(self, tmp_path):
        out = str(tmp_path / "limits.csv")
        rc = main(["limits", "--fm", "0.05", "0.11", "--out", out])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "f_m,shannon,s2,bdd"
        assert len(lines) == 3
        s2_at_011 = float(lines[2].split(",")[2])
        assert s2_at_011 == pytest.approx(s2_limit(0.11))

    def test_limits_grid_keeps_its_last_point(self, tmp_path):
        # (0.03 - 0.01) / 0.01 evaluates to 1.9999999999999996
        out = str(tmp_path / "grid.csv")
        rc = main(["limits", "--fm-min", "0.01", "--fm-max", "0.03",
                   "--fm-step", "0.01", "--out", out])
        assert rc == 0
        rows = Path(out).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.01", "0.02", "0.03"]

    @pytest.mark.parametrize("argv", [
        ["--fm-step", "0"],
        ["--fm-step", "-0.01"],
        ["--fm-min", "0.03", "--fm-max", "0.01"],
        # endpoints outside (0, 1/3) are refused before any grid is built:
        # an infinite one overflowed the point count, a huge finite one
        # sized a list of about 2e14 points
        ["--fm-max", "inf"],
        ["--fm-min=-inf"],
        ["--fm-max", "1e12"],
    ])
    def test_limits_grid_rejects_bad_range(self, argv, capsys):
        assert main(["limits", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["--fm-step", "1e-13"],                                         # about 3.3e12 points
        ["--fm-min", "0.1", "--fm-max", "0.2", "--fm-step", "1e-7"],    # 10**6 + 1 points
    ])
    def test_limits_grid_over_the_cap_is_refused(self, argv):
        # in a child limited to 2 GB of address space and 60 s, so that a
        # grid sized before the check fails there and not on the host
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30,) * 2); "
                "from nbqc.harness import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code, "limits", *argv], cwd=src,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and "more than 1000000 points" in proc.stderr

    def test_limits_grid_at_the_cap(self, tmp_path, monkeypatch, capsys):
        # 0.01, 0.02, 0.03 is three points: built at a cap of 3, refused at 2
        out = tmp_path / "grid.csv"
        argv = ["limits", "--fm-min", "0.01", "--fm-max", "0.03", "--fm-step", "0.01",
                "--out", str(out)]
        monkeypatch.setattr(harness, "MAX_LIMIT_POINTS", 3)
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 1 + 3
        monkeypatch.setattr(harness, "MAX_LIMIT_POINTS", 2)
        assert main(argv) == 2
        assert "more than 2 points" in capsys.readouterr().err

    def test_serial_import_skips_process_pool(self):
        code = ("import sys, nbqc.harness; "
                "print('concurrent.futures.process' in sys.modules)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=src)
        assert out.stdout.strip() == "False"

    def test_simulate_csv_deterministic(self, tmp_path, golden_paths):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = str(tmp_path / name)
            main(["simulate", *golden_paths, "--fm", "0.02", "--trials", "30",
                  "--seed", "8", "--out", out])
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_workers_env(self, tmp_path, golden_paths, monkeypatch):
        base = str(tmp_path / "serial.csv")
        main(["simulate", *golden_paths, "--fm", "0.03", "--trials", "40",
              "--seed", "2", "--out", base])
        monkeypatch.setenv("NBQC_WORKERS", "4")
        par = str(tmp_path / "par.csv")
        main(["simulate", *golden_paths, "--fm", "0.03", "--trials", "40",
              "--seed", "2", "--out", par])
        assert Path(base).read_bytes() == Path(par).read_bytes()


@pytest.fixture
def parser_builds(monkeypatch):
    """main's cached parser cleared, and a list that gains one entry per
    `build_parser` call."""
    builds = []

    def counted(build=harness.build_parser):
        builds.append(None)
        return build()

    monkeypatch.setattr(harness, "_parser", None)
    monkeypatch.setattr(harness, "build_parser", counted)
    return builds


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestParserReuse:
    def test_one_parser_serves_every_command(self, tmp_path, golden_paths, parser_builds):
        flags, gamma_sha, delta_sha = BENCHMARK_CODES["gf16-n1032"]
        prefix = str(tmp_path / "n1032")
        assert main(["construct", *flags, "--out", prefix]) == 0
        g, d = prefix + ".gamma.nbqc", prefix + ".delta.nbqc"
        assert (sha256_file(g), sha256_file(d)) == (gamma_sha, delta_sha)
        # an argparse failure (no --p) leaves the next call working
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--L", "6", "--P", "7", "--sigma", "2", "--tau", "3",
                  "--out", prefix])
        assert exc.value.code == 2
        assert main(["verify", g, d]) == 0

        # the sweeps of test_sweep_csv_digest, joint first: a call without
        # --mode runs independent mode, whatever the call before it chose
        rows = {}
        for mode in ("joint", None):
            out = tmp_path / f"{mode}.csv"
            assert main(["simulate", *golden_paths, "--fm", "0.02", "0.05", "0.08",
                         "--trials", "30", "--seed", "0", "--max-iter", "12",
                         *(["--mode", mode] if mode else []), "--out", str(out)]) == 0
            header, body = out.read_text().split("\n", 1)
            assert header == harness.CSV_HEADER
            rows[mode] = body
        # the digest pins two sweeps per mode, one per worker count, with equal rows
        digest = hashlib.sha256(2 * rows[None].encode() + 2 * rows["joint"].encode())
        assert digest.hexdigest() == SWEEP_CSV_SHA256

        out = tmp_path / "limits.csv"
        assert main(["limits", "--fm-min", "0.01", "--fm-max", "0.03", "--fm-step", "0.01",
                     "--out", str(out)]) == 0
        assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == [
            "0.01", "0.02", "0.03"]

        # without --reject-trivial, and at another seed: the bytes equal a
        # fresh parser's run of the same flags
        flags, gamma_sha, delta_sha = BENCHMARK_CODES["gf256-n336"]
        prefix = str(tmp_path / "n336")
        assert main(["construct", *flags, "--out", prefix]) == 0
        assert (sha256_file(prefix + ".gamma.nbqc"),
                sha256_file(prefix + ".delta.nbqc")) == (gamma_sha, delta_sha)
        argv = ["construct", *flags[:-1], "5", "--out"]
        assert main([*argv, str(tmp_path / "reused")]) == 0
        assert cmd_construct(build_parser().parse_args([*argv, str(tmp_path / "fresh")])) == 0
        for role in ("gamma", "delta"):
            assert (tmp_path / f"reused.{role}.nbqc").read_bytes() == (
                tmp_path / f"fresh.{role}.nbqc").read_bytes()
        assert len(parser_builds) == 1

    def test_patched_command_runs(self, parser_builds, monkeypatch):
        assert main(["limits", "--fm", "0.05"]) == 0
        ran = []
        monkeypatch.setattr(harness, "cmd_verify", lambda args: ran.append(args) or 7)
        assert main(["verify", "a.nbqc", "b.nbqc"]) == 7
        assert [(args.gamma, args.delta) for args in ran] == [("a.nbqc", "b.nbqc")]
        assert len(parser_builds) == 1

    def test_import_builds_no_parser(self):
        code = ("import argparse; made = []; init = argparse.ArgumentParser.__init__; "
                "argparse.ArgumentParser.__init__ = "
                "lambda self, *a, **k: made.append(1) or init(self, *a, **k); "
                "import nbqc.harness; print(len(made), nbqc.harness._parser)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=src)
        assert out.stdout.strip() == "0 None"
