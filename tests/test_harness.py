"""CLI and simulation harness tests.

Spot values for the limit curves were computed independently at 30
digits (mpmath root-finding on the closed forms) and frozen here.
"""

import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nbqc.binexpand import load_pair, write_matrix
from nbqc.channel import ChannelParams, sample_error, syndrome_of
from nbqc.decoder import SyndromeDecoder
from nbqc.harness import (DomainError, SimRecord, bdd_limit,
                          limit_point, main, record_csv_line, s2_limit,
                          shannon_limit, simulate_point, simulate_sweep,
                          trial_rng, verify_pair_files)

DATA = Path(__file__).parent / "data"

# frozen independent evaluations (30-digit root finds)
S2_ZERO = 0.110027864438359551          # root of 1 - 2 h(f)
SHANNON_THIRD = 0.0722357932154816416   # shannon(f) = 1/3


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


class TestSimulate:
    def test_zero_rate_is_error_free(self, golden_code):
        rec = simulate_point(golden_code, "C", 0.0, trials=50, seed=1)
        assert rec.bler == 0.0
        assert rec.block_errors == rec.fail_count == rec.mismatch_count == 0
        assert rec.mean_iterations == 0.0

    def test_counting_identity(self, golden_code):
        rec = simulate_point(golden_code, "C", 0.06, trials=200, seed=2)
        assert rec.block_errors == rec.fail_count + rec.mismatch_count
        assert rec.bler == rec.block_errors / rec.trials

    def test_worker_split_invariance(self, golden_code):
        serial = simulate_point(golden_code, "D", 0.04, trials=120, seed=3, workers=1)
        split = simulate_point(golden_code, "D", 0.04, trials=120, seed=3, workers=3)
        assert serial == split

    def test_syndrome_only_counting_never_higher(self, golden_code):
        strict = simulate_point(golden_code, "C", 0.05, trials=300, seed=4)
        relaxed = simulate_point(golden_code, "C", 0.05, trials=300, seed=4,
                                 count_syndrome_only=True)
        assert relaxed.mismatch_count == 0
        assert relaxed.block_errors <= strict.block_errors
        assert relaxed.fail_count == strict.fail_count

    def test_sweep_order(self, golden_code):
        records = simulate_sweep(golden_code, [0.01, 0.02], trials=10, seed=5)
        assert [(r.f_m, r.role) for r in records] == [
            (0.01, "C"), (0.01, "D"), (0.02, "C"), (0.02, "D")]

    def test_trial_rng_streams_differ(self):
        a = trial_rng(7, 0).random(4)
        b = trial_rng(7, 1).random(4)
        c = trial_rng(7, 0).random(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 7, 2**62, 2**64 + 5, 2**128 - 1])
    def test_trial_rng_is_philox_keyed_by_seed(self, seed):
        for t in (0, 1, 2**64 + 3):
            want = np.random.Generator(np.random.Philox(key=seed, counter=t << 128))
            got = trial_rng(seed, t)
            assert np.array_equal(got.random(6), want.random(6))
            assert np.array_equal(got.integers(0, 2**62, 6), want.integers(0, 2**62, 6))
            assert np.array_equal(got.random(5, dtype=np.float32),
                                  want.random(5, dtype=np.float32))

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (2**128, 0), (1 << 130, 3),
                                             (5, -1), (5, 2**128)])
    def test_trial_rng_rejects_out_of_range(self, seed, trial):
        with pytest.raises(ValueError):
            trial_rng(seed, trial)

    def test_simulation_draws_the_trial_rng_streams(self, golden_code):
        # the simulation re-seeks one generator; trial t must still see the
        # stream of Philox(key=seed, counter=t << 128)
        seed, f_m, trials = 2**64 + 5, 0.05, 30
        rec = simulate_point(golden_code, "C", f_m, trials=trials, seed=seed)
        dec = SyndromeDecoder(golden_code, "C")
        fails = iters = 0
        for t in range(trials):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=t << 128))
            err, _ = sample_error(golden_code.N, golden_code.field.p, ChannelParams(f_m), rng)
            out = dec.decode(syndrome_of(golden_code, "C", err), f_m)
            fails += not out.ok
            iters += out.iterations
        assert iters > trials
        assert rec.fail_count == fails and rec.mean_iterations == iters / trials
        with pytest.raises(ValueError):
            simulate_point(golden_code, "C", f_m, trials=3, seed=-1)

    def test_csv_line(self):
        rec = SimRecord(f_m=0.02, role="C", trials=1000, block_errors=13,
                        bler=0.013, mean_iterations=2.5, fail_count=11,
                        mismatch_count=2, seed=9)
        assert record_csv_line(rec) == "0.02,C,1000,13,0.013,2.5,11,2,9"


class TestVerify:
    def test_golden_pair_all_pass(self, golden_paths):
        checks = verify_pair_files(*golden_paths)
        assert all(ok for _, ok, _ in checks)
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

    def test_cross_seed_pair_fails(self, golden_paths, tmp_path):
        import numpy as np
        from nbqc.gf2p import make_field
        from nbqc.nblift import lift_gamma, solve_delta
        from nbqc.qcpair import QCParams, build_pair
        pair = build_pair(QCParams(P=7, J=2, L=6, sigma=2, tau=3))
        field = make_field(4)
        gamma = lift_gamma(pair, field, np.random.default_rng(1234))
        delta = solve_delta(gamma, pair)
        other = tmp_path / "other.delta.nbqc"
        write_matrix(delta, other)
        checks = dict((n, ok) for n, ok, _ in
                      verify_pair_files(golden_paths[0], str(other)))
        assert not checks["nonbinary_orthogonal"]

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
        checks = verify_pair_files(g, d)
        assert len(checks) == 10
        assert all(ok for _, ok, _ in checks), [n for n, ok, _ in checks if not ok]


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
    ])
    def test_limits_grid_rejects_bad_range(self, argv, capsys):
        assert main(["limits", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

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
