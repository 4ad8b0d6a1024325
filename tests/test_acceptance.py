"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved; without -s they appear in the captured output.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (CycleStructure, binary_orthogonal, closed_form_cycle, companion,
                     expand_binary, field_mul, rows_of, wht_convolve)
from nbqc.binexpand import expand_pair
from nbqc.channel import syndrome_of
from nbqc.decoder import DecoderConfig, SyndromeDecoder
from nbqc.gf2p import make_field
from nbqc.harness import main, s2_limit, shannon_limit, simulate_sweep
from nbqc.nblift import cycle_structure, lift, verify_orthogonal
from nbqc.qcpair import QCParams, build_pair

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
WORKERS = min(8, os.cpu_count() or 1)   # trial outcomes are split-invariant


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {detail}")


@pytest.fixture(scope="module")
def desk_code():
    """p=4, n=168 code on the (2, 6, 7) template, lift seed 26.

    This draw has no binary codeword light enough to out-weigh any
    single-symbol error, so exhaustive single-symbol recovery is exact.
    Such draws are common (tens of percent) but not universal.
    """
    pair = build_pair(EX1)
    field = make_field(4)
    return expand_pair(*lift(pair, field, np.random.default_rng(26), reject_trivial=True))


def test_c01_example_reproduction():
    t0 = time.perf_counter()
    pair = build_pair(EX1)
    assert pair.c.tolist() == [[1, 2, 4, 3, 6, 5], [4, 1, 2, 5, 3, 6]]
    assert pair.d.tolist() == [[4, 2, 1, 6, 3, 5], [1, 4, 2, 5, 6, 3]]
    hc, hd = pair.expand_c(), pair.expand_d()
    assert rows_of(hd)[5] == [2, 7, 20, 25, 29, 38]
    assert rows_of(hc)[0] == [1, 9, 18, 24, 34, 40]
    assert hc.nnz() == hd.nnz() == 84
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"exponent matrices and supports exact ({elapsed * 1e3:.0f} ms)")


def test_c02_orthogonality_suite():
    t0 = time.perf_counter()
    param_sets = [
        QCParams(P=7, J=2, L=6, sigma=2, tau=3),
        QCParams(P=7, J=2, L=6, sigma=4, tau=5),
        QCParams(P=13, J=2, L=6, sigma=3, tau=2),
        QCParams(P=5, J=2, L=4, sigma=4, tau=2),
    ]
    count = 0
    for params in param_sets:
        pair = build_pair(params)
        for p in (2, 4, 8):
            field = make_field(p)
            for seed in range(9):
                gamma, delta = lift(pair, field, np.random.default_rng(seed))
                assert verify_orthogonal(gamma, delta)
                expand_pair(gamma, delta)
                # the library checks GF(2^p) only; the expansion is checked here
                assert binary_orthogonal(expand_binary(gamma, False), expand_binary(delta, True))
                count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 100 and len(param_sets) >= 3
    assert elapsed < 60.0
    report(2, f"{count} constructions, {len(param_sets)} parameter sets, "
              f"p in (2,4,8), exact zero products ({elapsed:.1f} s)")


def test_c03_cycle_suite():
    pair = build_pair(EX1)
    hc, hd = pair.expand_c(), pair.expand_d()
    cycles = cycle_structure(hc, hd)
    for m_prime in range(14):
        cyc = CycleStructure.from_arrays(cycles, m_prime)
        assert len(cyc.n_seq) == len(set(cyc.n_seq)) == 6
        assert len(cyc.m_seq) == len(set(cyc.m_seq)) == 6
        support = set(rows_of(hd)[m_prime])
        brute = {(m, n) for m, row in enumerate(rows_of(hc))
                 for n in row if n in support}
        e1, e2 = set(cyc.e1()), set(cyc.e2())
        assert e1 | e2 == brute and not e1 & e2
        assert len(e1) == len(e2) == 6
    for m_prime in range(7):
        walk = CycleStructure.from_arrays(cycles, m_prime)
        closed = closed_form_cycle(EX1, m_prime)
        assert walk.n_seq == closed.n_seq and walk.m_seq == closed.m_seq
    obs = CycleStructure.from_arrays(cycles, 5)
    assert obs.n_seq == [2, 25, 7, 38, 20, 29]
    assert obs.m_seq == [1, 13, 5, 11, 2, 12]
    report(3, "all 14 rows walk a single 12-cycle; closed forms match "
              "for the upper half incl. row 5 reference values")


def test_c04_companion_suite():
    gf16 = make_field(4)
    comps = [companion(gf16, x) for x in range(16)]
    for x in range(16):
        for y in range(16):
            assert np.array_equal(comps[x] ^ comps[y], comps[x ^ y])
            assert np.array_equal(comps[x] @ comps[y] & 1, comps[field_mul(gf16, x, y)])
            vy = (y >> np.arange(4)) & 1
            out = int((comps[x] @ vy & 1) @ (1 << np.arange(4)))
            assert out == field_mul(gf16, x, y)
    gf256 = make_field(8)
    rng = np.random.default_rng(2024)
    cache = {}

    def comp(v):
        if v not in cache:
            cache[v] = companion(gf256, int(v))
        return cache[v]

    for x, y in zip(rng.integers(0, 256, 10_000), rng.integers(0, 256, 10_000)):
        assert np.array_equal(comp(x) ^ comp(y), comp(x ^ y))
        assert np.array_equal(comp(x) @ comp(y) & 1, comp(field_mul(gf256, x, y)))
    report(4, "GF(16) exhaustive (256 pairs) and GF(256) randomized "
              "(10^4 pairs) additivity/multiplicativity/action exact")


def test_c05_transform_oracle():
    def naive(msgs, shift):
        q = len(msgs[0])
        acc = np.zeros(q)
        acc[shift] = 1.0
        for msg in msgs:
            out = np.zeros(q)
            for e in range(q):
                for f in range(q):
                    out[e ^ f] += acc[e] * msg[f]
            acc = out
        return acc

    worst = 0.0
    for q in (4, 16, 64):
        rng = np.random.default_rng(q)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            msgs = []
            for _ in range(k):
                v = rng.random(q)
                msgs.append(v / v.sum())
            shift = int(rng.integers(0, q))
            err = np.abs(wht_convolve(msgs, shift) - naive(msgs, shift)).max()
            worst = max(worst, err)
    assert worst < 1e-12
    report(5, f"300 random convolutions, max abs deviation {worst:.2e}")


def test_c06_single_symbol_recovery(desk_code):
    t0 = time.perf_counter()
    code = desk_code
    q, N, M = code.field.q, code.N, code.M
    dec = SyndromeDecoder(code, "C")

    # independent oracle: enumerate every single-symbol candidate's syndrome
    candidates = []
    cand_syndromes = []
    for n in range(N):
        for v in range(1, q):
            e = np.zeros(N, dtype=np.int64)
            e[n] = v
            candidates.append((n, v))
            cand_syndromes.append(syndrome_of(code, "C", e))
    cand_syndromes = np.array(cand_syndromes)
    assert len(candidates) == 630

    config = DecoderConfig(max_iter=32)
    for idx, (n, v) in enumerate(candidates):
        s = cand_syndromes[idx]
        matches = np.flatnonzero((cand_syndromes == s).all(axis=1))
        assert matches.tolist() == [idx]     # unique ML preimage
        out = dec.decode(s, 0.01, config)
        assert out.ok
        expect = np.zeros(N, dtype=np.int64)
        expect[n] = v
        assert np.array_equal(out.estimate, expect)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"all 630 single-symbol patterns exactly recovered "
              f"({elapsed:.1f} s)")


def test_c07_monte_carlo_sanity():
    pair = build_pair(EX1)
    field = make_field(4)
    code = expand_pair(*lift(pair, field, np.random.default_rng(7), reject_trivial=True))

    for seed in (11, 12, 13):
        records = simulate_sweep(code, [0.02, 0.04], trials=1000, seed=seed,
                                 workers=WORKERS)
        for lo, hi in zip(records[:2], records[2:]):
            assert lo.role == hi.role and lo.bler < hi.bler

    rec_c, rec_d = simulate_sweep(code, [0.03], trials=10_000, seed=555, workers=WORKERS)

    def interval(rec):
        half = 1.96 * (rec.bler * (1 - rec.bler) / rec.trials) ** 0.5
        return rec.bler - half, rec.bler + half

    lo_c, hi_c = interval(rec_c)
    lo_d, hi_d = interval(rec_d)
    assert max(lo_c, lo_d) <= min(hi_c, hi_d)
    report(7, f"BLER monotone at 0.02 < 0.04 across 3 seeds; C/D 95% CIs "
              f"overlap at f_m=0.03 (C={rec_c.bler:.4f}, D={rec_d.bler:.4f})")


def test_c08_limit_curves():
    s2_zero = 0.110027864438359551
    shannon_third = 0.0722357932154816416

    def bisect(fn, lo, hi):
        for _ in range(200):
            mid = (lo + hi) / 2
            if fn(lo) * fn(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    root_s2 = bisect(s2_limit, 0.05, 0.2)
    root_sh = bisect(lambda f: shannon_limit(f) - 1 / 3, 0.01, 0.2)
    assert abs(root_s2 - s2_zero) < 1e-6
    assert abs(root_sh - shannon_third) < 1e-6
    report(8, f"S2 zero at {root_s2:.7f}, Shannon crossing of R_Q=1/3 at "
              f"{root_sh:.7f}, both within 1e-6 of frozen references")


def test_c09_complexity_scaling():
    pair = build_pair(EX1)
    ratios = {}
    for p in (4, 6, 8):
        field = make_field(p)
        code = expand_pair(*lift(pair, field, np.random.default_rng(2)))
        dec = SyndromeDecoder(code, "C")
        rng = np.random.default_rng(3)
        err = rng.integers(0, field.q, size=code.N)
        s = syndrome_of(code, "C", err)
        dec.decode(s, 0.01, DecoderConfig(max_iter=1))
        q = field.q
        ratios[q] = dec.op_count / (q * np.log2(q))
    c = np.mean(list(ratios.values()))
    dev = max(abs(r / c - 1) for r in ratios.values())
    assert dev < 0.25
    report(9, "per-iteration op counts at fixed N=42 fit c*q*log q "
              f"within {dev * 100:.1f}% over q in (16, 64, 256)")


def test_c10_determinism(tmp_path):
    csvs, files = [], []
    for tag in ("one", "two"):
        prefix = str(tmp_path / tag)
        main(["construct", "--p", "4", "--L", "6", "--P", "7", "--sigma", "2",
              "--tau", "3", "--seed", "99", "--out", prefix])
        out = str(tmp_path / f"{tag}.csv")
        main(["simulate", prefix + ".gamma.nbqc", prefix + ".delta.nbqc",
              "--fm", "0.02", "0.04", "--trials", "200", "--seed", "31",
              "--out", out])
        files.append((Path(prefix + ".gamma.nbqc").read_bytes(),
                      Path(prefix + ".delta.nbqc").read_bytes()))
        csvs.append(Path(out).read_bytes())
    assert files[0] == files[1]
    assert csvs[0] == csvs[1]
    report(10, "construct + simulate byte-identical across consecutive runs")
