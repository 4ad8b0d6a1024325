"""Sparse orthogonality checks and array expansion against test oracles.

The library joins nonzeros on their column instead of comparing every
pair of rows, and expands matrices in array steps instead of entry by
entry.  `oracles` keeps the direct formulations; every verdict and
every expanded row must match them, on orthogonal pairs and on pairs
broken by one bit or one entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nbqc.binexpand import _expand_binary, binary_orthogonal, expand_pair
from nbqc.gf2p import make_field
from nbqc.nblift import (DimensionMismatch, NBMatrix, lift_gamma, solve_delta,
                         verify_orthogonal)
from nbqc.qcpair import QCParams, SparseBinaryMatrix, build_pair

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
FIELDS = {p: make_field(p) for p in (2, 4, 8)}


def random_binary(rng, m, n, density) -> SparseBinaryMatrix:
    return SparseBinaryMatrix(m=m, n=n, rows=[
        np.flatnonzero(rng.random(n) < density).tolist() for _ in range(m)])


def random_nb(rng, field, m, n, density, role="GAMMA") -> NBMatrix:
    rows = []
    for _ in range(m):
        cols = np.flatnonzero(rng.random(n) < density).tolist()
        rows.append([(c, int(rng.integers(1, field.q))) for c in cols])
    return NBMatrix(m=m, n=n, role=role, field=field, params=EX1, rows=rows)


def lifted_pair(p, seed):
    pair = build_pair(EX1)
    gamma = lift_gamma(pair, FIELDS[p], np.random.default_rng(seed))
    return gamma, solve_delta(gamma, pair)


shapes = dict(seed=st.integers(0, 2 ** 32 - 1), m_a=st.integers(0, 7),
              m_b=st.integers(0, 7), n=st.integers(1, 10),
              density=st.sampled_from([0.1, 0.3, 0.6]))


@given(**shapes)
@settings(max_examples=150, deadline=None)
def test_binary_matches_oracle_on_random_matrices(seed, m_a, m_b, n, density):
    rng = np.random.default_rng(seed)
    a = random_binary(rng, m_a, n, density)
    b = random_binary(rng, m_b, n, density)
    assert binary_orthogonal(a, b) == oracles.binary_orthogonal(a, b)


@given(p=st.sampled_from([2, 4, 8]), **shapes)
@settings(max_examples=150, deadline=None)
def test_nonbinary_matches_oracle_on_random_matrices(p, seed, m_a, m_b, n, density):
    rng = np.random.default_rng(seed)
    gamma = random_nb(rng, FIELDS[p], m_a, n, density)
    delta = random_nb(rng, FIELDS[p], m_b, n, density, role="DELTA")
    assert verify_orthogonal(gamma, delta) == oracles.verify_orthogonal(gamma, delta)


@given(p=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 32 - 1),
       pick=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_lifted_pairs_and_single_changes(p, seed, pick):
    gamma, delta = lifted_pair(p, seed)
    field = FIELDS[p]
    assert verify_orthogonal(gamma, delta) and oracles.verify_orthogonal(gamma, delta)
    hc = _expand_binary(gamma, transpose=False)
    hd = _expand_binary(delta, transpose=True)
    assert binary_orthogonal(hc, hd) and oracles.binary_orthogonal(hc, hd)

    # one GF(2^p) entry of delta changed, possibly to 0
    rng = np.random.default_rng(pick)
    r = int(rng.integers(delta.m))
    k = int(rng.integers(len(delta.rows[r])))
    c, v = delta.rows[r][k]
    delta.rows[r][k] = (c, int((v + rng.integers(1, field.q)) % field.q))
    assert verify_orthogonal(gamma, delta) == oracles.verify_orthogonal(gamma, delta)
    assert not verify_orthogonal(gamma, delta)

    # one bit of the binary expansion flipped
    r = int(rng.integers(hd.m))
    col = int(rng.integers(hd.n))
    hd.rows[r] = sorted(set(hd.rows[r]) ^ {col})
    assert binary_orthogonal(hc, hd) == oracles.binary_orthogonal(hc, hd)


@given(seed=st.integers(0, 2 ** 32 - 1), overlap=st.sampled_from([1, 2, 3, 4, 5]))
@settings(max_examples=60, deadline=None)
def test_overlap_parity_decides_binary_verdict(seed, overlap):
    # one row pair sharing exactly `overlap` columns, every other pair disjoint
    rng = np.random.default_rng(seed)
    n = 16
    cols = rng.permutation(n)
    shared = cols[:overlap].tolist()
    a = SparseBinaryMatrix(m=2, n=n, rows=[sorted(shared + cols[overlap:8].tolist()), []])
    b = SparseBinaryMatrix(m=2, n=n, rows=[[], sorted(shared + cols[8:12].tolist())])
    assert binary_orthogonal(a, b) == (overlap % 2 == 0) == oracles.binary_orthogonal(a, b)


class TestEdgeCases:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_zero_rows_are_orthogonal(self, p):
        field = FIELDS[p]
        empty = NBMatrix(m=0, n=5, role="GAMMA", field=field, params=EX1, rows=[])
        full = random_nb(np.random.default_rng(p), field, 4, 5, 0.8)
        for g, d in ((empty, empty), (empty, full), (full, empty)):
            assert verify_orthogonal(g, d)
        bempty = SparseBinaryMatrix(m=0, n=5, rows=[])
        bfull = random_binary(np.random.default_rng(p), 4, 5, 0.8)
        for a, b in ((bempty, bempty), (bempty, bfull), (bfull, bempty)):
            assert binary_orthogonal(a, b)

    def test_disjoint_supports_are_orthogonal(self):
        field = FIELDS[4]
        gamma = NBMatrix(m=2, n=6, role="GAMMA", field=field, params=EX1,
                         rows=[[(0, 3), (1, 7)], [(2, 9)]])
        delta = NBMatrix(m=2, n=6, role="DELTA", field=field, params=EX1,
                         rows=[[(3, 5), (4, 1)], [(5, 2)]])
        assert verify_orthogonal(gamma, delta)
        assert binary_orthogonal(gamma.support(), delta.support())

    def test_column_count_mismatch(self):
        field = FIELDS[4]
        gamma = NBMatrix(m=1, n=6, role="GAMMA", field=field, params=EX1, rows=[[(0, 1)]])
        delta = NBMatrix(m=1, n=7, role="DELTA", field=field, params=EX1, rows=[[(0, 1)]])
        with pytest.raises(DimensionMismatch):
            verify_orthogonal(gamma, delta)
        with pytest.raises(DimensionMismatch):
            binary_orthogonal(gamma.support(), delta.support())


@given(p=st.sampled_from([2, 4, 8]), transpose=st.booleans(), reverse=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), m=st.integers(0, 6), n=st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_expand_binary_matches_per_entry_oracle(p, transpose, reverse, seed, m, n):
    mat = random_nb(np.random.default_rng(seed), FIELDS[p], m, n, 0.5)
    if reverse:         # the expanded rows come out sorted either way
        mat.rows = [row[::-1] for row in mat.rows]
    got = _expand_binary(mat, transpose)
    want = oracles.expand_binary(mat, transpose)
    assert (got.m, got.n) == (want.m, want.n)
    assert got.rows == want.rows


@pytest.mark.parametrize("p", [2, 4, 8])
def test_expand_pair_matches_oracle_on_lifted_pair(p):
    gamma, delta = lifted_pair(p, 100 + p)
    code = expand_pair(gamma, delta)
    assert code.hc.rows == oracles.expand_binary(gamma, False).rows
    assert code.hd.rows == oracles.expand_binary(delta, True).rows
