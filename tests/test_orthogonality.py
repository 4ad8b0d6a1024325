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
from nbqc import binexpand
from nbqc.binexpand import (OrthogonalityBroken, _expand_binary, binary_orthogonal,
                            expand_pair)
from nbqc.decoder import SyndromeDecoder
from nbqc.gf2p import make_field
from nbqc.nblift import DimensionMismatch, NBMatrix, lift, verify_orthogonal
from nbqc.qcpair import QCParams, SparseBinaryMatrix, _column_index, _column_join, build_pair

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
FIELDS = {p: make_field(p) for p in (2, 4, 8)}


def random_binary(rng, m, n, density) -> SparseBinaryMatrix:
    return oracles.from_rows(m, n, [
        np.flatnonzero(rng.random(n) < density).tolist() for _ in range(m)])


def random_nb(rng, field, m, n, density, role="GAMMA") -> NBMatrix:
    rows = []
    for _ in range(m):
        cols = np.flatnonzero(rng.random(n) < density).tolist()
        rows.append([(c, int(rng.integers(1, field.q))) for c in cols])
    return oracles.nb_from_rows(m, n, rows, role, field, EX1)


def lifted_pair(p, seed):
    pair = build_pair(EX1)
    return lift(pair, FIELDS[p], np.random.default_rng(seed))


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
    entries = np.flatnonzero(delta.row == r)
    k = entries[int(rng.integers(len(entries)))]
    v = int(delta.val[k])
    delta.val[k] = int((v + rng.integers(1, field.q)) % field.q)
    assert verify_orthogonal(gamma, delta) == oracles.verify_orthogonal(gamma, delta)
    assert not verify_orthogonal(gamma, delta)
    # and so over GF(2): verify reports the GF(2) verdict as the GF(2^p) one
    assert not binary_orthogonal(hc, _expand_binary(delta, transpose=True))

    # one bit of the binary expansion flipped
    r = int(rng.integers(hd.m))
    col = int(rng.integers(hd.n))
    rows = oracles.rows_of(hd)
    rows[r] = sorted(set(rows[r]) ^ {col})
    hd = oracles.from_rows(hd.m, hd.n, rows)
    assert binary_orthogonal(hc, hd) == oracles.binary_orthogonal(hc, hd)


@given(seed=st.integers(0, 2 ** 32 - 1), overlap=st.sampled_from([1, 2, 3, 4, 5]))
@settings(max_examples=60, deadline=None)
def test_overlap_parity_decides_binary_verdict(seed, overlap):
    # one row pair sharing exactly `overlap` columns, every other pair disjoint
    rng = np.random.default_rng(seed)
    n = 16
    cols = rng.permutation(n)
    shared = cols[:overlap].tolist()
    a = oracles.from_rows(2, n, [sorted(shared + cols[overlap:8].tolist()), []])
    b = oracles.from_rows(2, n, [[], sorted(shared + cols[8:12].tolist())])
    assert binary_orthogonal(a, b) == (overlap % 2 == 0) == oracles.binary_orthogonal(a, b)


column_lists = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), max_size=25),
    st.lists(st.integers(0, n - 1), max_size=25)))


@given(case=column_lists)
@settings(max_examples=200, deadline=None)
def test_column_index_counts_and_stable_order(case):
    n, cols, _ = case
    order, start = _column_index(np.array(cols, dtype=np.int64), n)
    assert start.tolist() == [0] + np.cumsum(np.bincount(cols, minlength=n)).tolist()
    assert order.tolist() == sorted(range(len(cols)), key=lambda k: cols[k])


@given(case=column_lists)
@settings(max_examples=200, deadline=None)
def test_column_join_lists_every_shared_column_pair(case):
    # arbitrary column lists: repeated and unsorted columns, empty columns,
    # columns that only one side uses, and empty sides
    n, cols_a, cols_b = case
    ia, ib = _column_join(np.array(cols_a, dtype=np.int64), np.array(cols_b, dtype=np.int64), n)
    assert list(zip(ia.tolist(), ib.tolist())) == oracles.column_join(cols_a, cols_b)


def doubled_pair(rng, m_a, m_b, k) -> tuple[SparseBinaryMatrix, SparseBinaryMatrix]:
    """An orthogonal pair: [X | X] and [Y | Y] with their 2k columns shuffled,
    so every row pair shares an even number of columns."""
    x = rng.random((m_a, k)) < 0.4
    y = rng.random((m_b, k)) < 0.4
    perm = rng.permutation(2 * k)
    a, b = np.hstack((x, x))[:, perm], np.hstack((y, y))[:, perm]
    return (oracles.from_rows(m_a, 2 * k, [np.flatnonzero(r).tolist() for r in a]),
            oracles.from_rows(m_b, 2 * k, [np.flatnonzero(r).tolist() for r in b]))


@given(seed=st.integers(0, 2 ** 32 - 1), m_a=st.integers(0, 8), m_b=st.integers(0, 8),
       k=st.integers(1, 8), flips=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_binary_matches_dense_product_on_orthogonal_and_broken_pairs(seed, m_a, m_b, k, flips):
    rng = np.random.default_rng(seed)
    a, b = doubled_pair(rng, m_a, m_b, k)
    assert binary_orthogonal(a, b) and not oracles.dense_mod2_product(a, b).any()
    # flipping bit (r, c) of a changes the product of row r with every row
    # of b that holds column c, unless a second flip undoes it
    rows = oracles.rows_of(a)
    for _ in range(flips if m_a else 0):
        r, c = int(rng.integers(m_a)), int(rng.integers(2 * k))
        rows[r] = sorted(set(rows[r]) ^ {c})
    a = oracles.from_rows(m_a, 2 * k, rows)
    assert binary_orthogonal(a, b) == (not oracles.dense_mod2_product(a, b).any())


class TestEdgeCases:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_zero_rows_are_orthogonal(self, p):
        field = FIELDS[p]
        empty = oracles.nb_from_rows(0, 5, [], "GAMMA", field, EX1)
        full = random_nb(np.random.default_rng(p), field, 4, 5, 0.8)
        for g, d in ((empty, empty), (empty, full), (full, empty)):
            assert verify_orthogonal(g, d)
        bempty = oracles.from_rows(0, 5, [])
        bfull = random_binary(np.random.default_rng(p), 4, 5, 0.8)
        for a, b in ((bempty, bempty), (bempty, bfull), (bfull, bempty)):
            assert binary_orthogonal(a, b)

    def test_rows_without_ones_are_orthogonal(self):
        nothing = oracles.from_rows(3, 5, [[], [], []])
        some = oracles.from_rows(2, 5, [[0, 4], [1]])
        for a, b in ((nothing, nothing), (nothing, some), (some, nothing)):
            assert binary_orthogonal(a, b)

    def test_columns_used_by_one_side_only(self):
        # columns 3 and 4 are a's alone, 0 is b's alone; the shared column 1
        # decides the verdict, and the empty column 2 adds nothing
        a = oracles.from_rows(2, 5, [[1, 3, 4], [3]])
        b = oracles.from_rows(2, 5, [[0], [0, 1]])
        assert not binary_orthogonal(a, b)
        assert binary_orthogonal(a, oracles.from_rows(2, 5, [[0], [0]]))
        for x, y in ((a, b), (b, a)):
            assert binary_orthogonal(x, y) == (not oracles.dense_mod2_product(x, y).any())

    def test_disjoint_supports_are_orthogonal(self):
        field = FIELDS[4]
        gamma = oracles.nb_from_rows(2, 6, [[(0, 3), (1, 7)], [(2, 9)]], "GAMMA", field, EX1)
        delta = oracles.nb_from_rows(2, 6, [[(3, 5), (4, 1)], [(5, 2)]], "DELTA", field, EX1)
        assert verify_orthogonal(gamma, delta)
        assert binary_orthogonal(gamma.support(), delta.support())

    def test_column_count_mismatch(self):
        field = FIELDS[4]
        gamma = oracles.nb_from_rows(1, 6, [[(0, 1)]], "GAMMA", field, EX1)
        delta = oracles.nb_from_rows(1, 7, [[(0, 1)]], "DELTA", field, EX1)
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
        mat = oracles.nb_from_rows(m, n, [row[::-1] for row in oracles.rows_of(mat)],
                                   "GAMMA", mat.field, EX1)
    got = _expand_binary(mat, transpose)
    want = oracles.expand_binary(mat, transpose)
    assert (got.m, got.n) == (want.m, want.n)
    assert oracles.rows_of(got) == oracles.rows_of(want)


@pytest.mark.parametrize("transpose", [False, True])
def test_expand_binary_of_unsorted_rows(transpose):
    # columns descend in row 0 and are shuffled in row 2; the expansion is
    # row-major with columns ascending all the same
    rows = [[(4, 3), (2, 7), (0, 1)], [], [(3, 9), (5, 2), (1, 14)]]
    mat = oracles.nb_from_rows(3, 6, rows, "GAMMA", FIELDS[4], EX1)
    got = _expand_binary(mat, transpose)
    assert oracles.rows_of(got) == oracles.rows_of(oracles.expand_binary(mat, transpose))
    assert np.all(np.diff(got.row * got.n + got.col) > 0)


@pytest.mark.parametrize("p", [2, 4, 8])
def test_expand_pair_matches_oracle_on_lifted_pair(p, monkeypatch):
    expansions = []

    def counted(mat, transpose):
        expansions.append(transpose)
        return _expand_binary(mat, transpose)

    monkeypatch.setattr(binexpand, "_expand_binary", counted)
    gamma, delta = lifted_pair(p, 100 + p)
    code = expand_pair(gamma, delta)
    # the binary matrices are built on first use: neither expand_pair nor
    # decoding builds them
    for role in "CD":
        SyndromeDecoder(code, role).decode(np.ones(code.M, dtype=np.int64), 0.05)
    assert expansions == []
    hc = code.hc
    assert expansions == [False, True]          # both at once, on the first read
    hd = code.hd
    assert oracles.rows_of(hc) == oracles.rows_of(oracles.expand_binary(gamma, False))
    assert oracles.rows_of(hd) == oracles.rows_of(oracles.expand_binary(delta, True))
    assert code.hc is hc and code.hd is hd and len(expansions) == 2   # then kept


def test_broken_expansion_raises_on_first_read(monkeypatch):
    # one one of Hd dropped: its row's product with each row of Hc that
    # holds that column becomes odd
    def drop_first_one_of_hd(mat, transpose):
        h = _expand_binary(mat, transpose)
        first = 1 if transpose else 0
        return SparseBinaryMatrix(m=h.m, n=h.n, row=h.row[first:], col=h.col[first:])

    monkeypatch.setattr(binexpand, "_expand_binary", drop_first_one_of_hd)
    code = expand_pair(*lifted_pair(4, 3))
    with pytest.raises(OrthogonalityBroken):
        code.hc
    with pytest.raises(OrthogonalityBroken):
        code.hd
