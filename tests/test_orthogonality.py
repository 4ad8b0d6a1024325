"""Sparse orthogonality checks against test oracles, and the GF(2) gate.

The library joins nonzeros on their column instead of comparing every
pair of rows.  `oracles` keeps the direct formulation; every verdict
must match it, on orthogonal pairs and on pairs broken by one entry.
The library checks the pair over GF(2^p) only; the binary expansion,
built entry by entry by `oracles.expand_binary`, is checked over GF(2)
here, on lifted pairs and on pairs broken by one entry or one bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nbqc.gf2p import make_field
from nbqc.nblift import DimensionMismatch, NBMatrix, lift, verify_orthogonal
from nbqc.qcpair import QCParams, _column_index, _column_join, build_pair

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
FIELDS = {p: make_field(p) for p in (2, 4, 8)}


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
    hc = oracles.expand_binary(gamma, transpose=False)
    hd = oracles.expand_binary(delta, transpose=True)
    assert oracles.binary_orthogonal(hc, hd)

    # one GF(2^p) entry of delta changed; a change to 0 removes it from the support
    rng = np.random.default_rng(pick)
    r = int(rng.integers(delta.m))
    rows = oracles.rows_of(delta)
    j = int(rng.integers(len(rows[r])))
    col, v = rows[r][j]
    w = int((v + rng.integers(1, field.q)) % field.q)
    rows[r][j:j + 1] = [(col, w)] if w else []
    delta = oracles.nb_from_rows(delta.m, delta.n, rows, "DELTA", field, delta.params)
    assert verify_orthogonal(gamma, delta) == oracles.verify_orthogonal(gamma, delta)
    assert not verify_orthogonal(gamma, delta)
    # and so over GF(2): verify reports the GF(2) verdict as the GF(2^p) one
    assert not oracles.binary_orthogonal(hc, oracles.expand_binary(delta, transpose=True))

    # one bit of the binary expansion flipped: every column of hc holds a
    # one (each entry's image is invertible), so some product turns odd
    r = int(rng.integers(hd.m))
    col = int(rng.integers(hd.n))
    rows = oracles.rows_of(hd)
    rows[r] = sorted(set(rows[r]) ^ {col})
    hd = oracles.from_rows(hd.m, hd.n, rows)
    assert not oracles.binary_orthogonal(hc, hd)
    assert oracles.dense_mod2_product(hc, hd).any()


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


class TestEdgeCases:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_zero_rows_are_orthogonal(self, p):
        field = FIELDS[p]
        empty = oracles.nb_from_rows(0, 5, [], "GAMMA", field, EX1)
        full = random_nb(np.random.default_rng(p), field, 4, 5, 0.8)
        for g, d in ((empty, empty), (empty, full), (full, empty)):
            assert verify_orthogonal(g, d)

    def test_columns_used_by_one_side_only(self):
        # columns 3 and 4 are gamma's alone, 0 is delta's alone; the shared
        # column 1 decides the verdict, and the empty column 2 adds nothing
        field = FIELDS[4]
        gamma = oracles.nb_from_rows(2, 5, [[(1, 6), (3, 2), (4, 9)], [(3, 5)]],
                                     "GAMMA", field, EX1)
        delta = oracles.nb_from_rows(2, 5, [[(0, 7)], [(0, 3), (1, 11)]], "DELTA", field, EX1)
        other = oracles.nb_from_rows(2, 5, [[(0, 7)], [(0, 3)]], "DELTA", field, EX1)
        assert not verify_orthogonal(gamma, delta)
        assert verify_orthogonal(gamma, other)
        for g, d in ((gamma, delta), (delta, gamma), (gamma, other), (other, gamma)):
            assert verify_orthogonal(g, d) == oracles.verify_orthogonal(g, d)

    def test_disjoint_supports_are_orthogonal(self):
        field = FIELDS[4]
        gamma = oracles.nb_from_rows(2, 6, [[(0, 3), (1, 7)], [(2, 9)]], "GAMMA", field, EX1)
        delta = oracles.nb_from_rows(2, 6, [[(3, 5), (4, 1)], [(5, 2)]], "DELTA", field, EX1)
        assert verify_orthogonal(gamma, delta)

    def test_column_count_mismatch(self):
        field = FIELDS[4]
        gamma = oracles.nb_from_rows(1, 6, [[(0, 1)]], "GAMMA", field, EX1)
        delta = oracles.nb_from_rows(1, 7, [[(0, 1)]], "DELTA", field, EX1)
        with pytest.raises(DimensionMismatch):
            verify_orthogonal(gamma, delta)
