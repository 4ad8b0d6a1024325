"""Quasi-cyclic pair construction tests.

Orthogonality oracle: dense GF(2) matrix product via numpy.  The
reference exponent tables and support rows are the published (2, 6, 7)
instance with sigma=2, tau=3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nbqc.qcpair import (ExponentMatrix, InvalidParams, QCParams,
                         SparseBinaryMatrix, build_pair, expand, find_params,
                         has_4cycle, validate_params)
from oracles import format_exponents

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
EX1_C = [[1, 2, 4, 3, 6, 5], [4, 1, 2, 5, 3, 6]]
EX1_D = [[4, 2, 1, 6, 3, 5], [1, 4, 2, 5, 6, 3]]


def dense_product_mod2(a: SparseBinaryMatrix, b: SparseBinaryMatrix) -> np.ndarray:
    return a.to_dense().astype(np.int64) @ b.to_dense().astype(np.int64).T % 2


class TestValidate:
    def test_reference_params_ok(self):
        assert validate_params(EX1) == []

    def test_tau_in_orbit(self):
        violations = validate_params(QCParams(P=7, J=2, L=6, sigma=2, tau=4))
        assert "tau_in_sigma_orbit" in violations

    def test_order_equals_unit_group(self):
        violations = validate_params(QCParams(P=7, J=2, L=6, sigma=3, tau=5))
        assert "order_equals_unit_group" in violations

    def test_nonunit_sigma(self):
        violations = validate_params(QCParams(P=9, J=2, L=6, sigma=3, tau=2))
        assert "sigma_not_unit" in violations

    def test_one_minus_power_condition(self):
        # ord(4) = 3 in Z_9 but 1 - 4 = -3 shares a factor with 9
        violations = validate_params(QCParams(P=9, J=2, L=6, sigma=4, tau=2))
        assert "one_minus_sigma_power_not_unit" in violations

    def test_small_P(self):
        assert validate_params(QCParams(P=2, J=2, L=6, sigma=1, tau=1)) == [
            "P_not_greater_than_2"]


class TestBuildPair:
    def test_reference_exponents(self):
        pair = build_pair(EX1)
        assert pair.c.table.tolist() == EX1_C
        assert pair.d.table.tolist() == EX1_D

    def test_row_shift_structure(self):
        pair = build_pair(EX1)
        sigma_inv = pow(EX1.sigma, -1, EX1.P)
        for ell in range(EX1.L):
            assert pair.c.table[1, ell] == sigma_inv * pair.c.table[0, ell] % EX1.P

    def test_invalid_raises(self):
        with pytest.raises(InvalidParams):
            build_pair(QCParams(P=7, J=2, L=6, sigma=3, tau=5))

    def test_j_not_2_needs_override(self):
        params = QCParams(P=7, J=3, L=6, sigma=2, tau=3)
        with pytest.raises(InvalidParams):
            build_pair(params)
        pair = build_pair(params, allow_any_j=True)
        assert pair.c.table.shape == (3, 6)

    def test_deterministic(self):
        a, b = build_pair(EX1), build_pair(EX1)
        assert np.array_equal(a.c.table, b.c.table)
        assert np.array_equal(a.d.table, b.d.table)


class TestExpand:
    def test_identity_block(self):
        exp = ExponentMatrix(role="C", table=np.zeros((1, 1), dtype=np.int64))
        mat = expand(exp, 5)
        assert mat.rows == [[r] for r in range(5)]

    def test_reference_row5_support(self):
        hd = build_pair(EX1).expand_d()
        assert hd.rows[5] == [2, 7, 20, 25, 29, 38]

    def test_reference_hc_row0_support(self):
        hc = build_pair(EX1).expand_c()
        assert hc.rows[0] == [1, 9, 18, 24, 34, 40]

    def test_orthogonality_reference(self):
        pair = build_pair(EX1)
        assert not dense_product_mod2(pair.expand_c(), pair.expand_d()).any()

    def test_weights(self):
        pair = build_pair(EX1)
        for mat in (pair.expand_c(), pair.expand_d()):
            assert all(len(r) == EX1.L for r in mat.rows)
            assert all(len(c) == EX1.J for c in mat.col_supports())
            assert mat.nnz() == EX1.J * EX1.L * EX1.P


class TestFindParams:
    def test_L6_P7(self):
        found = find_params(6, [7])
        assert {(p.sigma, p.tau) for p in found} == {
            (s, t) for s in (2, 4) for t in (3, 5, 6)}

    def test_L6_P5_empty(self):
        assert find_params(6, [5]) == []

    def test_returned_params_validate(self):
        for params in find_params(8, range(3, 20)):
            assert validate_params(params) == []

    def test_bad_L(self):
        with pytest.raises(InvalidParams):
            find_params(5, [7])
        with pytest.raises(InvalidParams):
            find_params(2, [7])

    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_matches_scan_of_every_pair(self, L):
        assert find_params(L, range(3, 60)) == oracles.find_params(L, range(3, 60))

    def test_long_code_scan(self):
        # P=1249 (n=29976 at p=4): only the sigma of order 3 are scanned
        found = find_params(6, [1249])
        assert len(found) == 2490
        assert (found[0].sigma, found[0].tau) == (93, 2)
        assert all(validate_params(p) == [] for p in found[::97])


class TestHas4Cycle:
    def test_reference_pair_clean(self):
        pair = build_pair(EX1)
        assert not has_4cycle(pair.expand_c())
        assert not has_4cycle(pair.expand_d())

    def test_all_ones_2x2(self):
        assert has_4cycle(SparseBinaryMatrix(m=2, n=2, rows=[[0, 1], [0, 1]]))

    def test_single_shared_row_ok(self):
        assert not has_4cycle(SparseBinaryMatrix(m=2, n=2, rows=[[0, 1], [0]]))


@st.composite
def valid_params(draw):
    L = draw(st.sampled_from([4, 6, 8]))
    candidates = find_params(L, range(3, 24))
    if not candidates:
        raise AssertionError("parameter scan came up empty")
    return draw(st.sampled_from(candidates))


class TestProperties:
    @given(params=valid_params())
    @settings(max_examples=50, deadline=None)
    def test_expansion_orthogonal_and_4cycle_free(self, params):
        pair = build_pair(params)
        hc, hd = pair.expand_c(), pair.expand_d()
        assert not dense_product_mod2(hc, hd).any()
        assert not has_4cycle(hc)
        assert not has_4cycle(hd)
        assert all(len(r) == params.L for r in hc.rows)
        assert all(len(c) == params.J for c in hd.col_supports())


def test_format_exponents_mentions_blocks():
    text = format_exponents(build_pair(EX1))
    assert "I(1)" in text and "I(4)" in text
    assert text.count("\n") >= 3
